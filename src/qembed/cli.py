"""Command-line front end.

Subcommands: embed, distance, width, min-m, quasi-isometry,
consistency-width, and the check subcommands counterexamples, lemmas,
combinatorics and selftest, which run acceptance criteria of `selftest`.

Each subcommand takes exactly the flags its computation reads, and the
config keys that stand in for those flags; any other flag or key exits 2.

Exit codes: 0 pass, 1 verdict fail, 2 usage or config error. All randomness
flows from --seed (or the QEMBED_SEED environment variable, default 0).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import distances, ensembles, experiments, geometry, quantizer, selftest
from .ensembles import InvalidArgument

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


def read_vectors(path: str) -> list[np.ndarray]:
    """Whitespace-separated reals, one vector per line, all of one length."""
    out = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            vec = np.array([float(tok) for tok in line.split()], dtype=np.float64)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if out and len(vec) != len(out[0]):
            raise ConfigError(f"{path}:{lineno}: expected {len(out[0])} values, got {len(vec)}")
        out.append(vec)
    return out


# each set kind's constructor, and by parameter (lower-cased as in
# sparse:N=64,K=4,d=1) its constructor keyword, conversion and default, or
# None when the parameter is required
RADIUS = ("radius", float, 1.0)
SET_KINDS = {
    "sparse": (geometry.SparseBall, {"n": ("n", int, None), "k": ("k", int, None), "d": RADIUS}),
    "ball": (geometry.EuclideanBall, {"n": ("n", int, None), "d": RADIUS}),
    "lowrank": (geometry.LowRankBall, {"n1": ("n1", int, None), "n2": ("n2", int, None),
                                       "r": ("r", int, None), "d": RADIUS}),
    "mesh": (geometry.ball_mesh, {"n": ("n", int, 3), "h": ("h", float, 0.3), "d": RADIUS}),
    "finite": (lambda path: geometry.FiniteSet(points=np.asarray(read_vectors(path))),
               {"file": ("path", str, None)}),
}


def parse_set_spec(text) -> geometry.SetSpec:
    """Parse e.g. sparse:N=64,K=4,d=1 or ball:N=3,d=1 or mesh:N=3,h=0.3."""
    if not text:
        raise ConfigError("no set given: pass --set or a [set] config section")
    kind, _, rest = text.partition(":")
    if kind not in SET_KINDS:
        raise ConfigError(f"unknown set kind {kind!r}")
    make, params = SET_KINDS[kind]
    kv = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ConfigError(f"bad set parameter {item!r}")
            k, _, v = item.partition("=")
            kv[k.strip().lower()] = v.strip()
    unread = sorted(set(kv) - set(params))
    if unread:
        raise ConfigError(f"set kind {kind!r} takes no parameter {', '.join(unread)}")
    for name, (_, _, default) in params.items():
        if default is None and name not in kv:
            raise ConfigError(f"set kind {kind!r} is missing parameter {name!r}")
    try:
        return make(**{key: conv(kv[name]) if name in kv else default
                       for name, (key, conv, default) in params.items()})
    except ValueError as exc:
        raise ConfigError(f"bad set parameter in {text!r}: {exc}") from exc


# the acceptance criteria each check subcommand runs; None runs them all
COUNTEREXAMPLES = {"no-dither": (8,), "section2-floor": (7,)}
CHECKS = {"selftest": None, "lemmas": (12, 15, 16), "combinatorics": (9,)}

# the min-m kinds that use the closed-form width bound: they draw nothing, so
# an explicit seed would be inert
UNSEEDED_KINDS = ("embed-structured", "width-structured")

# pairs (rays) per sweep trial unless --pairs or [sweep] pairs says otherwise
DEFAULT_PAIRS = 200

# every flag's add_argument keywords, built-in default included, and the
# config (section, key) that stands in for it; the [set] keys assemble into a
# --set string. --seed has no default, so that QEMBED_SEED comes after the file,
# and --pairs none, so that a consistency sweep over a finite set can refuse it.
FLAGS = {
    "--config": (dict(), None),
    "--seed": (dict(type=int), ("experiment", "seed")),
    "--out": (dict(default="."), ("experiment", "out")),
    "--jobs": (dict(type=int, default=1), ("experiment", "jobs")),
    "--scale": (dict(choices=[selftest.FULL, selftest.QUICK], default=selftest.FULL),
                ("experiment", "scale")),
    "--ensemble": (dict(choices=list(ensembles.KINDS), default="gaussian"), ("ensemble", "kind")),
    "--kappa": (dict(choices=list(ensembles.KAPPA_SOURCES), default="generic-bound"),
                ("ensemble", "kappa")),
    "--delta": (dict(type=float, default=1.0), ("quantizer", "delta")),
    "--variant": (dict(choices=list(quantizer.VARIANTS), default="floor"),
                  ("quantizer", "variant")),
    "--no-dither": (dict(action="store_true"), ("quantizer", "dithered")),
    "--set": (dict(dest="set_spec"), None),
    "--m": (dict(type=int, required=True), None),
    "--in": (dict(dest="infile", required=True), None),
    "--t": (dict(type=float, nargs="*", default=[]), None),
    "--draws": (dict(type=int, default=8192), None),
    "--kind": (dict(required=True, choices=list(geometry.MINIMAL_M_KINDS)), None),
    "--eps": (dict(type=float, required=True), None),
    "--c": (dict(type=float, default=1.0), None),
    "--m-grid": (dict(default="128,256,512,1024,2048,4096,8192"), ("sweep", "m_grid")),
    "--pairs": (dict(type=int), ("sweep", "pairs")),
    "--trials": (dict(type=int, default=20), ("sweep", "trials")),
    "--k0": (dict(type=float, default=1.0), ("sweep", "k0")),
    "--slope-band": (dict(help="lo,hi acceptance band for the fitted slope"), None),
    "--which": (dict(required=True, choices=list(COUNTEREXAMPLES)), None),
}

CONFIG_KEYS = {key: flag for flag, (_, key) in FLAGS.items() if key}
CONFIG_SCHEMA = {sec: {k for s, k in CONFIG_KEYS if s == sec} for sec, _ in CONFIG_KEYS}
CONFIG_SCHEMA["set"] = {"kind"}.union(*(params for _, params in SET_KINDS.values()))

# the words a boolean config key takes, in any case
BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def parse_config(path: str) -> dict:
    """Parse the flat config format; unknown sections or keys and a key given
    twice in one section are hard errors."""
    values: dict[str, dict[str, str]] = {}
    section = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            values.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice in [{section}]")
        values[section][key] = val.strip()
    return values


def _config_value(kw: dict, text: str):
    """A config value as its flag would take it: through the flag's type and
    choices. The key of a store_true flag names its opposite (dithered = no
    sets --no-dither)."""
    if kw.get("action") == "store_true":
        if text.lower() not in BOOLEANS:
            raise ValueError(f"expected one of {'/'.join(BOOLEANS)}, got {text!r}")
        return not BOOLEANS[text.lower()]
    value = kw.get("type", str)(text)
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(kw['choices'])})")
    return value


def _parse_list(text: str, conv, flag: str) -> tuple:
    try:
        return tuple(conv(tok) for tok in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: expected comma-separated numbers") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    """Overwrite path in place: open without O_TRUNC, write, then cut the file
    at the written length. Truncating a file's allocated blocks at open stalls
    the open on ext4 (tens of ms per file), and a rerun into the same --out
    would pay that for every output. Not atomic, and not fsynced."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def _qmap(args, n: int):
    return quantizer.make_map(ensembles.make_ensemble(args.ensemble), args.m, n,
                              args.delta, np.random.SeedSequence(args.seed),
                              dithered=not args.no_dither, variant=args.variant)


def cmd_embed(args) -> int:
    vecs = read_vectors(args.infile)
    if not vecs:
        raise ConfigError("no input vectors")
    qmap = _qmap(args, len(vecs[0]))
    codes = quantizer.apply_many(qmap, np.column_stack(vecs))
    sys.stdout.write(quantizer.serialize_codes(codes.T))
    return EXIT_PASS


def cmd_distance(args) -> int:
    vecs = read_vectors(args.infile)
    if len(vecs) < 2 or len(vecs) % 2 != 0:
        raise ConfigError("distance needs an even number of input vectors (pairs)")
    qmap = _qmap(args, len(vecs[0]))
    for x, y in zip(vecs[0::2], vecs[1::2]):
        d = distances.pseudo_distance(qmap, x, y)
        soft = distances.soft_pseudo_distance(qmap, x, y, args.t)
        print(" ".join(f"{v:.12g}" for v in (d, *soft)))
    return EXIT_PASS


def cmd_width(args) -> int:
    spec = parse_set_spec(args.set_spec)
    est = geometry.width_estimate(spec, args.draws, np.random.SeedSequence(args.seed))
    d = geometry.diameter(spec)
    n = geometry.ambient_dim(spec)
    lower = ensembles.SQRT_2_OVER_PI * d
    upper = math.sqrt(n) * d
    ok = lower <= est.mean + 3 * est.stderr and est.mean <= upper + 3 * est.stderr
    print(f"width {est.mean:.6g} stderr {est.stderr:.3g} draws {est.draws} "
          f"diameter-link {'pass' if ok else 'fail'}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_min_m(args) -> int:
    spec = parse_set_spec(args.set_spec)
    m = geometry.minimal_m(spec, args.kind, args.eps, args.delta, args.c,
                           seed=np.random.SeedSequence(args.seed))
    print(m)
    return EXIT_PASS


def cmd_sweep(args) -> int:
    which = args.command
    spec = parse_set_spec(args.set_spec)
    grid = _parse_list(args.m_grid, int, "--m-grid")
    pairs = args.pairs
    if pairs is None:
        pairs = DEFAULT_PAIRS
    elif which == "consistency-width" and isinstance(spec, geometry.FiniteSet):
        raise ConfigError("consistency-width measures every point of a finite set: "
                          "it takes no --pairs or [sweep] pairs there")
    # consistency-width takes no --kappa: its statistic has no allowance
    ensemble = ensembles.make_ensemble(args.ensemble, *([args.kappa] if "kappa" in args else []))
    plan = experiments.TrialPlan(set_spec=spec, delta=args.delta, m_grid=grid, ensemble=ensemble,
                                 pairs_per_m=pairs, trials_per_m=args.trials,
                                 k0=args.k0, master_seed=args.seed)
    band = None
    if args.slope_band:
        band = _parse_list(args.slope_band, float, "--slope-band")
        if len(band) != 2 or not -math.inf < band[0] < band[1] < math.inf:
            raise ConfigError(f"bad --slope-band {args.slope_band!r}: expected finite lo < hi")
    fn = experiments.quasi_isometry_sweep if which == "quasi-isometry" else experiments.consistency_width_sweep
    res = fn(plan, slope_band=band, jobs=args.jobs)
    out = _out_dir(args)
    _write(out / f"{which}.csv", experiments.rows_to_csv(res.rows))
    _write(out / f"{which}-summary.csv",
           experiments.summary_to_csv([(which, res.slope, res.slope_stderr, res.verdict)]))
    _write(out / f"{which}.dat", experiments.gnuplot_data(res))
    slope_txt = "n/a" if res.slope is None else f"{res.slope:.4f}"
    print(f"{which}: slope {slope_txt} stderr "
          f"{res.slope_stderr if res.slope_stderr is None else round(res.slope_stderr, 4)} "
          f"censored {res.censored_total} verdict "
          f"{'pass' if res.verdict else 'info' if res.verdict is None else 'fail'}")
    return EXIT_PASS if res.verdict is None or res.verdict else EXIT_FAIL


def cmd_checks(args) -> int:
    cids = CHECKS[args.command] if args.command in CHECKS else COUNTEREXAMPLES[args.which]
    # combinatorics takes no --seed (criterion 9 draws nothing), and only
    # selftest runs the sweeps that --jobs fans out
    results, summary = selftest.run_selftest(seed=getattr(args, "seed", 0),
                                             jobs=getattr(args, "jobs", 1),
                                             scale=args.scale, cids=cids)
    _write(_out_dir(args) / f"{args.command}-summary.csv", summary)
    passed = sum(r.passed for r in results)
    print(f"{args.command}: {passed}/{len(results)} criteria pass")
    return EXIT_PASS if passed == len(results) else EXIT_FAIL


MAP = ("--seed", "--ensemble", "--delta", "--variant", "--no-dither")
SWEEP = ("--seed", "--out", "--jobs", "--ensemble", "--delta", "--set", "--m-grid", "--pairs",
         "--trials", "--k0", "--slope-band")

# each subcommand's help line, the flags its computation reads and its
# handler; every subcommand also takes --config
SUBCOMMANDS = {
    "embed": ("print codes for input vectors", (*MAP, "--m", "--in"), cmd_embed),
    "distance": ("pseudo-distances for vector pairs", (*MAP, "--m", "--in", "--t"),
                 cmd_distance),
    "width": ("Gaussian mean width of a set", ("--seed", "--set", "--draws"), cmd_width),
    "min-m": ("minimal measurement count",
              ("--seed", "--set", "--delta", "--kind", "--eps", "--c"), cmd_min_m),
    # only the quasi-isometry allowance kappa / sqrt(k0) reads kappa
    "quasi-isometry": ("distortion decay sweep", (*SWEEP, "--kappa"), cmd_sweep),
    "consistency-width": ("consistency width sweep", SWEEP, cmd_sweep),
    "counterexamples": ("criterion 8 (no-dither) or 7 (section2-floor)",
                        ("--seed", "--out", "--scale", "--which"), cmd_checks),
    "lemmas": ("criteria 12, 15 and 16", ("--seed", "--out", "--scale"), cmd_checks),
    "combinatorics": ("criterion 9", ("--out", "--scale"), cmd_checks),
    "selftest": ("run the acceptance suite", ("--seed", "--out", "--jobs", "--scale"),
                 cmd_checks),
}


def _parsers():
    """The qembed parser and, by name, its subcommand parsers."""
    p = argparse.ArgumentParser(prog="qembed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in ("--config", *flags):
            sp.add_argument(flag, **FLAGS[flag][0])
    return p, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def parse_args(argv=None) -> argparse.Namespace:
    """Resolve the flags: an explicit flag, else the config file, else the
    built-in default (for --seed, QEMBED_SEED, else 0).

    The config file becomes the subcommand parser's defaults and argv is
    parsed again, so argparse itself applies that order. A config key stands
    in for its flag, so a key whose flag the subcommand does not take is an
    error.
    """
    parser, subparsers = _parsers()
    args = parser.parse_args(argv)
    cfg = parse_config(args.config) if args.config else {}
    defaults = {}
    for section, keys in cfg.items():
        for key, text in keys.items():
            flag = "--set" if section == "set" else CONFIG_KEYS[section, key]
            if flag not in SUBCOMMANDS[args.command][1]:
                raise ConfigError(f"{args.config}: {args.command} takes no [{section}] {key}")
            kw = FLAGS[flag][0]
            try:
                if section != "set":
                    defaults[kw.get("dest", flag[2:].replace("-", "_"))] = _config_value(kw, text)
            except ValueError as exc:
                raise ConfigError(f"{args.config}: bad [{section}] {key}: {exc}") from exc
    st = cfg.get("set", {})
    if st:
        if "kind" not in st:
            raise ConfigError("[set] section needs a kind")
        parts = ",".join(f"{k}={v}" for k, v in st.items() if k != "kind")
        defaults["set_spec"] = f"{st['kind']}:{parts}" if parts else st["kind"]
    if defaults:
        subparsers[args.command].set_defaults(**defaults)
        args = parser.parse_args(argv)
    if getattr(args, "kind", None) in UNSEEDED_KINDS and args.seed is not None:
        raise ConfigError(f"min-m --kind {args.kind} draws nothing: it takes no --seed "
                          "or [experiment] seed")
    if getattr(args, "seed", 0) is None:
        env = os.environ.get("QEMBED_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"QEMBED_SEED must be an integer, got {env!r}") from exc
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return SUBCOMMANDS[args.command][2](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (ConfigError, InvalidArgument, OSError, experiments.SetFilterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
