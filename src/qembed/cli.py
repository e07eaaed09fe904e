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


# --- config file: flat key=value with [section] headers ---

# the parameters each set kind reads, lower-cased as in sparse:N=64,K=4,d=1
SET_PARAMS = {
    "sparse": {"n", "k", "d"},
    "ball": {"n", "d"},
    "lowrank": {"n1", "n2", "r", "d"},
    "mesh": {"n", "h", "d"},
    "finite": {"file"},
}

# (section, key) -> (flag attribute, conversion) for every config key that
# stands in for a flag; [set] keys are assembled into a --set string instead
CONFIG_FLAGS = {
    ("experiment", "seed"): ("seed", int),
    ("experiment", "out"): ("out", str),
    ("experiment", "jobs"): ("jobs", int),
    ("experiment", "scale"): ("scale", str),
    ("ensemble", "kind"): ("ensemble", str),
    ("ensemble", "kappa"): ("kappa", str),
    ("quantizer", "delta"): ("delta", float),
    ("quantizer", "variant"): ("variant", str),
    ("quantizer", "dithered"): ("no_dither", lambda v: v.lower() in ("0", "false", "no")),
    ("sweep", "m_grid"): ("m_grid", str),
    ("sweep", "pairs"): ("pairs", int),
    ("sweep", "trials"): ("trials", int),
    ("sweep", "k0"): ("k0", float),
}

CONFIG_SCHEMA = {section: {k for s, k in CONFIG_FLAGS if s == section}
                 for section, _ in CONFIG_FLAGS}
CONFIG_SCHEMA["set"] = {"kind"}.union(*SET_PARAMS.values())

# defaults of the flags a config file can set, filled in after the merge so
# that an explicit flag beats the file even when it equals its default
FLAG_DEFAULTS = {
    "out": ".", "jobs": 1, "scale": "full", "ensemble": "gaussian", "kappa": "default",
    "delta": 1.0, "variant": "floor", "no_dither": False,
    "m_grid": "128,256,512,1024,2048,4096,8192", "pairs": 200, "trials": 20, "k0": 1.0,
}


def parse_config(path: str) -> dict:
    """Parse the flat config format; unknown sections or keys are hard errors."""
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
        values[section][key] = val.strip()
    return values


def parse_set_spec(text) -> geometry.SetSpec:
    """Parse e.g. sparse:N=64,K=4,d=1 or ball:N=3,d=1 or mesh:N=3,h=0.3."""
    if not text:
        raise ConfigError("no set given: pass --set or a [set] config section")
    kind, _, rest = text.partition(":")
    if kind not in SET_PARAMS:
        raise ConfigError(f"unknown set kind {kind!r}")
    kv = {}
    if rest:
        for item in rest.split(","):
            if "=" not in item:
                raise ConfigError(f"bad set parameter {item!r}")
            k, _, v = item.partition("=")
            kv[k.strip().lower()] = v.strip()
    unread = sorted(set(kv) - SET_PARAMS[kind])
    if unread:
        raise ConfigError(f"set kind {kind!r} takes no parameter {', '.join(unread)}")
    try:
        if kind == "sparse":
            return geometry.SparseBall(n=int(kv["n"]), k=int(kv["k"]),
                                       radius=float(kv.get("d", 1.0)))
        if kind == "ball":
            return geometry.EuclideanBall(n=int(kv["n"]), radius=float(kv.get("d", 1.0)))
        if kind == "lowrank":
            return geometry.LowRankBall(n1=int(kv["n1"]), n2=int(kv["n2"]),
                                        r=int(kv["r"]), radius=float(kv.get("d", 1.0)))
        if kind == "mesh":
            return geometry.ball_mesh(int(kv.get("n", 3)), float(kv.get("h", 0.3)),
                                      float(kv.get("d", 1.0)))
        if kind == "finite":
            pts = read_vectors(kv["file"])
            return geometry.FiniteSet(points=np.asarray(pts))
    except KeyError as exc:
        raise ConfigError(f"set kind {kind!r} is missing parameter {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad set parameter in {text!r}: {exc}") from exc


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


def _default_seed() -> int:
    env = os.environ.get("QEMBED_SEED")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise ConfigError(f"QEMBED_SEED must be an integer, got {env!r}") from exc


# the acceptance criteria each check subcommand runs; None runs them all
COUNTEREXAMPLES = {"no-dither": (8,), "section2-floor": (7,)}
CHECKS = {"selftest": None, "lemmas": (12, 15, 16), "combinatorics": (9,)}

# add_argument keywords of every flag; a flag that a config key can set has
# no default here, so that _merge_config can tell it was not given
FLAGS = {
    "--config": dict(),
    "--seed": dict(type=int),
    "--out": dict(),
    "--jobs": dict(type=int),
    "--scale": dict(choices=[selftest.FULL, selftest.QUICK]),
    "--ensemble": dict(choices=list(ensembles.KINDS)),
    "--kappa": dict(),
    "--delta": dict(type=float),
    "--variant": dict(choices=list(quantizer.VARIANTS)),
    "--no-dither": dict(action="store_true", default=None),
    "--set": dict(dest="set_spec"),
    "--m": dict(type=int, required=True),
    "--in": dict(dest="infile", required=True),
    "--t": dict(type=float, nargs="*", default=[]),
    "--draws": dict(type=int, default=8192),
    "--kind": dict(required=True, choices=list(geometry.MINIMAL_M_KINDS)),
    "--eps": dict(type=float, required=True),
    "--c": dict(type=float, default=1.0),
    "--m-grid": dict(),
    "--pairs": dict(type=int),
    "--trials": dict(type=int),
    "--k0": dict(type=float),
    "--slope-band": dict(help="lo,hi acceptance band for the fitted slope"),
    "--which": dict(required=True, choices=list(COUNTEREXAMPLES)),
}

MAP = ("--seed", "--ensemble", "--kappa", "--delta", "--variant", "--no-dither")
SWEEP = ("--seed", "--out", "--jobs", "--ensemble", "--kappa", "--delta", "--set",
         "--m-grid", "--pairs", "--trials", "--k0", "--slope-band")

# each subcommand's help line and the flags its computation reads; every
# subcommand also takes --config
SUBCOMMANDS = {
    "embed": ("print codes for input vectors", (*MAP, "--m", "--in")),
    "distance": ("pseudo-distances for vector pairs", (*MAP, "--m", "--in", "--t")),
    "width": ("Gaussian mean width of a set", ("--seed", "--set", "--draws")),
    "min-m": ("minimal measurement count",
              ("--seed", "--set", "--delta", "--kind", "--eps", "--c")),
    "quasi-isometry": ("distortion decay sweep", SWEEP),
    "consistency-width": ("consistency width sweep", SWEEP),
    "counterexamples": ("criterion 8 (no-dither) or 7 (section2-floor)",
                        ("--seed", "--out", "--scale", "--which")),
    "lemmas": ("criteria 12, 15 and 16", ("--seed", "--out", "--scale")),
    "combinatorics": ("criterion 9", ("--out", "--scale")),
    "selftest": ("run the acceptance suite", ("--seed", "--out", "--jobs", "--scale")),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qembed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in ("--config", *flags):
            sp.add_argument(flag, **FLAGS[flag])
    return p


def _merge_config(args) -> None:
    """Resolve the flags: an explicit flag, else the config file, else the default.

    A config key stands in for its flag, so a key whose flag the subcommand
    does not take is an error.
    """
    cfg = parse_config(args.config) if args.config else {}
    for section, keys in cfg.items():
        for key, val in keys.items():
            attr, conv = ("set_spec", None) if section == "set" else CONFIG_FLAGS[section, key]
            if attr not in vars(args):
                raise ConfigError(f"{args.config}: {args.command} takes no [{section}] {key}")
            if conv is not None and getattr(args, attr) is None:
                try:
                    setattr(args, attr, conv(val))
                except ValueError as exc:
                    raise ConfigError(f"{args.config}: bad [{section}] {key}: {exc}") from exc
    st = cfg.get("set", {})
    if st and args.set_spec is None:
        kind = st.get("kind")
        if kind is None:
            raise ConfigError("[set] section needs a kind")
        parts = ",".join(f"{k}={v}" for k, v in st.items() if k != "kind")
        args.set_spec = f"{kind}:{parts}" if parts else kind
    for attr, default in FLAG_DEFAULTS.items():
        if getattr(args, attr, default) is None:
            setattr(args, attr, default)
    if getattr(args, "seed", 0) is None:
        args.seed = _default_seed()
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")


def _parse_list(text: str, conv, flag: str) -> tuple:
    try:
        return tuple(conv(tok) for tok in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: expected comma-separated numbers") from exc


def _ensemble(args) -> ensembles.Ensemble:
    return ensembles.make_ensemble(args.ensemble, args.kappa)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode())


def _qmap(args, m: int, n: int, seed):
    return quantizer.make_map(_ensemble(args), m, n, args.delta, seed,
                              dithered=not args.no_dither, variant=args.variant)


def cmd_embed(args) -> int:
    vecs = read_vectors(args.infile)
    if not vecs:
        raise ConfigError("no input vectors")
    n = len(vecs[0])
    qmap = _qmap(args, args.m, n, np.random.SeedSequence(args.seed))
    codes = quantizer.apply_many(qmap, np.column_stack(vecs))
    sys.stdout.write(quantizer.serialize_codes(codes.T))
    return EXIT_PASS


def cmd_distance(args) -> int:
    vecs = read_vectors(args.infile)
    if len(vecs) < 2 or len(vecs) % 2 != 0:
        raise ConfigError("distance needs an even number of input vectors (pairs)")
    n = len(vecs[0])
    qmap = _qmap(args, args.m, n, np.random.SeedSequence(args.seed))
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


def _sweep_common(args, which: str) -> int:
    spec = parse_set_spec(args.set_spec)
    grid = _parse_list(args.m_grid, int, "--m-grid")
    plan = experiments.TrialPlan(set_spec=spec, ensemble=_ensemble(args), delta=args.delta,
                                 m_grid=grid, pairs_per_m=args.pairs, trials_per_m=args.trials,
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
    if res.verdict is None:
        return EXIT_PASS
    return EXIT_PASS if res.verdict else EXIT_FAIL


def cmd_checks(args) -> int:
    if args.command == "counterexamples":
        cids = COUNTEREXAMPLES[args.which]
    else:
        cids = CHECKS[args.command]
    # combinatorics takes no --seed (criterion 9 draws nothing), and only
    # selftest runs the sweeps that --jobs fans out
    results, summary = selftest.run_selftest(seed=getattr(args, "seed", 0),
                                             jobs=getattr(args, "jobs", 1),
                                             scale=args.scale, cids=cids)
    _write(_out_dir(args) / f"{args.command}-summary.csv", summary)
    passed = sum(r.passed for r in results)
    print(f"{args.command}: {passed}/{len(results)} criteria pass")
    return EXIT_PASS if passed == len(results) else EXIT_FAIL


COMMANDS = {
    "embed": cmd_embed,
    "distance": cmd_distance,
    "width": cmd_width,
    "min-m": cmd_min_m,
    "quasi-isometry": lambda a: _sweep_common(a, "quasi-isometry"),
    "consistency-width": lambda a: _sweep_common(a, "consistency-width"),
    "counterexamples": cmd_checks,
    "lemmas": cmd_checks,
    "combinatorics": cmd_checks,
    "selftest": cmd_checks,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _merge_config(args)
        return COMMANDS[args.command](args)
    except (ConfigError, InvalidArgument, OSError, experiments.SetFilterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
