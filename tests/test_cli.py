import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qembed import cli


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_embed_prints_codes(tmp_path, capsys):
    vecs = tmp_path / "x.txt"
    vecs.write_text("1 0 0 0\n0 0 0 0\n")
    code, out, _ = run_cli(["embed", "--ensemble", "gaussian", "--delta", "0.5", "--m", "8",
                            "--in", str(vecs), "--seed", "3"], capsys)
    assert code == 0
    parsed = np.loadtxt(io.StringIO(out), dtype=np.int64, ndmin=2)
    assert parsed.shape == (2, 8)
    assert np.all(parsed[1] == 0)  # zero vector quantizes to zero under dither


def test_embed_deterministic_given_seed(tmp_path, capsys):
    vecs = tmp_path / "x.txt"
    vecs.write_text("0.5 -0.25\n")
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(["embed", "--m", "16", "--in", str(vecs), "--seed", "11"],
                               capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_distance_command(tmp_path, capsys):
    vecs = tmp_path / "pairs.txt"
    vecs.write_text("1 0\n1 0\n0.5 0.5\n-0.5 0.5\n")
    code, out, _ = run_cli(["distance", "--m", "32", "--in", str(vecs),
                            "--seed", "0", "--t", "0.1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[0].split()[0]) == 0.0  # identical pair
    assert float(lines[1].split()[0]) > 0.0
    # the round variant counts its own thresholds: D^0 equals D off the boundaries
    code, out, _ = run_cli(["distance", "--m", "32", "--in", str(vecs), "--seed", "0",
                            "--variant", "round", "--t", "0", "0.1"], capsys)
    assert code == 0
    for line in out.strip().splitlines():
        d, d0, d_soft = map(float, line.split())
        assert d == d0 and d_soft <= d


def test_width_command(capsys):
    code, out, _ = run_cli(["width", "--set", "ball:N=2,d=1", "--draws", "4000",
                            "--seed", "1"], capsys)
    assert code == 0
    assert "diameter-link pass" in out


def test_min_m_command(capsys):
    code, out, _ = run_cli(["min-m", "--set", "sparse:N=64,K=4,d=1", "--kind",
                            "embed-structured", "--eps", "0.25", "--delta", "0.5"], capsys)
    assert code == 0
    assert int(out.strip()) > 0


def test_unknown_flag_exits_2(capsys):
    code = cli.main(["embed", "--bogus-flag", "1"])
    assert code == 2
    # the check subcommands fix their own maps and take no map, set or trial flags
    for argv in (["lemmas", "--ensemble", "rademacher"], ["selftest", "--delta", "2"],
                 ["combinatorics", "--set", "ball:N=2"],
                 ["counterexamples", "--which", "no-dither", "--trials", "0"]):
        assert cli.main(argv) == 2


# a valid argv for each subcommand, less the subcommand itself, and a value
# for each flag that some subcommand takes and another does not
BASE_ARGV = {
    "embed": ["--m", "4", "--in", "x.txt"],
    "distance": ["--m", "4", "--in", "x.txt"],
    "width": ["--set", "ball:N=2"],
    "min-m": ["--set", "ball:N=2", "--kind", "embed-general", "--eps", "0.5"],
    "quasi-isometry": ["--set", "ball:N=2"],
    "consistency-width": ["--set", "ball:N=2"],
    "counterexamples": ["--which", "no-dither"],
    "lemmas": [],
    "combinatorics": [],
}
FLAG_VALUES = {"--out": ["x"], "--jobs": ["1"], "--set": ["ball:N=2"], "--seed": ["1"],
               "--ensemble": ["gaussian"], "--kappa": ["generic-bound"], "--delta": ["1"],
               "--variant": ["floor"], "--no-dither": []}
UNREAD_FLAGS = {
    "embed": ["--out", "--jobs", "--set", "--kappa"],
    "distance": ["--out", "--jobs", "--set", "--kappa"],
    "width": ["--out", "--jobs", "--ensemble", "--kappa", "--delta", "--variant", "--no-dither"],
    "min-m": ["--out", "--jobs", "--ensemble", "--kappa", "--variant", "--no-dither"],
    "quasi-isometry": ["--variant", "--no-dither"],
    "consistency-width": ["--variant", "--no-dither", "--kappa"],
    "counterexamples": ["--jobs"],
    "lemmas": ["--jobs"],
    "combinatorics": ["--jobs", "--seed"],
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in UNREAD_FLAGS.items()
                                           for f in flags])
def test_flag_the_computation_does_not_read_exits_2(command, flag, capsys):
    """A subcommand takes no flag that its computation would ignore."""
    cli._parsers()[0].parse_args([command, *BASE_ARGV[command]])
    code, _, err = run_cli([command, *BASE_ARGV[command], flag, *FLAG_VALUES[flag]], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command, section, key", [
    ("quasi-isometry", "quantizer", "variant = round"),
    ("width", "experiment", "out = elsewhere"),
    ("embed", "set", "kind = ball"),
    ("consistency-width", "ensemble", "kappa = estimated"),
])
def test_config_key_without_its_flag_exits_2(command, section, key, tmp_path, capsys,
                                             monkeypatch):
    """A config key stands in for a flag, so it is an error where the flag is."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.txt").write_text("1 0\n")
    (tmp_path / "run.cfg").write_text(f"[{section}]\n{key}\n")
    code, _, err = run_cli([command, *BASE_ARGV[command], "--config", "run.cfg"], capsys)
    assert code == 2
    assert f"[{section}] {key.split()[0]}" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[quantizer]\ndelta = 0.5\nwibble = 3\n")
    code, _, err = run_cli(["width", "--set", "ball:N=2,d=1", "--config", str(cfg)], capsys)
    assert code == 2
    assert "wibble" in err


def test_unknown_set_kind_exits_2(capsys):
    code, _, err = run_cli(["width", "--set", "torus:N=2"], capsys)
    assert code == 2
    assert "torus" in err


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\nseed = 9\n\n[set]\nkind = ball\nn = 2\n")
    code, out, _ = run_cli(["width", "--draws", "2000", "--config", str(cfg)], capsys)
    assert code == 0


def test_config_rejects_keys_the_set_parser_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[set]\nkind = ball\nn = 2\nradius = 0.5\n")
    code, _, err = run_cli(["width", "--draws", "100", "--config", str(cfg)], capsys)
    assert code == 2
    assert "radius" in err
    code, _, err = run_cli(["width", "--draws", "100", "--set", "sparse:N=64,K=4,basis=dct"],
                           capsys)
    assert code == 2
    assert "basis" in err


def test_config_set_value_with_a_comma_is_one_value(tmp_path, capsys):
    # a [set] value reaches the set whole: a file name with a comma reads the
    # same points as one without
    outs = []
    for name in ("a,b.txt", "ab.txt"):
        (tmp_path / name).write_text("0.3 0.1\n-0.2 0.5\n0.1 0.1\n")
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"[set]\nkind = finite\nfile = {tmp_path / name}\n")
        code, out, err = run_cli(["width", "--draws", "500", "--seed", "3", "--config", str(cfg)],
                                 capsys)
        assert code != 2 and err == ""
        outs.append((code, out))
    assert outs[0] == outs[1]
    assert outs[0][1].startswith("width ")


def test_explicit_flag_beats_config_even_at_its_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\njobs = 4\nout = elsewhere\n\n"
                   "[quantizer]\ndelta = 0.25\n\n[sweep]\npairs = 7\ntrials = 3\n")
    args = cli.parse_args(["quasi-isometry", "--pairs", "200", "--jobs", "1",
                           "--out", ".", "--delta", "1.0", "--config", str(cfg)])
    assert (args.pairs, args.jobs, args.out, args.delta) == (200, 1, ".", 1.0)
    # keys without a flag come from the file, the rest from the defaults
    assert (args.trials, args.k0, args.ensemble) == (3, 1.0, "gaussian")


# a value other than the built-in default for each flag a config key stands in for
CONFIG_VALUES = {"--seed": "5", "--out": "elsewhere", "--jobs": "2", "--scale": "quick",
                 "--ensemble": "rademacher", "--kappa": "estimated", "--delta": "0.5",
                 "--variant": "round", "--m-grid": "16,32", "--pairs": "7", "--trials": "3",
                 "--k0": "2"}
# the two flags whose config stand-in is not one key = value: argv, config text
STAND_INS = {"--no-dither": (["--no-dither"], "[quantizer]\ndithered = false\n"),
             "--set": (["--set", "sparse:n=64,k=4,d=0.5"],
                       "[set]\nkind = sparse\nn = 64\nk = 4\nd = 0.5\n")}


def test_config_key_stands_in_for_its_flag(tmp_path, monkeypatch):
    """For every subcommand and every flag of it that a config key can set,
    parse_args gives the same namespace, less --config, from the flag as from
    the key; the table has no row that no subcommand takes."""
    monkeypatch.delenv("QEMBED_SEED", raising=False)
    taken = {"--config"}.union(*(flags for _, flags, _ in cli.SUBCOMMANDS.values()))
    assert taken == set(cli.FLAGS)
    assert {"--set", *cli.CONFIG_KEYS.values()} <= taken
    checked = set()
    for command, (_, flags, _) in cli.SUBCOMMANDS.items():
        base = BASE_ARGV.get(command, [])
        if "--set" in base:
            at = base.index("--set")
            base = base[:at] + base[at + 2:]
        for flag in flags:
            if flag in STAND_INS:
                argv, text = STAND_INS[flag]
            elif cli.FLAGS[flag][1]:
                section, key = cli.FLAGS[flag][1]
                argv = [flag, CONFIG_VALUES[flag]]
                text = f"[{section}]\n{key} = {CONFIG_VALUES[flag]}\n"
            else:
                continue
            # a fresh file per row: back-to-back rewrites of one path stalled
            # about 55 ms each on ext4
            cfg = tmp_path / f"{command}{flag}.cfg"
            cfg.write_text(text)
            by_flag = vars(cli.parse_args([command, *base, *argv]))
            by_key = vars(cli.parse_args([command, *base, "--config", str(cfg)]))
            assert by_key.pop("config") == str(cfg) and by_flag.pop("config") is None
            assert by_flag == by_key, (command, flag)
            default = vars(cli.parse_args([command, *base]))
            default.pop("config")
            assert by_flag != default, (command, flag)
            checked.add(flag)
    assert checked == {"--set", *cli.CONFIG_KEYS.values()}


@pytest.mark.parametrize("word, no_dither", [("true", False), ("Yes", False), ("1", False),
                                             ("FALSE", True), ("no", True), ("0", True)])
def test_dithered_takes_boolean_words(word, no_dither, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[quantizer]\ndithered = {word}\n")
    args = cli.parse_args(["embed", "--m", "4", "--in", "x.txt", "--config", str(cfg)])
    assert args.no_dither is no_dither


@pytest.mark.parametrize("text", ["[quantizer]\ndelta = 0.5\ndelta = 2\n",
                                  "[quantizer]\ndelta = 0.5\n[experiment]\nseed = 1\n"
                                  "[quantizer]\ndelta = 2\n"])
def test_config_key_given_twice_exits_2(text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, _, err = run_cli(["embed", "--m", "4", "--in", "x.txt", "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "'delta' given twice in [quantizer]" in err


SWEEP = ["--delta", "0.5", "--m-grid", "16,32,64", "--pairs", "8", "--trials", "2",
         "--seed", "4"]
SPARSE = ["--set", "sparse:N=32,K=4,d=1"]
# a Rademacher plan whose allowance kappa/sqrt(k0) censors every trial
VACUOUS = ["quasi-isometry", "--ensemble", "rademacher", "--set", "sparse:N=64,K=4,d=1",
           "--m-grid", "64,128,256", "--pairs", "20", "--trials", "3"]

MIN_M = ["min-m", "--set", "sparse:N=64,K=4,d=1", "--eps", "0.25", "--delta", "0.5"]
MESH_CW = ["consistency-width", "--set", "mesh:N=3,h=0.3", "--m-grid", "2,4,8", "--trials", "2",
           "--seed", "1"]
WIDE = "sparse:N=99999999999999999999,K=2"  # N = 10^20

def _write_input(path, content) -> None:
    """An input file of text, or of bytes that need not decode."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


# input files of the exit-code table, written under TMP/ (the test's tmp_path);
# a name ending in / is made as a directory
INPUTS = {
    "bad-token.txt": "1 0\n0 x\n",
    "ragged.txt": "1 0\n1 0 0\n",
    "huge.txt": "1e300 0\n",
    "pair.txt": "0.3 0.1\n-0.2 0.5\n",
    "bad-scale.cfg": "[experiment]\nscale = huge\n",
    "zero-jobs.cfg": "[experiment]\njobs = 0\n",
    "nan.txt": "nan 0\n1 0\n",
    "banana.cfg": "[quantizer]\ndithered = banana\n",
    "twice.cfg": "[quantizer]\ndelta = 0.5\ndelta = 2\n",
    "seed.cfg": "[experiment]\nseed = 1\n",
    "pairs.cfg": "[sweep]\npairs = 5\n",
    "taken/quasi-isometry.csv/": None,
    "lattice-neighbour.txt": "28765.700000000004\n-42830.67307168129\n",
    "undecodable.bin": b"\xff\xfe1 0\n",
}


@pytest.mark.parametrize("argv, expected", [
    (["quasi-isometry", *SWEEP, *SPARSE, "--slope-band=-10,10"], 0),
    (["consistency-width", *SWEEP, *SPARSE, "--slope-band=-10,10"], 0),
    (["quasi-isometry", *SWEEP, *SPARSE, "--slope-band=5,6"], 1),
    (["quasi-isometry", *SWEEP, *SPARSE, "--m-grid", "4,x"], 2),
    (["quasi-isometry", *SWEEP], 2),
    (["consistency-width", *SWEEP], 2),
    (["quasi-isometry", *SWEEP, *SPARSE, "--slope-band=bad"], 2),
    (["consistency-width", *SWEEP, *SPARSE, "--slope-band=-1"], 2),
    (["quasi-isometry", "--ensemble", "rademacher", "--set", "lowrank:N1=8,N2=8,r=2",
      "--m-grid", "64,128,256", "--pairs", "20", "--trials", "3", "--k0", "8"], 2),
    (["embed", "--m", "4", "--in", "TMP/bad-token.txt"], 2),
    (["embed", "--m", "4", "--delta", "1e-10", "--in", "TMP/huge.txt"], 2),
    (["distance", "--m", "4", "--in", "TMP/ragged.txt"], 2),
    (["distance", "--m", "64", "--variant", "round", "--in", "TMP/pair.txt", "--t", "0.1"], 0),
    (["width", "--set", "finite:file=TMP/bad-token.txt"], 2),
    (["min-m", "--set", "sparse:N=64,K=4", "--kind", "embed-structured", "--eps", "1.5"], 2),
    (["counterexamples", "--which", "no-dither", "--config", "TMP/bad-scale.cfg"], 2),
    (["lemmas", "--config", "TMP/bad-scale.cfg"], 2),
    (["combinatorics", "--config", "TMP/bad-scale.cfg"], 2),
    (["selftest", "--config", "TMP/bad-scale.cfg"], 2),
    (["quasi-isometry", *SWEEP, *SPARSE, "--jobs", "0"], 2),
    (["consistency-width", *SWEEP, *SPARSE, "--config", "TMP/zero-jobs.cfg"], 2),
    (["selftest", "--jobs", "-3"], 2),
    (["embed", "--m", "4", "--in", "TMP/."], 2),
    (["QEMBED_SEED=abc", "embed", "--m", "4", "--in", "TMP/pair.txt"], 2),
    (VACUOUS, 2),
    ([*VACUOUS, "--kappa", "estimated"], 2),
    (["width", "--set", "ball:N=2", "--seed=-1"], 2),
    (["QEMBED_SEED=-1", "embed", "--m", "4", "--in", "TMP/pair.txt"], 2),
    (["min-m", "--set", "sparse:N=64,K=4", "--kind", "embed-structured", "--eps", "0.5",
      "--c", "inf"], 2),
    (["min-m", "--set", "ball:N=2", "--kind", "width-general", "--eps", "0.5",
      "--delta", "inf"], 2),
    (["width", "--set", "ball:N=2,d=inf"], 2),
    (["width", "--set", "finite:file=TMP/nan.txt"], 2),
    (["quasi-isometry", *SWEEP, *SPARSE, "--slope-band=nan,inf"], 2),
    (["consistency-width", *SWEEP, *SPARSE, "--slope-band=1,-1"], 2),
    (["quasi-isometry", "--set", "ball:N=2", "--m-grid", "16,32", "--pairs", "4", "--trials",
      "2", "--k0", "nan"], 2),
    (["quasi-isometry", "--set", "ball:N=2", "--m-grid", "16,32", "--pairs", "4", "--trials",
      "2", "--k0", "inf"], 2),
    (["quasi-isometry", "--set", "ball:N=2", "--m-grid", "16", "--pairs", "4", "--trials", "2",
      "--slope-band=-1,1"], 2),
    (["consistency-width", "--set", "ball:N=2", "--m-grid", "16,32", "--pairs", "4", "--trials",
      "2", "--slope-band=-1,1"], 2),
    (["embed", "--m", "6", "--in", "TMP/pair.txt", "--config", "TMP/banana.cfg"], 2),
    (["embed", "--m", "6", "--in", "TMP/pair.txt", "--config", "TMP/twice.cfg"], 2),
    # the structured kinds draw nothing, so an explicit seed is refused;
    # QEMBED_SEED stays a silent default
    ([*MIN_M, "--kind", "embed-structured", "--seed", "1"], 2),
    ([*MIN_M, "--kind", "width-structured", "--config", "TMP/seed.cfg"], 2),
    (["QEMBED_SEED=1", *MIN_M, "--kind", "embed-structured"], 0),
    # outputs that cannot be opened for writing: --out is a file, or an
    # output's path is a directory
    (["quasi-isometry", *SWEEP, *SPARSE, "--out", "TMP/pair.txt"], 2),
    (["quasi-isometry", *SWEEP, *SPARSE, "--out", "TMP/taken"], 2),
    # the consistency sweep measures every point of a finite set, so it
    # refuses a pair count there; the distortion sweep samples pairs of it
    ([*MESH_CW], 0),
    ([*MESH_CW, "--pairs", "5"], 2),
    ([*MESH_CW, "--config", "TMP/pairs.cfg"], 2),
    (["consistency-width", "--set", "finite:file=TMP/pair.txt", "--m-grid", "2,4,8",
      "--pairs", "500"], 2),
    (["quasi-isometry", *MESH_CW[1:], "--pairs", "5"], 0),
    # rare pool combinations that random argv examples found: a negative
    # seed on the check subcommands is a usage error, not a traceback
    (["lemmas", "--seed=-1"], 2),
    (["counterexamples", "--which", "no-dither", "--seed=-1"], 2),
    # a float neighbour of a threshold fl(k delta) at large |k|, where the
    # closed-form soft count is one off the code difference (ROADMAP item 2)
    (["distance", "--m", "8", "--ensemble", "rademacher", "--no-dither", "--delta", "0.1",
      "--in", "TMP/lattice-neighbour.txt"], 0),
    # an input or config file that is not text, and a mesh one of whose grid
    # coordinates alone would take 58 TiB
    (["embed", "--m", "4", "--in", "TMP/undecodable.bin"], 2),
    (["width", "--set", "ball:N=2", "--config", "TMP/undecodable.bin"], 2),
    (["width", "--set", "mesh:N=8,h=0.05", "--draws", "2"], 2),
    # a sparse ball wider than one block: one row of Phi or g would hold all
    # of its N entries, so what draws refuses it; the structured bound draws nothing
    (["width", "--set", WIDE], 2),
    (["quasi-isometry", "--set", WIDE, "--m-grid", "16,32", "--pairs", "4", "--trials", "2"], 2),
    (["min-m", "--set", WIDE, "--kind", "embed-structured", "--eps", "0.5"], 0),
])
def test_sweep_exit_code_contract(argv, expected, tmp_path, capsys, monkeypatch):
    """0 pass, 1 verdict fail, 2 usage or config error: sweeps plus a usage
    error for every other subcommand. Leading NAME=value items set the
    environment, as in a shell."""
    for name, text in INPUTS.items():
        if name.endswith("/"):
            (tmp_path / name).mkdir(parents=True)
        else:
            _write_input(tmp_path / name, text)
    argv = [arg.replace("TMP/", f"{tmp_path}/") for arg in argv]
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    if "--out" in cli.SUBCOMMANDS[argv[0]][1] and "--out" not in argv:
        argv += ["--out", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == expected
    assert err.startswith("error: ") == (expected == 2)
    if argv[:len(VACUOUS)] == VACUOUS:
        # both ways out of a vacuous plan are named
        assert "--kappa estimated" in err and "--k0" in err


@pytest.mark.parametrize("source", ["default", "exact-zero"])
def test_kappa_takes_only_the_two_sources(source, capsys):
    code, _, err = run_cli([*VACUOUS, "--kappa", source], capsys)
    assert code == 2
    assert f"argument --kappa: invalid choice: '{source}'" in err


# (argv, flag, two values of it): the exit code, stdout or output files of
# argv differ between the two values
FLAG_EFFECTS = [
    # a Rademacher plan that the generic kappa makes vacuous and the estimated one does not
    (["quasi-isometry", "--ensemble", "rademacher", "--set", "lowrank:N1=8,N2=8,r=1", "--k0", "4",
      "--m-grid", "8,16", "--pairs", "20", "--trials", "2", "--seed", "2"],
     "--kappa", "generic-bound", "estimated"),
    # a general kind estimates the width from --draws Gaussian draws (81238 and 81135)
    ([*MIN_M, "--kind", "embed-general"], "--seed", "1", "2"),
    # rays per trial on a continuum set (a finite set refuses --pairs)
    (["consistency-width", *SPARSE, "--delta", "0.5", "--m-grid", "16,32,64", "--trials", "2",
      "--seed", "4"], "--pairs", "5", "8"),
]


@pytest.mark.parametrize("argv, flag, a, b", FLAG_EFFECTS,
                         ids=[f"{argv[0]}-{flag}" for argv, flag, _, _ in FLAG_EFFECTS])
def test_flag_changes_the_outputs(argv, flag, a, b, tmp_path, capsys):
    outputs = []
    for value in (a, b):
        out = tmp_path / value
        out_argv = ["--out", str(out)] if "--out" in cli.SUBCOMMANDS[argv[0]][1] else []
        code, stdout, _ = run_cli([*argv, flag, value, *out_argv], capsys)
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        outputs.append((code, stdout, files))
    assert outputs[0] != outputs[1]


def check_summary(path, rows):
    """The summary CSV of a passing check subcommand: one row per criterion."""
    lines = ["experiment,slope,stderr,verdict", *(f"{row},,,pass" for row in rows)]
    assert path.read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()


def run_check(argv, tmp_path, capsys):
    seed = ["--seed", "0"] if "--seed" in cli.SUBCOMMANDS[argv[0]][1] else []
    code, out, _ = run_cli([*argv, "--scale", "quick", *seed, "--out", str(tmp_path)], capsys)
    assert code == 0
    return out


def test_counterexample_no_dither(capsys, tmp_path):
    out = run_check(["counterexamples", "--which", "no-dither"], tmp_path, capsys)
    assert out.splitlines() == ["criterion  8 [PASS] no-dither-counterexample",
                                "counterexamples: 1/1 criteria pass"]
    check_summary(tmp_path / "counterexamples-summary.csv",
                  ["criterion-08-no-dither-counterexample"])
    out = run_check(["counterexamples", "--which", "section2-floor"], tmp_path, capsys)
    assert out.splitlines()[0] == "criterion  7 [PASS] bernoulli-floor-exact"
    check_summary(tmp_path / "counterexamples-summary.csv",
                  ["criterion-07-bernoulli-floor-exact"])


def test_combinatorics_command(capsys, tmp_path):
    out = run_check(["combinatorics"], tmp_path, capsys)
    assert out.splitlines() == ["criterion  9 [PASS] stirling-and-binomial-mad",
                                "combinatorics: 1/1 criteria pass"]
    check_summary(tmp_path / "combinatorics-summary.csv",
                  ["criterion-09-stirling-and-binomial-mad"])


def test_lemmas_command(capsys, tmp_path):
    out = run_check(["lemmas"], tmp_path, capsys)
    assert out.splitlines() == ["criterion 12 [PASS] chernoff-tail-bound",
                                "criterion 15 [PASS] soft-distance-continuity",
                                "criterion 16 [PASS] projection-stability",
                                "lemmas: 3/3 criteria pass"]
    check_summary(tmp_path / "lemmas-summary.csv",
                  ["criterion-12-chernoff-tail-bound", "criterion-15-soft-distance-continuity",
                   "criterion-16-projection-stability"])


def test_sweep_writes_byte_identical_csvs_across_jobs(tmp_path, capsys):
    base = ["quasi-isometry", "--set", "sparse:N=32,K=4,d=1", "--delta", "0.5",
            "--m-grid", "16,32,64", "--pairs", "10", "--trials", "2", "--seed", "4"]
    code, _, _ = run_cli(base + ["--out", str(tmp_path / "a"), "--jobs", "1"], capsys)
    assert code == 0
    code, _, _ = run_cli(base + ["--out", str(tmp_path / "b"), "--jobs", "8"], capsys)
    assert code == 0
    a = (tmp_path / "a" / "quasi-isometry.csv").read_bytes()
    b = (tmp_path / "b" / "quasi-isometry.csv").read_bytes()
    assert a == b
    dat = (tmp_path / "a" / "quasi-isometry.dat").read_text()
    assert all(len(line.split()) == 2 for line in dat.strip().splitlines())


# each set with an M grid whose largest map spans several blocks for every fold
DRAW_AHEAD_SETS = [("sparse:N=512,K=4,d=1", "64,300,700"),
                   ("lowrank:n1=16,n2=16,r=2,d=1", "64,300,1200"),
                   ("mesh:N=3,h=0.3", "64,2000,9000")]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("which", ["quasi-isometry", "consistency-width"])
def test_sweep_outputs_do_not_depend_on_the_draw_ahead(which, jobs, tmp_path, capsys,
                                                       monkeypatch):
    from qembed import experiments

    for i, (spec, grid) in enumerate(DRAW_AHEAD_SETS):
        # consistency-width measures every point of a mesh: no --pairs there
        pairs = [] if (which, spec[:4]) == ("consistency-width", "mesh") else ["--pairs", "8"]
        argv = [which, "--set", spec, "--m-grid", grid, "--trials", "2", "--seed", "4",
                "--jobs", jobs, *pairs]
        files = []
        for cpus in (1, 64):  # draws on demand, then ahead
            monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
            out = tmp_path / f"{i}-{cpus}"
            code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
            assert code == 0
            files.append(_files(out))
        assert files[0] == files[1]


@pytest.mark.parametrize("cpus", [1, 64])
def test_a_fold_that_fails_mid_map_exits_as_before(cpus, tmp_path, capsys, monkeypatch):
    # an InvalidArgument from the second block's fold exits 2 whether the
    # block was drawn ahead or not, and leaves no helper thread running
    import threading

    from qembed import experiments

    monkeypatch.setattr(experiments, "_cpus", lambda: cpus)
    step = experiments._Distortion.step

    def failing(self, block):
        if self.m:
            raise experiments.InvalidArgument("fold failed mid-map")
        return step(self, block)

    monkeypatch.setattr(experiments._Distortion, "step", failing)
    before = threading.active_count()
    code, _, err = run_cli(["quasi-isometry", "--set", "sparse:N=32,K=4,d=1", "--m-grid",
                            "16,6000", "--pairs", "24", "--jobs", "2",
                            "--out", str(tmp_path)], capsys)
    assert (code, err) == (2, "error: fold failed mid-map\n")
    assert threading.active_count() == before


def test_a_ray_that_takes_many_draws_completes_the_sweep(tmp_path, capsys):
    # a 4-sparse direction passes k0 = 2.5 about 1 draw in 14: one of this
    # run's 2400 rays took more than 100 draws, where the sweep used to exit 2
    code, out, err = run_cli(["consistency-width", "--set", "sparse:N=64,K=4,d=1", "--k0", "2.5",
                              "--seed", "7", "--trials", "4", "--m-grid", "128,256,512",
                              "--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert len((tmp_path / "consistency-width.csv").read_text().splitlines()) == 1 + 3 * 4


@pytest.mark.parametrize("command, k0", [("quasi-isometry", "6"), ("consistency-width", "3.8"),
                                         ("consistency-width", "5")])
def test_a_plan_the_filter_starves_exits_2_before_any_trial(command, k0, tmp_path, capsys,
                                                            monkeypatch):
    # estimated: a difference of two 4-sparse points passes k0 = 6 about 3
    # times in 1e5 draws, and a direction k0 = 3.8 about 2.5 times; exact: no
    # 4-sparse direction passes k0 = 5
    from qembed import experiments

    started = []
    monkeypatch.setattr(experiments, "map_blocks", lambda *args: started.append(args))
    code, _, err = run_cli([command, "--set", "sparse:N=64,K=4,d=1", "--k0", k0, "--seed", "7",
                            "--out", str(tmp_path)], capsys)
    assert code == 2 and f"the k0={k0} anti-sparsity filter passes" in err
    assert started == [] and not any(tmp_path.iterdir())


def test_a_ray_whose_anchor_passes_no_direction_exits_2(tmp_path, capsys):
    # a rank-1 direction of an 8 x 8 anchor passes k0 = 16 only where no
    # entry of the anchor's left singular vector holds half its norm; the
    # share averaged over anchors passes the plan's check, so the sweep
    # starts, and the first anchor that passes no direction gives up after
    # MAX_DRAWS draws, about a second here
    code, _, err = run_cli(["consistency-width", "--set", "lowrank:n1=8,n2=8,r=1,d=1",
                            "--k0", "16", "--seed", "7", "--out", str(tmp_path)], capsys)
    assert code == 2 and "no direction passed the k0=16 anti-sparsity filter" in err
    assert not any(tmp_path.iterdir())


def _record_opens(monkeypatch) -> list:
    """Wrap os.open, as cli calls it, to record the (path, flags) of each call."""
    calls = []
    real = cli.os.open

    def record(path, flags, *args, **kwargs):
        calls.append((Path(path), flags))
        return real(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", record)
    return calls


def _opened_in(calls, directory: Path) -> list:
    """The recorded opens of files in directory, each checked to create
    without truncating; their file names, sorted."""
    opens = [(path, flags) for path, flags in calls if path.parent == directory]
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in opens)
    return sorted(path.name for path, _ in opens)


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("argv", [["quasi-isometry", *SWEEP, *SPARSE],
                                  ["combinatorics", "--scale", "quick"]],
                         ids=["quasi-isometry", "combinatorics"])
def test_rerun_rewrites_every_output_in_place(argv, tmp_path, monkeypatch):
    """Each output is opened without O_TRUNC, and a rerun into a used --out
    leaves the bytes of a run into a fresh one."""
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    assert cli.main([*argv, "--out", str(fresh)]) == 0
    calls = _record_opens(monkeypatch)
    for _ in range(2):
        assert cli.main([*argv, "--out", str(used)]) == 0
    assert _opened_in(calls, used) == sorted(list(_files(fresh)) * 2)
    assert _files(used) == _files(fresh)


@pytest.mark.parametrize("which", ["quasi-isometry", "consistency-width"])
def test_sweep_over_longer_files_leaves_no_stale_tail(which, tmp_path, monkeypatch):
    """Outputs written over longer files hold a fresh run's bytes and no more."""
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    assert cli.main([which, *SWEEP, *SPARSE, "--out", str(fresh)]) == 0
    used.mkdir()
    for name in (f"{which}.dat", f"{which}.csv"):
        (used / name).write_bytes(b"junk\n" * 2048)
    calls = _record_opens(monkeypatch)
    assert cli.main([which, *SWEEP, *SPARSE, "--out", str(used)]) == 0
    assert _opened_in(calls, used) == sorted(_files(fresh))
    assert _files(used) == _files(fresh)


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    vecs = tmp_path / "x.txt"
    vecs.write_text("0.5 -0.25\n")
    monkeypatch.setenv("QEMBED_SEED", "11")
    code_env, out_env, _ = run_cli(["embed", "--m", "8", "--in", str(vecs)], capsys)
    monkeypatch.delenv("QEMBED_SEED")
    code_flag, out_flag, _ = run_cli(["embed", "--m", "8", "--in", str(vecs), "--seed", "11"],
                                     capsys)
    assert code_env == code_flag == 0
    assert out_env == out_flag


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "qembed.cli", "combinatorics",
                           "--scale", "quick", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "criterion  9 [PASS] stirling-and-binomial-mad"
    check_summary(tmp_path / "combinatorics-summary.csv",
                  ["criterion-09-stirling-and-binomial-mad"])


def test_import_loads_neither_scipy_nor_mpmath():
    # scipy is slow to import and only kappa estimation (scipy.special and
    # scipy.integrate) needs it, so it is imported inside those functions;
    # every run's start-up pays for the rest, which qembed.cli loads whole.
    # Both sweeps project a sparse ball with numpy alone. The Stirling
    # check of criterion 9 runs in float64, criterion 12's exact count law
    # and binomial test read only math, and nothing in the package reads
    # mpmath.
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, qembed.cli; from qembed import selftest; "
                           "selftest.criterion_9(0, 'quick'); selftest.criterion_12(0, 'quick'); "
                           "print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] in ('scipy', 'mpmath')))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs argv lists through cli.main in one fresh process and prints each exit
# code, then whether scipy.special and whether any scipy module got loaded.
RUN_AND_REPORT_SPECIAL = """
import contextlib, io, json, sys
from qembed import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(codes, 'scipy.special' in sys.modules, any(m.split('.')[0] == 'scipy' for m in sys.modules))
"""


def test_gaussian_runs_never_load_scipy_special(tmp_path):
    vecs = tmp_path / "x.txt"
    vecs.write_text("0.5 -0.25 0 1\n0 0.5 0.5 0\n")
    sweep = ["--set", "sparse:N=16,K=2,d=1", "--m-grid", "16,32,64", "--pairs", "5",
             "--trials", "2", "--seed", "3"]
    runs = [["quasi-isometry", *sweep, "--out", str(tmp_path / "qi")],
            ["consistency-width", *sweep, "--out", str(tmp_path / "cw")],
            ["embed", "--m", "8", "--in", str(vecs), "--seed", "3"],
            ["distance", "--m", "32", "--in", str(vecs), "--seed", "0", "--t", "0.1"]]
    proc = subprocess.run([sys.executable, "-c", RUN_AND_REPORT_SPECIAL, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the sparse-ball sweeps, embed and distance load no scipy module at all
    assert proc.stdout.strip() == "[0, 0, 0, 0] False False"
    # the estimated kappa of a non-Gaussian kind is where scipy.special is read
    estimated = [["quasi-isometry", "--ensemble", "rademacher", "--kappa", "estimated",
                  "--set", "lowrank:n1=8,n2=8,r=2,d=1", "--m-grid", "4,8,16", "--pairs", "30",
                  "--trials", "3", "--k0", "8", "--seed", "5", "--out", str(tmp_path / "rk")]]
    proc = subprocess.run([sys.executable, "-c", RUN_AND_REPORT_SPECIAL, json.dumps(estimated)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0] True True"


# value pools of the argv contract test, by flag, then by type; TMP is the
# example's scratch directory, holding the files of ARGV_FILES
INT_POOL = ["-1", "0", "1", "2", "16"]
FLOAT_POOL = ["-1", "0", "0.5", "nan", "inf"]
ARGV_FILES = {
    "good.txt": "0.3 0.1\n-0.2 0.5\n",
    "bad-token.txt": "1 0\n0 x\n",
    "good.cfg": "[experiment]\nseed = 3\n",
    "malformed.cfg": "[experiment]\nseed\n",
    "sweep.cfg": "[sweep]\nm_grid = 16,32\npairs = 4\ntrials = 2\n\n[set]\nkind = ball\nn = 2\n",
    "banana.cfg": "[quantizer]\ndithered = banana\n",
    "twice.cfg": "[quantizer]\ndelta = 0.5\ndelta = 2\n",
    "bad-pairs.cfg": "[sweep]\npairs = x\n",
    "undecodable.bin": b"\xff\xfe1 0\n",
}
FLAG_POOLS = {
    "--config": ["TMP/sweep.cfg", "TMP/good.cfg", "TMP/banana.cfg", "TMP/malformed.cfg",
                 "TMP/twice.cfg", "TMP/missing.cfg", "TMP/bad-pairs.cfg", "TMP",
                 "TMP/undecodable.bin"],
    "--out": ["TMP/out", "TMP/good.txt"],
    "--jobs": ["-1", "0", "1", "2"],
    "--scale": ["quick"],
    # the mesh whose grid would take 58 TiB per coordinate sits early in the
    # pool, where the derandomized examples draw it
    "--set": ["ball:N=2", "ball:N=16,d=0.5", "mesh:N=8,h=0.05", "sparse:N=16,K=2,d=1",
              "lowrank:N1=4,N2=4,r=1", "mesh:N=2,h=0.5", "finite:file=TMP/good.txt", "ball:N=0",
              "ball:N=2,d=-1", "ball:N=2,d=inf", "sparse:N=4,K=8", "sparse:N=x,K=1",
              "lowrank:N1=4,N2=4", "mesh:N=2,h=0", "finite:file=TMP/bad-token.txt", "torus:N=2",
              "ball", ""],
    "--in": ["TMP/good.txt", "TMP", "TMP/missing.txt", "TMP/bad-token.txt",
             "TMP/undecodable.bin"],
    "--m-grid": st.lists(st.sampled_from(INT_POOL), min_size=1, max_size=3).map(",".join),
    "--slope-band": ["-10,10", "5,6", "nan,inf", "1", "bad"],
}
# flags every example passes: sizes stay small, and no output lands in the cwd
ALWAYS = {"--m-grid", "--pairs", "--trials", "--scale", "--out"}


def _value_pool(flag: str, action: argparse.Action):
    if flag in FLAG_POOLS:
        pool = FLAG_POOLS[flag]
    elif action.choices:
        pool = [*action.choices, "bogus"]
    elif action.type in (int, float):
        pool = INT_POOL if action.type is int else FLOAT_POOL
    else:
        raise AssertionError(f"no value pool for {flag}")
    return pool if isinstance(pool, st.SearchStrategy) else st.sampled_from(pool)


def _subparsers() -> dict:
    return {name: sp for name, sp in cli._parsers()[1].items() if name != "selftest"}


@st.composite
def argvs(draw):
    """An argv built from the CLI's own subcommands and flags."""
    subparsers = _subparsers()
    command = draw(st.sampled_from(sorted(subparsers)))
    argv = [command]
    for action in subparsers[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        if not (action.required or flag in ALWAYS or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(flag)
        elif action.nargs == "*":
            argv += [flag, *draw(st.lists(_value_pool(flag, action), max_size=2))]
        else:
            argv.append(f"{flag}={draw(_value_pool(flag, action))}")
    return argv


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(argv=argvs())
def test_every_argv_exits_0_1_or_2(argv, tmp_path_factory):
    """The exit-code contract holds for argv built from the parser itself:
    cli.main returns 0, 1 or 2 and raises nothing."""
    tmp = tmp_path_factory.mktemp("argv")
    for name, text in ARGV_FILES.items():
        _write_input(tmp / name, text)
    assert cli.main([arg.replace("TMP", str(tmp)) for arg in argv]) in (0, 1, 2)
