"""CLI behaviour: subcommands, config precedence, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heleshaw
from heleshaw import multiscale, painleve, toda
from heleshaw.cli import (_COMMANDS, FRAMES_X_TO, OPTIONS, clean_path, frame_abscissas, grid, join_path,
                          load_config, main)
from heleshaw.errors import ConfigError, DomainError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config file ------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# scenario\neps = 1e-4\nt1 = -0.8\nfrom = 0.61\ncount = 5\n")
    values = load_config(cfg)
    assert values == {"eps": 1e-4, "t1": -0.8, "x_from": 0.61, "count": 5}


def test_load_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epsilon = 1e-4\n")
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_load_config_bad_number_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps = not-a-number\n")
    code, _, err = run(capsys, "--config", str(cfg), "critical")
    assert code == 2
    assert "config error" in err


def test_config_format_validated(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("format = xml\n")
    with pytest.raises(ConfigError):
        load_config(cfg)
    code, out, err = run(capsys, "--config", str(cfg), "gd")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "format" in err


def test_missing_config_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "--config", str(tmp_path / "nope.cfg"), "critical")
    assert code == 2


def test_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"eps = 1e-4\n\xff\n")
    code, out, err = run(capsys, "--config", str(cfg), "critical")
    assert code == 2 and out == ""
    assert err.splitlines() == [f"config error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xff "
                                "in position 11: invalid start byte"]


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t1 = -0.5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "critical", "--t1", "-0.8")
    assert code == 0
    assert json.loads(out)["x_c"] == pytest.approx(0.64, abs=1e-12)


def test_config_used_when_flag_absent(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t1 = -0.8\n")
    code, out, _ = run(capsys, "--config", str(cfg), "critical")
    assert code == 0
    assert json.loads(out)["v_c"] == pytest.approx(0.8, abs=1e-12)


# -- subcommands ------------------------------------------------------------

def test_critical_json(capsys):
    code, out, _ = run(capsys, "critical", "--t1", "-0.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2
    assert payload["x_c"] == pytest.approx(0.64, abs=1e-12)
    assert payload["v_c"] == pytest.approx(0.8, abs=1e-12)
    assert payload["c"] == pytest.approx(-2 / 3, rel=1e-12)


@pytest.mark.parametrize("argv, same", [
    (("critical", "--t1", "-8e-1"), ("critical", "--t1", "-0.8")),
    (("critical", "--t1", "-.8E+0"), ("critical", "--t1", "-0.8")),
    (("trace", "--from", "-1e308", "--to", "0.5", "--n", "3"), ("trace", "--from=-1e308", "--to", "0.5", "--n", "3")),
], ids=lambda argv: " ".join(argv))
def test_negative_number_in_exponent_form_is_a_value(tmp_path, capsys, argv, same):
    # argparse's own pattern took -8e-1 for an option and stopped with "expected one argument"
    expected = run(capsys, "--outdir", str(tmp_path), *same)
    assert expected[0] == 0
    assert run(capsys, "--outdir", str(tmp_path), *argv) == expected


# -- the command line ----------------------------------------------------

#: command line -> (exit code, stdout, stderr), recorded from the argparse parser the CLI had before;
#: "R_0..R_n" stands for the text of gd --n n, "json R_0..R_n" for its JSON, "{cfg}" for a file with n = 2
#: and "{xi_min_cfg}" for one with the removed key xi_min = -1
PARSER_CASES = [
    (["gd", "--n", "3"], 0, "R_0..R_3", ""),
    (["gd", "--n=3"], 0, "R_0..R_3", ""),
    (["gd", "--fo", "json"], 0, "json R_0..R_3", ""),
    (["gd", "--fo=json", "--n=2"], 0, "json R_0..R_2", ""),
    (["gd", "--n", "3", "--n", "4"], 0, "R_0..R_4", ""),
    (["gd", "--n", "+3"], 0, "R_0..R_3", ""),
    (["--config", "{cfg}", "gd"], 0, "R_0..R_2", ""),
    (["--conf={cfg}", "gd", "--n", "1"], 0, "R_0..R_1", ""),
    (["toda", "--t", "1"], 2, "", "ambiguous option: --t could match --t3, --to, --tol"),
    (["toda", "--t=1"], 2, "", "ambiguous option: --t=1 could match --t3, --to, --tol"),
    (["trace", "--t", "1"], 2, "", "ambiguous option: --t could match --t1, --to"),
    (["gd", "--n"], 2, "", "argument --n: expected one argument"),
    (["gd", "--n", "3", "--format"], 2, "", "argument --format: expected one argument"),
    (["critical", "--t1", "--t1"], 2, "", "argument --t1: expected one argument"),
    (["critical", "--t1", "-1e-3x"], 2, "", "argument --t1: expected one argument"),
    (["--outdir"], 2, "", "argument --outdir: expected one argument"),
    (["gd", "--n", "3.0"], 2, "", "argument --n: invalid int value: '3.0'"),
    (["gd", "--n="], 2, "", "argument --n: invalid int value: ''"),
    (["gd", "--n=3=4"], 2, "", "argument --n: invalid int value: '3=4'"),
    (["gd", "--format", "xml"], 2, "", "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["gd", "--bogus", "1"], 2, "", "unrecognized arguments: --bogus 1"),
    (["gd", "-n", "3"], 2, "", "unrecognized arguments: -n 3"),
    (["gd", "--n", "2", "1", "2"], 2, "", "unrecognized arguments: 1 2"),
    (["gd", "--n", "3", "--"], 2, "", "unrecognized arguments: --"),
    (["-x", "gd"], 2, "", "unrecognized arguments: -x"),
    (["--bogus", "gd", "--n", "1"], 2, "", "unrecognized arguments: --bogus"),
    (["critical", "--outdir", "d"], 2, "", "unrecognized arguments: --outdir d"),
    (["bogus"], 2, "", "argument command: invalid choice: 'bogus' (choose from 'gd', 'critical', 'trace', "
                       "'painleve', 'match', 'composite', 'frames', 'toda')"),
    (["-1"], 2, "", "argument command: invalid choice: '-1' (choose from 'gd', 'critical', 'trace', "
                    "'painleve', 'match', 'composite', 'frames', 'toda')"),
    ([], 2, "", "the following arguments are required: command"),
    (["-x"], 2, "", "the following arguments are required: command"),
    (["--conf="], 2, "", "the following arguments are required: command"),
    (["gd", "--n", "-1"], 2, "", "n = -1 outside the validated range [0, 16]"),
    (["painleve", "--xi-min", "-1"], 2, "", "unrecognized arguments: --xi-min -1"),
    (["--config", "{xi_min_cfg}", "painleve"], 2, "", "{xi_min_cfg}:1: unknown key 'xi_min'"),
]


def _gd_shape(out: str) -> str:
    """R_0..R_n for the text of gd --n n, json R_0..R_n for its JSON, the text itself otherwise."""
    if out.startswith("{"):
        return f"json R_0..R_{len(json.loads(out)['polynomials']) - 1}"
    lines = out.splitlines()
    if lines and all(line.startswith(f"R_{k} = ") for k, line in enumerate(lines)):
        return f"R_0..R_{len(lines) - 1}"
    return out


@pytest.mark.parametrize("argv, code, out, err", PARSER_CASES, ids=[" ".join(c[0]) or "(none)" for c in PARSER_CASES])
def test_command_line_parses_as_argparse_did(tmp_path, capsys, monkeypatch, argv, code, out, err):
    monkeypatch.chdir(tmp_path)  # the commands that run write into a directory of their own
    (tmp_path / "n2.cfg").write_text("n = 2\n")
    (tmp_path / "xi_min.cfg").write_text("xi_min = -1\n")

    def fill(text):
        return text.replace("{cfg}", str(tmp_path / "n2.cfg")).replace("{xi_min_cfg}", str(tmp_path / "xi_min.cfg"))

    got = run(capsys, *map(fill, argv))
    assert (got[0], _gd_shape(got[1]), got[2]) == (code, out, f"config error: {fill(err)}\n" if err else "")
    if code == 2:  # a refused configuration writes no file
        assert sorted(os.listdir(tmp_path)) == ["n2.cfg", "xi_min.cfg"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], *([sub, "-h"] for sub in OPTIONS), ["gd", "--help"],
                                  ["gd", "--bogus", "-h"], ["--outdir", "d", "toda", "--n", "3", "--h"]],
                         ids=" ".join)
def test_help_returns_0_with_usage_on_stdout(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: heleshaw [--config FILE] [--outdir DIR] ")
    shown = [sub for sub in OPTIONS if sub in argv] or list(OPTIONS)
    for sub in OPTIONS:
        header = f"\n\n{sub}: {_COMMANDS[sub].__doc__}\n"
        assert (header in out) == (sub in shown)
        if sub in shown:
            lines = out.split(header)[1].split("\n\n")[0].splitlines()
            assert len(lines) == len(OPTIONS[sub])
            for line, (key, opt) in zip(lines, OPTIONS[sub].items()):
                assert line.split()[0] == "--" + key.removeprefix("x_").replace("_", "-")
                assert line.endswith(f" default {opt.default}" if opt.default is not None else " from the solution")
    assert list(tmp_path.iterdir()) == []  # help runs nothing


@settings(max_examples=300, deadline=None, derandomize=True)
@given(path=st.text(alphabet="/.a", min_size=1, max_size=10))
@example(path="//")
@example(path="///a//")
@example(path="./a/../b/.")
def test_clean_path_spells_paths_as_pathlib(path):
    assert clean_path(path) == str(PurePosixPath(path))
    assert join_path(clean_path(path), "trace.csv") == str(PurePosixPath(path) / "trace.csv")


@pytest.mark.parametrize("spelling", ["out/", "./out", "out//sub", "a/./b", ".", "./out//", "$HELESHAW_OUTDIR"])
def test_printed_paths_read_as_pathlib_spells_them(tmp_path, capsys, monkeypatch, spelling):
    monkeypatch.chdir(tmp_path)
    if spelling == "$HELESHAW_OUTDIR":
        outdir, argv = "./env//dir/", []
        monkeypatch.setenv("HELESHAW_OUTDIR", outdir)
    else:
        outdir, argv = spelling, ["--outdir", spelling]
        monkeypatch.delenv("HELESHAW_OUTDIR", raising=False)
    code, out, _ = run(capsys, *argv, "trace", "--n", "3")
    assert code == 0 and json.loads(out)["file"] == str(Path(outdir) / "trace.csv")
    code, out, _ = run(capsys, *argv, "frames", "--count", "1", "--n-samples", "8")
    assert code == 0 and json.loads(out)["outdir"] == str(Path(outdir))
    assert (Path(outdir) / "trace.csv").is_file() and (Path(outdir) / "manifest.json").is_file()


def test_outdir_with_control_characters_prints_valid_json(tmp_path, capsys):
    outdir = tmp_path / "a\tb\nc"
    code, out, _ = run(capsys, "--outdir", str(outdir), "trace", "--n", "3")
    assert code == 0
    assert json.loads(out)["file"] == str(outdir / "trace.csv")


def test_outdir_with_an_undecodable_byte_prints_valid_json(tmp_path):
    # the byte 0xff reaches the CLI as the lone surrogate U+DCFF, which has no UTF-8 form
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
           "PYTHONIOENCODING": "utf-8:surrogateescape"}
    outdir = os.fsencode(tmp_path) + b"/s\xff"
    out = subprocess.run([sys.executable, "-m", "heleshaw.cli", "--outdir", outdir, "trace", "--n", "3"], env=env,
                         capture_output=True, check=True)
    assert json.loads(out.stdout)["file"] == os.fsdecode(outdir + b"/trace.csv")


def test_gd_text_golden(capsys):
    code, out, _ = run(capsys, "gd", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "R_0 = 1",
        "R_1 = 1/2 u",
        "R_2 = 3/8 u^2 + 1/8 u_xx",
        "R_3 = 5/16 u^3 + 5/16 u u_xx + 5/32 u_x^2 + 1/32 u_x4",
    ]


def test_gd_json(capsys):
    code, out, _ = run(capsys, "gd", "--n", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["polynomials"][1]["terms"] == [{"orders": [0], "num": "1", "den": "2"}]


@pytest.mark.parametrize("n, digest", [
    (14, "d49a5363182b3bea8ddf2ffcdfbc80cbee9185b250394737101e65d59a708780"),
    (16, "53062c4d0d5fb2929ce482aa0be717496de921d943a950b132be5de22039d50c"),
])
def test_gd_json_digest(capsys, n, digest):
    code, out, _ = run(capsys, "gd", "--n", str(n), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, digest", [
    (12, "3b81bda6ea7757b29d3f5f5dafa4f94fb8fe8f22106b77a42f4c2f2650a2e37f"),
    (16, "f8307fcdb553fd8d11ba459b376148b3a3f4718677eb9f49e6909dac3c590d5c"),
])
def test_gd_text_digest(capsys, n, digest):
    code, out, _ = run(capsys, "gd", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trace_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "--outdir", str(tmp_path), "trace", "--t1", "-0.8", "--n", "11")
    assert code == 0
    rows = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "x,u0"
    assert len(rows) == 12
    x0, u0 = map(float, rows[1].split(","))
    assert x0 == 0.58
    assert 5 / 8 * u0**3 - 1.2 * u0 + x0 == pytest.approx(0.0, abs=1e-12)


def test_match_headline_numbers(tmp_path, capsys):
    code, out, _ = run(capsys, "--outdir", str(tmp_path), "match",
                       "--eps", "1e-5", "--from", "0.6365", "--to", "0.6395")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs_err"] < 5e-4
    assert payload["max_rel_err"] < 0.000625


@settings(max_examples=100, deadline=None, derandomize=True)
@given(t1=st.floats(-1.5, -0.3), eps=st.floats(-6.0, -2.0).map(lambda e: 10.0**e),
       ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
       n=st.integers(1, 2000))
@example(t1=-0.8, eps=1e-5, ends=[0.0, 1e-3], n=1)
def test_match_report_equals_overlap_report(tmp_path_factory, t1, eps, ends, n):
    """match computes on floats what multiscale.overlap_report computes on arrays, bit for bit, on any
    window below x_c (ends in units of x_c, measured down from it)."""
    from heleshaw.multiscale import build_composite, overlap_report
    from heleshaw.textio import json_text

    comp = build_composite(t_1=t1, eps=eps)
    a, b = (comp.x_c - e * comp.x_c for e in reversed(ends))
    assume(a < b)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--outdir", str(tmp_path_factory.getbasetemp()), "match", f"--t1={t1!r}", f"--eps={eps!r}",
                     f"--from={a!r}", f"--to={b!r}", f"--n={n}"])
    assert (code, stdout.getvalue()) == (0, json_text(overlap_report(comp, (a, b), n)) + "\n")


def test_composite_csv_and_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "--outdir", str(tmp_path), "composite", "--n", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 50
    assert payload["x_star"] > 0.6402302
    rows = (tmp_path / "composite.csv").read_text().strip().splitlines()
    assert rows[0] == "x,u"


def test_composite_beyond_domain_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "--outdir", str(tmp_path), "composite", "--to", "0.7")
    assert code == 1
    assert "error" in err


def test_frames_manifest(tmp_path, capsys):
    code, out, _ = run(capsys, "--outdir", str(tmp_path), "frames", "--count", "3")
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [f["index"] for f in manifest["frames"]] == [0, 1, 2]
    assert len(manifest["events"]) == 5
    kinds = [ev["kind"] for ev in manifest["events"]]
    assert kinds == ["cusp", "zero-count-change", "cusp", "zero-count-change", "root-coalescence"]


def test_toda_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "--outdir", str(tmp_path), "toda",
                       "--t3", "1", "--xc", "-6", "--n", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["u_c"] == pytest.approx(1.0, rel=1e-13)
    assert payload["identity_residual"] < 1e-12
    rows = (tmp_path / "toda.csv").read_text().strip().splitlines()
    assert rows[0] == "t_tilde,u,v"


def test_painleve_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "--outdir", str(tmp_path), "painleve", "--n", "20")
    payload = json.loads(out)
    assert -2.40 < payload["pole"] < -2.37
    assert payload["residual_max"] < 100 * payload["tol"]


def test_reruns_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run(capsys, "--outdir", str(d), "trace", "--n", "25")
        assert code == 0
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HELESHAW_OUTDIR", str(tmp_path / "envdir"))
    code, _, _ = run(capsys, "trace", "--n", "5")
    assert code == 0
    assert (tmp_path / "envdir" / "trace.csv").exists()


def test_outdir_naming_a_file_exit_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    code, out, err = run(capsys, "--outdir", str(afile), "critical")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert afile.read_text() == "keep"


def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # every u of this run is nan; the writer refuses it before any file appears
    monkeypatch.setattr(toda, "toda_composite", lambda ts, inner: (ts * math.nan, ts * math.nan))
    code, _, err = run(capsys, "--outdir", str(tmp_path), "toda", "--n", "7")
    assert code == 1
    assert "non-finite" in err
    assert not list(tmp_path.iterdir())


def test_rerun_replaces_file_whole(tmp_path, capsys):
    code, _, _ = run(capsys, "--outdir", str(tmp_path / "fresh"), "trace", "--n", "5")
    assert code == 0
    target = tmp_path / "trace.csv"
    target.write_text("x,u0\n" + "1,2\n" * 100)
    code, _, _ = run(capsys, "--outdir", str(tmp_path), "trace", "--n", "5")
    assert code == 0
    assert target.read_bytes() == (tmp_path / "fresh" / "trace.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "trace.csv"]


def test_unwritable_output_exit_1(tmp_path, capsys):
    (tmp_path / "trace.csv").mkdir()
    code, _, err = run(capsys, "--outdir", str(tmp_path), "trace", "--n", "5")
    assert code == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


def test_failed_rerun_keeps_previous_file(tmp_path, capsys):
    code, _, _ = run(capsys, "--outdir", str(tmp_path), "toda", "--n", "7")
    assert code == 0
    before = (tmp_path / "toda.csv").read_bytes()
    code, _, _ = run(capsys, "--outdir", str(tmp_path), "toda", "--t3=5e-324", "--n", "7")
    assert code == 1
    assert (tmp_path / "toda.csv").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["toda.csv"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_output_digests_at_default_arguments(tmp_path, capsys):
    """Every data file, and the stdout that holds no path, is pinned byte for byte."""
    stdout = {}
    for sub in ("critical", "trace", "painleve", "match", "toda", "frames", "composite"):
        code, stdout[sub], _ = run(capsys, "--outdir", str(tmp_path), sub)
        assert code == 0
    assert _sha256(stdout["critical"].encode()) == (
        "a3ab01967f359ed87237351bc375e15f7d5473ccbfecf9934d4f0618f58821ae")
    assert _sha256(stdout["match"].encode()) == (
        "52c927f3fc6c508cdfa61c0866e63764dace87607d9a90a7d417d3dd3b37d608")
    assert _sha256((tmp_path / "trace.csv").read_bytes()) == (
        "29e014c84e4ff786b262858b962f0d38b3ced926031538d499e26e3e500a61b9")
    assert _sha256((tmp_path / "composite.csv").read_bytes()) == (
        "90a5c270e192aee3d68aad9f7b39d9d7f25ac46c3b004c395d37e605b70450ae")
    assert _sha256((tmp_path / "painleve.csv").read_bytes()) == (
        "d0031c8a671ef2410e74aeac675c054c907784010b8c1294ea2e6cf0bc6f90cc")
    assert _sha256((tmp_path / "toda.csv").read_bytes()) == (
        "0867c9f9dc194a764d1d9308bf83e6ead00e08e05a0bd64c0b242b16a625142b")
    assert _sha256((tmp_path / "manifest.json").read_bytes()) == (
        "e39d4a98ca1317a8eb1bc7940137d0959eb5eb486ea7f729a036ba30e2ece527")
    # composite rows on the inner branch, x >= x_switch = 0.638
    rows = (tmp_path / "composite.csv").read_text().splitlines(keepends=True)[1:]
    inner = "".join(row for row in rows if float(row.split(",")[0]) >= 0.638)
    assert _sha256(inner.encode()) == "074368338979f7ca54fc1109b5e71bf36b93cf7c6897b47d1b0eacfe96de2b9e"


@pytest.mark.parametrize("sub, digest", [
    ("trace", "b80accddd054b513f7855bd5980fe34c8306f58ae3a890b6c996bd74048ab6c1"),
    ("painleve", "f472e87c6aa5125497509f6f935a74125d3f059aa2b539e6ef521966f515390b"),
    ("composite", "75ecebbe990a5683f2858efaeb6ed261614d176ec4ced62dc7055f04dbd367f7"),
    ("toda", "5cf99f240536c630966630ffeee68d909ce7a6d2a9fde4320136625d0891904e"),
    ("frames", "c54994e88bce4b9efe217971d718a968940eb9cc5409ccea27add2caad712456"),
])
def test_summary_digests_at_default_arguments(tmp_path, capsys, sub, digest):
    """The JSON summaries that print a path (pole, residual_max, x_star, t_tilde_pole, identity_residual),
    pinned with the output directory spelled OUTDIR, as the CI job hashes them."""
    code, out, _ = run(capsys, "--outdir", str(tmp_path), sub)
    assert code == 0
    assert _sha256(out.replace(str(tmp_path), "OUTDIR").encode()) == digest


def test_frame_digests_at_default_arguments(tmp_path, capsys):
    """Every frame file of `frames` at its defaults is pinned byte for byte."""
    code, _, _ = run(capsys, "--outdir", str(tmp_path), "frames")
    assert code == 0
    assert [_sha256((tmp_path / f"frame_{i:03d}.csv").read_bytes()) for i in range(8)] == [
        "73ca93383b00f5f343018a9a8e90cb1cfd8406143c4a7e9dc10a8c360eca158c",
        "e3f0531a3b3201db49c7340fca4d3129e9835b8924c81e8039eb0bfcf7792625",
        "1b207fbf0621ae179448f594411b9156e160406ad1645d5d82f12cbd8612c641",
        "9e0a7ad4b8c9a39fe62d6c443ff56269f97a36ec98d7640e6dcad843ff1bb965",
        "273edefe0045f18a72c81842c0b49f8c7ee34937bc0d7a264074b1c77bdec07c",
        "baaf3eaddb64435d5e7e9a1c3c591a129ccd524f7daa960e0e4dd5ee64a64c12",
        "92aac774cd6c789aa2ddf2ae8579370ab51a8d13c43b2f9f55ff35cc38a89e6d",
        "a1dadf7e62fd912053a4bc71fa0144c89c8d5d0768c78259d3141e2899525824",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"frame_{i:03d}.csv" for i in range(8)] + [
        "manifest.json"]


def _compensated_sum(iterable, /, start=0, _plain=sum):
    """The built-in sum of Python 3.12 and later: Neumaier-compensated over an all-float iterable."""
    items = list(iterable)
    if not (type(start) in (int, float) and all(type(x) is float for x in items)):
        return _plain(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_output_digests_do_not_depend_on_the_sum_of_the_python_version(tmp_path, capsys, monkeypatch):
    """Under 3.12's compensated float sum every pinned digest still holds: no output path calls sum on floats."""
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0  # 0.0 when summed left to right
    monkeypatch.setattr("builtins.sum", _compensated_sum)
    painleve._integrate.cache_clear()  # integrate again, under the patched sum
    try:
        for test, outdir in ((test_output_digests_at_default_arguments, tmp_path / "outputs"),
                             (test_frame_digests_at_default_arguments, tmp_path / "frames")):
            outdir.mkdir()
            test(outdir, capsys)
    finally:
        painleve._integrate.cache_clear()


def test_eps_range_validated(capsys):
    code, _, err = run(capsys, "match", "--eps", "0.5")
    assert code == 2
    assert "eps" in err


def test_tol_range_validated(capsys):
    code, _, err = run(capsys, "painleve", "--tol", "1e-3")
    assert code == 2
    assert "tol" in err


@pytest.mark.parametrize("argv", [
    ("trace", "--t1", "nan"),
    ("frames", "--from", "nan"),
    ("frames", "--to", "nan"),
    ("composite", "--switch", "nan"),
    ("frames", "--switch", "nan"),
    ("toda", "--xc", "inf"),
    ("painleve", "--xi0", "inf"),
], ids=" ".join)
def test_non_finite_input_exit_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, "--outdir", str(tmp_path), *argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("gd", "--n", "-1"),
    ("gd", "--n", "40"),
    ("frames", "--count", "0"),
    ("frames", "--count", "-3"),
    ("frames", "--from", "0.64", "--to", "0.6"),
    ("frames", "--from", "0.62", "--to", "0.62"),
    ("painleve", "--xi0", "1e6"),
    ("painleve", "--xi0", "9.5"),
    ("composite", "--xi0", "2000"),
    ("trace", "--n", "-5"),
    ("trace", "--n", "0"),
    ("painleve", "--n", "-1"),
    ("match", "--n", "0"),
    ("composite", "--n", "0"),
    ("toda", "--n", "-1"),
    ("frames", "--n-samples", "0"),
    ("frames", "--n-samples", "-1"),
    ("trace", "--n", "1000001"),
    ("frames", "--count", "10001"),
    ("frames", "--n-samples", "100001"),
    ("gd", "--n", "abc"),
    ("gd", "--format", "xml"),
    ("trace", "--bogus", "1"),
    pytest.param((), id="no subcommand"),
], ids=" ".join)
def test_out_of_range_input_exit_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, "--outdir", str(tmp_path), *argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("match", "--t1=-1e300"),
    ("composite", "--t1=-1e300"),
    ("frames", "--t1=-1e300"),
    ("toda", "--xc=-1e300"),
    ("critical", "--t1=-1e300"),
    ("trace", "--from=-1.7e308", "--to", "0.5"),
    ("trace", "--from", "-1.7e308", "--to", "0.5"),
    ("toda", "--t3=1e-300"),
    ("toda", "--t3=5e-324"),
], ids=" ".join)
def test_overflow_names_the_quantity_exit_1(tmp_path, capsys, argv):
    code, _, err = run(capsys, "--outdir", str(tmp_path), *argv)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "Numerical result out of range" not in err
    assert "overflows at" in err


@pytest.mark.parametrize("sub", ["critical", "match", "frames"])
def test_underflowing_x_c_names_it_exit_1(tmp_path, capsys, sub):
    # v_c = 8.9e-151, but x_c = -t_1 v_c = 8.9e-451 is zero in floats
    code, out, err = run(capsys, "--outdir", str(tmp_path), sub, "--t1=-1e-300")
    assert (code, out) == (1, "")
    assert err == "error: critical abscissa x_c = -t_1 v_c underflows at t_1 = -1e-300\n"
    assert not list(tmp_path.iterdir())


def test_trace_underflowing_x_c_names_it_exit_1(tmp_path, capsys):
    # with x_c = 0, x = 0 would be taken for the fold and u0(0) = v_c printed, not sqrt(3) v_c
    code, out, err = run(capsys, "--outdir", str(tmp_path), "trace", "--t1=-1e-300", "--from=-1", "--to=0",
                         "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: critical abscissa x_c = -t_1 v_c underflows at t_1 = -1e-300\n"
    assert not list(tmp_path.iterdir())


def test_trace_far_field_is_finite(tmp_path, capsys):
    # k = (8/5)(x_c - x) = 1.6e308 is a float, though the cube of Newton's first seed is not
    code, _, err = run(capsys, "--outdir", str(tmp_path), "trace", "--from=-1e308", "--to", "0.5", "--n", "3")
    assert (code, err) == (0, "")
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert float(rows[1].split(",")[1]) == pytest.approx(5.4288e102, rel=1e-4)
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(","))


@pytest.mark.parametrize("argv, message", [
    (("composite", "--to", "0.7"), "error: x = 0.7 is outside the inner branch, which starts where (x - x_c)/"
                                   "(eps~^2 beta) is finite and ends a pole guard short of x* = 0.640238416876957"),
    (("toda", "--to", "5"), "error: t~ = 5.0 is outside the regularized window, which starts where a^(1/5) t~ is "
                            "finite and ends a pole guard short of t~_pole = 3.2832862407268553"),
    (("trace", "--to", "0.65"), "error: x=0.65 beyond the catastrophe point x_c=0.6400000000000001: branch folded"),
], ids=" ".join)
def test_window_beyond_the_solution_is_refused_at_its_end(tmp_path, capsys, argv, message):
    """The end rows are computed before the file opens: the refusal names the window's end, not the
    first grid row past the solution, and no file is written."""
    code, out, err = run(capsys, "--outdir", str(tmp_path), *argv)
    assert (code, out, err.splitlines()) == (1, "", [message])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("composite", "--to", "0.64023835"), ("frames", "--to", "0.6402384"),
                                  ("toda", "--to", "3.2832")], ids=" ".join)
def test_window_ending_in_the_pole_guard_is_refused_by_its_own_variable(tmp_path, capsys, argv):
    """An end below x* (t~_pole) but within the image of the tritronquee's pole guard is refused in one line
    by the window's own variable, never by xi, and no file is written."""
    code, out, err = run(capsys, "--outdir", str(tmp_path), *argv)
    assert (code, out, len(err.splitlines())) == (1, "", 1)
    assert f"error: {'t~' if argv[0] == 'toda' else 'x'} = {argv[-1]} " in err and "xi" not in err, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("composite", "--eps", "3e-5"), ("composite", "--eps", "1e-4"),
                                  ("composite", "--eps", "1e-3"), ("composite", "--eps", "1e-2"),
                                  ("composite", "--eps", "1e-22"), ("composite", "--eps", "1e-300"),
                                  ("toda", "--t3", "1e6")], ids=" ".join)
def test_default_window_ends_one_guard_inside_the_pole_image(tmp_path, capsys, argv):
    """Away from the README configuration the default end of the composite (x_last) and of the Toda flow
    (t~_last) stays one guard inside the tritronquee's range, so every row is served."""
    code, _, err = run(capsys, "--outdir", str(tmp_path), *argv)
    assert (code, err) == (0, "")
    last = (tmp_path / f"{argv[0]}.csv").read_text().splitlines()[-1].split(",")
    assert all(map(math.isfinite, map(float, last)))


@pytest.mark.parametrize("argv, t1, eps", [((), -0.8, 1e-5), (("--eps", "9.5e-6"), -0.8, 9.5e-6),
                                           (("--t1", "-0.7999"), -0.7999, 1e-5)],
                         ids=["defaults", "eps 9.5e-6", "t1 -0.7999"])
def test_frames_default_window_ends_inside_the_solution(tmp_path, capsys, argv, t1, eps):
    """The default frame window ends at 0.6402302 or at the composite's x_last, whichever comes first: at
    the README configuration x_last = 0.640238216876957 lies beyond it (the pinned digests hold), at
    eps = 9.5e-6 or t1 = -0.7999 x* itself lies below it."""
    code, out, err = run(capsys, "--outdir", str(tmp_path), "frames", *argv)
    assert (code, err) == (0, "")
    comp = multiscale.build_composite(t_1=t1, eps=eps)
    last = json.loads((tmp_path / "manifest.json").read_text())["frames"][-1]
    assert last["x"] == min(FRAMES_X_TO, comp.x_last)
    assert (last["x"] == FRAMES_X_TO) == (argv == ())
    rows = (tmp_path / last["file"]).read_text().splitlines()[1:]
    assert len(rows) == 400 and all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_vanishing_similarity_constant_ends_the_window_at_t_tilde_last(tmp_path, capsys):
    """a = 2 u_c^2/(3 t_3) ~ 2e-201 stretches t~ to ~1e40; the default window still ends one guard
    inside the tritronquee's range, at t~_last."""
    code, _, err = run(capsys, "--outdir", str(tmp_path), "toda", "--xc=-1e-300")
    assert code == 0 and err == ""
    inner = toda.build_toda_inner(1.0, -1e-300, 1e-5)
    last = (tmp_path / "toda.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == inner.t_tilde_last


#: upper bounds on the drawn sizes, so that each run stays short
SIZE_CAPS = {"n": 50, "count": 3, "n_samples": 50, ("gd", "n"): 10}


def _option_values(command, key, opt):
    """Every value the option table accepts for one option (sizes capped)."""
    if opt.choices:
        return st.sampled_from(opt.choices)
    if opt.type is int:
        return st.integers(opt.lo, min(opt.hi, SIZE_CAPS.get((command, key), SIZE_CAPS[key])))
    return st.floats(min_value=opt.lo if math.isfinite(opt.lo) else None,
                     max_value=opt.hi if math.isfinite(opt.hi) else None,
                     exclude_min=opt.lo_open, allow_nan=False, allow_infinity=False)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for key, opt in OPTIONS[command].items():
        value = draw(st.none() | _option_values(command, key, opt))
        if value is not None:
            argv.append(f"--{key.removeprefix('x_').replace('_', '-')}={value}")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argvs())
@example(argv=["gd", "--n", "abc"])
@example(argv=["gd", "--format", "xml"])
@example(argv=["trace", "--bogus", "1"])
@example(argv=[])
@example(argv=["trace", "--t1=-1e300"])
@example(argv=["match", "--t1=-1e300"])
@example(argv=["frames", "--t1=-1e300"])
@example(argv=["toda", "--xc=-1e300"])
@example(argv=["trace", "--from=-1e308", "--to", "0.5"])
@example(argv=["toda", "--from=-1e308"])
@example(argv=["trace", "--t1=-1e-300", "--from=0", "--n", "7"])
@example(argv=["critical", "--t1=-1e308"])
@example(argv=["toda", "--t3=5e-324", "--n", "7"])
@example(argv=["frames", "--eps", "1e-300"])
@example(argv=["composite", "--eps", "1e-300"])
@example(argv=["match", "--eps", "1e-300"])
@example(argv=["frames", "--t1=-1e-300", "--switch=-1", "--from=-1", "--count=2"])
@example(argv=["frames", "--from=0", "--to=5e-324"])
def test_any_input_ends_cleanly(argv):
    """Every input ends in a result or in exit 1 or 2 with one stderr line;
    a result carries no warning and no non-finite number."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--outdir", outdir, *argv])
        assert time.perf_counter() - start < 10
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) == (code != 0)
        if code == 0:
            assert [str(w.message) for w in caught] == []
            texts = [out.getvalue()] + [f.read_text() for f in Path(outdir).iterdir()]
            assert not any("NaN" in text or "Infinity" in text for text in texts)


def test_failed_certificate_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(painleve, "STEP_EPS", 1e4)  # steps far too long for tol
    painleve._integrate.cache_clear()  # the cache is keyed by the arguments only: integrate again
    try:
        code, _, err = run(capsys, "--outdir", str(tmp_path), "painleve")
    finally:
        painleve._integrate.cache_clear()
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "certification failed" in err


def test_frame_abscissas_shape():
    xs = frame_abscissas(0.6, 0.6402302, 8)
    assert xs[0] == 0.6 and xs[-1] == 0.6402302
    assert xs == sorted(xs)
    # geometric accumulation toward the end of the window
    assert xs[-1] - xs[-2] < (xs[1] - xs[0]) / 100
    assert frame_abscissas(0.6, 0.64, 1) == [0.64]
    assert frame_abscissas(0.6, 0.64, 0) == []


def test_frames_window_whose_span_overflows_exit_1(tmp_path, capsys):
    # x_to - x_from = inf: log10(inf) - log10(inf) would place nan frames
    code, out, err = run(capsys, "--outdir", str(tmp_path), "frames", "--from=-1e308", "--to=1e308")
    assert (code, out) == (1, "")
    assert err == "error: frame window from -1e+308 to 1e+308 is too wide: its span overflows\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sub", ["trace", "composite", "toda", "match"])
def test_table_window_whose_span_overflows_exit_1(tmp_path, capsys, sub):
    # stop - start = inf: the grid would hold nan and inf abscissas, values the user never gave
    code, out, err = run(capsys, "--outdir", str(tmp_path), sub, "--from=-1e308", "--to=1e308")
    assert (code, out) == (1, "")
    assert err == "error: window from -1e+308 to 1e+308 is too wide: its span overflows\n"
    assert not list(tmp_path.iterdir())


def test_frames_whose_finger_window_rounds_to_a_point_exit_1(tmp_path, capsys):
    # at x = -1e308 the outer branch gives u = 5.4e102, where u + 1 rounds to u
    code, out, err = run(capsys, "--outdir", str(tmp_path), "frames", "--from=-1e308", "--to=0.6")
    assert (code, out) == (1, "")
    assert err == ("error: empty sampling window [u, max(2.5, u + 1)] = [5.428835233189813e+102, "
                   "5.428835233189813e+102] at the branch point u = 5.428835233189813e+102\n")


def test_match_far_below_the_fold_exit_1_without_a_warning(tmp_path, capsys):
    # xi = (x - x_c) / (eps~^2 beta) overflows to inf at x = -1e308: the inner branch refuses it by name
    code, out, err = run(capsys, "--outdir", str(tmp_path), "match", "--from=-1e308", "--to=-6")
    assert (code, out) == (1, "")
    assert err == ("error: x = -1e+308 is outside the inner branch, which starts where (x - x_c)/(eps~^2 beta) "
                   "is finite and ends a pole guard short of x* = 0.640238416876957\n")


def test_match_keeps_a_nan_overlap_nan(tmp_path, capsys, monkeypatch):
    # numpy's max of the overlap is nan if one value is; Python's max would skip it and print a number
    from heleshaw.multiscale import CompositeSolution

    mid = grid(0.6365, 0.6367, 3)[1]
    inner_u = CompositeSolution.inner_u
    monkeypatch.setattr(CompositeSolution, "inner_u", lambda self, x: math.nan if x == mid else inner_u(self, x))
    code, out, err = run(capsys, "--outdir", str(tmp_path), "match", "--from=0.6365", "--to=0.6367", "--n=3")
    assert (code, out, err) == (1, "", "error: non-finite result nan cannot be written\n")


_FINITE = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(start=_FINITE, stop=_FINITE, n=st.integers(1, 2000))
@example(start=0.0, stop=math.pi, n=1999)
@example(start=0.0, stop=5e-324, n=7)  # the step underflows to 0
@example(start=-1e308, stop=1e308, n=5)  # the span overflows: refused, where numpy gives nan rows
@example(start=0.58, stop=0.6399, n=1)
def test_grid_matches_numpy_linspace(start, stop, n):
    import numpy as np

    if not math.isfinite(stop - start):
        with pytest.raises(DomainError, match=r"too wide: its span overflows$"):
            grid(start, stop, n)
        return
    xs = grid(start, stop, n)
    assert type(xs) is list and all(type(x) is float for x in xs)
    with np.errstate(all="ignore"):
        assert [x.hex() for x in xs] == [x.hex() for x in np.linspace(start, stop, n).tolist()]


def test_tables_at_a_bulk_row_count_match_the_array_functions(tmp_path, capsys):
    """At 20001 rows, each table the CLI computes point by point on floats is the file that the
    layers' array functions give on np.linspace: dense-eval's path and the CLI's write the same bits."""
    import numpy as np

    from heleshaw.hodograph import closed_u0
    from heleshaw.multiscale import build_composite
    from heleshaw.textio import write_csv

    n = 20_001
    sol = painleve.integrate_tritronquee(xi0=30.0, tol=1e-11)
    comp = build_composite(t_1=-0.8, eps=1e-5, x_switch=0.638, tol=1e-11, xi0=30.0)
    inner = toda.build_toda_inner(1.0, 1.0, 1e-5, tol=1e-11)
    xs = np.linspace(0.58, 0.6399, n)
    xis = np.linspace(sol.pole + 2 * painleve.POLE_GUARD, 30.0, n)
    cxs = np.linspace(0.6, comp.x_last, n)
    ts = np.linspace(-30.0, inner.t_tilde_last, n)
    tables = {"trace": ("x,u0", (xs, closed_u0(xs, -0.8))), "painleve": ("xi,W,Wp", (xis, *sol.eval_many(xis))),
              "composite": ("x,u", (cxs, comp.eval_many(cxs))),
              "toda": ("t_tilde,u,v", (ts, *toda.toda_composite(ts, inner)))}
    for sub, (header, columns) in tables.items():
        assert run(capsys, "--outdir", str(tmp_path / "cli"), sub, f"--n={n}")[0] == 0
        write_csv(tmp_path / f"{sub}.csv", header, zip(*columns))
        assert (tmp_path / "cli" / f"{sub}.csv").read_bytes() == (tmp_path / f"{sub}.csv").read_bytes(), sub


def test_frames_and_trace_independent_of_numpy_cpu_dispatch(tmp_path):
    """Frame abscissas, the frame, trace, painleve, composite and toda files and
    match's report keep their bits when the AVX-512 kernels of numpy are
    switched off in a child process.

    Over these windows, np.geomspace placed 24 of 7809 frames differently on
    an AVX-512 host.  Where numpy has no such kernels, the variable changes
    nothing and both runs agree trivially.
    """
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    no_avx512 = {**env, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    code = """
import contextlib, hashlib, io, json, random, sys
from pathlib import Path
from heleshaw.cli import frame_abscissas, main
rng = random.Random(12345)
windows = []
for _ in range(300):
    a = rng.uniform(-2.0, 1.0)
    windows.append((a, a + 10.0 ** rng.uniform(-8.0, 1.0), rng.randint(2, 50)))
digests = {}
for i, argv in enumerate((["frames"], ["frames", "--from=0.62", "--to=0.6401", "--count=13"], ["trace"],
                          ["trace", "--t1=-1.3", "--from=-2", "--to=1.1", "--n=999"],
                          ["painleve"], ["composite"], ["toda"], ["match"],
                          ["match", "--t1=-1.1", "--eps=1e-4", "--from=0.9", "--to=1.0", "--n=333"])):
    outdir = Path(sys.argv[1]) / str(i)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["--outdir", str(outdir), *argv]) == 0
    for f in sorted(outdir.iterdir()):
        digests[f"{i}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    if argv[0] == "match":  # its stdout holds no path
        digests[f"{i}/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
print(json.dumps({"x": [[v.hex() for v in frame_abscissas(*w)] for w in windows], "files": digests}))
"""
    runs = [json.loads(subprocess.run([sys.executable, "-c", code, str(tmp_path / str(i))], env=child,
                                      capture_output=True, text=True, check=True).stdout)
            for i, child in enumerate((env, no_avx512))]
    assert len(runs[0]["files"]) == (8 + 1) + (13 + 1) + 1 + 1 + 3 + 2
    assert runs[0] == runs[1]


def test_cli_import_loads_no_scipy(tmp_path):
    """Importing the package or the CLI loads no numpy, scipy or layer module;
    `gd` and `critical` each load only their own layer, without numpy; `frames`
    loads no numpy, no scipy and not the merging branch (heleshaw.toda); and in a fresh
    interpreter `critical` and `trace` load only the hodograph layer, and
    `painleve`, `composite`, `toda`, `match` and `frames` load no exact number
    type (fractions, decimal)."""
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m.split('.')[0] in ('heleshaw', 'numpy', 'scipy', 'fractions', 'decimal'))
stages = []
import heleshaw
stages.append(loaded())
from heleshaw.cli import main
stages.append(loaded())
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    stages.append(loaded())
print(json.dumps(stages))
"""

    def stages(*argvs):
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env, capture_output=True,
                             text=True, check=True)
        return json.loads(out.stdout)

    cli = ["heleshaw", "heleshaw.cli", "heleshaw.errors", "heleshaw.textio"]
    *cold, frames = [[m for m in stage if m.split(".")[0] in ("heleshaw", "numpy", "scipy")]
                     for stage in stages(["gd", "--n", "3"], ["critical"], ["--outdir", str(tmp_path), "frames"])]
    assert cold == [
        ["heleshaw"],
        cli,
        sorted([*cli, "heleshaw.diffpoly"]),
        sorted([*cli, "heleshaw.diffpoly", "heleshaw.hodograph"]),
    ]
    layers = [m for m in frames if m.split(".")[0] == "heleshaw"]
    assert layers == sorted([*cli, "heleshaw.diffpoly", "heleshaw.geometry", "heleshaw.hodograph",
                             "heleshaw.multiscale", "heleshaw.painleve"])
    assert not [m for m in frames if m.split(".")[0] in ("numpy", "scipy")]
    assert stages(["critical"], ["--outdir", str(tmp_path), "trace"]) == [
        ["heleshaw"],
        cli,
        sorted([*cli, "heleshaw.hodograph"]),
        sorted([*cli, "heleshaw.hodograph"]),
    ]
    floats = stages(*(["--outdir", str(tmp_path), sub] for sub in ("painleve", "composite", "toda", "match", "frames")))
    assert [[m for m in stage if m in ("fractions", "decimal")] for stage in floats] == [[]] * 7


def test_float_path_subcommands_load_no_numpy(tmp_path):
    """Each of the 8 subcommands at its defaults runs without numpy, in a fresh interpreter of its own."""
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"""
import contextlib, io, sys
from heleshaw.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(['--outdir', {str(tmp_path)!r}, *sys.argv[1:]]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))
"""
    loaded = {sub: subprocess.run([sys.executable, "-c", code, *sub.split()], env=env, capture_output=True,
                                  text=True, check=True).stdout.strip()
              for sub in ("gd --n 12", "critical", "trace", "painleve", "match", "composite", "frames", "toda")}
    assert loaded == dict.fromkeys(loaded, "[]")


#: standard-library modules a cold run need not pay for: the parser, paths, annotations, exact numbers
COLD_PATH_FREE = ("argparse", "pathlib", "typing", "re", "fractions", "decimal")


def test_subcommands_under_python_S_load_no_parser_path_or_exact_number_module(tmp_path):
    """In a fresh `python -S` interpreter, which imports nothing for site, each of the 8 subcommands
    (and gd's JSON) loads none of argparse, pathlib, typing, re, fractions or decimal."""
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"""
import sys
from heleshaw.cli import main
out, sys.stdout = sys.stdout, open({os.devnull!r}, "w")
assert main(['--outdir', {str(tmp_path)!r}, *sys.argv[1:]]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] in {COLD_PATH_FREE!r}), file=out)
"""
    loaded = {sub: subprocess.run([sys.executable, "-S", "-c", code, *sub.split()], env=env, capture_output=True,
                                  text=True, check=True).stdout.strip()
              for sub in ("gd --n 12", "gd --n 12 --format json", "critical", "trace", "painleve", "match",
                          "composite", "frames", "toda")}
    assert loaded == dict.fromkeys(loaded, "[]")


def test_numerical_subcommands_load_no_numpy_ma(tmp_path):
    """numpy.ma costs about 20 ms to import; no subcommand needs it."""
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"""
import contextlib, io, sys
from heleshaw.cli import main
for sub in ('painleve', 'match', 'composite', 'frames', 'toda'):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(['--outdir', {str(tmp_path)!r}, sub]) == 0
    print(sub, 'numpy.ma' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["painleve", "False", "match", "False", "composite", "False",
                                  "frames", "False", "toda", "False"]
