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
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heleshaw
from heleshaw import painleve
from heleshaw.cli import OPTIONS, frame_abscissas, load_config, main
from heleshaw.errors import ConfigError


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


def test_failed_write_leaves_no_file(tmp_path, capsys):
    # every u of this run is nan; the writer refuses it before any file appears
    code, _, err = run(capsys, "--outdir", str(tmp_path), "toda", "--t3=5e-324", "--n", "7")
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
    """The files that do not touch the outer branch are pinned byte for byte."""
    for sub in ("painleve", "toda", "frames", "composite"):
        code, _, _ = run(capsys, "--outdir", str(tmp_path), sub)
        assert code == 0
    assert _sha256((tmp_path / "painleve.csv").read_bytes()) == (
        "d0031c8a671ef2410e74aeac675c054c907784010b8c1294ea2e6cf0bc6f90cc")
    assert _sha256((tmp_path / "toda.csv").read_bytes()) == (
        "0b43d4c318a67e7028083fabfbf3d7ca2d9ab9169a002efe4f023ebcaa590349")
    assert _sha256((tmp_path / "manifest.json").read_bytes()) == (
        "3d85b205c12971b041bf533e10f7164043abb8dcd4f667eb18068331f5d7ab92")
    # composite rows on the inner branch, x >= x_switch = 0.638
    rows = (tmp_path / "composite.csv").read_text().splitlines(keepends=True)[1:]
    inner = "".join(row for row in rows if float(row.split(",")[0]) >= 0.638)
    assert _sha256(inner.encode()) == "074368338979f7ca54fc1109b5e71bf36b93cf7c6897b47d1b0eacfe96de2b9e"


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
], ids=" ".join)
def test_overflow_names_the_quantity_exit_1(tmp_path, capsys, argv):
    code, _, err = run(capsys, "--outdir", str(tmp_path), *argv)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "Numerical result out of range" not in err
    assert "overflows at" in err


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
    code, _, err = run(capsys, "--outdir", str(tmp_path), "painleve")
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


def test_cli_import_loads_no_scipy():
    """Importing the package or the CLI loads no numpy, scipy or layer module,
    and `gd` and `critical` each load only their own layer, without numpy."""
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] in ('heleshaw', 'numpy', 'scipy'))
stages = []
import heleshaw
stages.append(loaded())
from heleshaw.cli import main
stages.append(loaded())
for argv in (['gd', '--n', '3'], ['critical']):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    stages.append(loaded())
print(json.dumps(stages))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    cli = ["heleshaw", "heleshaw.cli", "heleshaw.errors", "heleshaw.textio"]
    assert json.loads(out.stdout) == [
        ["heleshaw"],
        cli,
        sorted([*cli, "heleshaw.diffpoly"]),
        sorted([*cli, "heleshaw.diffpoly", "heleshaw.hodograph"]),
    ]
