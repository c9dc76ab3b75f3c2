"""CLI behaviour: subcommands, config precedence, exit codes, determinism."""

import json

import pytest

from heleshaw.cli import frame_abscissas, load_config, main
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


def test_frame_abscissas_shape():
    xs = frame_abscissas(0.6, 0.6402302, 8)
    assert xs[0] == 0.6 and xs[-1] == 0.6402302
    assert xs == sorted(xs)
    # geometric accumulation toward the end of the window
    assert xs[-1] - xs[-2] < (xs[1] - xs[0]) / 100
    assert frame_abscissas(0.6, 0.64, 1) == [0.64]
    assert frame_abscissas(0.6, 0.64, 0) == []
