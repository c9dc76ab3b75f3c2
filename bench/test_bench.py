"""Self-tests of the benchmark: seeded inputs, checks that bite, reference values.

Run from the repository root with `python3 -m pytest bench`.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def first_batches(name: str, seed: int, count: int = 3) -> list:
    wl = workloads.make(name, seed, HERE.parent)
    return [getattr(wl, "config", None)] + list(itertools.islice(wl.batches(), count))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_inputs(name):
    assert first_batches(name, 7) == first_batches(name, 7)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_other_inputs(name):
    assert first_batches(name, 7) != first_batches(name, 8)


def test_strata_cover_each_slice_once():
    import random

    values = workloads.strata(random.Random(3), 1e3, 1e5, 8, log=True)
    slices = sorted(int(8 * math.log(v / 1e3) / math.log(100.0)) for v in values)
    assert slices == list(range(8))


def test_tail_is_eleventh_largest():
    value, percentile = run.tail([float(i) for i in range(30)])
    assert value == 19.0 and percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_reference_values_match_mpmath():
    recomputed = reference.recompute()
    for xi, w in reference.W_REF.items():
        assert abs(recomputed[xi] - w) <= 1e-15 * max(1.0, abs(w)), xi


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """One real frames-sweep scenario whose window holds all four finger events."""
    wl = workloads.FramesSweep(seed=1)
    req = {"t_1": -0.8, "eps": 1e-5, "tol": 1e-11, "count": 6, "f": 0.01, "n_samples": 400}
    outdir = tmp_path_factory.mktemp("scenario")
    out = wl.execute(req, outdir)
    return wl, req, out, outdir


def test_real_scenario_passes(scenario):
    wl, req, out, outdir = scenario
    problems, digest = wl.check(req, out, outdir)
    assert problems == [] and digest
    kinds = [ev["kind"] for ev in json.loads((outdir / "manifest.json").read_text())["events"]]
    assert kinds == ["cusp", "zero-count-change", "cusp", "zero-count-change", "root-coalescence"]


def test_event_shifted_by_1e_3_is_rejected(scenario):
    _, _, out, outdir = scenario
    manifest = json.loads((outdir / "manifest.json").read_text())
    _, ends = checks.frames(outdir, manifest, out["xs"])
    assert checks.events(manifest["events"], out["v_c"], ends[1], ends[0])[0] == []
    for index in range(len(manifest["events"])):
        shifted = [dict(ev) for ev in manifest["events"]]
        shifted[index]["u"] += 1e-3
        assert checks.events(shifted, out["v_c"], ends[1], ends[0])[0], index


def test_missing_or_extra_event_is_rejected(scenario):
    _, _, out, outdir = scenario
    manifest = json.loads((outdir / "manifest.json").read_text())
    _, ends = checks.frames(outdir, manifest, out["xs"])
    evs = manifest["events"]
    assert checks.events(evs[:-1], out["v_c"], ends[1], ends[0])[0]
    assert checks.events(evs + evs[-1:], out["v_c"], ends[1], ends[0])[0]


def test_nan_row_is_rejected(scenario, tmp_path):
    _, _, _, outdir = scenario
    lines = (outdir / "frame_002.csv").read_text().splitlines()
    lines[5] = "NaN," + lines[5].split(",")[1]
    bad = tmp_path / "frame.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert checks.read_csv(outdir / "frame_002.csv", 2)[1] == []
    assert checks.read_csv(bad, 2)[1]
    assert checks.no_nonfinite_tokens('{"x": NaN}', "json")
    assert checks.no_nonfinite_tokens("1,-Infinity\n", "csv")
    assert not checks.no_nonfinite_tokens('{"file": "tmp3inf9/nan_x.csv"}', "json")


def test_missing_frame_file_is_rejected(scenario, tmp_path):
    _, _, out, outdir = scenario
    manifest = json.loads((outdir / "manifest.json").read_text())
    for entry in manifest["frames"]:
        (tmp_path / entry["file"]).write_bytes((outdir / entry["file"]).read_bytes())
    assert checks.frames(tmp_path, manifest, out["xs"])[0] == []
    (tmp_path / manifest["frames"][3]["file"]).unlink()
    assert checks.frames(tmp_path, manifest, out["xs"])[0]


def test_other_output_checks_reject_bad_values():
    assert checks.tritronquee(1e-12, 1e-11, -2.3841) == []
    assert checks.tritronquee(2e-9, 1e-11, -2.3841)
    assert checks.tritronquee(1e-12, 1e-11, -2.0)
    assert checks.overlap({"max_abs_err": 4e-4, "max_rel_err": 5e-4}, readme_config=True) == []
    assert checks.overlap({"max_abs_err": 6e-4, "max_rel_err": 5e-4}, readme_config=True)
    assert checks.overlap({"max_abs_err": math.nan, "max_rel_err": 5e-4})
    xs = np.linspace(0.0, 1.0, 11)
    us = -xs
    assert checks.composite_decreasing(xs, us, 0.5, "u") == []
    us[2] = us[1]
    assert checks.composite_decreasing(xs, us, 0.5, "u")


def test_instrument_records_spans_and_restores():
    from heleshaw import cli, multiscale, painleve

    originals = (painleve.integrate_tritronquee, multiscale.integrate_tritronquee,
                 multiscale.CompositeSolution.__dict__["outer_u"], dict(cli._COMMANDS))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        comp = multiscale.build_composite(tol=1e-9)
        comp.eval_many(np.linspace(0.6, 0.639, 50))
    record = tracer.end_request()
    assert set(record["incl"]) >= {"painleve.integrate", "multiscale.build_composite", "multiscale.eval",
                                   "multiscale.outer_u", "multiscale.inner_u", "hodograph.closed_u0"}
    assert record["incl"]["multiscale.build_composite"] >= record["incl"]["painleve.integrate"]
    assert record["counts"]["painleve.nodes"] == len(comp.tritronquee.ts)
    assert (painleve.integrate_tritronquee, multiscale.integrate_tritronquee,
            multiscale.CompositeSolution.__dict__["outer_u"], dict(cli._COMMANDS)) == originals
