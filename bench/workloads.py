"""The benchmark's workloads: seeded inputs, the calls they time, their checks.

Each workload is closed-loop with a single client: the next request starts
when the previous one has finished.  Requests come in batches that keep the
input mix fixed (one request per stratum of every drawn parameter, or one
per subcommand or kind); a run always ends on a whole batch.

A workload object offers
  setup()          work done once before the first request,
  batches()        an endless iterator of request batches drawn from the seed,
  execute(...)     the timed request,
  check(req, out)  the output checks, returning (problems, digest),
  finish(requests) checks, metrics and input properties made once after the loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from heleshaw import geometry, multiscale, painleve, textio, toda

import checks
import reference

TOLS = (1e-9, 1e-10, 1e-11, 1e-12, 1e-13)
XI0 = 30.0
#: the README configuration: t1 = -0.8, eps = 1e-5, matching window and switch
README = {"t_1": -0.8, "eps": 1e-5, "x_switch": 0.638, "interval": (0.6365, 0.6395)}
#: the CLI's default frame window at the README configuration
FRAME_WINDOW = (0.6, 0.6402302)


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's src first on PYTHONPATH."""
    path = [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def strata(rng: random.Random, lo: float, hi: float, n: int, log: bool = False) -> list[float]:
    """n draws, one from each of n equal slices of [lo, hi], in random order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return [math.exp(v) for v in values] if log else values


def quintic_scales(t_1: float, eps: float) -> tuple[float, float, float]:
    """(v_c, x_c, zoom) of the quintic finger: v_c = sqrt(-4 t1/5), x_c = (5/4) v_c^3, zoom = eps^(4/5)."""
    v_c = math.sqrt(-4.0 * t_1 / 5.0)
    return v_c, 1.25 * v_c**3, eps**0.8


def frame_xs(x_from: float, x_to: float, count: int) -> list[float]:
    """Frame abscissas with both ends pinned, spaced geometrically toward x_to."""
    span = x_to - x_from
    xs = x_to - np.geomspace(span, span * 1e-4, count)
    xs[0], xs[-1] = x_from, x_to
    return [float(x) for x in xs]


def tritronquee_digits(sol) -> float:
    """Correct digits of W against the reference values (worst abscissa)."""
    return checks.digits(max(abs(sol.eval(xi)[0] - w) for xi, w in reference.W_REF.items()))


def readme_checks(trit) -> tuple[list[str], float]:
    """README configuration on a tol = 1e-11 tritronquee: overlap bound and event digits.

    The events run over the CLI's default frame window.
    """
    comp = multiscale.build_composite(t_1=README["t_1"], eps=README["eps"],
                                      x_switch=README["x_switch"], tritronquee=trit)
    problems = checks.overlap(multiscale.overlap_report(comp, README["interval"]), readme_config=True)
    x_from, x_to = FRAME_WINDOW
    evs = [ev.to_json() for ev in geometry.detect_events(comp, (x_from, x_to))]
    bad, worst = checks.events(evs, comp.v_c, comp.eval(x_to), comp.eval(x_from))
    return problems + bad, checks.digits(worst)


class Workload:
    """Defaults: nothing built in set-up, one unit of work per request."""

    in_process = True

    def setup(self):
        pass

    def setup_solutions(self) -> list:
        """Solutions built in set-up, certified once by a traced run."""
        return []

    def points(self, req: dict) -> int:
        return 1


class FramesSweep(Workload):
    """One quintic-finger scenario per request, from integration to frame files."""

    name = "frames-sweep"
    unit = "scenarios"

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.solutions: dict[float, object] = {}
        self.event_digits: list[float] = []

    def batches(self):
        rng = self.rng
        while True:
            n = len(TOLS)
            tols = list(TOLS)
            rng.shuffle(tols)
            yield [
                {"t_1": t_1, "eps": eps, "tol": tol, "count": int(round(count)), "f": f, "n_samples": 400}
                for t_1, eps, tol, count, f in zip(
                    strata(rng, -1.2, -0.5, n), strata(rng, 1e-6, 1e-4, n, log=True), tols,
                    strata(rng, 3.5, 16.5, n), strata(rng, 0.01, 0.3, n, log=True))
            ]

    def execute(self, req: dict, outdir: Path) -> dict:
        v_c, x_c, zoom = quintic_scales(req["t_1"], req["eps"])
        trit = painleve.integrate_tritronquee(xi0=XI0, tol=req["tol"])
        comp = multiscale.build_composite(t_1=req["t_1"], eps=req["eps"], x_switch=x_c - 20 * zoom,
                                          tritronquee=trit)
        report = multiscale.overlap_report(comp, (x_c - 35 * zoom, x_c - 5 * zoom))
        x_from = x_c - 400 * zoom
        x_to = comp.x_star - req["f"] * (comp.x_star - x_c)
        xs = frame_xs(x_from, x_to, req["count"])
        evs = geometry.detect_events(comp, (x_from, x_to))
        geometry.emit_frames(comp, xs, outdir, n=req["n_samples"], events=evs)
        return {"trit": trit, "report": report, "xs": xs, "v_c": v_c}

    def check(self, req: dict, out: dict, outdir: Path) -> tuple[list[str], str]:
        trit = out["trit"]
        problems = checks.tritronquee(trit.residual_max, req["tol"], trit.pole)
        problems += checks.overlap(out["report"])
        manifest, bad = checks.read_json(outdir / "manifest.json")
        problems += bad
        if manifest is None:
            return problems, ""
        bad, ends = checks.frames(outdir, manifest, out["xs"])
        problems += bad
        if ends is not None:
            bad, worst = checks.events(manifest["events"], out["v_c"], ends[1], ends[0])
            problems += bad
            if manifest["events"]:
                self.event_digits.append(checks.digits(worst))
        self.solutions.setdefault(req["tol"], trit)
        files = [outdir / "manifest.json"] + [outdir / f["file"] for f in manifest["frames"]]
        return problems, checks.digest(files)

    def label(self, req: dict) -> str:
        return f"tol={req['tol']:g}"

    def finish(self, requests: list[dict]) -> tuple[list[str], dict, dict]:
        problems, event_digits = readme_checks(self.solutions[1e-11]) if 1e-11 in self.solutions else (
            ["no tol = 1e-11 scenario ran"], 0.0)
        accuracy = min((tritronquee_digits(s) for s in self.solutions.values()), default=0.0)
        keys = [(XI0, req["tol"]) for req in requests]
        properties = {"repeat_share_xi0_tol": 1 - len(set(keys)) / max(len(keys), 1),
                      "tols_used": sorted(self.solutions),
                      "scenario_event_digits": {"median": statistics.median(self.event_digits or [0.0]),
                                                "worst": min(self.event_digits, default=0.0)}}
        return problems, {"accuracy_digits": accuracy, "event_digits": event_digits}, properties


class DenseEval(Workload):
    """Large evaluations plus CSV writes on solutions built once in setup."""

    name = "dense-eval"
    unit = "points"
    KINDS = ("composite", "painleve", "toda")

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        rng = self.rng
        self.config = {
            "composites": list(zip(strata(rng, -1.2, -0.5, 2), strata(rng, 1e-6, 1e-4, 2, log=True))),
            "toda": (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 1e-5),
        }
        self.max_jump = 0.0

    def setup(self):
        self.trit = painleve.integrate_tritronquee(xi0=XI0, tol=1e-11)
        self.comps = []
        for t_1, eps in self.config["composites"]:
            _, x_c, zoom = quintic_scales(t_1, eps)
            self.comps.append(multiscale.build_composite(t_1=t_1, eps=eps, x_switch=x_c - 20 * zoom,
                                                         tritronquee=self.trit))
        self.inner = toda.build_toda_inner(*self.config["toda"], tritronquee=self.trit)

    def setup_solutions(self) -> list:
        return [self.trit]

    def batches(self):
        rng = self.rng
        while True:
            block = 8
            sizes = {"composite": strata(rng, 1e3, 1e5, block, log=True),
                     "painleve": strata(rng, 1e3, 1e5, block, log=True),
                     "toda": strata(rng, 500, 5000, block, log=True)}
            spans = strata(rng, 40, 400, block, log=True)
            ends = strata(rng, 0.01, 0.3, block, log=True)
            starts = strata(rng, -40.0, -10.0, block)
            for i in range(block):
                kinds = list(self.KINDS)
                rng.shuffle(kinds)
                batch = []
                for kind in kinds:
                    req = {"kind": kind, "n": int(round(sizes[kind][i]))}
                    if kind == "composite":
                        req.update(comp=i % 2, span=spans[i], f=ends[i])
                    elif kind == "toda":
                        req.update(t_from=starts[i])
                    batch.append(req)
                yield batch

    def composite_grid(self, req: dict) -> np.ndarray:
        comp = self.comps[req["comp"]]
        return np.linspace(comp.x_c - req["span"] * comp.scaling.zoom,
                           comp.x_star - req["f"] * (comp.x_star - comp.x_c), req["n"])

    def execute(self, req: dict, outdir: Path) -> dict:
        path = outdir / f"{req['kind']}.csv"
        if req["kind"] == "composite":
            xs = self.composite_grid(req)
            us = self.comps[req["comp"]].eval_many(xs)
            textio.write_csv(path, "x,u", zip(xs, us))
        elif req["kind"] == "painleve":
            trit = self.trit
            xs = np.linspace(trit.pole + 2 * painleve.POLE_GUARD, trit.xi0, req["n"])
            w, wp = trit.eval_many(xs)
            textio.write_csv(path, "xi,W,Wp", zip(xs, w, wp))
        else:
            ts = np.linspace(req["t_from"], self.inner.t_tilde_pole - 1e-2, req["n"])
            rows = [(t, *toda.toda_composite(float(t), self.inner)) for t in ts]
            textio.write_csv(path, "t_tilde,u,v", rows)
        return {"path": path}

    def check(self, req: dict, out: dict, outdir: Path) -> tuple[list[str], str]:
        kind, n = req["kind"], req["n"]
        data, problems = checks.read_csv(out["path"], 3 if kind != "composite" else 2)
        if data is None:
            return problems, ""
        if len(data) != n:
            problems.append(f"{kind}: {len(data)} rows, expected {n}")
        if kind == "composite":
            comp = self.comps[req["comp"]]
            xs, us = data[:, 0], data[:, 1]
            problems += checks.composite_decreasing(xs, us, comp.x_switch, "composite u")
            self.max_jump = max(self.max_jump, checks.switch_jump(xs, us, comp.x_switch))
        elif kind == "painleve":
            problems += checks.decreasing(data[:, 1], "painleve W")
            if not np.all(data[:, 2] < 0):
                problems.append("painleve W' not negative")
        return problems, checks.digest([out["path"]])

    def points(self, req: dict) -> int:
        return req["n"]

    def label(self, req: dict) -> str:
        return req["kind"]

    def finish(self, requests: list[dict]) -> tuple[list[str], dict, dict]:
        problems, event_digits = readme_checks(self.trit)
        problems += checks.tritronquee(self.trit.residual_max, self.trit.tol, self.trit.pole)
        points = dict.fromkeys(("outer", "inner", "painleve", "toda"), 0)
        for req in requests:
            if req["kind"] == "composite":
                outer = int(np.count_nonzero(self.composite_grid(req) < self.comps[req["comp"]].x_switch))
                points["outer"] += outer
                points["inner"] += req["n"] - outer
            else:
                points[req["kind"]] += req["n"]
        total = max(sum(points.values()), 1)
        composite = max(points["outer"] + points["inner"], 1)
        properties = {
            "composite_outer_share": points["outer"] / composite,
            "composite_inner_share": points["inner"] / composite,
            "points_share": {k: v / total for k, v in points.items()},
            "max_switch_jump_u": self.max_jump,
        }
        return problems, {"accuracy_digits": tritronquee_digits(self.trit),
                          "event_digits": event_digits}, properties


class CliCold(Workload):
    """One fresh `python -m heleshaw.cli` process per request, all 8 subcommands per batch."""

    name = "cli-cold"
    in_process = False
    unit = "invocations"
    ARGS = {"gd": ["--n", "12"], "critical": [], "trace": [], "painleve": [], "match": [],
            "composite": [], "frames": [], "toda": []}
    TIMEOUT = 60

    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root
        self.env = child_env(root)
        self.event_error = 0.0

    def batches(self):
        while True:
            subs = list(self.ARGS)
            self.rng.shuffle(subs)
            yield [{"sub": sub} for sub in subs]

    def execute(self, req: dict, outdir: Path, trace_path: Path | None = None) -> dict:
        argv = ["--outdir", str(outdir / "out"), req["sub"], *self.ARGS[req["sub"]]]
        if trace_path is None:
            cmd = [sys.executable, "-m", "heleshaw.cli", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "cli", str(trace_path), *argv]
        with open(outdir / "stdout.txt", "wb") as out, open(outdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root, env=self.env)
            try:
                code = proc.wait(timeout=self.TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        return {"code": code}

    def check(self, req: dict, out: dict, outdir: Path) -> tuple[list[str], str]:
        sub, res = req["sub"], outdir / "out"
        stdout = (outdir / "stdout.txt").read_text()
        stderr = (outdir / "stderr.txt").read_text()
        problems = []
        if out["code"] != 0:
            problems.append(f"{sub}: exit code {out['code']}")
        if "Traceback" in stderr:
            problems.append(f"{sub}: traceback on stderr")
        problems += checks.no_nonfinite_tokens(stdout, f"{sub} stdout")
        files: list[Path] = []
        if sub == "gd":
            lines = stdout.splitlines()
            if len(lines) != 13 or any(not line.startswith(f"R_{k} = ") for k, line in enumerate(lines)):
                problems.append("gd: expected R_0 .. R_12, one per line")
        else:
            summary = _json_or_none(stdout)
            if summary is None:
                return problems + [f"{sub}: stdout is not one JSON object"], ""
            problems += self._check_sub(sub, summary, res)
            files = sorted(p for p in res.iterdir()) if res.is_dir() else []
        normalized = stdout.replace(str(res), "<outdir>").encode()
        return problems, checks.digest(files) + ":" + hashlib.sha256(normalized).hexdigest()

    def _check_sub(self, sub: str, summary: dict, res: Path) -> list[str]:
        if sub == "critical":
            want = {"m": 2, "x_c": 0.64, "v_c": 0.8, "c": -2.0 / 3.0}
            return [f"critical: {k} = {summary.get(k)!r}, expected {v!r}" for k, v in want.items()
                    if not abs(summary.get(k, math.inf) - v) <= 1e-15]
        if sub == "match":
            return checks.overlap(summary, readme_config=True)
        shapes = {"trace": ("trace.csv", 2, 200), "painleve": ("painleve.csv", 3, 2000),
                  "composite": ("composite.csv", 2, 2000), "toda": ("toda.csv", 3, 500)}
        if sub in shapes:
            name, ncols, rows = shapes[sub]
            data, problems = checks.read_csv(res / name, ncols)
            if data is None:
                return problems
            if len(data) != rows or summary.get("rows") != rows:
                problems.append(f"{sub}: {len(data)} rows, expected {rows}")
            if sub == "trace":
                problems += checks.decreasing(data[:, 1], "trace u0")
            elif sub == "painleve":
                problems += checks.decreasing(data[:, 1], "painleve W")
                problems += checks.tritronquee(summary.get("residual_max", math.inf),
                                               summary.get("tol", 0.0), summary.get("pole"))
            elif sub == "composite":
                problems += checks.composite_decreasing(data[:, 0], data[:, 1], summary["x_switch"],
                                                        "composite u")
            elif not summary.get("identity_residual", math.inf) < 1e-12:
                problems.append(f"toda: identity residual {summary.get('identity_residual')!r}")
            return problems
        # frames: the default window with 8 frames, README configuration
        manifest, problems = checks.read_json(res / "manifest.json")
        if manifest is None:
            return problems
        bad, ends = checks.frames(res, manifest, frame_xs(*FRAME_WINDOW, 8))
        problems += bad
        if ends is not None:
            bad, worst = checks.events(manifest["events"], 0.8, ends[1], ends[0])
            problems += bad
            self.event_error = max(self.event_error, worst)
        return problems

    def label(self, req: dict) -> str:
        return req["sub"]

    def finish(self, requests: list[dict]) -> tuple[list[str], dict, dict]:
        # the CLI's default tritronquee (xi0 = 30, tol = 1e-11), rebuilt in this process
        trit = painleve.integrate_tritronquee(xi0=XI0, tol=1e-11)
        return [], {"accuracy_digits": tritronquee_digits(trit),
                    "event_digits": checks.digits(self.event_error)}, {}


def _json_or_none(text: str):
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def make(name: str, seed: int, root: Path):
    if name == CliCold.name:
        return CliCold(seed, root)
    return {FramesSweep.name: FramesSweep, DenseEval.name: DenseEval}[name](seed)


NAMES = (CliCold.name, FramesSweep.name, DenseEval.name)
