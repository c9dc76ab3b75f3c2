"""heleshaw benchmark: seeded workloads, checked outputs, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload frames-sweep --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py and README.md):
    cli-cold      one fresh `python -m heleshaw.cli` process per request
    frames-sweep  one quintic-finger scenario per request, in process
    dense-eval    one large evaluation plus CSV write per request, in process

With --trace 0 the result carries the end-to-end metrics; with --trace 1
every request runs twice, untraced and traced in alternating order, and the
result carries the per-layer metrics of the traced runs plus the tracing
overhead.  Human-readable report lines (provenance, workload properties,
the committed baseline) precede the last line, which is the JSON result.
Temporary files live under .bench_tmp/ in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASELINE = Path(__file__).with_name("baseline.json")
#: fresh processes timed for setup_s, spread over the run; the median is reported
SETUP_PROBES = 5
#: requests of the first batch run again after the loop to compare output bytes
REPEATS = {"cli-cold": 1, "frames-sweep": 1, "dense-eval": 3}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "frames-sweep", "dense-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupProbes:
    """Fresh processes that do a workload's set-up, timed from spawn to ready.

    The probes are spread evenly over the timed loop, so that their median
    samples the host over the whole run rather than over a few seconds.
    """

    def __init__(self, workload: str, seed: int):
        from workloads import child_env

        self.cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "setup", workload, str(seed)]
        self.env = child_env(ROOT)
        self.setup_s: list[float] = []
        self.import_s: list[float] = []

    def due(self, progress: float) -> bool:
        """Whether the next probe is due, `progress` being the share of the loop done."""
        return len(self.setup_s) < SETUP_PROBES and progress >= len(self.setup_s) / SETUP_PROBES

    def run(self) -> float:
        """Run one probe; returns the wall time it took."""
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, cwd=ROOT, env=self.env, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed (exit {code}, output {line!r})")
        self.setup_s.append(elapsed)
        self.import_s.append(float(line.split()[1]))
        return time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the 11th-largest sample; with ten or fewer samples it is the
    maximum, reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def attempt(wl, tracer, req: dict, outdir: Path, traced: bool):
    """Run one request; returns (seconds or None, problems, digest)."""
    outdir.mkdir(parents=True)
    try:
        if wl.in_process and traced:
            with tracing.instrument(tracer):
                start = time.perf_counter()
                out = wl.execute(req, outdir)
                elapsed = time.perf_counter() - start
            tracer.end_request()
            tracer.certify_pending()
        elif wl.in_process:
            start = time.perf_counter()
            out = wl.execute(req, outdir)
            elapsed = time.perf_counter() - start
        else:
            trace_path = outdir / "trace.json" if traced else None
            start = time.perf_counter()
            out = wl.execute(req, outdir, trace_path)
            elapsed = time.perf_counter() - start
            if traced:
                child = json.loads(trace_path.read_text())
                tracer.requests.append(child["request"])
                tracer.certify_s += child["certify_s"]
                tracer.residual_max = max(tracer.residual_max, child["residual_max"])
        problems, digest = wl.check(req, out, outdir)
    except Exception as exc:  # a failed request is counted and the run goes on
        return None, [f"{type(exc).__name__}: {exc}"], ""
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return elapsed, problems, digest


def run(args, tmp: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import workloads

    probes = SetupProbes(args.workload, args.seed)
    probes.run()

    wl = workloads.make(args.workload, args.seed, ROOT)
    wl.setup()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.solutions += wl.setup_solutions()
        tracer.certify_pending()

    times: list[float] = []
    by_label: dict[str, list[float]] = {}
    ratios: list[float] = []
    digests: dict[str, str] = {}
    problems: list[str] = []
    attempted = failed = points = 0
    requests: list[dict] = []
    first_batch = None
    serial = 0

    def record(req, elapsed, bad, digest) -> bool:
        key = json.dumps(req, sort_keys=True)
        if digest and digests.setdefault(key, digest) != digest:
            bad = bad + ["output bytes differ from an identical earlier request"]
        problems.extend(f"{wl.label(req)}: {p}" for p in bad)
        return elapsed is not None and not bad

    start, probing = time.perf_counter(), 0.0
    for batch in wl.batches():
        first_batch = first_batch or batch
        for req in batch:
            attempted += 1
            requests.append(req)
            order = (False, True) if attempted % 2 else (True, False)
            runs = {}
            for traced in (order if tracer is not None else (False,)):
                serial += 1
                elapsed, bad, digest = attempt(wl, tracer, req, tmp / f"r{serial:06d}", traced)
                runs[traced] = (elapsed, record(req, elapsed, bad, digest))
            if not all(ok for _, ok in runs.values()):
                failed += 1
                continue
            elapsed = runs[False][0]
            times.append(elapsed)
            by_label.setdefault(wl.label(req), []).append(elapsed)
            points += wl.points(req)
            if tracer is not None:
                ratios.append(runs[True][0] / elapsed)
        # probe time does not count against the loop's time budget
        progress = (time.perf_counter() - start - probing) / args.seconds
        while probes.due(progress):
            probing += probes.run()
        if progress >= 1.0:
            break
    while probes.due(1.0):
        probes.run()

    for req in first_batch[:REPEATS[args.workload]]:
        serial += 1
        elapsed, bad, digest = attempt(wl, None, req, tmp / f"r{serial:06d}", False)
        record(req, elapsed, bad, digest)
    final_problems, quality, properties = wl.finish(requests)
    problems += final_problems

    busy = sum(times)
    summary = {
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "problems": problems[:20], "properties": properties,
        "split": {label: {"requests": len(v), "time_share": sum(v) / busy if busy else 0.0,
                          "median_s": statistics.median(v)} for label, v in sorted(by_label.items())},
    }
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, probes.import_s, ratios)
    elif times:
        p_tail, percentile = tail(times)
        summary.update(tail_percentile=percentile, samples=len(times))
        usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
        metrics = {
            "request_s.p50": (statistics.median(times), "s"),
            "request_s.tail": (p_tail, "s"),
            "throughput_per_s": (points / busy, "1/s"),
            "setup_s": (statistics.median(probes.setup_s), "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (quality["accuracy_digits"], "digits"),
            "event_digits": (quality["event_digits"], "digits"),
        }
        summary["throughput_unit"] = f"{wl.unit}/s"
    else:
        metrics = {}
    correct = not problems and failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, summary


def provenance(args) -> dict:
    versions = {}
    for name in ("numpy", "scipy", "mpmath"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_commit": commit,
            "setup_probes": SETUP_PROBES}


def report(args, result: dict, summary: dict) -> None:
    baseline = {}
    if BASELINE.is_file():
        baseline = json.loads(BASELINE.read_text())["workloads"].get(args.workload, {}).get(f"trace{args.trace}", {})
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    print("# summary " + json.dumps(summary, sort_keys=True))
    unit_alias = {"cli-cold": "invocations_per_s", "frames-sweep": "scenarios_per_s", "dense-eval": "points_per_s"}
    print(f"# {'metric':34s} {'value':>14s} {'unit':8s} baseline")
    for name, entry in result["metrics"].items():
        label = f"{name} ({unit_alias[args.workload]})" if name == "throughput_per_s" else name
        base = baseline.get(name, {}).get("median")
        print(f"# {label:34s} {entry['value']:14.6g} {entry['unit']:8s} {'' if base is None else f'{base:.6g}'}")
    print(f"# failed_frac {summary['failed_frac']:.6g} ({summary['failed']} of {summary['attempted']})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heleshaw" / "__init__.py").is_file():
        print(f"bench: no heleshaw package under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        result, summary = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    report(args, result, summary)
    for problem in summary["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
