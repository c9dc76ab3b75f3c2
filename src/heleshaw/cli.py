"""Command-line orchestration of the regularization pipeline.

Subcommands
-----------
gd         print Gel'fand-Dikii polynomials R_0..R_n (text or JSON)
critical   quintic-finger critical point for a given t_1 (JSON)
trace      CSV (x, u0(x)) of the outer hodograph branch
painleve   CSV (xi, W, W') of the tritronquee plus a JSON summary
match      inner/outer matching errors on an interval (JSON)
composite  CSV (x, u) of the glued solution
frames     interface frames frame_<i>.csv plus manifest.json with events
toda       CSV (t~, u, v) of the regularized merging flow plus JSON summary

Configuration is a flat `key = value` file (# comments allowed) selected
with --config; explicit flags override file values, which override the
built-in defaults.  The output directory resolves flag > HELESHAW_OUTDIR
> current directory.  All numbers are printed with 17 significant digits,
so identical configurations yield byte-identical files.

Exit codes: 0 success, 1 domain/numerical errors (one diagnostic line on
stderr), 2 configuration errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .diffpoly import gd_polynomials
from .errors import ConfigError, HeleShawError
from .geometry import emit_frames
from .hodograph import closed_u0, find_critical_25
from .multiscale import build_composite, overlap_report
from .painleve import POLE_GUARD, integrate_tritronquee
from .textio import json_text, write_csv
from .toda import build_toda_inner, toda_composite

ENV_OUTDIR = "HELESHAW_OUTDIR"

DEFAULTS = {
    "n": None,          # per-subcommand below
    "format": "text",
    "t1": -0.8,
    "t3": 1.0,
    "xc": 1.0,
    "eps": 1e-5,
    "switch": 0.638,
    "xi0": 30.0,
    "xi_min": -6.0,
    "tol": 1e-11,
    "x_from": None,
    "x_to": None,
    "count": 8,
    "n_samples": 400,
}

_CONFIG_KEYS = set(DEFAULTS) | {"outdir"}


def load_config(path) -> dict:
    """Flat `key = value` parser; unknown keys and bad values are errors."""
    values: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in ("from", "to"):
            key = f"x_{key}"
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in ("format", "outdir"):
            values[key] = val
        elif key in ("n", "count", "n_samples"):
            try:
                values[key] = int(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} needs an integer") from exc
        else:
            try:
                values[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key} needs a number") from exc
    return values


def _resolve(args, config: dict, key: str, fallback=None):
    """Flag > config file > fallback > DEFAULTS; non-finite numbers are rejected."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, fallback)
    if value is None:
        value = DEFAULTS.get(key)
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} = {value} is not a finite number")
    return value


def _outdir(args, config) -> Path:
    picked = getattr(args, "outdir", None) or config.get("outdir") or os.environ.get(ENV_OUTDIR) or "."
    path = Path(picked)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _checked_eps(args, config) -> float:
    eps = float(_resolve(args, config, "eps"))
    if not 0.0 < eps <= 1e-2:
        raise ConfigError(f"eps = {eps} outside the validated range (0, 1e-2]")
    return eps


def _checked_tol(args, config) -> float:
    tol = float(_resolve(args, config, "tol"))
    if not 1e-13 <= tol <= 1e-6:
        raise ConfigError(f"tol = {tol} outside the validated range [1e-13, 1e-6]")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heleshaw", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--outdir", help=f"output directory (also ${ENV_OUTDIR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gd", help="Gel'fand-Dikii polynomials")
    p.add_argument("--n", type=int)
    p.add_argument("--format", choices=("text", "json"))

    p = sub.add_parser("critical", help="quintic-finger critical point")
    p.add_argument("--t1", type=float)

    p = sub.add_parser("trace", help="outer branch u0(x) as CSV")
    p.add_argument("--t1", type=float)
    p.add_argument("--from", dest="x_from", type=float)
    p.add_argument("--to", dest="x_to", type=float)
    p.add_argument("--n", type=int)

    p = sub.add_parser("painleve", help="tritronquee solution as CSV + summary")
    p.add_argument("--xi0", type=float)
    p.add_argument("--xi-min", dest="xi_min", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--n", type=int)

    p = sub.add_parser("match", help="inner/outer matching errors")
    p.add_argument("--eps", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--from", dest="x_from", type=float)
    p.add_argument("--to", dest="x_to", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--tol", type=float)

    p = sub.add_parser("composite", help="glued solution u(x) as CSV")
    p.add_argument("--eps", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--from", dest="x_from", type=float)
    p.add_argument("--to", dest="x_to", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--switch", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--xi0", type=float)

    p = sub.add_parser("frames", help="interface frames plus event manifest")
    p.add_argument("--from", dest="x_from", type=float)
    p.add_argument("--to", dest="x_to", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--switch", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--tol", type=float)

    p = sub.add_parser("toda", help="regularized merging flow (t~, u, v)")
    p.add_argument("--t3", type=float)
    p.add_argument("--xc", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--from", dest="x_from", type=float)
    p.add_argument("--to", dest="x_to", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--tol", type=float)

    return parser


def frame_abscissas(x_from: float, x_to: float, count: int) -> list[float]:
    """Frame placement: endpoints pinned, spacing geometric toward x_to.

    The topological events cluster within ~2.4e-4 of the critical point, so
    uniform placement would waste most frames on the featureless outer arc.
    """
    if count <= 0:
        return []
    if count == 1:
        return [x_to]
    span = x_to - x_from
    ds = np.geomspace(span, span * 1e-4, count)
    xs = x_to - ds
    xs[0], xs[-1] = x_from, x_to
    return [float(x) for x in xs]


def _cmd_gd(args, config, outdir) -> int:
    n = int(_resolve(args, config, "n", 3))
    fmt_kind = _resolve(args, config, "format")
    polys = gd_polynomials(n)
    if fmt_kind == "json":
        payload = {"polynomials": [
            {"n": k, "terms": [
                {"orders": t["orders"], "num": t["num"], "den": t["den"]}
                for t in poly.to_json_terms()
            ]} for k, poly in enumerate(polys)
        ]}
        print(json_text(payload))
    else:
        for k, poly in enumerate(polys):
            print(f"R_{k} = {poly}")
    return 0


def _cmd_critical(args, config, outdir) -> int:
    cp = find_critical_25(float(_resolve(args, config, "t1")))
    print(json_text({"m": cp.m, "x_c": float(cp.x_c), "v_c": float(cp.v_c), "c": float(cp.c)}))
    return 0


def _cmd_trace(args, config, outdir) -> int:
    t1 = float(_resolve(args, config, "t1"))
    x_from = _resolve(args, config, "x_from", 0.58)
    x_to = _resolve(args, config, "x_to", 0.6399)
    n = int(_resolve(args, config, "n", 200))
    xs = np.linspace(float(x_from), float(x_to), n)
    path = outdir / "trace.csv"
    rows = write_csv(path, "x,u0", ((x, closed_u0(float(x), t1)) for x in xs))
    print(json_text({"file": str(path), "rows": rows}))
    return 0


def _cmd_painleve(args, config, outdir) -> int:
    xi0 = float(_resolve(args, config, "xi0"))
    xi_min = float(_resolve(args, config, "xi_min"))
    tol = _checked_tol(args, config)
    n = int(_resolve(args, config, "n", 2000))
    sol = integrate_tritronquee(xi0=xi0, xi_min=xi_min, tol=tol)
    lo = sol.pole + 2 * POLE_GUARD if sol.pole is not None else sol.xi_reached
    xs = np.linspace(lo, xi0, n)
    w, wp = sol.eval_many(xs)
    path = outdir / "painleve.csv"
    rows = write_csv(path, "xi,W,Wp", zip(xs, w, wp))
    print(json_text({
        "xi0": xi0, "tol": tol, "pole": sol.pole,
        "residual_max": sol.residual_max, "file": str(path), "rows": rows,
    }))
    return 0


def _cmd_match(args, config, outdir) -> int:
    eps = _checked_eps(args, config)
    t1 = float(_resolve(args, config, "t1"))
    x_from = _resolve(args, config, "x_from", 0.6365)
    x_to = _resolve(args, config, "x_to", 0.6395)
    n = int(_resolve(args, config, "n", 601))
    tol = _checked_tol(args, config)
    comp = build_composite(t_1=t1, eps=eps, tol=tol)
    print(json_text(overlap_report(comp, (float(x_from), float(x_to)), n)))
    return 0


def _cmd_composite(args, config, outdir) -> int:
    eps = _checked_eps(args, config)
    t1 = float(_resolve(args, config, "t1"))
    switch = float(_resolve(args, config, "switch"))
    tol = _checked_tol(args, config)
    xi0 = float(_resolve(args, config, "xi0"))
    comp = build_composite(t_1=t1, eps=eps, x_switch=switch, tol=tol, xi0=xi0)
    x_from = float(_resolve(args, config, "x_from", 0.6))
    x_to_raw = _resolve(args, config, "x_to")
    x_to = float(x_to_raw) if x_to_raw is not None else comp.x_star - 2e-7
    n = int(_resolve(args, config, "n", 2000))
    xs = np.linspace(x_from, x_to, n)
    us = comp.eval_many(xs)
    path = outdir / "composite.csv"
    rows = write_csv(path, "x,u", zip(xs, us))
    print(json_text({
        "file": str(path), "rows": rows, "eps": eps, "x_switch": switch,
        "x_star": comp.x_star,
    }))
    return 0


def _cmd_frames(args, config, outdir) -> int:
    eps = _checked_eps(args, config)
    t1 = float(_resolve(args, config, "t1"))
    switch = float(_resolve(args, config, "switch"))
    tol = _checked_tol(args, config)
    count = int(_resolve(args, config, "count"))
    n_samples = int(_resolve(args, config, "n_samples"))
    comp = build_composite(t_1=t1, eps=eps, x_switch=switch, tol=tol)
    x_from = float(_resolve(args, config, "x_from", 0.6))
    x_to_raw = _resolve(args, config, "x_to")
    x_to = float(x_to_raw) if x_to_raw is not None else 0.6402302
    xs = frame_abscissas(x_from, x_to, count)
    manifest = emit_frames(comp, xs, outdir, n=n_samples)
    print(json_text({
        "outdir": str(outdir), "frames": len(manifest["frames"]),
        "events": len(manifest["events"]), "x_star": comp.x_star,
    }))
    return 0


def _cmd_toda(args, config, outdir) -> int:
    t3 = float(_resolve(args, config, "t3"))
    xc = float(_resolve(args, config, "xc"))
    eps = _checked_eps(args, config)
    tol = _checked_tol(args, config)
    n = int(_resolve(args, config, "n", 500))
    inner = build_toda_inner(t3, xc, eps, tol=tol)
    t_from = _resolve(args, config, "x_from", -30.0)
    t_to_raw = _resolve(args, config, "x_to")
    t_to = float(t_to_raw) if t_to_raw is not None else inner.t_tilde_pole - 1e-2
    ts = np.linspace(float(t_from), t_to, n)
    rows_iter = []
    for tt in ts:
        u, v = toda_composite(float(tt), inner)
        rows_iter.append((tt, u, v))
    path = outdir / "toda.csv"
    rows = write_csv(path, "t_tilde,u,v", rows_iter)
    crit = inner.crit
    print(json_text({
        "file": str(path), "rows": rows,
        "u_c": float(crit.u_c), "v_c": float(crit.v_c),
        "t_c": float(crit.t_c), "x_c": float(crit.x_c),
        "identity_residual": crit.identity_residual(),
        "t_tilde_pole": inner.t_tilde_pole,
    }))
    return 0


_COMMANDS = {
    "gd": _cmd_gd,
    "critical": _cmd_critical,
    "trace": _cmd_trace,
    "painleve": _cmd_painleve,
    "match": _cmd_match,
    "composite": _cmd_composite,
    "frames": _cmd_frames,
    "toda": _cmd_toda,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        outdir = _outdir(args, config)
        return _COMMANDS[args.command](args, config, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HeleShawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
