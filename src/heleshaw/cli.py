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
with --config.  Each option resolves flag > config file > default, and the
output directory flag > config file > HELESHAW_OUTDIR > current directory.
The table OPTIONS declares every option once: its type, default and
validated range.  All numbers are printed with 17 significant digits, so
identical configurations yield byte-identical files.

Command line: heleshaw [--config FILE] [--outdir DIR] SUBCOMMAND [--flag value ...].
The two global flags come before the subcommand, its own flags after it.  A
flag reads `--x v` or `--x=v`, may be shortened to any prefix that names one
flag only, and the last of repeated flags wins; a value beginning with '-'
must be a number (-8e-1, -.5).  -h/--help prints the usage and exits 0.

Exit codes: 0 success; 2 for a ConfigError (an unparsable command line or a
value outside its validated range: fix the configuration); 1 for any other
HeleShawError (a DomainError, an input the operation refuses, or a solver that
failed on valid input), an ArithmeticError or an OSError (an overflow, a file
that cannot be written).  Either error prints one diagnostic line on stderr.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple

# Each subcommand imports its own layers when it runs, so that e.g. `gd` loads
# only diffpoly and `critical` only hodograph; no subcommand loads numpy.
from .errors import ConfigError, DomainError, HeleShawError
from .textio import json_text, write_csv

ENV_OUTDIR = "HELESHAW_OUTDIR"
FORMATS = ("text", "json")


class Option(namedtuple("Option", "type default lo hi lo_open choices", defaults=(-math.inf, math.inf, False, None))):
    """Value type, default and accepted values [lo, hi] (or choices) of one option.

    lo_open makes the range (lo, hi] instead of [lo, hi]; choices, a tuple, replaces the range.
    """

    __slots__ = ()

    def check(self, name: str, value) -> None:
        """Raise ConfigError, naming the value `name`, unless it is accepted."""
        if self.choices:
            if value not in self.choices:
                raise ConfigError(f"{name} must be one of {', '.join(self.choices)}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} = {value} is not a finite number")
        elif not (self.lo < value if self.lo_open else self.lo <= value) or value > self.hi:
            bracket = "(" if self.lo_open else "["
            raise ConfigError(f"{name} = {value} outside the validated range {bracket}{self.lo:g}, {self.hi:g}]")


def _count(default: int, hi: int = 10**6) -> Option:
    """A size: at least 1, and at most `hi`, which bounds the memory a run asks for."""
    return Option(int, default, 1, hi)


def _window(x_from: float, x_to: float | None) -> dict:
    """--from/--to; a `None` end defaults to a value computed from the solution."""
    return {"x_from": Option(float, x_from), "x_to": Option(float, x_to)}


_T1 = Option(float, -0.8)
_EPS = Option(float, 1e-5, 0.0, 1e-2, lo_open=True)
_TOL = Option(float, 1e-11, 1e-13, 1e-6)
_XI0 = Option(float, 30.0, 10.0, 1000.0)
_SWITCH = Option(float, 0.638)
#: the default end of the frame window, 8e-6 short of x* at the README configuration (t1 = -0.8, eps = 1e-5),
#: or the composite's x_last where that comes first (x* lies below it for eps under about 9.6e-6)
FRAMES_X_TO = 0.6402302

#: subcommand -> option key -> Option, in the order of the flags
OPTIONS = {
    "gd": {"n": Option(int, 3, 0, 16), "format": Option(str, "text", choices=FORMATS)},
    "critical": {"t1": _T1},
    "trace": {"t1": _T1, **_window(0.58, 0.6399), "n": _count(200)},
    "painleve": {"xi0": _XI0, "tol": _TOL, "n": _count(2000)},
    "match": {"eps": _EPS, "t1": _T1, **_window(0.6365, 0.6395), "n": _count(601), "tol": _TOL},
    "composite": {"eps": _EPS, "t1": _T1, **_window(0.6, None), "n": _count(2000),
                  "switch": _SWITCH, "tol": _TOL, "xi0": _XI0},
    "frames": {**_window(0.6, None), "count": _count(8, 10**4), "eps": _EPS, "switch": _SWITCH,
               "t1": _T1, "n_samples": _count(400, 10**5), "tol": _TOL},
    "toda": {"t3": Option(float, 1.0), "xc": Option(float, 1.0), "eps": _EPS,
             **_window(-30.0, None), "n": _count(500), "tol": _TOL},
}
# a key has the same type in every subcommand that takes it
_CONFIG_KEYS = {"outdir": Option(str, None)} | {k: o for opts in OPTIONS.values() for k, o in opts.items()}


def load_config(path) -> dict:
    """Flat `key = value` parser of the file `path` (a str or os.PathLike); unknown keys and bad values are errors.

    Any subcommand's key is accepted.  Values are only typed here (and a
    `format` checked); their ranges are checked when a subcommand uses them.
    """
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        opt = _CONFIG_KEYS.get(key)
        if opt is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = opt.type(val.strip())
        except ValueError as exc:
            kind = "an integer" if opt.type is int else "a number"
            raise ConfigError(f"{path}:{lineno}: {key} needs {kind}") from exc
        if opt.choices:
            opt.check(f"{path}:{lineno}: {key}", values[key])
    return values


def clean_path(path: str) -> str:
    """`path` as str(pathlib.PurePosixPath(path)) spells it: no '.' parts, no repeated or trailing
    slash, "." for nothing, and a leading '//' kept, which POSIX lets a system give its own meaning."""
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" if path[:1] == "/" else ""
    return root + "/".join(part for part in path.split("/") if part not in ("", ".")) or "."


def join_path(directory: str, name: str) -> str:
    """str(pathlib.PurePosixPath(directory) / name) for a clean_path `directory` and a plain file name."""
    return name if directory == "." else directory + name if directory.endswith("/") else f"{directory}/{name}"


def resolve(command: str, flags: dict, config: dict) -> dict:
    """The options of `command` at flag > config file > default, each validated.

    Also holds `outdir`, a clean_path: flag > config file > $HELESHAW_OUTDIR > current directory.
    """
    outdir = flags.get("outdir") or config.get("outdir") or os.environ.get(ENV_OUTDIR) or "."
    values = {"outdir": clean_path(outdir)}
    for key, opt in OPTIONS[command].items():
        value = flags.get(key)
        if value is None:
            value = config.get(key, opt.default)
        if value is not None:
            opt.check(key, value)
        values[key] = value
    return values


# -- the command line ----------------------------------------------------

def _flag(key: str) -> str:
    return "--" + key.removeprefix("x_").replace("_", "-")


def _is_number(arg: str) -> bool:
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _is_flag(arg: str) -> bool:
    """Whether `arg` stands for a flag rather than a value: '-' and a name, no number, no space."""
    return arg[:1] == "-" and arg != "-" and " " not in arg and not _is_number(arg)


def _match(arg: str, flags: dict) -> str | None:
    """The flag that `arg`, or its part before '=', names in full or as a prefix of one flag only."""
    name = "--help" if arg == "-h" else arg.partition("=")[0]
    if name in flags:
        return name
    hits = [flag for flag in flags if flag.startswith(name)] if name[:2] == "--" and len(name) > 2 else []
    if len(hits) > 1:
        raise ConfigError(f"ambiguous option: {arg} could match {', '.join(hits)}")
    return hits[0] if hits else None


def _typed(flag: str, value: str, opt: Option):
    try:
        typed = opt.type(value)
    except ValueError:
        raise ConfigError(f"argument {flag}: invalid {opt.type.__name__} value: {value!r}") from None
    if opt.choices and typed not in opt.choices:
        raise ConfigError(f"argument {flag}: invalid choice: {value!r} "
                          f"(choose from {', '.join(map(repr, opt.choices))})")
    return typed


def parse_args(argv: list[str]) -> tuple[str | None, dict]:
    """(subcommand, {key: value of each flag given}) of a command line, by the rules of the module docstring.

    -h/--help stops the parse with {"help": True} and the subcommand seen so far, which may be None.
    Anything else that does not parse is a ConfigError worded as argparse words it.
    """
    command, values, extra = None, {}, []
    flags = {"--help": "help", "--config": "config", "--outdir": "outdir"}  # flag -> key, before the subcommand
    args = iter(argv)
    for arg in args:
        flag = _match(arg, flags)
        if flag is None:
            if _is_flag(arg) or command is not None:
                extra.append(arg)
            elif arg in OPTIONS:
                command = arg
                flags = {"--help": "help", **{_flag(key): key for key in OPTIONS[command]}}
            else:
                raise ConfigError(f"argument command: invalid choice: {arg!r} "
                                  f"(choose from {', '.join(map(repr, OPTIONS))})")
            continue
        key = flags[flag]
        if key == "help":
            return command, {"help": True}
        _, eq, value = arg.partition("=")
        if not eq:
            value = next(args, None)
            if value is None or _is_flag(value):
                raise ConfigError(f"argument {flag}: expected one argument")
        values[key] = value if command is None else _typed(flag, value, OPTIONS[command][key])
    if command is None:
        raise ConfigError("the following arguments are required: command")
    if extra:
        raise ConfigError(f"unrecognized arguments: {' '.join(extra)}")
    return command, values


def usage(command: str | None = None) -> str:
    """The --help text: the flags and defaults of `command`, or of every subcommand after the global flags."""
    lines = [f"usage: heleshaw [--config FILE] [--outdir DIR] {command or 'SUBCOMMAND'} [--flag value ...]"]
    if command is None:
        lines += ["", __doc__.split("\n\n")[0], "",
                  "  --config FILE          flat key = value configuration file",
                  f"  --outdir DIR           output directory (also ${ENV_OUTDIR})"]
    for name in [command] if command else OPTIONS:
        lines += ["", f"{name}: {_COMMANDS[name].__doc__}"]
        for key, opt in OPTIONS[name].items():
            spec = f"{_flag(key)} {'{' + ','.join(opt.choices) + '}' if opt.choices else opt.type.__name__.upper()}"
            default = "computed from the solution" if opt.default is None else opt.default
            lines.append(f"  {spec:<22} default {default}")
    return "\n".join(lines)


def grid(start: float, stop: float, n: int) -> list[float]:
    """n abscissas from start to stop, the ends pinned, by numpy's linspace formula without numpy:
    i step + start, or i (delta/div) + start where the step underflows.  A handler maps its layer's
    float function over them, so the CLI's tables load no numpy at any row count.  A window whose span
    overflows is refused: numpy would give nan and inf abscissas, values the user never gave."""
    delta, div = stop - start, max(n - 1, 1)
    if not math.isfinite(delta):
        raise DomainError(f"window from {start} to {stop} is too wide: its span overflows")
    step = delta / div
    xs = [i * step + start if step else i / div * delta + start for i in range(n - 1)]
    return [*xs, stop] if n > 1 else [0.0 * delta + start]


def frame_abscissas(x_from: float, x_to: float, count: int) -> list[float]:
    """Frame placement: endpoints pinned, spacing geometric toward x_to.

    The topological events cluster within ~2.4e-4 of the critical point, so
    uniform placement would waste most frames on the featureless outer arc.
    The distances to x_to run geometrically from the span down to 1e-4 of it,
    as 10^(la + i step) in `math`: numpy's log10 and power pick SIMD kernels
    by CPU, whose last bits differ between machines.
    """
    if count <= 0:
        return []
    if count == 1:
        return [x_to]
    span = x_to - x_from
    if not math.isfinite(span):
        raise DomainError(f"frame window from {x_from} to {x_to} is too wide: its span overflows")
    if not span * 1e-4 > 0:
        raise DomainError(f"frame window from {x_from} to {x_to} is too narrow: 1e-4 of its span underflows")
    la, lb = math.log10(span), math.log10(span * 1e-4)
    step = (lb - la) / (count - 1)
    return [x_from, *(x_to - 10.0 ** (i * step + la) for i in range(1, count - 1)), x_to]


def _cmd_gd(opts) -> int:
    """Gel'fand-Dikii polynomials"""
    from .diffpoly import gd_polynomials

    polys = gd_polynomials(opts["n"])
    if opts["format"] == "json":
        print(json_text({"polynomials": [
            {"n": k, "terms": poly.to_json_terms()} for k, poly in enumerate(polys)
        ]}))
    else:
        for k, poly in enumerate(polys):
            print(f"R_{k} = {poly}")
    return 0


def _cmd_critical(opts) -> int:
    """quintic-finger critical point"""
    from .hodograph import find_critical_25

    cp = find_critical_25(opts["t1"])
    print(json_text({"m": cp.m, "x_c": cp.x_c, "v_c": cp.v_c, "c": cp.c}))
    return 0


def _write_table(opts, name: str, header: str, xs: list, row, **summary) -> int:
    """CSV `name` of the rows (x, *row(x)), then the JSON summary, rendered first so that its failure
    writes no file; so are the end rows, which refuse a window beyond the solution at its own end.
    Each row is computed as it is written: a long table holds only its grid in memory."""
    path = join_path(opts["outdir"], name)
    text = json_text({"file": str(path), "rows": len(xs), **summary})
    row(xs[0]), row(xs[-1])
    write_csv(path, header, ((x, *row(x)) for x in xs))
    print(text)
    return 0


def _cmd_trace(opts) -> int:
    """outer branch u0(x) as CSV"""
    from .hodograph import closed_u0

    t1 = opts["t1"]
    return _write_table(opts, "trace.csv", "x,u0", grid(opts["x_from"], opts["x_to"], opts["n"]),
                        lambda x: (closed_u0(x, t1),))


def _cmd_painleve(opts) -> int:
    """tritronquee solution as CSV + summary"""
    from .painleve import integrate_tritronquee

    xi0, tol = opts["xi0"], opts["tol"]
    sol = integrate_tritronquee(xi0=xi0, tol=tol)
    return _write_table(opts, "painleve.csv", "xi,W,Wp", grid(sol.xi_last, xi0, opts["n"]), sol.eval,
                        xi0=xi0, tol=tol, pole=sol.pole, residual_max=sol.residual_max)


def _nanmax(values: list) -> float:
    """max(values), or nan if any value is nan, as numpy's max gives it; Python's max skips a nan after the first."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _cmd_match(opts) -> int:
    """inner/outer matching errors"""
    from .multiscale import build_composite

    comp = build_composite(t_1=opts["t1"], eps=opts["eps"], tol=opts["tol"])
    a, b, n = opts["x_from"], opts["x_to"], opts["n"]
    if not a < b:
        raise ConfigError(f"overlap window from {a} to {b} is empty")
    # overlap_report on floats, bit for bit; outer first and from the end: a window past x_c is refused at its end
    xs = grid(a, b, n)
    outer = [comp.outer_u(x) for x in reversed(xs)][::-1]
    diff = [abs(o - comp.inner_u(x)) for x, o in zip(xs, outer)]
    print(json_text({"max_abs_err": _nanmax(diff), "max_rel_err": _nanmax([d / abs(o) for d, o in zip(diff, outer)]),
                     "interval": [a, b], "eps": comp.scaling.eps, "n": n}))
    return 0


def _cmd_composite(opts) -> int:
    """glued solution u(x) as CSV"""
    from .multiscale import build_composite

    comp = build_composite(t_1=opts["t1"], eps=opts["eps"], x_switch=opts["switch"],
                           tol=opts["tol"], xi0=opts["xi0"])
    x_to = comp.x_last if opts["x_to"] is None else opts["x_to"]
    return _write_table(opts, "composite.csv", "x,u", grid(opts["x_from"], x_to, opts["n"]),
                        lambda x: (comp.eval(x),), eps=opts["eps"], x_switch=comp.x_switch, x_star=comp.x_star)


def _cmd_frames(opts) -> int:
    """interface frames plus event manifest"""
    from .geometry import emit_frames
    from .multiscale import build_composite

    comp = build_composite(t_1=opts["t1"], eps=opts["eps"], x_switch=opts["switch"], tol=opts["tol"])
    x_from = opts["x_from"]
    x_to = min(FRAMES_X_TO, comp.x_last) if opts["x_to"] is None else opts["x_to"]
    if not x_from < x_to:
        raise ConfigError(f"frame window from {x_from} to {x_to} is empty")
    xs = frame_abscissas(x_from, x_to, opts["count"])
    manifest = emit_frames(comp, xs, opts["outdir"], n=opts["n_samples"])
    print(json_text({
        "outdir": opts["outdir"], "frames": len(manifest["frames"]),
        "events": len(manifest["events"]), "x_star": comp.x_star,
    }))
    return 0


def _cmd_toda(opts) -> int:
    """regularized merging flow (t~, u, v)"""
    from .toda import build_toda_inner, toda_composite

    inner = build_toda_inner(opts["t3"], opts["xc"], opts["eps"], tol=opts["tol"])
    t_to = inner.t_tilde_last if opts["x_to"] is None else opts["x_to"]
    crit = inner.crit
    return _write_table(opts, "toda.csv", "t_tilde,u,v", grid(opts["x_from"], t_to, opts["n"]),
                        lambda t: toda_composite(t, inner),
                        u_c=crit.u_c, v_c=crit.v_c, t_c=crit.t_c, x_c=crit.x_c,
                        identity_residual=crit.identity_residual(),
                        t_tilde_pole=inner.t_tilde_pole)


#: subcommand -> handler; each handler's docstring is its line in the usage
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
    try:
        command, flags = parse_args(sys.argv[1:] if argv is None else argv)
        if "help" in flags:
            print(usage(command))
            return 0
        config = load_config(flags["config"]) if flags.get("config") else {}
        opts = resolve(command, flags, config)
        try:
            os.makedirs(opts["outdir"], exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {opts['outdir']}: {exc.strerror}") from exc
        return _COMMANDS[command](opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HeleShawError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
