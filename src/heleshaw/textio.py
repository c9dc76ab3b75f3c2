"""Deterministic text output: every number printed with 17 significant digits.

Fixed-format floats make re-runs byte-identical and round-trip exactly
through float(), which is what the file-diffing workflow relies on.
"""

from __future__ import annotations

import math

from .errors import DomainError


def fmt(value) -> str:
    """17-significant-digit rendering of a number (ints stay ints).

    NaN and infinities are a DomainError: no output carries a non-finite value.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"non-finite result {v} cannot be written")
    return f"{v:.17g}"


def json_text(obj, indent: int = 0) -> str:
    """Minimal JSON serializer with fmt() floats and sorted keys."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {json_text(obj[k], indent + 2)}' for k in sorted(obj)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {json_text(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_csv(path, header: str, rows) -> int:
    """Write rows of floats under a one-line header; returns the row count."""
    n = 0
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
            n += 1
    return n
