"""Deterministic text output: every number printed with 17 significant digits.

Fixed-format floats make re-runs byte-identical and round-trip exactly
through float(), which is what the file-diffing workflow relies on.  Files
are renamed into place when complete, so a failed run leaves no partial file.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

from .errors import DomainError

CHUNK_ROWS = 256  # rows per call of the row format string; larger chunks grew peak RSS


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


#: JSON escapes of a string: the backslash, the quote and the control characters U+0000..U+001F
_ESCAPES = {i: f"\\u{i:04x}" for i in range(32)} | {
    ord(c): "\\" + e for c, e in zip('\\"\b\f\n\r\t', '\\"bfnrt')}


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
        text = obj.translate(_ESCAPES)
        if not text.isascii():  # lone surrogates U+D800..U+DFFF (undecodable bytes of a path) have no UTF-8
            text = text.encode("utf-8", "backslashreplace").decode("utf-8")
        return '"' + text + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json_text(k)}: {json_text(obj[k], indent + 2)}" for k in sorted(obj)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {json_text(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


@contextmanager
def atomic_open(path):
    """Write to a temporary file beside `path`; it replaces `path` only if the block succeeds."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: str, rows) -> int:
    """Write rows of floats, one per header column, atomically; returns the row count.

    Rows are formatted in chunks by one format string; a non-finite value is a DomainError.
    """
    width = header.count(",") + 1
    line = ",".join(["%.17g"] * width) + "\n"
    rows = iter(rows)
    n = 0
    with atomic_open(path) as fh:
        fh.write(header + "\n")
        while chunk := list(islice(rows, CHUNK_ROWS)):
            values = tuple(map(float, chain.from_iterable(chunk)))
            if len(values) != width * len(chunk):
                raise ValueError(f"every row needs {width} values for the header {header!r}")
            text = (line * len(chunk)) % values
            if "n" in text:  # only nan and inf spell a letter n
                bad = next(v for v in values if not math.isfinite(v))
                raise DomainError(f"non-finite result {bad} cannot be written")
            fh.write(text)
            n += len(chunk)
    return n
