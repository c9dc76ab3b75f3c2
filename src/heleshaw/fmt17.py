"""'%.17g' for a float64 array, byte for byte, without CPython's bignum conversion.

Beyond 14 significant digits CPython's float-to-decimal conversion (Gay 1990)
leaves its floating-point fast path for bignum arithmetic; this module renders
a whole array with numpy instead.  For each nonzero value x it finds the
17-digit integer D = round-half-even(|x| 10^(16 - E)) and the decimal exponent
E of the rounded value:

  * |x| 10^k is a Dekker (1971) double-double product against a table of 10^k
    as (hi, lo) pairs, built from Python ints, accurate to about 1e-14 in D;
  * E starts from floor(log10 |x|) and is corrected on the unrounded product,
    which must lie in [10^16, 10^17): a log10 estimate can be a decade high
    for a double just below a power of ten whose product still rounds to 10^16;
  * a D that rounds up to 10^17 becomes 10^16 one decade higher.

The text then follows the %g rules: fixed notation for -4 <= E < 17, otherwise
d.ddde+XX with at least two exponent digits; trailing zeros of a fraction and
a bare point go, a sign bit gives '-' (also on -0).  Each value gets a slot of
48 bytes, six words: a per-E template, OR the words of its four-digit groups,
AND a mask that ends the digits.  The bytes a value does not use are NUL, and
one bytes.translate squeezes them out.

A value whose product lies within 1e-9 of a half-integer (an exact decimal
tie such as 96684960988929.8125, which '%' rounds half-even), beyond
10^(+-289), where the table ends, or not finite is written by '%.17g' itself
into its slot.
"""

from __future__ import annotations

import math

import numpy as np

_E_LIMIT = 289  # |log10 x| beyond this takes the '%' slot: 10^(16 - E) and its lo part stay normal floats
_K_MIN = 16 - _E_LIMIT - 2  # the exponents 16 - E of the table, for |E| <= _E_LIMIT + 1 with room to spare
_K_MAX = 16 + _E_LIMIT + 2
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


def _powers_of_ten():
    """10^k = hi + lo for k in [_K_MIN, _K_MAX], hi split as hh + hl (26 and 27 bits), each rounded from ints."""
    table = np.empty((4, _K_MAX - _K_MIN + 1))
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int true division rounds correctly
        a, b = hi.as_integer_ratio()
        m, e = math.frexp(hi)
        hh = math.ldexp(math.floor(math.ldexp(m, 26)), e - 26)
        table[:, i] = hi, hh, hi - hh, (num * b - a * den) / (den * b)
    return table


_POWERS = _powers_of_ten()  # rows hi, hh, hl, lo

#: slot bytes: 0 sign, 1-5 the '0.000' of E < 0, 6-39 the 17 digits each followed by a point place,
#: 40-44 the exponent, 47 the separator; every table is built from bytes, so the bitwise operations on
#: its native uint64 words act byte by byte, in either byte order
_SLOT = 48
_E_MIN, _E_MAX = -_E_LIMIT - 3, _E_LIMIT + 3  # E ends in [-_E_LIMIT - 1, _E_LIMIT + 2]


def _layouts():
    """Per exponent E: the slot's fixed bytes (prefix, point, exponent, ','), and the digits up to the point."""
    slots, kept = bytearray(), []
    for E in range(_E_MIN, _E_MAX + 1):
        slot = bytearray(_SLOT)
        if 0 <= E < 17:
            slot[7 + 2 * E] = ord(".")  # after the 17th digit, E = 16, it is never kept
        elif -4 <= E < 0:
            slot[1 : 2 - E] = b"0." + b"0" * (-E - 1)
        else:
            slot[7] = ord(".")
            slot[40:45] = f"e{E:+03d}".encode().rjust(5, b"\0")
        slot[-1] = ord(",")
        slots += slot
        kept.append(E + 1 if 0 <= E < 17 else 1)
    return np.frombuffer(bytes(slots), np.uint64).reshape(-1, _SLOT // 8), np.array(kept, np.int8)


_LAYOUT, _KEPT = _layouts()


def _digit_groups():
    """Per group g = 0000..9999 of four digits: its word, the digits at the even bytes; and per place j of g
    after the lead, the digits kept up to g's last nonzero one, 1 + 4j + its count in g (0 for g = 0).
    Built a hundred groups at a time: no 10^4-element temporary of Python objects."""
    pairs = [bytes([48 + i // 10, 0, 48 + i % 10, 0]) for i in range(100)]
    last = [0] + [2 if i % 10 else 1 for i in range(1, 100)]
    own = bytes(2 + last[low] if low else last[high] for high in range(100) for low in range(100))
    kept = bytes(1 + 4 * j + c if c else 0 for j in range(4) for c in own)
    words = b"".join(b"".join(high + low for low in pairs) for high in pairs)
    return np.frombuffer(words, np.uint64), np.frombuffer(kept, np.int8).reshape(4, -1)


_GROUPS, _GROUP_KEPT = _digit_groups()
#: per count k of digits kept, 0..17, the slot mask keeping the first 2k - 1 digit-and-point places
_KEEP = np.frombuffer(b"".join(b"\xff" * (5 + 2 * k) + b"\0" * (35 - 2 * k) + b"\xff" * 8 for k in range(18)),
                      np.uint64).reshape(-1, _SLOT // 8)
#: XOR turns the separator into a newline
_NEWLINE = np.frombuffer(b"\0" * 7 + bytes([ord(",") ^ ord("\n")]), np.uint64)[0]


def _scaled(x, E):
    """(ph, pl): x 10^(16 - E) as a double-double, ph + pl within about 1e-14 of the exact product."""
    hi, hh, hl, lo = _POWERS.take(16 - _K_MIN - E, axis=1)
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    p = x * hi
    e = (((xh * hh - p) + xh * hl + xl * hh) + xl * hl) + x * lo
    ph = p + e
    return ph, e - (ph - p)


def _percent_slot(value: float) -> bytes:
    """The '%' rendering of a value the table does not serve."""
    return b"%.17g" % value


def _digits(values):
    """(D, layout, special): per value the 17-digit integer D = round-half-even(|x| 10^(16 - E)), 0 for a
    zero, and the row E - _E_MIN of its decimal exponent E in the layout tables; and the indices of the
    values that '%' renders, whose D and layout are stand-ins."""
    zero = values == 0
    x = np.abs(values)
    x += zero  # a zero is scaled as 1
    E = np.log10(x)
    far = ~(np.abs(E) <= _E_LIMIT)  # also nan and inf, which '%' spells out
    if far.any():
        x[far], E[far] = 1.0, 0.0
    E = np.floor(E, out=E).astype(np.int64)
    ph, pl = _scaled(x, E)
    # the unrounded product decides E: below 10^16 one decade down, from 10^17 one up (rare: near a power
    # of ten; a zero's product, 10^16 exactly, stays)
    edge = np.flatnonzero((ph <= 1e16) | (ph >= 1e17))
    if len(edge):
        h, l = ph[edge], pl[edge]
        shift = ((h > 1e17) | ((h == 1e17) & (l >= 0))).astype(np.int64) - ((h < 1e16) | ((h == 1e16) & (l < 0)))
        moved = edge[shift != 0]
        if len(moved):
            E[moved] += shift[shift != 0]
            ph[moved], pl[moved] = _scaled(x[moved], E[moved])
    # ph is an even integer (its ulp is 2 or more), so rounding pl half-even rounds the sum half-even
    r = np.rint(pl)
    tie = np.abs(np.abs(pl - r) - 0.5) < 1e-9
    D = ph.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(D == 10**17)
    D[carry] = 10**16
    E[carry] += 1
    D[zero] = 0
    return D, E - _E_MIN, np.flatnonzero(far | tie)


def _slots(values, width: int):
    """The slots of the values, an (n, 6) array of words, NUL where a byte is unused."""
    D, layout, special = _digits(values)
    out = _LAYOUT.take(layout, axis=0)
    slot = out.view(np.uint8)
    slot[:, 0] = np.signbit(values) * ord("-")
    lead = D // 10**16  # floor division by a scalar is several times faster than divmod
    slot[:, 6] = lead + ord("0")
    D -= lead * 10**16
    # the 16 digits after the lead in four groups; the digits kept run to the last nonzero one or to the
    # point, whichever is later, and the point stays only before a kept digit
    kept = _KEPT.take(layout)
    for j, unit in enumerate((10**12, 10**8, 10**4, 1)):
        group = D // unit
        D -= group * unit
        out[:, 1 + j] |= _GROUPS.take(group)
        np.maximum(kept, _GROUP_KEPT[j].take(group), out=kept)
    out &= _KEEP.take(kept, axis=0)
    out[width - 1 :: width, -1] ^= _NEWLINE
    for i in special:
        text = _percent_slot(values[i])
        slot[i, :-1] = 0
        slot[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def render(values, width: int) -> str:
    """'%.17g' of each float64 value, separated by ',' and ending each row of `width` values with a newline.

    The values' count is a multiple of `width`.  A non-finite value is spelt as '%' spells it.
    """
    return _slots(values, width).tobytes().translate(None, b"\0").decode("ascii")
