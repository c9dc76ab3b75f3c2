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
bytes at fixed positions, the bytes a value does not use are NUL, and one
bytes.translate squeezes them out.

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


_HI, _HH, _HL, _LO = _powers_of_ten()

#: slot bytes: 0 sign, 1-5 the '0.000' of E < 0, 6-39 the 17 digits each followed by a point place,
#: 40-44 the exponent, 45 the separator
_SLOT = 46
_DIGITS = slice(6, 40)
_E_MIN, _E_MAX = -_E_LIMIT - 3, _E_LIMIT + 3  # E ends in [-_E_LIMIT - 1, _E_LIMIT + 2]


def _layouts():
    """Per exponent E: the slot with its fixed bytes (prefix, point, exponent), and the digits before the point."""
    slots, int_digits = bytearray(), []
    for E in range(_E_MIN, _E_MAX + 1):
        slot = bytearray(_SLOT)
        if 0 <= E < 17:
            if E < 16:
                slot[7 + 2 * E] = ord(".")
            int_digits.append(E + 1)
        elif -4 <= E < 0:
            slot[1 : 2 - E] = b"0." + b"0" * (-E - 1)
            int_digits.append(0)
        else:
            slot[7] = ord(".")
            slot[40:45] = f"e{E:+03d}".encode().rjust(5, b"\0")
            int_digits.append(1)
        slots += slot
    return np.frombuffer(bytes(slots), np.uint8).reshape(-1, _SLOT), np.array(int_digits)


_LAYOUT, _INT_DIGITS = _layouts()


def _four_digit_groups():
    """The 4 ASCII digits of 0000..9999, each as one uint32, and the count of trailing zeros among them.

    Built from the 100 two-digit groups a hundred at a time: no 10^4-element temporary of Python objects.
    """
    pairs = [b"%02d" % i for i in range(100)]
    zeros = [(i % 10 == 0) + (i == 0) for i in range(100)]
    digits = b"".join(b"".join(high + low for low in pairs) for high in pairs)
    trailing = bytes(zeros[low] + (low == 0) * zeros[high] for high in range(100) for low in range(100))
    return np.frombuffer(digits, np.uint32), np.frombuffer(trailing, np.int8)


_GROUPS, _GROUP_ZEROS = _four_digit_groups()
#: the first m bytes of the digit-and-point places kept, m = 0..34
_KEEP = np.frombuffer(b"".join(b"\xff" * m + b"\0" * (34 - m) for m in range(35)), np.uint8).reshape(35, 34)


def _scaled(x, E):
    """(ph, pl): x 10^(16 - E) as a double-double, ph + pl within about 1e-14 of the exact product."""
    k = 16 - E - _K_MIN
    hi, hh, hl, lo = _HI[k], _HH[k], _HL[k], _LO[k]
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


def render(values, width: int) -> str:
    """'%.17g' of each float64 value, separated by ',' and ending each row of `width` values with a newline.

    The values' count is a multiple of `width`.  A non-finite value is spelt as '%' spells it.
    """
    n = len(values)
    zero = values == 0
    ax = np.abs(values) + zero  # a zero is rendered as 1 whose lead digit becomes 0
    lg = np.log10(ax)
    far = ~(np.abs(lg) <= _E_LIMIT)  # also nan and inf, which '%' spells out
    x = np.where(far, 1.0, ax)
    E = np.floor(np.where(far, 0.0, lg)).astype(np.int64)
    ph, pl = _scaled(x, E)
    # the unrounded product decides E: below 10^16 one decade down, from 10^17 one up (rare: near a power of ten)
    edge = np.flatnonzero((ph <= 1e16) | (ph >= 1e17))
    if len(edge):
        h, l = ph[edge], pl[edge]
        up = (h > 1e17) | ((h == 1e17) & (l >= 0))
        down = (h < 1e16) | ((h == 1e16) & (l < 0))
        E[edge] += up.astype(np.int64) - down
        ph[edge], pl[edge] = _scaled(x[edge], E[edge])
    # ph is an even integer (its ulp is 2 or more), so rounding pl half-even rounds the sum half-even
    r = np.rint(pl)
    tie = np.abs(np.abs(pl - r) - 0.5) < 1e-9
    D = ph.astype(np.int64) + r.astype(np.int64)
    carry = D == 10**17
    D -= carry * (9 * 10**16)
    E += carry

    # D = lead, then four groups of four digits; the trailing zeros of those 16, from the last group back
    lead, rest = np.divmod(D, 10**16)
    high, low = np.divmod(rest, 10**8)
    groups = np.empty((n, 4), np.int64)
    np.divmod(high, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10**4, out=(groups[:, 2], groups[:, 3]))
    tz = _GROUP_ZEROS.take(groups)
    z = groups == 0
    trailing = tz[:, 3] + z[:, 3] * (tz[:, 2] + z[:, 2] * (tz[:, 1] + z[:, 1] * tz[:, 0]))

    layout = E - _E_MIN
    out = _LAYOUT.take(layout, axis=0)
    out[:, 6] = lead - zero + ord("0")
    out[:, 8:40:2] = _GROUPS.take(groups).view(np.uint8)
    # digits up to the last nonzero one or the point, whichever is later; the point only before a digit
    out[:, _DIGITS] &= _KEEP.take(2 * np.maximum(17 - trailing, _INT_DIGITS.take(layout)) - 1, axis=0)
    out[:, 0] = np.signbit(values) * ord("-")
    out[:, -1] = ord(",")
    out[width - 1 :: width, -1] = ord("\n")
    for i in np.flatnonzero(far | tie):
        text = _percent_slot(values[i])
        out[i, :-1] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")
