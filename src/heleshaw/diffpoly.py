"""Exact differential-polynomial algebra in one field variable.

A monomial is an ascending tuple of the derivative orders of its factors,
all of a single field u(x): ``(0, 0, 2)`` stands for ``u * u * u_xx`` and the
empty tuple is the constant monomial.  Coefficients are exact rationals, so
the constants produced by the Gel'fand-Dikii recursion (1/2, 3/8, 5/16, ...)
stay exact.

A polynomial is stored as a positive rational content, a reduced (num, den)
pair of ints, times a primitive integer part (order tuples mapped to ints with
gcd 1; zero is {}).  The form is canonical, so equality is structural, and the
algebra runs on ints and tuples: `fractions` is imported only where a Fraction
is handed out (:meth:`DiffPoly.terms`) or taken in (a non-int coefficient).

The weight of a monomial is ``sum(order + 2)`` over its factors.  The n-th
Gel'fand-Dikii polynomial R_n is weight-homogeneous of weight 2n and is
produced by

    d/dx R_{n+1} = (1/4 d3/dx3 + u d/dx + 1/2 u_x) R_n,      R_0 = 1,

integrated once by parts into R_{n+1} = 1/4 R_n'' + u R_n - 1/2 int u_x R_n dx.
The one integration, of u_x R_n, is exact by parts (:meth:`DiffPoly.integrate`):
the highest derivative u_k of each monomial is absorbed into a derivative of
u_{k-1}, one order at a time from the top down, so no linear system is
solved.  The antiderivative is taken with zero constant term, which fixes
the integration constant so that the derivative-free part of R_n is
binom(2n, n) u^n / 4^n, i.e. the dispersionless coefficient generated by
z / sqrt(z^2 - u).

Everything here is immutable and pure; values can be shared freely between
threads.
"""

from __future__ import annotations

import math
from itertools import groupby

from .errors import DomainError


def _factor_name(order: int) -> str:
    if order == 0:
        return "u"
    if order <= 3:
        return "u_" + "x" * order
    return f"u_x{order}"


def _monomial_text(orders: tuple[int, ...]) -> str:
    """Text of one monomial, e.g. "u^2 u_xx" for (0, 0, 2) and "1" for ()."""
    powers = [(_factor_name(k), len(list(run))) for k, run in groupby(orders)]
    return " ".join(name if power == 1 else f"{name}^{power}" for name, power in powers) or "1"


def _bumps(orders: tuple[int, ...]):
    """D of one monomial: each run of equal orders bumps its last factor (so the tuple stays sorted)."""
    start = 0
    for i, k in enumerate(orders):
        if i + 1 == len(orders) or orders[i + 1] != k:
            yield orders[:i] + (k + 1,) + orders[i + 1:], i + 1 - start
            start = i + 1


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, or of any value Fraction takes, which imports it only then."""
    if isinstance(value, int):
        return value, 1
    from fractions import Fraction

    q = Fraction(value)
    return q.numerator, q.denominator


def _make(num: int, den: int, terms: dict) -> "DiffPoly":
    return object.__new__(DiffPoly)._set(num, den, terms)


class DiffPoly:
    """Differential polynomial over Q: a positive rational content times a primitive integer part."""

    __slots__ = ("_content", "_terms")

    def __init__(self, terms):
        """From {orders: coefficient}; each key is sorted, so keys naming the same monomial add up.

        A coefficient is an int or anything Fraction takes (a Fraction, "3/8", 0.375)."""
        coeffs = []
        for orders, coeff in terms.items():
            orders = tuple(sorted(orders))
            if orders and orders[0] < 0:
                raise ValueError("derivative orders must be non-negative")
            coeffs.append((orders, *_ratio(coeff)))
        den = math.lcm(*(d for _, _, d in coeffs))
        acc: dict = {}
        for orders, n, d in coeffs:
            acc[orders] = acc.get(orders, 0) + n * (den // d)
        self._set(1, den, acc)

    def _set(self, num: int, den: int, terms: dict) -> "DiffPoly":
        """Store num/den * terms canonically: gcd 1 in the terms, a positive reduced content, zero as {}."""
        g = math.gcd(*terms.values())
        if not (g and num):
            num, den, g, terms = 1, 1, 1, {}
        elif num < 0:
            num, g = -num, -g
        num *= abs(g)
        k = math.gcd(num, den)
        self._content = (num // k, den // k)
        self._terms = {orders: c // g for orders, c in terms.items() if c}
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "DiffPoly":
        return cls({(): value})

    @classmethod
    def field(cls) -> "DiffPoly":
        """The bare field u."""
        return _make(1, 1, {(0,): 1})

    # -- ring structure ----------------------------------------------------

    def terms(self) -> dict:
        """{orders: Fraction coefficient}."""
        from fractions import Fraction

        num, den = self._content
        return {orders: Fraction(num * c, den) for orders, c in self._terms.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._content == other._content and self._terms == other._terms

    def __hash__(self):
        return hash((self._content, frozenset(self._terms.items())))

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        (an, ad), (bn, bd) = self._content, other._content
        gn, gd = math.gcd(an, bn), math.lcm(ad, bd)  # the largest content dividing both
        ka, kb = an // gn * (gd // ad), bn // gn * (gd // bd)
        acc = {orders: c * ka for orders, c in self._terms.items()}
        for orders, c in other._terms.items():
            acc[orders] = acc.get(orders, 0) + c * kb
        return _make(gn, gd, acc)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DiffPoly":
        num, den = self._content
        return _make(-num, den, self._terms)

    def __mul__(self, other):
        if not isinstance(other, DiffPoly):
            if not isinstance(other, int):
                from fractions import Fraction  # a Fraction factor has loaded it already

                if not isinstance(other, Fraction):
                    return NotImplemented
            return self.scale(other)
        acc: dict = {}
        for o1, c1 in self._terms.items():
            for o2, c2 in other._terms.items():
                key = tuple(sorted(o1 + o2))
                acc[key] = acc.get(key, 0) + c1 * c2
        (an, ad), (bn, bd) = self._content, other._content
        return _make(an * bn, ad * bd, acc)

    __rmul__ = __mul__

    def scale(self, factor) -> "DiffPoly":
        return self._times(*_ratio(factor))

    def _times(self, num: int, den: int) -> "DiffPoly":
        """This polynomial times num/den."""
        a, b = self._content
        return _make(a * num, b * den, self._terms)

    # -- calculus ----------------------------------------------------------

    def derive(self) -> "DiffPoly":
        """Total x-derivative (Leibniz rule over every monomial factor)."""
        acc: dict = {}
        for orders, c in self._terms.items():
            for bumped, run in _bumps(orders):
                acc[bumped] = acc.get(bumped, 0) + c * run
        return _make(*self._content, acc)

    def integrate(self) -> "DiffPoly":
        """Inverse of :meth:`derive`, with zero constant term, by parts.

        Top derivative orders are removed from the highest down to 1.  A
        monomial c u_k u_{k-1}^p N, where N only holds orders <= k-2, is

            D(c/(p+1) u_{k-1}^{p+1} N) - c/(p+1) u_{k-1}^{p+1} D(N),

        and the remainder has top order k-1.  A total derivative is linear in
        its top derivative, so a repeated top order, a leftover u^m or a
        constant raises :class:`DomainError` (e.g. for u^2 or u_x^2).
        The antiderivative with zero constant term is unique, so the result
        does not depend on the order of the steps.  The steps run on the integer
        part times L = lcm(1 .. factor count), and each division by p+1 is exact:
        a step with p >= 1 only feeds terms with a repeated top order, which must
        cancel, so every coefficient divided is a multiple of L.
        """
        lift = math.lcm(*range(1, max(map(len, self._terms), default=0) + 1))
        rest = {orders: c * lift for orders, c in self._terms.items()}
        out: dict = {}
        for k in range(self.max_order(), 0, -1):
            for orders in [orders for orders in rest if orders[-1:] == (k,)]:
                c = rest.pop(orders)
                if not c:
                    continue
                if orders[-2:-1] == (k,):
                    raise DomainError(f"{_monomial_text(orders)} repeats its top derivative: "
                                      "not a total derivative")
                p = orders.count(k - 1)
                below, lifted = orders[:-1 - p], (k - 1,) * (p + 1)
                q, r = divmod(c, p + 1)
                if r:
                    raise ArithmeticError(f"by parts, {c} {_monomial_text(orders)} is not divisible by {p + 1}")
                out[below + lifted] = out.get(below + lifted, 0) + q
                for bumped, run in _bumps(below):
                    rest[bumped + lifted] = rest.get(bumped + lifted, 0) - q * run
        num, den = self._content
        if any(rest.values()):
            raise DomainError(f"{_make(num, den * lift, rest)} is left over: not a total derivative")
        return _make(num, den * lift, out)

    # -- queries -----------------------------------------------------------

    def max_order(self) -> int:
        return max((orders[-1] for orders in self._terms if orders), default=-1)

    # -- presentation ------------------------------------------------------

    def _coefficients(self):
        """(orders, num, den) of each term in order, its coefficient reduced as Fraction reduces it."""
        num, den = self._content
        for orders, c in sorted(self._terms.items()):
            g = math.gcd(num * c, den)
            yield orders, num * c // g, den // g

    def __str__(self) -> str:
        text = ""
        for orders, n, d in self._coefficients():
            # |coefficient| as str(Fraction) spells it: "p" or "p/q"
            mag = f"{abs(n)}" + (f"/{d}" if d != 1 else "")
            body = mag if not orders else _monomial_text(orders) if mag == "1" else f"{mag} {_monomial_text(orders)}"
            sign = "-" if n < 0 else "+"
            text += f" {sign} {body}" if text else ("-" if n < 0 else "") + body
        return text or "0"

    def __repr__(self) -> str:
        return f"DiffPoly({self})"

    def to_json_terms(self) -> list[dict]:
        """JSON-friendly dump: monomial orders plus exact coefficient strings."""
        return [{"orders": list(orders), "num": str(n), "den": str(d)} for orders, n, d in self._coefficients()]


# -- Gel'fand-Dikii recursion ------------------------------------------------

def gd_next(r_n: DiffPoly) -> DiffPoly:
    """One step of the recursion d/dx R_{n+1} = (1/4 d3 + u d + 1/2 u_x) R_n.

    Integrated once by parts, since int (u R_n' + 1/2 u_x R_n) = u R_n - 1/2 int u_x R_n:

        R_{n+1} = 1/4 R_n'' + u R_n - 1/2 int u_x R_n dx.

    u_x R_n is a total derivative, as the other two terms of the recursion are.
    The zero constant term of :meth:`DiffPoly.integrate` makes the
    derivative-free part of R_{n+1} come out as binom(2n+2, n+1) u^(n+1) / 4^(n+1).
    A DomainError (not a total derivative) escaping from here indicates an internal inconsistency.
    """
    u = DiffPoly.field()
    return r_n.derive().derive()._times(1, 4) + u * r_n - (u.derive() * r_n).integrate()._times(1, 2)


_GD_CACHE: list[DiffPoly] = [DiffPoly.const(1)]


def gd_polynomials(n: int) -> list[DiffPoly]:
    """R_0 .. R_n as a list (memoized)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    while len(_GD_CACHE) <= n:
        _GD_CACHE.append(gd_next(_GD_CACHE[-1]))
    return _GD_CACHE[: n + 1]
