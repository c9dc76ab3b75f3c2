"""Exact differential-polynomial algebra in one field variable.

A monomial is a finite multiset of derivative orders of a single field u(x):
``(0, 0, 2)`` stands for ``u * u * u_xx`` and the empty tuple is the constant
monomial.  Coefficients are exact rationals, so the constants produced by the
Gel'fand-Dikii recursion (1/2, 3/8, 5/16, ...) stay exact and are safe to
reuse when assembling the reduced ODEs downstream.

The weight of a monomial is ``sum(order + 2)`` over its factors.  The n-th
Gel'fand-Dikii polynomial R_n is weight-homogeneous of weight 2n and is
produced by

    d/dx R_{n+1} = (1/4 d3/dx3 + u d/dx + 1/2 u_x) R_n,      R_0 = 1.

The right-hand side is integrated exactly by parts (:meth:`DiffPoly.integrate`):
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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import JetTooShort, NotExactDerivative

Rational = Union[int, Fraction]


@dataclass(frozen=True, order=True)
class Monomial:
    """Product of field derivatives, kept sorted ascending (canonical form)."""

    orders: tuple[int, ...] = ()

    def __post_init__(self):
        tup = tuple(sorted(self.orders))
        if tup and tup[0] < 0:
            raise ValueError("derivative orders must be non-negative")
        object.__setattr__(self, "orders", tup)

    @property
    def weight(self) -> int:
        return sum(k + 2 for k in self.orders)

    @property
    def is_constant(self) -> bool:
        return not self.orders

    @property
    def max_order(self) -> int:
        return max(self.orders, default=-1)

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial(self.orders + other.orders)

    def __str__(self) -> str:
        if not self.orders:
            return "1"
        parts = []
        for order, group in itertools.groupby(self.orders):
            power = len(list(group))
            name = _factor_name(order)
            parts.append(name if power == 1 else f"{name}^{power}")
        return " ".join(parts)


def _factor_name(order: int) -> str:
    if order == 0:
        return "u"
    if order <= 3:
        return "u_" + "x" * order
    return f"u_x{order}"


_CONST = Monomial()
_FIELD = Monomial((0,))


class DiffPoly:
    """Differential polynomial: finite map from monomials to exact rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | Iterable[tuple[Monomial, Rational]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            q = Fraction(coeff)
            if q:
                acc[mono] = acc.get(mono, Fraction(0)) + q
        self._terms = {m: c for m, c in acc.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls()

    @classmethod
    def const(cls, value: Rational) -> "DiffPoly":
        return cls({_CONST: Fraction(value)})

    @classmethod
    def field(cls) -> "DiffPoly":
        """The bare field u."""
        return cls({_FIELD: Fraction(1)})

    @classmethod
    def monomial(cls, orders: Iterable[int], coeff: Rational = 1) -> "DiffPoly":
        return cls({Monomial(tuple(orders)): Fraction(coeff)})

    # -- ring structure ----------------------------------------------------

    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        acc = dict(self._terms)
        for mono, c in other._terms.items():
            acc[mono] = acc.get(mono, Fraction(0)) + c
        return DiffPoly(acc)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self + (-other)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1.times(m2)
                acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2
        return DiffPoly(acc)

    __rmul__ = __mul__

    def scale(self, factor: Rational) -> "DiffPoly":
        f = Fraction(factor)
        return DiffPoly({m: c * f for m, c in self._terms.items()})

    # -- calculus ----------------------------------------------------------

    def derive(self) -> "DiffPoly":
        """Total x-derivative (Leibniz rule over every monomial factor)."""
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            orders = mono.orders
            for i in range(len(orders)):
                bumped = Monomial(orders[:i] + (orders[i] + 1,) + orders[i + 1:])
                acc[bumped] = acc.get(bumped, Fraction(0)) + coeff
        return DiffPoly(acc)

    def integrate(self) -> "DiffPoly":
        """Inverse of :meth:`derive`, with zero constant term, by parts.

        Top derivative orders are removed from the highest down to 1.  A
        monomial c u_k u_{k-1}^p N, where N only holds orders <= k-2, is

            D(c/(p+1) u_{k-1}^{p+1} N) - c/(p+1) u_{k-1}^{p+1} D(N),

        and the remainder has top order k-1.  A total derivative is linear in
        its top derivative, so a repeated top order, a leftover u^m or a
        constant raises :class:`NotExactDerivative` (e.g. for u^2 or u_x^2).
        The antiderivative with zero constant term is unique, so the result
        does not depend on the order of the steps.
        """
        rest = dict(self._terms)
        out: dict[Monomial, Fraction] = {}
        for k in range(self.max_order(), 0, -1):
            for mono in [m for m in rest if m.max_order == k]:
                orders, c = mono.orders, rest.pop(mono)
                if not c:
                    continue
                if orders[-2:-1] == (k,):
                    raise NotExactDerivative(f"{mono} repeats its top derivative: not a total derivative")
                p = orders.count(k - 1)
                below, lifted = orders[:-1 - p], (k - 1,) * (p + 1)
                q = c / (p + 1)
                prim = Monomial(below + lifted)
                out[prim] = out.get(prim, Fraction(0)) + q
                for i in range(len(below)):
                    bumped = Monomial(below[:i] + (below[i] + 1,) + below[i + 1:] + lifted)
                    rest[bumped] = rest.get(bumped, Fraction(0)) - q
        if any(rest.values()):
            raise NotExactDerivative(f"{DiffPoly(rest)} is left over: not a total derivative")
        return DiffPoly(out)

    # -- queries -----------------------------------------------------------

    def eval(self, jet: Sequence[float]) -> float:
        """Evaluate at a jet: jet[k] is the k-th derivative value of the field."""
        needed = max((m.max_order for m in self._terms), default=-1)
        if needed >= len(jet):
            raise JetTooShort(f"jet of length {len(jet)} but order {needed} required")
        total = 0.0
        for mono, coeff in self._terms.items():
            prod = float(coeff)
            for k in mono.orders:
                prod *= jet[k]
            total += prod
        return total

    def dispersionless_part(self) -> "DiffPoly":
        """Derivative-free part: terms built only from u itself."""
        return DiffPoly({m: c for m, c in self._terms.items() if m.max_order <= 0})

    def constant_part(self) -> Fraction:
        return self._terms.get(_CONST, Fraction(0))

    def homogeneous_weight(self) -> int | None:
        """The common monomial weight, or None if mixed (zero poly -> None)."""
        weights = {m.weight for m in self._terms}
        return weights.pop() if len(weights) == 1 else None

    def max_order(self) -> int:
        return max((m.max_order for m in self._terms), default=-1)

    def coeff(self, orders: Iterable[int]) -> Fraction:
        return self._terms.get(Monomial(tuple(orders)), Fraction(0))

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono in sorted(self._terms):
            coeff = self._terms[mono]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if mono.is_constant:
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag} {mono}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"DiffPoly({self})"

    def to_json_terms(self) -> list[dict]:
        """JSON-friendly dump: monomial orders plus exact coefficient strings."""
        return [
            {"orders": list(m.orders), "num": str(c.numerator), "den": str(c.denominator)}
            for m, c in sorted(self._terms.items())
        ]


# -- Gel'fand-Dikii recursion ------------------------------------------------

def gd_next(r_n: DiffPoly) -> DiffPoly:
    """One step of the recursion d/dx R_{n+1} = (1/4 d3 + u d + 1/2 u_x) R_n.

    The integration constant is fixed by :meth:`DiffPoly.integrate` returning
    a zero constant term, which makes the derivative-free part of R_{n+1}
    come out as binom(2n+2, n+1) u^(n+1) / 4^(n+1) automatically.
    A NotExactDerivative escaping from here indicates an internal
    inconsistency (the right-hand side of the recursion is always exact).
    """
    u = DiffPoly.field()
    dr = r_n.derive()
    rhs = (
        Fraction(1, 4) * dr.derive().derive()
        + u * dr
        + Fraction(1, 2) * u.derive() * r_n
    )
    return rhs.integrate()


_GD_CACHE: list[DiffPoly] = [DiffPoly.const(1)]


def gd_polynomials(n: int) -> list[DiffPoly]:
    """R_0 .. R_n as a list (memoized)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    while len(_GD_CACHE) <= n:
        _GD_CACHE.append(gd_next(_GD_CACHE[-1]))
    return _GD_CACHE[: n + 1]


def dispersionless_coefficient(n: int) -> Fraction:
    """Exact coefficient of u^n in the derivative-free part of R_n."""
    return Fraction(math.comb(2 * n, n), 4**n)
