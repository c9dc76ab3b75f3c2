"""Reference values of the Painleve-I tritronquee on the real axis.

W_REF holds W(xi) at four abscissas.  `recompute()` derives them again with
mpmath, independently of heleshaw: the order-8 asymptotic series seeds a
Taylor integration (`mpmath.odefun`) at xi0 = 30 with 25 digits, run
downward in xi.  The self-tests compare the two; W(0) also matches the
published value -0.1875543083404949 (Joshi & Kitaev, Stud. Appl. Math.
107, 2001).
"""

from __future__ import annotations

from fractions import Fraction

W_REF = {
    20.0: -1.82579390538515522,
    10.0: -1.29120197122541515,
    0.0: -0.187554308340494894,
    -2.0: 6.74868071988330558,
}


def series_coefficients(order: int = 8) -> list[Fraction]:
    """b_k of W = -sqrt(xi/6) (1 + sum_k b_k (6 xi^5)^(-k/2)).

    Matching powers of xi^(-5/2) in W'' = 6 W^2 - xi gives
    b_m = -1/2 [b_(m-1) (25 (m-1)^2 - 1)/4 + sum_(i=1)^(m-1) b_i b_(m-i)].
    """
    bs = [Fraction(1)]
    for m in range(1, order + 1):
        acc = bs[m - 1] * Fraction(25 * (m - 1) ** 2 - 1, 4)
        acc += sum((bs[i] * bs[m - i] for i in range(1, m)), Fraction(0))
        bs.append(-acc / 2)
    return bs


def recompute(xi0: int = 30, dps: int = 25) -> dict[float, float]:
    """W at the W_REF abscissas from an mpmath Taylor integration."""
    import mpmath

    with mpmath.workdps(dps):
        x0 = mpmath.mpf(xi0)
        s = mpmath.sqrt(x0 / 6)
        t = 1 / mpmath.sqrt(6 * x0**5)
        bs = [mpmath.mpf(b.numerator) / b.denominator for b in series_coefficients()]
        w0 = -s * sum(b * t**k for k, b in enumerate(bs))
        wp0 = s * sum((5 * k - 1) * b * t**k for k, b in enumerate(bs)) / (2 * x0)
        # y(r) = (W, -W') at xi = xi0 - r, so the integration runs forward in r
        sol = mpmath.odefun(lambda r, y: [y[1], 6 * y[0] ** 2 - (x0 - r)], 0, [w0, -wp0])
        return {xi: float(sol(x0 - mpmath.mpf(xi))[0]) for xi in W_REF}
