"""Exact rational simplex for the coalition-cover program behind core decisions.

The core of a TU game is nonempty exactly when the cheapest efficient way to
honor every proper coalition's claim costs no more than the grand coalition's
worth. That minimum is computed here through the dual program

    maximize   sum_S worth(S) * y_S
    subject to sum_{S containing i} y_S = 1   for every player i,
               y_S >= 0                        over proper nonempty S,

whose columns are coalition incidence vectors. The singleton coalitions form
a feasible identity basis, so no artificial variables are needed, and the
basis, the pivots and the prices stay exact (integers over one common
denominator) so tight cores are never misclassified by rounding.

Pricing is where the time goes, so it is split in two. One float pass sums
the prices over every coalition at once (n doubling steps over the 2^n
masks) and computes every reduced cost, with a rigorous bound on its
rounding error; only the columns the float pass cannot rule out are then
priced exactly, in ascending mask order. The first exactly positive one is
Bland's column, so the pivot path, the optimal value and the prices are the
ones an all-exact pricing finds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .players import subset_sums

_MAX_PIVOTS = 100_000
_EPS = 2.0**-52     # twice the unit roundoff of a float64
_TINY = 2.0**-1074  # the smallest subnormal float64


def _as_float(num: int, den: int) -> float:
    """``num / den`` rounded to a float, or infinity when it lies past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


class _Pricing:
    """Reduced costs ``worth(S) - sum of prices[i] over i in S`` of every column S.

    The float claims are kept as integers over one common denominator ``q``,
    the largest of their power-of-two denominators, and a set of prices as
    integers ``Y`` over ``q * D``, so that ``q * D`` times a reduced cost is
    the integer ``claims[S] * D - sum of Y[i] over i in S``.
    """

    def __init__(self, n: int, worth: list[float]):
        if len(worth) != (1 << n) - 2:
            raise ValueError("worth must cover every proper nonempty coalition")
        self.n = n
        ratios = [w.as_integer_ratio() for w in worth]
        self.q = max(den for _, den in ratios)
        self.claims = [0] + [num * (self.q // den) for num, den in ratios]
        self.worth_f = np.array(worth, dtype=float)
        self.worth_scale = float(np.max(np.abs(self.worth_f)))

    def candidates(self, prices: list[int], den: int) -> np.ndarray:
        """Ascending column indices whose reduced cost may be positive, up to the
        first whose reduced cost certainly is.

        Each float reduced cost is within ``bound`` of the exact one: the
        worths are exact, the prices are rounded once each, and a sum of at
        most n of them adds at most n more roundings of terms no larger than
        ``scale`` (additions that land among the subnormals are exact). A
        price or sum past the float range leaves every column a candidate.
        """
        prices_f = [_as_float(y, self.q * den) for y in prices]
        scale = self.worth_scale + sum(map(abs, prices_f))
        if not math.isfinite(2.0 * scale):
            return np.arange(len(self.worth_f))
        bound = (self.n + 4) * _EPS * scale + (self.n + 2) * _TINY
        reduced = self.worth_f - subset_sums(prices_f)[1:-1]
        sure = np.flatnonzero(reduced > bound)
        if len(sure):
            reduced = reduced[:sure[0] + 1]
        return np.flatnonzero(~(reduced <= -bound))

    def first_positive(self, prices: list[int], den: int) -> tuple[int, int] | None:
        """The lowest mask whose exact reduced cost is positive, with ``q * den``
        times that cost, or None when no reduced cost is positive."""
        for index in self.candidates(prices, den).tolist():
            mask = index + 1
            reduced = self.claims[mask] * den
            m = mask
            while m:
                low = m & -m
                reduced -= prices[low.bit_length() - 1]
                m ^= low
            if reduced > 0:
                return mask, reduced
        return None


def first_uncovered(n: int, worth: list[float], allocation: list[Fraction]) -> int | None:
    """The lowest coalition mask whose claim exceeds what ``allocation`` pays its
    members, decided exactly, or None when every claim is honored."""
    pricing = _Pricing(n, worth)
    den = math.lcm(*(p.denominator for p in allocation))
    prices = [pricing.q * p.numerator * (den // p.denominator) for p in allocation]
    found = pricing.first_positive(prices, den)
    return None if found is None else found[0]


def minimal_coalition_cover(n: int, worth: list[float]) -> tuple[Fraction, list[Fraction]]:
    """Solve the program above with Bland's rule (revised simplex, exact).

    ``worth`` lists the claim of every proper nonempty coalition as a float,
    by mask from 1 to 2^n - 2; each float is taken at its exact value.
    Returns the optimal value and the simplex multipliers, which form the
    cheapest allocation satisfying every coalition claim.

    The basis inverse is kept as the integer matrix ``binv`` over ``det``, the
    absolute determinant of the basis, so each pivot divides exactly
    (Bareiss-style): the basic solution is ``xb / det`` and the prices are
    ``prices / (q * det)``.
    """
    if n < 2:
        raise ValueError("cover program needs at least two players")
    pricing = _Pricing(n, worth)
    claims = pricing.claims

    binv = [[int(r == i) for i in range(n)] for r in range(n)]
    det = 1
    basis = [1 << r for r in range(n)]
    xb = [1] * n
    prices = [claims[m] for m in basis]

    for _ in range(_MAX_PIVOTS):
        found = pricing.first_positive(prices, det)
        if found is None:
            scale = pricing.q * det
            value = Fraction(sum(claims[basis[r]] * xb[r] for r in range(n)), scale)
            return value, [Fraction(y, scale) for y in prices]
        entering, reduced = found

        direction = []
        for r in range(n):
            d = 0
            m = entering
            while m:
                low = m & -m
                d += binv[r][low.bit_length() - 1]
                m ^= low
            direction.append(d)

        # ratio test xb[r] / direction[r], ties to the lowest basic mask
        leave = None
        for r in range(n):
            if direction[r] > 0 and (
                leave is None
                or xb[r] * direction[leave] < xb[leave] * direction[r]
                or (xb[r] * direction[leave] == xb[leave] * direction[r]
                    and basis[r] < basis[leave])
            ):
                leave = r
        if leave is None:
            raise AssertionError("cover program cannot be unbounded: covers are capped at 1")

        pivot = direction[leave]
        row_l = binv[leave]
        for r in range(n):
            if r != leave:
                d = direction[r]
                binv[r] = [(pivot * v - d * w) // det for v, w in zip(binv[r], row_l)]
                xb[r] = (pivot * xb[r] - d * xb[leave]) // det
        # the prices c_B B^-1 move along the new pivot row by the entering reduced cost
        prices = [(pivot * y + reduced * w) // det for y, w in zip(prices, row_l)]
        det = pivot
        basis[leave] = entering

    raise AssertionError("simplex failed to terminate; Bland's rule should prevent this")
