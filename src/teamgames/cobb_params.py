"""Cobb-Douglas game parameters and the closed-form team-size stability bound, readable
without numpy like :mod:`teamgames.limits`; :mod:`teamgames.cobb` re-exports every name."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import NumericOverflowError

UNBOUNDED = math.inf

# column order of the frontier table
FRONTIER_COLUMNS = ["gamma", "r", "beta", "max_stable_size"]


@dataclass(frozen=True)
class CobbDouglasConfig:
    """Game parameters.

    theta weighs payoff against reserve (1 = payoff only) and the produced
    value is alpha * x^beta. The payoff scheme and the contributions are
    separate arguments (``PayoffScheme``, ``ContributionProfile``).
    """

    theta: float = 0.75
    alpha: float = 1.0
    beta: float = 1.5

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

    def value(self, x):
        """Total value produced by a pooled contribution x (a number or an array).

        Raises ``NumericOverflowError`` where alpha * x^beta exceeds the float range,
        naming the first row of ``x`` that overflows (an element of a 1-D array, a row of
        points of a batched search) at its smallest overflowing x, so a table computed
        a block of rows at a time reports what the whole table would.
        """
        import numpy as np

        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError(f"contribution must be nonnegative, got {x.min()}")
        with np.errstate(over="ignore"):
            produced = self.alpha * x**self.beta
        overflow = ~np.isfinite(produced)
        if overflow.any():
            if x.ndim:
                first = int(np.argmax(overflow.reshape(len(x), -1).any(axis=1)))
                x, overflow = x[first], overflow[first]
            raise NumericOverflowError(
                f"alpha * x^beta overflows at x = {float(x[overflow].min())!r} "
                f"(alpha = {self.alpha!r}, beta = {self.beta!r})"
            )
        return produced[()]


def max_stable_team_size(gamma: float, r: float, beta: float) -> float:
    """Largest team size whose top contributor (share r of the pool) stays.

    For f = alpha*x^beta with beta > 1 under the gamma-hybrid scheme the
    stay condition reduces to |S| <= (1-gamma) / (r^beta - gamma*r); when
    the denominator is not positive every size is stable and ``math.inf``
    is returned, otherwise the floor of the bound. A quotient within 4 ulps
    below an integer counts as reaching it, since rounding in r^beta - gamma*r
    can pull an exact integer bound just under itself; from 2^40 on, where
    4 ulps approach a whole step, the plain floor is kept. A bound past the
    float range, as where r^beta underflows, raises ``NumericOverflowError``.
    """
    if not 0 < r <= 1:
        raise ValueError(f"contribution share r must lie in (0, 1], got {r}")
    if not beta > 1:
        raise ValueError(f"the bound needs beta > 1, got {beta}")
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    power = r**beta
    denom = power - gamma * r
    # below the normal range r^beta has lost its precision: r^(beta-1) < gamma decides the sign
    if denom <= 0 and (power >= sys.float_info.min or gamma > r ** (beta - 1)):
        return UNBOUNDED
    quotient = (1.0 - gamma) / denom if denom > 0 else math.inf
    if quotient == math.inf:
        raise NumericOverflowError(f"the stable team-size bound at gamma {gamma!r}, r {r!r} "
                                   "is past the float range")
    bound = math.floor(quotient)
    # an exact integer bound can come out a few ulps short in floating point
    slack = 4 * math.ulp(quotient)
    if slack < 2.0**-10 and bound + 1 - quotient <= slack:
        bound += 1
    return float(bound)


def stable_size_grid(beta: float, gammas, shares) -> dict:
    """Closed-form maximum stable team size over a (gamma, r) grid, gamma outer, as columns."""
    gamma = [float(g) for g in gammas for _ in shares]
    r = [float(share) for share in shares] * len(gammas)
    bound = [max_stable_team_size(g, share, float(beta)) for g, share in zip(gamma, r)]
    return {"gamma": gamma, "r": r, "beta": [float(beta)] * len(r), "max_stable_size": bound}
