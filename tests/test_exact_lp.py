"""The exact core LP against the all-``Fraction`` simplex it replaced.

``reference_loops.minimal_coalition_cover`` prices every column exactly on
every pivot, reading the claims as a dict of ``Fraction``s; the library
reads the same floats as a list, by mask. The library prices in one float
pass and confirms Bland's column exactly, so both must take the same pivot
path and return the same optimal value and prices, as ``Fraction``s, on
every family below. The worths one ulp apart and the extreme worths put
exactly positive reduced costs inside the float pass's rounding error,
where only the bound and the exact confirmation keep the path right.
"""

from fractions import Fraction

import numpy as np
import pytest

import reference_loops as ref
from teamgames.exact_lp import first_uncovered, minimal_coalition_cover
from teamgames.players import PlayerSet, mask_sizes, member_sum
from teamgames.tu import random_convex_game, unanimity_game


def claims(table) -> dict[int, Fraction]:
    """The reference's claims: every proper nonempty mask's worth as a ``Fraction``."""
    return {mask: Fraction(float(table[mask])) for mask in range(1, len(table) - 1)}


def worths(table) -> list[float]:
    """The library's claims: the same worths as floats, by mask from 1."""
    return np.asarray(table, dtype=float)[1:-1].tolist()


def member_totals(n, x) -> np.ndarray:
    """Per mask, the float sum of ``x`` over its members in ascending player order."""
    return member_sum(n, np.arange(1 << n), lambda i, sel: x[i])


def planted(n, rng):
    """Claims below an integer allocation by a random deficit, in eighths."""
    table = member_totals(n, rng.integers(-16, 33, n).astype(float))
    table[1:-1] -= rng.choice([0, 0, 1, 2, 4, 8, 16], (1 << n) - 2)
    return table / 8


def empty(n, rng):
    return rng.integers(-8, 25, 1 << n) / 8


def unanimity(n, rng):
    return unanimity_game(n, PlayerSet(int(rng.integers(1, 1 << n)))).u


def convex(n, rng):
    return random_convex_game(n, rng).u


def single_point(n, rng):
    """An additive game in eighths: its core is the one allocation x."""
    return member_totals(n, rng.integers(-40, 41, n) / 8)


def ulp_apart(n, rng):
    """Float member sums moved by -1, 0 or +1 ulp: reduced costs of a few ulps."""
    table = member_totals(n, rng.uniform(-1.0, 1.0, n))
    steps = rng.integers(-1, 2, 1 << n)
    return np.where(steps == 0, table, np.nextafter(table, np.where(steps > 0, np.inf, -np.inf)))


def extreme(n, rng):
    """Worths at the edges of the float range: prices and sums past it."""
    pool = np.array([1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324, 2.5e-310, 0.0, 1.0])
    return rng.choice(pool, 1 << n)


def tied(n, rng):
    """Worth 1 from a threshold size on: many columns tie at every pivot."""
    return (mask_sizes(n) >= int(rng.integers(1, n + 1))).astype(float)


FAMILIES = (
    [(convex, n) for n in range(2, 11)]
    + [(family, n) for family in (planted, empty, unanimity) for n in range(2, 12)]
    + [(single_point, n) for n in range(2, 9)]
    + [(ulp_apart, n) for n in range(3, 10) for _ in range(3)]
    + [(extreme, n) for n in range(2, 7) for _ in range(3)]
    + [(tied, n) for n in range(2, 9)]
)


@pytest.mark.parametrize(
    "family, n, seed",
    [(family, n, seed) for seed, (family, n) in enumerate(FAMILIES)],
    ids=[f"{family.__name__}-{n}-{seed}" for seed, (family, n) in enumerate(FAMILIES)],
)
def test_matches_the_all_fraction_simplex(family, n, seed):
    table = family(n, np.random.default_rng(seed))
    got = minimal_coalition_cover(n, worths(table))
    assert got == ref.minimal_coalition_cover(n, claims(table))


def test_single_point_core_costs_the_grand_worth():
    x = [Fraction(3, 8), Fraction(-5, 4), Fraction(7, 2), Fraction(0)]
    table = member_totals(4, np.array([float(v) for v in x]))
    value, prices = minimal_coalition_cover(4, worths(table))
    assert value == sum(x)
    assert first_uncovered(4, worths(table), prices) is None


def test_first_uncovered_names_the_lowest_short_coalition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        table = ulp_apart(n, rng)
        worth = claims(table)
        allocation = [Fraction(float(v)) for v in rng.uniform(-1.0, 1.0, n)]
        short = [m for m in sorted(worth)
                 if sum(allocation[i] for i in PlayerSet(m)) < worth[m]]
        assert first_uncovered(n, worths(table), allocation) == (short[0] if short else None)


def test_prices_past_the_float_range_are_priced_exactly():
    # the cheapest cover pays a more than a float can hold
    table = [0.0, 1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308, 1.7e308, 0.0]
    got = minimal_coalition_cover(3, worths(table))
    assert got == ref.minimal_coalition_cover(3, claims(table))


def test_incomplete_claims_refused():
    with pytest.raises(ValueError, match="every proper nonempty coalition"):
        minimal_coalition_cover(3, [1.0] * 5)
