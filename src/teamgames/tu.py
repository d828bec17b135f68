"""Transferable-utility cooperative games.

A TU game assigns one real payoff to every coalition of an n-player team.
This module covers the classical machinery: marginal contributions, the
Shapley value, convexity and superadditivity predicates, core membership,
and an exact core-nonemptiness decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NumericOverflowError, SizeLimitError
from .limits import DEFAULT_TOL, MAX_CORE_DECIDE, check_tol
from .players import (
    MAX_SUBSET_ARRAY, PlayerSet, check_subset_array, first_pair, lattice_halves, mask_sizes,
    player_names, require_disjoint, require_fit, subset_closure, subset_label, subset_sums,
)

# numpy after the package's modules: without bytecode files, their compile is freed before
# numpy maps its libraries, rather than stacking on them
import numpy as np


@dataclass(frozen=True)
class TUGame:
    """Payoff table over all 2^n coalitions, indexed by coalition mask.

    The empty coalition must be worth exactly 0 and every worth must be
    finite; inputs violating that are rejected rather than silently shifted.
    """

    n: int
    u: np.ndarray
    players: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_SUBSET_ARRAY:
            raise SizeLimitError(f"TU games support 1..{MAX_SUBSET_ARRAY} players, got {self.n}")
        table = np.asarray(self.u, dtype=float)
        if table.shape != (1 << self.n,):
            raise ValueError(f"payoff table must have length {1 << self.n}, got {table.shape}")
        if table[0] != 0.0:
            raise ValueError(f"empty coalition must be worth 0, got {table[0]}")
        players = player_names(self.n, self.players)
        bad = ~np.isfinite(table)
        if bad.any():
            mask = int(np.argmax(bad))
            raise ValueError(f"coalition {subset_label(mask, players)} must have a finite "
                             f"worth, got {table[mask]}")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "u", table)
        object.__setattr__(self, "players", players)

    @classmethod
    def from_function(cls, n: int, worth, players=None) -> TUGame:
        """Tabulate ``worth(coalition: PlayerSet) -> float`` over all coalitions."""
        table = np.zeros(1 << n)
        for mask in range(1, 1 << n):
            table[mask] = worth(PlayerSet(mask))
        return cls(n, table, players)

    def value(self, coalition: PlayerSet) -> float:
        if not coalition.fits(self.n):
            raise ValueError(f"{coalition} is not a coalition of a {self.n}-player team")
        return float(self.u[coalition.mask])

    def grand_value(self) -> float:
        return float(self.u[-1])


def marginal_contribution(game: TUGame, a: PlayerSet, b: PlayerSet) -> float:
    """Worth added by coalition A joining the disjoint coalition B; a margin past the
    float range raises ``NumericOverflowError`` naming both coalitions."""
    require_disjoint(a, b)
    require_fit(game.n, a, b)
    margin = float(game.u[a.mask | b.mask]) - float(game.u[b.mask])
    what = f"the margin of coalition {subset_label(a.mask, game.players)} on coalition"
    _require_finite(game, [margin], [b.mask], what)
    return margin


def _require_finite(game: TUGame, values, coalitions, what: str) -> None:
    """Refuse float results past the float range, naming the first coalition whose
    ``what`` (a phrase the label completes) overflowed."""
    bad = ~np.isfinite(values)
    if bad.any():
        label = subset_label(int(coalitions[np.argmax(bad)]), game.players)
        raise NumericOverflowError(f"{what} {label} is past the float range")


def _margins(game: TUGame, i: int) -> np.ndarray:
    """Player i's margin u(S + i) - u(S) at every mask S (0 where S holds i); a margin
    past the float range raises ``NumericOverflowError`` naming S."""
    masks = np.arange(1 << game.n, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        margins = game.u[masks | (1 << i)] - game.u
    _require_finite(game, margins, masks, f"the margin of player {game.players[i]} on coalition")
    return margins


def shapley_value(game: TUGame) -> np.ndarray:
    """Shapley allocation via the subset-weighted sum.

    Each player receives the average of their marginal contributions, the
    subset S they join being weighted by |S|!(n-1-|S|)!/n!. Vectorized over
    the 2^n table, so the full n <= 20 range stays practical. A margin or a
    share past the float range raises ``NumericOverflowError``.
    """
    n = game.n
    fact = [math.factorial(k) for k in range(n + 1)]
    weights = np.array([fact[k] * fact[n - k - 1] / fact[n] for k in range(n)])
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = mask_sizes(n)
    phi = np.zeros(n)
    for i in range(n):
        without = masks[(masks & (1 << i)) == 0]
        with np.errstate(over="ignore", invalid="ignore"):
            phi[i] = float(np.sum(weights[sizes[without]] * _margins(game, i)[without]))
        _require_finite(game, phi[i:i + 1], [1 << i], "the Shapley share of")
    return phi


def is_convex(game: TUGame, tol: float = DEFAULT_TOL) -> bool:
    """True when marginal contributions weakly increase with coalition size.

    Checked through the local pairwise form: for every i, S not containing i
    and j outside S+i, the margin of i on S is at most its margin on S+j.
    Vectorized per (i, j) pair over the halves of the lattice that j splits.
    A margin past the float range raises ``NumericOverflowError``.
    """
    check_tol(tol)
    for i in range(game.n):
        margins = _margins(game, i)
        for j in range(game.n):
            if j == i:
                continue
            halves = lattice_halves(margins, j)  # at S holding i, both margins are 0
            with np.errstate(over="ignore"):  # past the range, rhs + tol is inf: no violation
                if np.any(halves[:, 0] > halves[:, 1] + tol):
                    return False
    return True


def is_superadditive(game: TUGame, tol: float = DEFAULT_TOL) -> bool:
    """True when u(A|B) >= u(A) + u(B) for every disjoint nonempty pair.

    A sum below the float range cannot violate the bound, and one above it
    at the first violating pair raises ``NumericOverflowError``.
    """
    check_tol(tol)
    u = game.u

    def test(a, b):
        total = u[a] + u[b]
        return u[a | b] < total - tol, total

    first = first_pair(game.n, test)
    if first is None:
        return True
    if not math.isfinite(first[2]):
        a, b = (subset_label(mask, game.players) for mask in first[:2])
        raise NumericOverflowError(f"u({a}) + u({b}) is past the float range")
    return False


def in_core(game: TUGame, phi, tol: float = DEFAULT_TOL) -> bool:
    """Core membership: efficient, and no coalition can beat its share. A coalition's
    share past the float range raises ``NumericOverflowError``."""
    check_tol(tol)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (game.n,):
        raise ValueError(f"allocation must have length {game.n}")
    masks = np.arange(1 << game.n)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = subset_sums(phi)
        _require_finite(game, sums, masks, "the allocation's share of")
        # np.sum may add in another order than the checked subset sums: no range check here
        efficient = abs(float(np.sum(phi)) - game.grand_value()) <= tol
        return efficient and bool(np.all(sums >= game.u - tol))


def _cover_surplus(game: TUGame):
    """The Bondareva-Shapley test, exactly: the worth of every proper nonempty coalition by
    mask, v(N) less the cheapest total payout that honors those claims (an exact simplex over
    coalition covers; the core is nonempty exactly when this is not negative), and that
    payout's prices. None for one player; refused past ``MAX_CORE_DECIDE`` players."""
    from fractions import Fraction

    from .exact_lp import minimal_coalition_cover

    if game.n > MAX_CORE_DECIDE:
        raise SizeLimitError(f"core decision supports n <= {MAX_CORE_DECIDE}, got {game.n}")
    if game.n == 1:
        return None
    worth = game.u[1:-1].tolist()
    best_total, prices = minimal_coalition_cover(game.n, worth)
    return worth, Fraction(float(game.u[-1])) - best_total, prices


def core_witness(game: TUGame) -> np.ndarray | None:
    """An allocation in the core, or None when the core is empty.

    Decided by the exact cover test of :func:`core_is_nonempty`; the witness
    is the cheapest cover's prices with any surplus spread evenly. A witness
    component past the float range raises ``NumericOverflowError`` naming
    its player.
    """
    from .exact_lp import first_uncovered

    cover = _cover_surplus(game)
    if cover is None:
        return np.array([game.grand_value()])
    worth, surplus, prices = cover
    if surplus < 0:
        return None
    phi = [p + surplus / game.n for p in prices]
    # exact sanity check before leaving rational arithmetic
    if first_uncovered(game.n, worth, phi) is not None:
        raise AssertionError("exact witness violates a coalition claim")
    witness = []
    for name, p in zip(game.players, phi):
        try:
            witness.append(float(p))
        except OverflowError:
            raise NumericOverflowError(
                f"core witness pays player {name} more than the float range holds") from None
    return np.array(witness)


def core_is_nonempty(game: TUGame) -> bool:
    """Whether the core is nonempty: whether, in exact rational arithmetic, the cheapest
    total payout that honors every proper coalition's claim is at most v(N)."""
    cover = _cover_surplus(game)
    return cover is None or cover[1] >= 0


def unanimity_game(n: int, carrier: PlayerSet) -> TUGame:
    """Game worth 1 to coalitions containing ``carrier`` and 0 otherwise."""
    if not carrier:
        raise ValueError("carrier must be nonempty")
    if not carrier.fits(n):
        raise ValueError(f"carrier {carrier} does not fit a {n}-player team")
    check_subset_array(n)
    return TUGame(n, ((np.arange(1 << n) & carrier.mask) == carrier.mask).astype(float))


def random_convex_game(n: int, rng: np.random.Generator, scale: float = 1.0) -> TUGame:
    """Random convex game: a nonnegative combination of unanimity games.

    Unanimity games are convex and convexity is preserved by nonnegative
    sums, so the result is convex by construction.
    """
    check_subset_array(n)
    table = np.zeros(1 << n)
    table[1:] = rng.uniform(0.0, scale, size=(1 << n) - 1)  # one coefficient per carrier
    # each mask sums the coefficients of the carriers inside it
    return TUGame(n, subset_closure(table, np.add))
