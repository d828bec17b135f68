"""Seeded random game generators for the property tests."""

from __future__ import annotations

import numpy as np

from teamgames.additivity import BiAdditiveMatrix
from teamgames.players import PlayerSet, mask_sizes, player_names
from teamgames.st import STGame, coalition_outcomes
from teamgames.tu import TUGame


def random_tu_game(n: int, rng: np.random.Generator, scale: float = 1.0) -> TUGame:
    table = rng.uniform(-scale, scale, size=1 << n)
    table[0] = 0.0
    return TUGame(n, table)


def random_st_game(n: int, rng: np.random.Generator, n_outcomes: int | None = None) -> STGame:
    """Tabulated team game with random consequences and assessments.

    Every (assessor, outcome) pair gets a value, so the table is total for
    every operation, including the structure detectors.
    """
    full = (1 << n) - 1
    if n_outcomes is None:
        n_outcomes = full
    outcomes = tuple(f"o{k}" for k in range(n_outcomes))
    columns = np.insert(rng.integers(0, n_outcomes, size=full), 0, 0)
    return _full_table(n, outcomes, columns, rng.uniform(-1.0, 1.0, size=(full, n_outcomes)))


def _full_table(n: int, outcomes, columns, values, players=None) -> STGame:
    """Tabulated game valuing outcome j at ``values[A - 1, j]`` for every assessor A > 0."""
    rows, positions = np.indices(values.shape)
    return STGame.from_entries(
        n, outcomes, columns, rows.ravel() + 1, positions.ravel(), values.ravel(),
        player_names(n, players),
    )


def random_additive_game(
    n: int, rng: np.random.Generator, *, nonnegative: bool = False, monotone: bool = False
) -> STGame:
    """Additive game from random per-player utilities over per-subset outcomes.

    ``nonnegative`` bounds individual values below by 0 (which makes the
    game sensible); ``monotone`` makes every player value larger coalitions'
    outcomes weakly more (which makes it fully cooperative).
    """
    outcomes, columns = coalition_outcomes(n)
    shape = (n, len(outcomes))
    if monotone:
        values = 0.25 * mask_sizes(n)[1:] + rng.uniform(0.0, 0.2, size=shape)
    else:
        values = rng.uniform(0.0 if nonnegative else -1.0, 1.0, size=shape)
    return STGame.additive(n, outcomes, columns, values)


def random_coadditive_game(
    n: int, rng: np.random.Generator, *, monotone: bool = False
) -> STGame:
    """Co-additive game: each subset's per-player perception drawn at random.

    u_A(S) sums A's perceptions of the members of S. ``monotone`` makes
    perceptions nonnegative and growing with the assessing subset, which
    yields a sensible and fully cooperative game.
    """
    outcomes, _ = coalition_outcomes(n)  # refuses a team past the coalition-array limit
    shape = (len(outcomes), n)
    if monotone:
        draws = 0.3 * mask_sizes(n)[1:, None] + rng.uniform(0.0, 0.2, size=shape)
    else:
        draws = rng.uniform(-1.0, 1.0, size=shape)
    perception = np.vstack([np.zeros(n), draws])  # row 0: the empty assessor perceives nothing
    return coadditive_game(n, perception)


def coadditive_game(n: int, perception) -> STGame:
    """u_A(V(S)) with V(S) = S: the sum of ``perception[A, b]`` over the members b of S, in
    ascending player order."""
    perception = np.asarray(perception, dtype=float)
    outcomes = tuple(range(1, 1 << n))

    def utility(a, s):
        total = 0.0  # left to right from 0.0: ``sum`` compensates from Python 3.12
        for b in PlayerSet(s):
            total += perception.item(a.mask, b)
        return total

    return STGame.from_functions(n, outcomes, lambda s: s.mask, utility)


def random_biadditive_matrix(n: int, rng: np.random.Generator) -> BiAdditiveMatrix:
    return BiAdditiveMatrix(n, rng.uniform(-1.0, 1.0, size=(n, n)))


def monotone_series(n: int, rng: np.random.Generator) -> STGame:
    """Fully cooperative tabulated game: everyone weakly prefers bigger coalitions."""
    outcomes, columns = coalition_outcomes(n)
    a = np.arange(1, 1 << n)[:, None]
    draws = rng.random((len(outcomes), len(outcomes)))  # A inside S: [0, 0.4); else [-0.5, 0.5)
    values = 0.5 * mask_sizes(n)[1:] + np.where((a & a.T) == a, 0.4 * draws, -0.5 + draws)
    return _full_table(n, tuple(f"o{s}" for s in outcomes), columns, values)
