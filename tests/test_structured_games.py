"""The structured team games as closed forms over arrays.

Each library constructor must agree with the per-element closure it was
built from before (``reference_loops``), read the same value through its
scalar and array accessors, and let a scan run without building a
PlayerSet per element.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import reference_loops as ref
import teamgames.players as players
from teamgames.additivity import BiAdditiveMatrix, is_additive, is_coadditive
from teamgames.cobb import EQUAL, CobbDouglasConfig, ContributionProfile, hybrid, st_game_view
from teamgames.errors import SizeLimitError
from teamgames.game_io import load_game, save_game
from teamgames.players import MAX_SUBSET_ARRAY, PlayerSet, check_subset_array
from random_games import (
    random_additive_game,
    random_biadditive_matrix,
    random_coadditive_game,
    random_st_game,
)
from teamgames.st import STGame, all_coop_points, from_ntu, is_sensible
from teamgames.tu import random_convex_game, unanimity_game


def _pairs(seed, n):
    """(library game, reference game) for every structured constructor, same draws."""
    outcomes = tuple(range(1, 1 << n))
    draws = np.random.default_rng(seed)
    individual = {p: {x: float(draws.uniform(-1.0, 1.0)) for x in outcomes} for p in range(n)}
    consequence = {mask: outcomes[(7 * mask) % len(outcomes)] for mask in outcomes}
    matrix = random_biadditive_matrix(n, draws)
    profile = ContributionProfile.create(
        draws.uniform(0.0, 1.0, size=n).tolist(), (1.0 + draws.uniform(0.0, 1.0, size=n)).tolist()
    )
    pairs = {
        "from_ntu": (from_ntu(n, outcomes, consequence, individual),
                     ref.from_ntu(n, outcomes, consequence, individual)),
        "to_game": (matrix.to_game(), ref.biadditive_game(matrix)),
        "st_game_view": (st_game_view(hybrid(0.3), CobbDouglasConfig(beta=1.7), profile),
                         ref.st_game_view(hybrid(0.3), CobbDouglasConfig(beta=1.7), profile)),
        "st_game_view_equal": (st_game_view(EQUAL, CobbDouglasConfig(theta=1.0), profile),
                               ref.st_game_view(EQUAL, CobbDouglasConfig(theta=1.0), profile)),
    }
    for options in ({}, {"nonnegative": True}, {"monotone": True}):
        pairs[f"additive{options}"] = (
            random_additive_game(n, np.random.default_rng(seed), **options),
            ref.random_additive_game(n, np.random.default_rng(seed), **options),
        )
    for options in ({}, {"monotone": True}):
        pairs[f"coadditive{options}"] = (
            random_coadditive_game(n, np.random.default_rng(seed), **options),
            ref.random_coadditive_game(n, np.random.default_rng(seed), **options),
        )
    return pairs


@pytest.mark.parametrize("n", range(1, 8))
def test_structured_games_agree_with_their_old_closures(n):
    a_masks, s_masks = np.meshgrid(np.arange(1 << n), np.arange(1, 1 << n), indexing="ij")
    for name, (game, old) in _pairs(40 + n, n).items():
        assert game.outcomes == old.outcomes, name
        assert game._columns.tolist() == old._columns.tolist(), name
        got, expected = game.u(a_masks, s_masks), old.u(a_masks, s_masks)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0, err_msg=name)
        assert not got[0].any(), name


@pytest.mark.parametrize("n", range(1, 6))
def test_scalar_reads_equal_array_reads(n):
    """The per-pair functions and the kernels read the same bits."""
    masks = np.arange(1 << n)
    for name, (game, _) in _pairs(60 + n, n).items():
        grid = game.u(masks[:, None], masks[None, 1:])
        scalar = [[game._u(a, game._v(s)) for s in range(1, 1 << n)] for a in range(1 << n)]
        assert grid.tolist() == scalar, name


def test_random_draws_follow_the_scalar_stream():
    """Same seed, same game: the array draws reproduce the old one-at-a-time draws."""
    n = 5
    a_masks, s_masks = np.meshgrid(np.arange(1 << n), np.arange(1, 1 << n), indexing="ij")
    for name, (game, old) in _pairs(3, n).items():
        if name.startswith(("additive", "coadditive")):
            assert game.u(a_masks, s_masks).tolist() == old.u(a_masks, s_masks).tolist(), name


@pytest.mark.parametrize("n", range(1, 9))
def test_tu_constructors_agree_with_their_loops(n):
    game = random_convex_game(n, np.random.default_rng(n))
    old = ref.random_convex_game(n, np.random.default_rng(n))
    np.testing.assert_allclose(game.u, old.u, rtol=1e-12, atol=0)
    for carrier in range(1, 1 << min(n, 4)):
        assert unanimity_game(n, PlayerSet(carrier)).u.tolist() == ref.unanimity_game(
            n, PlayerSet(carrier)
        ).u.tolist()


def test_scans_on_structured_games_build_no_player_sets(monkeypatch):
    n = 6
    games = {name: game for name, (game, _) in _pairs(5, n).items()}
    built = 0

    def count(self):
        nonlocal built
        built += 1

    monkeypatch.setattr(PlayerSet, "__post_init__", count)
    for name, game in games.items():
        is_sensible(game)
        is_additive(game)
        is_coadditive(game)
        assert built == 0, name


def test_from_entries_checks_totality_without_a_pair_walk(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("mask_pairs called")

    game = random_st_game(4, np.random.default_rng(2), n_outcomes=3)
    save_game(game, tmp_path / "team.game")
    monkeypatch.setattr(players, "mask_pairs", refuse)
    assert load_game(tmp_path / "team.game").utility_table == game.utility_table
    utilities = dict(game.utility_table)
    del utilities[(0b0110, game._v(0b1110))]
    with pytest.raises(ValueError, match=r"missing utility: assessor \{1,2\}"):
        STGame.from_tables(4, game.outcomes, dict(game.consequence_table), utilities)


def test_from_functions_refuses_an_undeclared_outcome():
    with pytest.raises(ValueError, match=r"consequence of \{0,1\} is an undeclared outcome 'y'"):
        STGame.from_functions(
            2, ("x",), lambda s: "y" if len(s) == 2 else "x", lambda a, x: 1.0
        )


def test_from_ntu_refuses_a_missing_value_up_front():
    def consequence(s):
        raise AssertionError("consequence read before the values were checked")

    individual = {0: {"x": 1.0, "y": 2.0}, 1: {"x": 0.5}}
    with pytest.raises(ValueError, match="missing individual utility for player 1 at outcome 'y'"):
        from_ntu(2, ("x", "y"), consequence, individual)


def test_arrays_over_all_coalitions_stop_at_the_limit():
    check_subset_array(MAX_SUBSET_ARRAY)
    n = MAX_SUBSET_ARRAY + 1

    def refuse(*args):
        raise AssertionError("called past the coalition-array limit")

    builds = [
        lambda: STGame.from_functions(n, ("x",), refuse, refuse),
        lambda: from_ntu(n, ("x",), refuse, {p: {"x": 1.0} for p in range(n)}),
        lambda: st_game_view(EQUAL, CobbDouglasConfig(), ContributionProfile.create([0.5] * n)),
        lambda: all_coop_points(SimpleNamespace(n=n)),
        lambda: random_additive_game(n, np.random.default_rng(0)),
        lambda: random_coadditive_game(n, np.random.default_rng(0)),
        lambda: BiAdditiveMatrix(n, np.zeros((n, n))).to_game(),
        lambda: random_convex_game(n, np.random.default_rng(0)),
        lambda: unanimity_game(n, PlayerSet.of(0)),
    ]
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=f"support n <= {MAX_SUBSET_ARRAY}, got {n}"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
