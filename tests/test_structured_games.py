"""The structured team games as closed forms over arrays, tabulated when they are built.

Each library constructor must agree with the per-element closure it was
built from before (``reference_loops``), read the same value through its
scalar and array accessors at every stored cell and NaN or
``MissingUtilityError`` off its frames, and let a scan run without building
a PlayerSet per element.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import reference_loops as ref
import teamgames.players as players
import teamgames.st as st
from teamgames.additivity import BiAdditiveMatrix, is_additive, is_coadditive
from teamgames.cobb import EQUAL, CobbDouglasConfig, ContributionProfile, hybrid, st_game_view
from teamgames.errors import MissingUtilityError, NumericOverflowError, SizeLimitError
from teamgames.game_io import load_game, save_game
from teamgames.players import MAX_SUBSET_ARRAY, PlayerSet, check_subset_array
from random_games import (
    random_additive_game,
    random_biadditive_matrix,
    random_coadditive_game,
    random_st_game,
)
from teamgames.st import (
    STGame, all_coop_points, coalition_outcomes, from_ntu, is_fully_cooperative, is_sensible,
)
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
    """The per-pair functions and the kernels read the same bits at every stored cell, and
    off the frames the kernels read NaN and the per-pair functions refuse."""
    masks = np.arange(1 << n)
    for name, (game, _) in _pairs(60 + n, n).items():
        grid = game.u(masks[:, None], masks[None, 1:])
        frames = game._blocks.frames[game._columns]
        for a in range(1 << n):
            for s in range(1, 1 << n):
                if a & ~frames[s]:
                    assert np.isnan(grid[a, s - 1]), (name, a, s)
                    with pytest.raises(MissingUtilityError):
                        game._u(a, game._v(s))
                else:
                    assert game._u(a, game._v(s)) == grid[a, s - 1], (name, a, s)
        position = {x: j for j, x in enumerate(game.outcomes)}
        stored = [(a, position[x], v) for (a, x), v in game.utility_table.items()]
        assert [game._u(a, game.outcomes[j]) for a, j, _ in stored] == [v for *_, v in stored]
        assert len(stored) + len(game.outcomes) == len(game._blocks.cells), name


def test_random_draws_follow_the_scalar_stream():
    """Same seed, same game: the array draws reproduce the old one-at-a-time draws."""
    n = 5
    a_masks, s_masks = np.meshgrid(np.arange(1 << n), np.arange(1, 1 << n), indexing="ij")
    for name, (game, old) in _pairs(3, n).items():
        if name.startswith(("additive", "coadditive")):
            assert np.array_equal(game.u(a_masks, s_masks), old.u(a_masks, s_masks),
                                  equal_nan=True), name


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


def _clean_games(n=4):
    """A game from every public team-game constructor. All but the Cobb-Douglas view value
    coalition S's outcome at |A| |S| / 4 for every assessor A: sensible, fully cooperative
    and additive."""
    outcomes, columns = coalition_outcomes(n)
    sizes = players.mask_sizes(n)
    consequence = {s: s for s in outcomes}
    a, s = (part.ravel() for part in np.meshgrid(np.arange(1, 1 << n), outcomes, indexing="ij"))
    values = 0.25 * sizes[a] * sizes[s]
    profile = ContributionProfile.create([0.2, 0.4, 0.6, 0.8][:n])
    return {
        "from_tables": STGame.from_tables(
            n, outcomes, consequence, dict(zip(zip(a.tolist(), s.tolist()), values.tolist()))),
        "from_entries": STGame.from_entries(n, outcomes, columns, a, s - 1, values,
                                            tuple(map(str, range(n)))),
        "from_functions": STGame.from_functions(
            n, outcomes, lambda c: c.mask, lambda b, x: 0.25 * len(b) * len(PlayerSet(x))),
        "additive": STGame.additive(n, outcomes, columns, np.tile(0.25 * sizes[1:], (n, 1))),
        "from_ntu": from_ntu(n, outcomes, consequence,
                             {p: {x: 0.25 * sizes[x] for x in outcomes} for p in range(n)}),
        "to_game": BiAdditiveMatrix(n, np.full((n, n), 0.25)).to_game(),
        "st_game_view": st_game_view(EQUAL, CobbDouglasConfig(), profile),
    }


def test_every_team_game_is_its_table(monkeypatch):
    """Every public constructor returns a table: the predicates decide it with no pair scan,
    and a scalar read ranks its assessor without the array ``pext``."""
    assert [field.name for field in dataclasses.fields(STGame)] == [
        "n", "outcomes", "players", "_columns", "_blocks"]
    games = _clean_games()
    n = 4
    masks = np.arange(1 << n)
    arrays = {name: g.u(masks[:, None], masks[None, 1:]) for name, g in games.items()}
    view = games["st_game_view"]
    expected = dict.fromkeys(games, (True, True, True))
    expected["st_game_view"] = (ref.is_sensible(view), ref.is_fully_cooperative(view),
                                ref.find_additive_violation(view) is None)

    def refuse(*args, **kwargs):
        raise AssertionError("called while reading a table")

    monkeypatch.setattr(players, "mask_pairs", refuse)
    for name, g in games.items():
        assert isinstance(g._blocks, st._Blocks), name
        answers = (is_sensible(g), is_fully_cooperative(g), is_additive(g))
        assert answers == expected[name], name
    monkeypatch.setattr(st, "pext", refuse)
    for name, g in games.items():
        frames = g._blocks.frames[g._columns]
        got = [[g._u(a, g._v(s)) if a & frames[s] == a else None for s in range(1, 1 << n)]
               for a in range(1 << n)]
        want = [[None if np.isnan(v) else v for v in row] for row in arrays[name].tolist()]
        assert got == want, name


@pytest.mark.parametrize("value, error, message", [
    (math.nan, ValueError, "utility of assessor {a,b} at outcome 3 is not a number"),
    (-math.inf, NumericOverflowError, "the utility of {a,b} at outcome 3 is past the float range"),
])
def test_a_cell_that_is_not_finite_is_refused_when_the_game_is_built(value, error, message):
    def utility(a, x):  # {a,b} at its own outcome is the first such cell in nested order
        return value if a.mask == 3 else 1.0

    with pytest.raises(error) as got:
        STGame.from_functions(2, (1, 2, 3), lambda s: s.mask, utility, "ab")
    assert str(got.value) == message


def test_a_read_off_the_stored_cells():
    """Outside the frame of V({0,1}), the team without player 2, nothing is stored."""
    g = STGame.from_functions(3, range(1, 8), lambda s: s.mask, lambda a, x: 1.0)
    assert math.isnan(g.u(0b100, 0b011)) and g.u(0b010, 0b011) == 1.0
    with pytest.raises(MissingUtilityError):
        g.assess(PlayerSet.of(2), 3)


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
