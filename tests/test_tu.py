import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from reference_loops import shapley_by_permutations, shapley_value_stratified

from teamgames.errors import DisjointnessError, NumericOverflowError, SizeLimitError
from teamgames.players import PlayerSet, member_sum
from teamgames.random_games import random_tu_game
from teamgames.tu import (
    MAX_CORE_DECIDE,
    TUGame,
    core_is_nonempty,
    core_witness,
    in_core,
    is_convex,
    is_efficient,
    is_superadditive,
    marginal_contribution,
    random_convex_game,
    shapley_value,
    unanimity_game,
)


def game(values_by_members, n):
    table = np.zeros(1 << n)
    for members, v in values_by_members.items():
        table[PlayerSet.from_players(members).mask] = v
    return TUGame(n, table)


GLOVE = game({(0, 1): 1, (0, 2): 1, (0, 1, 2): 1}, 3)
MAJORITY = game({(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 1, 2): 1}, 3)
TWO = game({(0,): 1, (1,): 1, (0, 1): 3}, 2)


class TestConstruction:
    def test_rejects_nonzero_empty_worth(self):
        with pytest.raises(ValueError, match="empty coalition"):
            TUGame(2, [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("mask, label", [(1, "{0}"), (3, "{0,1}")], ids=["singleton", "grand"])
    def test_rejects_a_non_finite_worth(self, value, mask, label):
        table = [0.0, 1.0, 2.0, 3.0]
        table[mask] = value
        with pytest.raises(ValueError) as got:
            TUGame(2, table)
        assert str(got.value) == f"coalition {label} must have a finite worth, got {value}"

    def test_rejects_wrong_table_length(self):
        with pytest.raises(ValueError):
            TUGame(2, [0.0, 1.0, 2.0])

    def test_rejects_oversized_team(self):
        with pytest.raises(SizeLimitError):
            TUGame(21, np.zeros(4))

    def test_from_function(self):
        g = TUGame.from_function(3, lambda s: float(len(s)) ** 2)
        assert g.value(PlayerSet.of(0, 2)) == 4.0
        assert g.grand_value() == 9.0


class TestMarginalContribution:
    def test_direct_substitution(self):
        assert marginal_contribution(TWO, PlayerSet.of(0), PlayerSet.of(1)) == 2.0

    def test_empty_base_returns_worth(self):
        for mask in range(1, 8):
            a = PlayerSet(mask)
            assert marginal_contribution(GLOVE, a, PlayerSet.empty()) == GLOVE.value(a)

    def test_glove_pair(self):
        assert marginal_contribution(GLOVE, PlayerSet.of(0), PlayerSet.of(1, 2)) == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            marginal_contribution(GLOVE, PlayerSet.of(0), PlayerSet.of(0, 1))

    def test_a_coalition_outside_the_team_rejected(self):
        message = r"^PlayerSet.of\(2\) and PlayerSet.of\(0\) do not fit a 2-player team$"
        with pytest.raises(ValueError, match=message):
            marginal_contribution(TWO, PlayerSet.of(2), PlayerSet.of(0))


class TestShapley:
    def test_symmetric_two_player_split(self):
        assert np.allclose(shapley_value(TWO), [1.5, 1.5], atol=1e-12)

    def test_dummy_player_gets_zero(self):
        # player 2 never changes any coalition's worth
        g = game({(0,): 2, (1,): 1, (0, 1): 4, (2,): 0, (0, 2): 2, (1, 2): 1, (0, 1, 2): 4}, 3)
        phi = shapley_value(g)
        assert abs(phi[2]) <= 1e-12

    def test_glove_frozen_values(self):
        # oracle: average of marginal contributions over all 3! join orders
        oracle = shapley_by_permutations(GLOVE)
        assert np.allclose(oracle, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
        assert np.allclose(shapley_value(GLOVE), oracle, atol=1e-9)

    def test_single_player(self):
        g = game({(0,): 5}, 1)
        assert np.allclose(shapley_by_permutations(g), [5.0])

    def test_permutation_size_bound(self):
        with pytest.raises(SizeLimitError):
            shapley_by_permutations(TUGame(9, np.zeros(512)))

    @settings(max_examples=40, deadline=None)
    @given(hs.integers(min_value=1, max_value=6), hs.integers(min_value=0, max_value=2**32 - 1))
    def test_three_routes_agree_and_are_efficient(self, n, seed):
        g = random_tu_game(n, np.random.default_rng(seed))
        phi = shapley_value(g)
        assert abs(phi.sum() - g.grand_value()) <= 1e-9
        assert np.allclose(phi, shapley_value_stratified(g), atol=1e-9)
        assert np.allclose(phi, shapley_by_permutations(g), atol=1e-9)


class TestPredicates:
    def test_additive_game_is_convex(self):
        w = [0.5, 2.0, 1.0]
        g = TUGame.from_function(3, lambda s: sum(w[i] for i in s))
        assert is_convex(g)
        assert is_superadditive(g)

    def test_size_squared_is_convex(self):
        g = TUGame.from_function(4, lambda s: float(len(s)) ** 2)
        assert is_convex(g)
        assert is_superadditive(g)

    def test_glove_not_convex_but_superadditive(self):
        assert not is_convex(GLOVE)
        assert is_superadditive(GLOVE)

    def test_not_superadditive(self):
        g = game({(0,): 2, (1,): 2, (0, 1): 3}, 2)
        assert not is_superadditive(g)

    def test_superadditive_implies_individually_rational_shapley(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 25:
            g = random_tu_game(4, rng)
            if not is_superadditive(g):
                continue
            found += 1
            phi = shapley_value(g)
            for i in range(4):
                assert phi[i] >= g.value(PlayerSet.of(i)) - 1e-9


class TestFloatRange:
    """A margin or sum past the float range raises, naming its coalition, instead of
    deciding on inf; worths near the range that stay inside it keep exact answers."""

    def test_convexity_and_shapley_refuse_an_overflowing_margin(self):
        g = game({(0,): 1.7e308, (1,): -1.7e308, (0, 1): 1.7e308}, 2)
        message = r"^the margin of player 0 on coalition \{1\} is past the float range$"
        with pytest.raises(NumericOverflowError, match=message):
            is_convex(g)
        with pytest.raises(NumericOverflowError, match=message):
            shapley_value(g)

    def test_superadditivity_refuses_an_overflowing_sum(self):
        g = game({(0,): 1e308, (1,): 1e308, (0, 1): 1.7e308}, 2)
        assert not is_convex(g)  # decided on finite margins before any sum overflows
        with pytest.raises(NumericOverflowError, match=r"^u\(\{0\}\) \+ u\(\{1\}\) is past"):
            is_superadditive(g)

    def test_core_membership_refuses_an_overflowing_share(self):
        g = game({(0,): 1.0, (1,): 1.0, (0, 1): 2.0}, 2)
        with pytest.raises(NumericOverflowError, match=r"allocation's share of \{0,1\} is past"):
            in_core(g, [1e308, 1e308])

    def test_marginal_contribution_refuses_an_overflowing_margin(self):
        g = game({(0,): 1.7e308, (1,): -1.7e308, (0, 1): 1.7e308}, 2)
        message = r"^the margin of coalition \{0\} on coalition \{1\} is past the float range$"
        with pytest.raises(NumericOverflowError, match=message):
            marginal_contribution(g, PlayerSet.of(0), PlayerSet.of(1))
        assert marginal_contribution(g, PlayerSet.of(1), PlayerSet.of(0)) == 0.0
        assert marginal_contribution(g, PlayerSet.of(1), PlayerSet.empty()) == -1.7e308

    def test_efficiency_refuses_an_overflowing_sum(self):
        g = game({(0,): 1.7e308, (1,): -1.7e308, (0, 1): 1.7e308}, 2)
        with pytest.raises(NumericOverflowError, match=r"^the allocation's sum is past the float"):
            is_efficient(g, [1.7e308, 1.7e308])
        assert is_efficient(g, [1.7e308, 0.0]) and is_efficient(g, [1e308, 7e307])
        assert not is_efficient(g, [1.7e308, -1e308])
        # in_core answers as before: its own share check refuses the overflowing sums
        assert in_core(g, [1.7e308, 0.0])
        for phi in ([1.7e308, -1e308], [0.0, 1.7e308], [8.5e307, 8.5e307], [1e308, 7e307]):
            assert not in_core(g, phi)
        for phi in ([1.7e308, 1e308], [1.7e308, 1.7e308]):
            with pytest.raises(NumericOverflowError, match=r"allocation's share of \{0,1\} is"):
                in_core(g, phi)

    def test_worths_near_the_range_keep_exact_answers(self):
        g = game({(0,): 8e307, (1,): 8e307, (0, 1): 1.7e308}, 2)
        assert is_convex(g) and is_superadditive(g)
        phi = shapley_value(g)
        assert phi.tolist() == [8.5e307, 8.5e307]
        assert in_core(g, phi)
        assert not in_core(g, [1.7e308, 0.0])
        opposite = game({(0,): 1e308, (1,): -1e308}, 2)
        assert in_core(opposite, [1e308, -1e308])


class TestCore:
    def test_glove_memberships(self):
        assert in_core(GLOVE, [1.0, 0.0, 0.0])
        assert not in_core(GLOVE, shapley_value(GLOVE))

    def test_additive_game_singleton_allocation(self):
        w = [1.0, 2.0, 3.0]
        g = TUGame.from_function(3, lambda s: sum(w[i] for i in s))
        assert in_core(g, w)

    def test_inefficient_allocation_rejected(self):
        assert not in_core(GLOVE, [2.0, 0.0, 0.0])

    def test_glove_core_nonempty_with_checkable_witness(self):
        w = core_witness(GLOVE)
        assert w is not None
        assert in_core(GLOVE, w)

    def test_majority_core_empty(self):
        assert core_witness(MAJORITY) is None
        assert not core_is_nonempty(MAJORITY)

    def test_single_player(self):
        g = game({(0,): 4}, 1)
        assert np.allclose(core_witness(g), [4.0])

    def test_boundary_core_exact(self):
        # claims sum exactly to the grand worth: the core is one point
        g = game({(0,): 1, (1,): 1, (0, 1): 2}, 2)
        w = core_witness(g)
        assert w is not None and np.allclose(w, [1.0, 1.0])
        # and shrinking the grand worth by any amount empties it
        g2 = game({(0,): 1, (1,): 1, (0, 1): 2 - 1e-12}, 2)
        assert core_witness(g2) is None

    def test_size_bound(self):
        n = MAX_CORE_DECIDE + 1
        with pytest.raises(SizeLimitError):
            core_is_nonempty(TUGame(n, np.zeros(1 << n)))

    def test_fourteen_player_planted_core(self):
        # claims below an integer allocation, in eighths: the core holds that allocation
        n = 14
        rng = np.random.default_rng(14)
        x = rng.integers(-16, 33, n).astype(float)
        table = member_sum(n, np.arange(1 << n), lambda i, sel: x[i])
        table[1:-1] -= rng.choice([0, 0, 1, 2, 4, 8, 16], (1 << n) - 2)
        g = TUGame(n, table / 8)
        w = core_witness(g)
        assert w is not None and in_core(g, w)

    def test_fourteen_player_empty_core(self):
        # the grand worth falls short of the balanced family of (n-1)-player coalitions
        n = 14
        table = np.random.default_rng(15).integers(-8, 25, 1 << n) / 8
        full = (1 << n) - 1
        table[0] = 0.0
        table[full] = sum(table[full & ~(1 << i)] for i in range(n)) / (n - 1) - 0.125
        assert not core_is_nonempty(TUGame(n, table))

    def test_witness_past_the_float_range(self):
        g = game({(0,): 1.7e308, (1,): -1.7e308, (0, 1): 1.7e308}, 2)
        assert core_is_nonempty(g)  # decided from the exact cover value alone
        with pytest.raises(NumericOverflowError, match="player 0 "):
            core_witness(g)

    def test_convex_games_have_shapley_in_core(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = random_convex_game(n, rng)
            assert is_convex(g)
            assert in_core(g, shapley_value(g))
            assert core_is_nonempty(g)

    def test_witness_implies_membership_on_random_games(self):
        rng = np.random.default_rng(3)
        nonempty = 0
        for k in range(40):
            g = random_tu_game(4, rng, scale=0.5)
            if k % 2 == 0:
                # raise the grand worth so a fair share of cores are nonempty
                table = g.u.copy()
                table[-1] += 1.5
                g = TUGame(g.n, table)
            w = core_witness(g)
            if w is not None:
                nonempty += 1
                assert in_core(g, w)
        assert nonempty > 0


class TestUnanimity:
    def test_worth_table(self):
        g = unanimity_game(3, PlayerSet.of(0, 2))
        assert g.value(PlayerSet.of(0, 2)) == 1.0
        assert g.value(PlayerSet.of(0, 1, 2)) == 1.0
        assert g.value(PlayerSet.of(0, 1)) == 0.0

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValueError):
            unanimity_game(3, PlayerSet.empty())
