import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
import reference_loops as ref
from reference_loops import disjoint_pairs, in_st_core

from teamgames import tu
from teamgames.additivity import BiAdditiveMatrix
from teamgames.errors import (
    DisjointnessError, NotReducibleError, NumericOverflowError, RepeatedEntryError,
    SizeLimitError,
)
from teamgames.players import PlayerSet, subset_label
from random_games import monotone_series, random_st_game
from teamgames.scenarios import builtin_game
from teamgames.st import (
    ENTRY_CHUNK,
    CoopPoint,
    Quadrant,
    STGame,
    all_coop_points,
    altruistic_contribution,
    classify_quadrant,
    coalition_outcomes,
    competitive_contribution,
    coop_point,
    from_ntu,
    is_cohesive,
    is_fully_cooperative,
    is_sensible,
    quadrant_labels,
    quadrant_of,
    reduce_to_tu,
    total_marginal,
)

PD = builtin_game("pd")
A = PlayerSet.of(0)
B = PlayerSet.of(1)


def constant_game(n, value=2.5):
    """Every subset assesses every outcome identically."""
    outcomes = tuple(range(1, 1 << n))
    return STGame.from_functions(
        n, outcomes, lambda s: s.mask, lambda a, x: value if a else 0.0
    )


class TestMetricDefinitions:
    def test_pd_total_marginal(self):
        assert total_marginal(PD, A, B) == 3.0
        assert total_marginal(PD, B, A) == 3.0

    def test_pd_competitive(self):
        assert competitive_contribution(PD, A, B) == 2.0

    def test_pd_altruistic(self):
        assert altruistic_contribution(PD, A, B) == 1.0

    def test_empty_bystanders_convention(self):
        # with nobody outside, the total marginal is the team's own worth
        team = PlayerSet.of(0, 1)
        assert total_marginal(PD, team, PlayerSet.empty()) == 4.0
        assert competitive_contribution(PD, team, PlayerSet.empty()) == 4.0

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            total_marginal(PD, A, A)

    def test_empty_b_rejected_for_altruism(self):
        with pytest.raises(ValueError):
            altruistic_contribution(PD, A, PlayerSet.empty())

    def test_oversized_subsets_rejected(self):
        with pytest.raises(ValueError, match="2-player team"):
            total_marginal(PD, PlayerSet.of(3), B)

    def test_assessor_independent_utility_has_zero_competition(self):
        g = constant_game(3)
        for a, b in disjoint_pairs(3, nonempty_b=False):
            assert competitive_contribution(g, a, b) == (0.0 if b else 2.5)

    def test_same_outcome_means_zero_altruism(self):
        outcomes = ("x",)
        g = STGame.from_functions(
            2, outcomes, lambda s: "x", lambda a, x: 3.0 * len(a)
        )
        assert altruistic_contribution(g, A, B) == 0.0

    def test_negative_altruism_signals_defection_incentive(self):
        # the bystander prefers the outcome it reaches alone
        outcomes = ("solo", "joint")
        g = STGame.from_functions(
            2,
            outcomes,
            lambda s: "joint" if len(s) == 2 else "solo",
            lambda a, x: (5.0 if x == "solo" else 1.0) * len(a),
        )
        assert altruistic_contribution(g, A, B) < 0

    @settings(max_examples=60, deadline=None)
    @given(hs.integers(min_value=2, max_value=5), hs.integers(min_value=0, max_value=2**32 - 1))
    def test_decomposition_identity(self, n, seed):
        g = random_st_game(n, np.random.default_rng(seed))
        for a, b in disjoint_pairs(n, nonempty_b=False):
            m = total_marginal(g, a, b)
            c = competitive_contribution(g, a, b)
            alt = altruistic_contribution(g, a, b) if b else 0.0
            assert abs(m - (c + alt)) <= 1e-9


class TestCoopPoints:
    def test_pd_points(self):
        p = coop_point(PD, A)
        assert (p.altruism, p.competitive, p.marginal) == (1.0, 2.0, 3.0)
        assert classify_quadrant(p) is Quadrant.I

    def test_grand_subset_convention(self):
        p = coop_point(PD, PlayerSet.of(0, 1))
        assert p.altruism == 0.0
        assert p.competitive == p.marginal == 4.0

    def test_constant_game_sits_at_origin(self):
        g = constant_game(2)
        p = coop_point(g, PlayerSet.of(0))
        assert (p.altruism, p.competitive) == (0.0, 0.0)
        assert classify_quadrant(p) is Quadrant.ORIGIN

    def test_all_points_counts_and_order(self):
        pts = all_coop_points(PD, include_grand=False)
        assert len(pts) == 2
        assert [p.subset.mask for p in pts] == [1, 2]
        assert all((p.altruism, p.competitive) == (1.0, 2.0) for p in pts)

        g = random_st_game(3, np.random.default_rng(5))
        pts = all_coop_points(g, include_grand=False)
        assert len(pts) == 6
        assert [p.subset.mask for p in pts] == list(range(1, 7))
        with_grand = all_coop_points(g)
        assert len(with_grand) == 7
        assert with_grand[-1].subset.mask == 7

    @settings(max_examples=30, deadline=None)
    @given(hs.integers(min_value=2, max_value=5), hs.integers(min_value=0, max_value=2**32 - 1))
    def test_points_satisfy_decomposition(self, n, seed):
        g = random_st_game(n, np.random.default_rng(seed))
        for p in all_coop_points(g):
            assert abs(p.marginal - (p.altruism + p.competitive)) <= 1e-9


class TestQuadrants:
    def point(self, a, c):
        return CoopPoint(altruism=a, competitive=c, marginal=a + c, subset=A)

    def test_open_classification(self):
        assert classify_quadrant(self.point(1, 2)) is Quadrant.I
        assert classify_quadrant(self.point(-0.5, 1.0)) is Quadrant.II
        assert classify_quadrant(self.point(-1, -1)) is Quadrant.III
        assert classify_quadrant(self.point(0.5, -2)) is Quadrant.IV
        assert classify_quadrant(self.point(0, 0)) is Quadrant.ORIGIN
        assert classify_quadrant(self.point(1, 0)) is Quadrant.AXIS_A
        assert classify_quadrant(self.point(0, -1)) is Quadrant.AXIS_C

    def test_tolerance_band(self):
        tol = 1e-6
        assert classify_quadrant(self.point(5e-7, 5e-7), tol) is Quadrant.ORIGIN
        assert classify_quadrant(self.point(5e-7, 1), tol) is Quadrant.AXIS_C

    def test_closed_classification_is_total_over_quadrants(self):
        assert classify_quadrant(self.point(0, 0), closed=True) is Quadrant.I
        assert classify_quadrant(self.point(-1, 0), closed=True) is Quadrant.II
        assert classify_quadrant(self.point(-1, -1), closed=True) is Quadrant.III
        assert classify_quadrant(self.point(0.5, -1), closed=True) is Quadrant.IV


    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("tol", [1e-9, 0.5, 0.0])
    def test_array_rule_matches_the_scalar_if_chain(self, tol, closed):
        # the band edges exactly and one ulp either side, signed zeros, infinities and NaN
        edges = [tol, -tol, np.nextafter(tol, np.inf), np.nextafter(tol, -np.inf),
                 np.nextafter(-tol, np.inf), np.nextafter(-tol, -np.inf)]
        coords = [float(x) for x in edges] + [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
        a, c = (np.array(v) for v in zip(*[(x, y) for x in coords for y in coords]))
        want = [ref.quadrant_of(x, y, tol, closed=closed) for x, y in zip(a.tolist(), c.tolist())]
        got = quadrant_labels(a, c, tol, closed=closed)
        assert got.shape == a.shape
        assert got.tolist() == [q.value for q in want]
        for x, y, q in zip(a.tolist(), c.tolist(), want):
            assert quadrant_of(x, y, tol, closed=closed) is q
            assert classify_quadrant(self.point(x, y), tol, closed=closed) is q
        # NaN fails every comparison, so it takes the negative side in both modes
        assert quadrant_of(np.nan, 1.0, tol, closed=closed) is Quadrant.II

    def test_labels_keep_the_shape_of_their_columns(self):
        grid = quadrant_labels([[1.0, -1.0], [0.0, 2.0]], [[1.0, 1.0], [-1.0, 0.0]])
        assert grid.tolist() == [["I", "II"], ["axis-c", "axis-a"]]
        assert quadrant_labels([], []).tolist() == []


class TestPredicates:
    def test_pd_is_sensible_and_fully_cooperative(self):
        assert is_sensible(PD)
        assert is_fully_cooperative(PD)
        assert is_cohesive(PD, PlayerSet.of(0, 1))

    def test_singleton_coalitions_are_cohesive(self):
        g = random_st_game(3, np.random.default_rng(0))
        assert is_cohesive(g, PlayerSet.of(1))

    def test_zero_altruism_degenerate_game_is_fully_cooperative(self):
        # nobody gains or loses from teamwork: all altruism exactly zero
        g = constant_game(3)
        assert is_fully_cooperative(g)
        for a, b in disjoint_pairs(3):
            assert altruistic_contribution(g, a, b) == 0.0

    def test_negative_altruism_breaks_cohesion(self):
        outcomes = ("solo", "joint")
        g = STGame.from_functions(
            2,
            outcomes,
            lambda s: "joint" if len(s) == 2 else "solo",
            lambda a, x: (5.0 if x == "solo" else 1.0) * len(a),
        )
        assert not is_fully_cooperative(g)
        assert not is_cohesive(g, PlayerSet.of(0, 1))

    def test_negative_self_assessment_breaks_sensibility(self):
        outcomes = tuple(range(1, 4))
        g = STGame.from_functions(
            2, outcomes, lambda s: s.mask, lambda a, x: -1.0 if a.mask == 1 else 1.0
        )
        assert not is_sensible(g)

    def test_in_st_core_matches_full_cooperativity(self):
        doc = builtin_game("pd")
        assert in_st_core(
            2,
            doc.outcomes,
            dict(doc.consequence_table),
            dict(doc.utility_table),
        )
        # flip the joint outcome to hurt one player and membership is lost
        utilities = dict(doc.utility_table)
        utilities[(2, "together")] = 0.5
        assert not in_st_core(2, doc.outcomes, dict(doc.consequence_table), utilities)


class TestQuadrantOneEquivalence:
    @staticmethod
    def restricted_predicates(g, tol=1e-9):
        """Sensible/cohesive quantified over complementary pairs only."""
        full = PlayerSet.full(g.n)
        sensible = True
        cohesive = True
        for mask in range(1, full.mask + 1):
            a = PlayerSet(mask)
            p = coop_point(g, a)
            if p.competitive < -tol:
                sensible = False
            if a != full and p.altruism < -tol:
                cohesive = False
        return sensible, cohesive

    @settings(max_examples=25, deadline=None)
    @given(hs.integers(min_value=2, max_value=4), hs.integers(min_value=0, max_value=2**32 - 1))
    def test_all_points_in_closed_quadrant_one_iff_restricted_predicates(self, n, seed):
        rng = np.random.default_rng(seed)
        g = monotone_series(n, rng) if seed % 2 else random_st_game(n, rng)
        points_ok = all(
            classify_quadrant(p, closed=True) is Quadrant.I for p in all_coop_points(g)
        )
        sensible, cohesive = self.restricted_predicates(g)
        assert points_ok == (sensible and cohesive)

    def test_full_predicates_imply_restricted(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = monotone_series(3, rng)
            sensible, cohesive = self.restricted_predicates(g)
            if is_fully_cooperative(g):
                assert cohesive
            if is_sensible(g):
                assert sensible

    def test_full_predicates_strictly_stronger(self):
        # hand-built: every complementary pair looks ideal, but the inner
        # pair ({0},{1}) has negative altruism and competition
        n = 3
        outcomes = tuple(f"o{m}" for m in range(1, 8))
        consequence = {m: f"o{m}" for m in range(1, 8)}
        utilities = {(a, f"o{m}"): 1.0 for a in range(1, 8) for m in range(1, 8)}
        for a in range(1, 8):
            utilities[(a, "o7")] = 10.0          # everyone loves the grand outcome
        utilities[(7, "o7")] = 20.0              # the team itself most of all
        for m in range(1, 7):
            utilities[(m, f"o{m}")] = 5.0        # own-coalition outcomes are fine
        utilities[(2, "o3")] = 0.0               # but player 1 hates joining player 0
        utilities[(3, "o3")] = -1.0
        g = STGame.from_tables(n, outcomes, consequence, utilities)

        sensible, cohesive = self.restricted_predicates(g)
        assert sensible and cohesive
        assert all(classify_quadrant(p, closed=True) is Quadrant.I for p in all_coop_points(g))
        assert not is_fully_cooperative(g)
        assert not is_sensible(g)


class TestNTUImport:
    def test_summation(self):
        g = from_ntu(
            2, ("x",), {1: "x", 2: "x", 3: "x"}, {0: {"x": 3.0}, 1: {"x": 4.0}}
        )
        assert g.subset_utility(PlayerSet.of(0, 1), PlayerSet.of(0, 1)) == 7.0

    def test_competitive_contribution_equals_group_utility(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            outcomes = tuple(range(1, 1 << n))
            individual = {
                p: {x: float(rng.uniform(-1, 1)) for x in outcomes} for p in range(n)
            }
            g = from_ntu(n, outcomes, {m: m for m in outcomes}, individual)
            for a, b in disjoint_pairs(n, nonempty_b=False):
                union = a | b
                expected = sum(individual[p][union.mask] for p in a)
                assert abs(competitive_contribution(g, a, b) - expected) <= 1e-9

    def test_missing_player_utilities_rejected(self):
        with pytest.raises(ValueError):
            from_ntu(2, ("x",), {1: "x", 2: "x", 3: "x"}, {0: {"x": 1.0}})


class TestReduceToTU:
    def test_constant_assessment_game_reduces(self):
        g = constant_game(3)
        reduced = reduce_to_tu(g)
        assert reduced.n == 3
        assert reduced.value(PlayerSet.of(0)) == 2.5
        assert reduced.grand_value() == 2.5
        # the table equals every participating subset's assessment
        for s_mask in range(1, 8):
            s = PlayerSet(s_mask)
            for a_mask in range(1, 8):
                a = PlayerSet(a_mask)
                if a.issubset(s):
                    assert reduced.value(s) == g.subset_utility(a, s)

    def test_pd_rejected_with_witness(self):
        with pytest.raises(NotReducibleError) as exc_info:
            reduce_to_tu(PD)
        assert exc_info.value.value == 2.0

    def test_reduction_keeps_empty_coalition_at_zero(self):
        g = constant_game(2)
        assert reduce_to_tu(g).u[0] == 0.0


class TestDegeneracyProperties:
    def test_zero_competition_collapse(self):
        # vanishing competition forces assessor-independent values on every
        # reachable outcome (over participating assessors)
        g = constant_game(3)
        for a, b in disjoint_pairs(3):
            assert competitive_contribution(g, a, b) == 0.0
        for s_mask in range(1, 8):
            s = PlayerSet(s_mask)
            values = {
                g.subset_utility(PlayerSet(a_mask), s)
                for a_mask in range(1, 8)
                if PlayerSet(a_mask).issubset(s)
            }
            assert len(values) == 1

    def test_zero_altruism_degeneracy(self):
        outcomes = ("x",)
        g = STGame.from_functions(3, outcomes, lambda s: "x", lambda a, x: float(len(a)))
        for a, b in disjoint_pairs(3):
            assert altruistic_contribution(g, a, b) == 0.0
            assert g.subset_utility(b, a | b) == g.subset_utility(b, b)


# u_S(x) by assessor mask for a two-player game in which every coalition produces x: the
# competitive contribution of {a} against {b} leaves the float range in SWAP and MIRROR, and
# the one of {b} against {a} in EXCHANGE, which swaps the singleton assessments
SWAP = {1: 1.0, 2: -1.7e308, 3: 1.7e308}
MIRROR = {mask: -value for mask, value in SWAP.items()}
EXCHANGE = {1: -1.7e308, 2: 1.0, 3: 1.7e308}


def one_outcome_game(values):
    return STGame.from_tables(2, ("x",), {1: "x", 2: "x", 3: "x"},
                              {(mask, "x"): value for mask, value in values.items()}, "ab")


def own_outcome_game(values):
    """Two players where V(S) = S; ``values`` maps (assessor mask, coalition mask) to u."""
    return STGame.from_tables(2, (1, 2, 3), {1: 1, 2: 2, 3: 3}, values, "ab")


class TestFloatRange:
    """A difference past the float range decides by its sign or is refused with
    NumericOverflowError; no numpy warning escapes (tier-1 turns each into an error)."""

    @pytest.mark.parametrize("values", [SWAP, MIRROR, EXCHANGE], ids=["swap", "mirror", "exchange"])
    def test_predicates_decide_by_the_sign(self, values):
        g = one_outcome_game(values)
        assert is_sensible(g) == ref.is_sensible(g)
        assert is_fully_cooperative(g) == ref.is_fully_cooperative(g)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cohesion_decides_by_the_sign(self, sign):
        # b values the joint outcome at sign * 1.7e308 and its own at the opposite
        g = own_outcome_game({(1, 1): 1.0, (2, 2): -sign * 1.7e308, (1, 3): 1.0,
                              (2, 3): sign * 1.7e308, (3, 3): 1.0})
        assert is_cohesive(g, PlayerSet.of(0, 1)) == ref.is_cohesive(g, PlayerSet.of(0, 1))
        assert is_cohesive(g, PlayerSet.of(0, 1)) == (sign > 0)

    @pytest.mark.parametrize("values", [SWAP, MIRROR], ids=["swap", "mirror"])
    def test_an_infinite_first_witness_is_refused(self, values):
        with pytest.raises(NumericOverflowError, match=(
                r"^the competitive contribution of \{a\} against \{b\} is past the float "
                r"range$")):
            reduce_to_tu(one_outcome_game(values))

    def test_a_finite_first_witness_is_reported(self):
        g = one_outcome_game(EXCHANGE)
        with pytest.raises(NotReducibleError) as got:
            reduce_to_tu(g)
        with pytest.raises(NotReducibleError) as expected:
            ref.reduce_to_tu(g)
        assert (got.value.a, got.value.b, got.value.value) == (
            expected.value.a, expected.value.b, expected.value.value) == (A, B, 1.7e308)

    @pytest.mark.parametrize(
        "game, message",
        [
            (one_outcome_game(SWAP), "the competitive contribution of {a}"),
            (one_outcome_game(MIRROR), "the competitive contribution of {a}"),
            (one_outcome_game(EXCHANGE), "the competitive contribution of {b}"),
            # b gains 3.4e308 from a joining: the altruism of {a}
            (own_outcome_game({(1, 1): 0.0, (2, 2): -1.7e308, (1, 3): 0.0, (2, 3): 1.7e308,
                               (3, 3): 0.0}), "the altruism of {a}"),
            # altruism and competitive contribution 1e308 each
            (own_outcome_game({(1, 1): 0.0, (2, 2): -1e308, (1, 3): 0.0, (2, 3): 0.0,
                               (3, 3): 1e308}), "the total marginal of {a}"),
        ],
    )
    def test_a_point_past_the_float_range_is_refused(self, game, message):
        for include_grand in (True, False):
            with pytest.raises(NumericOverflowError) as got:
                all_coop_points(game, include_grand=include_grand)
            assert str(got.value) == f"{message} is past the float range"

    @pytest.mark.parametrize("kernel", [all_coop_points, reduce_to_tu])
    def test_an_additive_sum_past_the_float_range_names_the_utility(self, kernel):
        # every row sum is finite, and so is every contribution; u_{0,1}(V({0,1})) is not,
        # and the game refuses it when it is built, before ``kernel`` reads it
        with pytest.raises(NumericOverflowError) as got:
            kernel(BiAdditiveMatrix(2, [[1e308, 0.0], [1e308, 0.0]]).to_game())
        assert str(got.value) == "the utility of {0,1} at outcome 3 is past the float range"
        with pytest.raises(NumericOverflowError, match=r"^the utility of \{a,b\} at outcome 'x'"):
            individual = {0: {"x": 1.7e308}, 1: {"x": 1e308}}
            from_ntu(2, "x", dict.fromkeys((1, 2, 3), "x"), individual, "ab")

    def test_additive_sums_in_the_float_range_keep_their_bits(self):
        values = [[1.7e308, -1e308, 0.1], [-1.7e308, 1.7e308, 0.2], [0.3, -0.7e308, 0.7]]
        game = from_ntu(3, "xyz", lambda s: "xyz"[s.mask % 3],
                        {p: dict(zip("xyz", row)) for p, row in enumerate(values)})
        masks = np.arange(1, 8)
        for a in range(1, 8):
            for s in range(1, 8):
                want = sum(values[p]["xyz".index(game._v(s))] for p in range(3) if a >> p & 1)
                assert game.u(a, s) == want == game.u(masks, masks[:, None])[s - 1, a - 1]


# b gains 3.4e308 from a joining: the altruism of {a} against {b}
GAIN = {(1, 1): 0.0, (2, 2): -1.7e308, (1, 3): 0.0, (2, 3): 1.7e308, (3, 3): 0.0}
# altruism and competitive contribution 1e308 each: the total marginal of {a} against {b}
BOTH = {(1, 1): 0.0, (2, 2): -1e308, (1, 3): 0.0, (2, 3): 0.0, (3, 3): 1e308}


class TestPairMetricsPastTheFloatRange:
    """The per-pair metrics refuse a value past the float range, as ``all_coop_points``
    does for the whole table, naming the quantity and the pair."""

    @pytest.mark.parametrize(
        "game, metric, quantity",
        [
            (one_outcome_game(SWAP), total_marginal, "total marginal"),
            (one_outcome_game(SWAP), competitive_contribution, "competitive contribution"),
            (one_outcome_game(MIRROR), competitive_contribution, "competitive contribution"),
            (own_outcome_game(GAIN), altruistic_contribution, "altruism"),
            (own_outcome_game(BOTH), total_marginal, "total marginal"),
        ],
        ids=["swap-marginal", "swap-competitive", "mirror-competitive", "gain-altruism",
             "both-marginal"],
    )
    def test_a_pair_metric_is_refused(self, game, metric, quantity):
        with pytest.raises(NumericOverflowError) as got:
            metric(game, A, B)
        assert str(got.value) == f"the {quantity} of {{a}} against {{b}} is past the float range"

    @pytest.mark.parametrize(
        "game, quantity",
        [(one_outcome_game(SWAP), "competitive contribution"), (own_outcome_game(GAIN), "altruism"),
         (own_outcome_game(BOTH), "total marginal")],
        ids=["swap", "gain", "both"],
    )
    def test_a_point_is_refused(self, game, quantity):
        with pytest.raises(NumericOverflowError) as got:
            coop_point(game, A)
        assert str(got.value) == f"the {quantity} of {{a}} against {{b}} is past the float range"

    def test_finite_metrics_keep_their_bits(self):
        g = one_outcome_game(EXCHANGE)  # u_a = -1.7e308, u_b = 1, u_ab = 1.7e308
        assert total_marginal(g, A, B) == competitive_contribution(g, A, B) == 1.7e308 - 1.0
        assert altruistic_contribution(g, A, B) == 0.0
        assert total_marginal(g, A | B, PlayerSet.empty()) == 1.7e308
        assert coop_point(g, A) == CoopPoint(0.0, 1.7e308 - 1.0, 1.7e308 - 1.0, A)
        assert coop_point(g, A | B) == CoopPoint(0.0, 1.7e308, 1.7e308, A | B)


OUTSIDE = PlayerSet.of(2)  # a set outside a 2-player team


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: competitive_contribution(
            STGame.additive(2, *coalition_outcomes(2), np.full((2, 3), 1e308)), A, B),
         NumericOverflowError("the utility of {0,1} at outcome 3 is past the float range")),
        (lambda: tu.core_is_nonempty(tu.TUGame(1, np.array([0.0, -1.0]))), True),
        (lambda: tu.in_core(tu.TUGame(2, np.zeros(4)), [0.0]),
         ValueError("allocation must have length 2")),
        (lambda: tu.unanimity_game(2, OUTSIDE),
         ValueError("carrier PlayerSet.of(2) does not fit a 2-player team")),
        (lambda: PD.consequence(OUTSIDE),
         ValueError("PlayerSet.of(2) is not a coalition of a 2-player team")),
        (lambda: PD.assess(OUTSIDE, "together"),
         ValueError("PlayerSet.of(2) is not a subset of a 2-player team")),
        (lambda: coop_point(PD, PlayerSet.empty()), ValueError("subset must be nonempty")),
        (lambda: coop_point(PD, OUTSIDE),
         ValueError("PlayerSet.of(2) is not a subset of a 2-player team")),
        (lambda: is_cohesive(PD, PlayerSet.empty()), ValueError("coalition must be nonempty")),
        (lambda: is_cohesive(PD, OUTSIDE),
         ValueError("PlayerSet.of(2) is not a coalition of a 2-player team")),
    ],
    ids=["additive-read-past-range", "one-player-core", "in-core-length", "unanimity-carrier",
         "consequence-outside", "assess-outside", "coop-point-empty", "coop-point-outside",
         "cohesive-empty", "cohesive-outside"],
)
def test_library_calls_outside_a_game_end_in_their_answer_or_message(call, outcome):
    """Calls that only these cases reach: each ends in its answer or in one error naming
    what does not fit."""
    if not isinstance(outcome, Exception):
        assert call() is outcome
        return
    with pytest.raises(type(outcome)) as got:
        call()
    assert str(got.value) == str(outcome)


@pytest.mark.parametrize(
    "n, outcomes, columns, assessors, positions, message",
    [
        (1, (), [0, 0], [], [], "columns holds 0, outside [0, 0)"),
        (1, ("x",), [0, 1], [1], [0], "columns holds 1, outside [0, 1)"),
        (1, ("x",), [0, -1], [1], [0], "columns holds -1, outside [0, 1)"),
        (1, ("x",), [0], [1], [0], "columns must have shape (2,), got (1,)"),
        (1, ("x",), [0, 0, 0], [1], [0], "columns must have shape (2,), got (3,)"),
        (1, ("x",), [0, 0], [2], [0], "assessors holds 2, outside [1, 2)"),
        (1, ("x",), [0, 0], [0], [0], "assessors holds 0, outside [1, 2)"),
        (1, ("x",), [0, 0], [1], [1], "positions holds 1, outside [0, 1)"),
        (1, ("x",), [0, 0], [1], [-1], "positions holds -1, outside [0, 1)"),
        (1, ("x",), [0, 0], [1, 1], [0], "assessors, positions and values must have one length"),
        (1, ("x",), [0, 0.7], [1], [0], "columns must hold integers, got dtype float64"),
        (1, ("x",), [0, 0], [1.9], [0], "assessors must hold integers, got dtype float64"),
        (1, ("x",), [0, 0], [1], [0.2], "positions must hold integers, got dtype float64"),
        (1, ("x",), [False, True], [1], [0], "columns must hold integers, got dtype bool"),
        (1, ("x",), [0, 0], [True], [0], "assessors must hold integers, got dtype bool"),
        (1, ("x",), [0, 0], ["1"], [0], "assessors must hold integers, got dtype <U1"),
        (1, ("x",), [0, 0], [1], ["0"], "positions must hold integers, got dtype <U1"),
    ],
    ids=["no-outcomes", "column-past", "column-negative", "columns-short", "columns-long",
         "assessor-past", "assessor-empty", "position-past", "position-negative", "lengths",
         "column-float", "assessor-float", "position-float", "column-bool", "assessor-bool",
         "assessor-str", "position-str"],
)
def test_from_entries_refuses_an_entry_outside_its_table(n, outcomes, columns, assessors,
                                                         positions, message):
    with pytest.raises(ValueError) as got:
        STGame.from_entries(n, outcomes, columns, assessors, positions, [1.0] * len(assessors),
                            ("0",))
    assert str(got.value) == message


def test_from_entries_takes_integers_of_any_width_and_empty_lists():
    g = STGame.from_entries(1, ("x",), np.zeros(2, dtype=np.uint8), np.ones(1, dtype=np.uint16),
                            np.zeros(1, dtype=np.int8), [2.5], ("0",))
    assert dict(g.utility_table) == {(1, "x"): 2.5}
    # empty entry lists are index arrays too: the table is built and found to lack u_{0}(x)
    with pytest.raises(ValueError, match=r"^missing utility: assessor \{0\} at outcome 'x'"):
        STGame.from_entries(1, ("x",), [0, 0], [], [], [], ("0",))


def test_from_entries_refuses_a_name_list_of_another_length():
    with pytest.raises(ValueError, match="^player name list must match the player count$"):
        STGame.from_entries(1, ("x",), [0, 0], [1], [0], [1.0], ("0", "1"))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_tables_refuse_an_infinite_utility(value):
    """An infinite utility is refused when the table is built, naming the first such entry,
    and not found later as a difference past the float range."""
    utilities = {(1, "x"): 1.0, (2, "x"): value, (3, "x"): 2.0, (1, "y"): value}
    consequence = {1: "x", 2: "x", 3: "x"}
    message = "utility of assessor {%s} at outcome 'x' must be finite, got " + str(value)
    with pytest.raises(ValueError) as got:
        STGame.from_tables(2, ("x", "y"), consequence, utilities)
    assert str(got.value) == message % 1
    with pytest.raises(ValueError) as got:
        STGame.from_entries(2, ("x",), [0, 0, 0, 0], [3, 1, 2], [0, 0, 0], [2.0, value, 1.0],
                            ("0", "1"))
    assert str(got.value) == message % 0


def test_from_entries_refuses_a_repeated_entry():
    with pytest.raises(RepeatedEntryError) as got:
        STGame.from_entries(1, ("x",), [0, 0], [1, 1], [0, 0], [1.0, 2.0], ("A",))
    assert str(got.value) == "repeated utility: assessor {A} at outcome 'x' (entries 0 and 1)"
    assert (got.value.entry, got.value.earlier) == (1, 0)
    # a NaN would leave its cell looking empty to a later repeat, so it is refused too
    with pytest.raises(ValueError, match="^utility of assessor {A} at outcome 'x' must be "
                                         "finite, got nan$"):
        STGame.from_entries(1, ("x",), [0, 0], [1], [0], [float("nan")], ("A",))


def _entries_past_a_chunk(narrow: bool):
    """(n, outcomes, columns, assessors, positions) of more than ``ENTRY_CHUNK`` entries, each
    (assessor, position) pair once: every assessor values every one of 17 outcomes, so every
    frame is the team, or every coalition's subsets value its own outcome, so frames are
    narrower than the team."""
    n = 10
    masks = np.arange(1, 1 << n)
    if narrow:
        outcomes, columns = coalition_outcomes(n)
        pairs = [(a, s - 1) for s in masks.tolist() for a in masks[:s].tolist() if a & s == a]
        assessors, positions = np.array(pairs).T
    else:
        outcomes = tuple(range(17))
        columns = np.insert(masks % 17, 0, 0)
        assessors, positions = np.repeat(masks, 17), np.tile(np.arange(17), len(masks))
    assert len(assessors) > ENTRY_CHUNK + 100
    return n, outcomes, columns, assessors, positions


@pytest.mark.parametrize("narrow", [False, True], ids=["dense", "narrow"])
@pytest.mark.parametrize("repeats", [
    [(2, 9)],
    [(40, 41), (3, 12)],  # the first repeat by position is named, not the smaller cell
    [(ENTRY_CHUNK - 1, ENTRY_CHUNK)],  # the last entry of a chunk, repeated by the next
    [(7, ENTRY_CHUNK + 5)],
    [(ENTRY_CHUNK + 60, ENTRY_CHUNK + 90), (5, ENTRY_CHUNK + 70)],
], ids=["one-chunk", "two-in-one-chunk", "at-the-seam", "across-the-seam", "second-chunk"])
def test_a_repeated_entry_is_named_by_its_first_position(narrow, repeats):
    """Placing the entries a chunk at a time finds a pair that comes twice, in one chunk or
    across chunks, and names the first such entry by position and its earlier entry."""
    n, outcomes, columns, assessors, positions = _entries_past_a_chunk(narrow)
    values = np.arange(len(assessors), dtype=float)
    g = STGame.from_entries(n, outcomes, columns, assessors, positions, values, None)
    assert g._blocks.dense != narrow
    for earlier, later in repeats:  # the later entry takes the earlier one's pair
        assessors[later], positions[later] = assessors[earlier], positions[earlier]
    earlier, later = min(repeats, key=lambda pair: pair[1])
    with pytest.raises(RepeatedEntryError) as got:
        STGame.from_entries(n, outcomes, columns, assessors, positions, values, None)
    assert (got.value.entry, got.value.earlier) == (later, earlier)
    a, j = int(assessors[later]), int(positions[later])
    assert str(got.value) == (
        f"repeated utility: assessor {subset_label(a, g.players)} at outcome {outcomes[j]!r} "
        f"(entries {earlier} and {later})")


def _coalition_table(n: int, rng) -> STGame:
    """One outcome per coalition, as in the benchmark's coalition-biadditive documents: every
    nonempty subset of a coalition values the coalition's outcome, and every assessor values
    each singleton's."""
    outcomes, columns = coalition_outcomes(n)
    masks = np.arange(1, 1 << n)
    assessors, positions = [], []
    for s in masks.tolist():
        subsets = masks[:s][(masks[:s] & s) == masks[:s]]
        assessors.append(subsets)
        positions.append(np.full(len(subsets), s - 1))
    for b in range(n):
        others = masks[masks != 1 << b]
        assessors.append(others)
        positions.append(np.full(len(others), (1 << b) - 1))
    assessors, positions = np.concatenate(assessors), np.concatenate(positions)
    return STGame.from_entries(n, outcomes, columns, assessors, positions,
                               rng.random(len(assessors)), None)


def test_a_tabulated_fold_holds_one_frame_size_group_at_a_time():
    """``is_sensible`` and ``reduce_to_tu`` fold the cells of a 12-player table with one
    outcome per coalition one frame-size group at a time: their traced peaks stay under a
    third of the table's cells."""
    g = _coalition_table(12, np.random.default_rng(12))
    table = g._blocks.cells.nbytes
    for decide in (is_sensible, reduce_to_tu):
        tracemalloc.start()
        try:
            try:
                decide(g)
            except NotReducibleError:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table / 3, (decide.__name__, peak, table)


@pytest.mark.parametrize("build", [
    lambda n: STGame.from_tables(n, [], {}, {}),
    lambda n: STGame.from_entries(n, (), [0], [], [], [], ()),
    lambda n: STGame.from_functions(n, ("x",), lambda s: "x", lambda a, x: 0.0),
    lambda n: STGame.additive(n, ("x",), [0], np.zeros((0, 1))),
    lambda n: from_ntu(n, ("x",), {}, {}),
    lambda n: STGame(n, (), (), np.zeros(1, dtype=np.intp), None),
], ids=["from_tables", "from_entries", "from_functions", "additive", "from_ntu", "direct"])
@pytest.mark.parametrize("n", [0, -1])
def test_a_team_without_players_is_refused(build, n):
    with pytest.raises(SizeLimitError, match=f"^team games support 1 or more players, got {n}$"):
        build(n)
    if n == 0:
        with pytest.raises(SizeLimitError, match="^team games support 1 or more players, got 0$"):
            BiAdditiveMatrix(0, np.zeros((0, 0))).to_game()
