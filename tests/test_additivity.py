import tracemalloc

import numpy as np
import pytest

from teamgames.additivity import (
    BiAdditiveMatrix,
    _find_additive_violation,
    additive_metrics,
    additive_predicates,
    coadditive_metrics,
    coadditive_predicates,
    export_graph,
    extract_matrix,
    fast_metrics,
    is_additive,
    is_biadditive,
    is_coadditive,
)
from teamgames.errors import DisjointnessError, NumericOverflowError, StructureError
from teamgames.game_io import parse_document
from reference_loops import disjoint_pairs
from teamgames.players import PlayerSet, subset_sums
from random_games import (
    random_additive_game,
    random_biadditive_matrix,
    random_coadditive_game,
    random_st_game,
    tabulate,
)
from teamgames.scenarios import builtin_game
from teamgames.st import (
    STGame,
    altruistic_contribution,
    competitive_contribution,
    coop_point,
    from_ntu,
    is_fully_cooperative,
    is_sensible,
    total_marginal,
)

PD = builtin_game("pd")


class TestDetectors:
    def test_ntu_import_is_additive(self):
        rng = np.random.default_rng(1)
        outcomes = tuple(range(1, 8))
        individual = {p: {x: float(rng.uniform(-1, 1)) for x in outcomes} for p in range(3)}
        g = from_ntu(3, outcomes, {m: m for m in outcomes}, individual)
        assert is_additive(g)

    def test_pd_is_additive_not_coadditive(self):
        # the joint outcome is worth 4 to the pair and 2 to each member,
        # so assessments split over assessors; but the pair's value of the
        # joint coalition cannot split over members (the table lacks the
        # cross assessments entirely)
        assert is_additive(PD)
        assert not is_coadditive(PD)
        assert not is_biadditive(PD)

    def test_a_matrix_that_misses_the_tolerance_is_not_biadditive(self):
        # each detector allows tol per entry; the matrix [[1, 1], [1, 1]] misses
        # u_ab(Vab) and u_ab(Vb) by 0.27
        values = {("ab", "Vab"): 4.27, ("a", "Vab"): 2.09, ("b", "Vab"): 2.09,
                  ("ab", "Va"): 2.0, ("ab", "Vb"): 2.27}
        g = parse_document({
            "version": 1, "players": ["a", "b"], "outcomes": ["Va", "Vb", "Vab"],
            "consequence": [{"subset": list(o[1:]), "outcome": o} for o in ("Va", "Vb", "Vab")],
            "utilities": [
                {"subset": list(a), "outcome": o, "value": values.get((a, o), 1.0)}
                for a in ("a", "b", "ab") for o in ("Va", "Vb", "Vab")
            ],
        })
        assert is_additive(g, 0.1) and is_coadditive(g, 0.1)
        assert not is_biadditive(g, 0.1)
        assert is_biadditive(g, 0.3)

    def test_superadditive_only_utility_is_not_additive(self):
        outcomes = tuple(range(1, 4))
        g = STGame.from_functions(
            2, outcomes, lambda s: s.mask, lambda a, x: float(len(a)) ** 2
        )
        assert not is_additive(g)

    def test_matrix_game_is_biadditive(self):
        m = random_biadditive_matrix(3, np.random.default_rng(2))
        g = m.to_game()
        assert is_additive(g)
        assert is_coadditive(g)
        assert is_biadditive(g)

    def test_negative_entries_allowed(self):
        m = BiAdditiveMatrix(2, [[-1.0, 2.0], [3.0, -4.0]])
        assert is_biadditive(m.to_game())

    def test_constant_nonzero_utility_is_not_coadditive(self):
        outcomes = tuple(range(1, 8))
        g = STGame.from_functions(3, outcomes, lambda s: s.mask, lambda a, x: 1.0)
        assert not is_coadditive(g)

    def test_random_coadditive_generator(self):
        g = random_coadditive_game(3, np.random.default_rng(3))
        assert is_coadditive(g)

    def test_random_games_are_unstructured(self):
        g = random_st_game(3, np.random.default_rng(4))
        assert not is_additive(g)
        assert not is_coadditive(g)

    def test_detectors_monotone_in_tolerance(self):
        rng = np.random.default_rng(5)
        base = random_biadditive_matrix(3, rng).to_game()
        noisy = tabulate(base)
        table = {k: v + float(rng.uniform(-1e-7, 1e-7)) for k, v in noisy.utility_table.items()}
        noisy = STGame.from_tables(3, noisy.outcomes, dict(noisy.consequence_table), table)
        accepted_at = [tol for tol in (1e-9, 1e-6, 1e-3) if is_biadditive(noisy, tol)]
        assert accepted_at == [] or accepted_at == [1e-6, 1e-3] or accepted_at == [1e-3]
        if is_biadditive(noisy, 1e-6):
            assert is_biadditive(noisy, 1e-3)


class TestMatrixExtraction:
    def test_round_trip(self):
        m = BiAdditiveMatrix(2, [[1.0, 2.0], [0.0, 3.0]])
        extracted = extract_matrix(m.to_game())
        assert np.array_equal(extracted.m, m.m)

    def test_random_round_trip(self):
        m = random_biadditive_matrix(4, np.random.default_rng(6))
        assert np.allclose(extract_matrix(m.to_game()).m, m.m, atol=1e-12)

    def test_reconstruction_matches_source(self):
        m = random_biadditive_matrix(3, np.random.default_rng(7))
        g = m.to_game()
        ex = extract_matrix(g)
        for s_mask in range(1, 8):
            s = PlayerSet(s_mask)
            for a_mask in range(1, 8):
                a = PlayerSet(a_mask)
                if a.issubset(s):
                    assert abs(ex.utility(a, s) - g.subset_utility(a, s)) <= 1e-9

    def test_non_biadditive_rejected_with_witness(self):
        g = random_st_game(3, np.random.default_rng(8))
        with pytest.raises(StructureError) as exc_info:
            extract_matrix(g)
        assert exc_info.value.witness is not None

    def test_missing_singleton_assessment_rejected(self):
        with pytest.raises(StructureError, match="missing"):
            extract_matrix(PD)


def matrix_game(mat) -> STGame:
    """The game u_A(S) = sum over a in A, b in S of mat[a][b], outcome S per coalition S,
    with the nested entries and the singleton assessments only, summed in player order."""
    n = len(mat)

    def u(a_mask, s_mask):
        total = 0.0
        for a in PlayerSet(a_mask):
            row = 0.0
            for b in PlayerSet(s_mask):
                row += mat[a][b]
            total += row
        return total

    entries = {(a, s): u(a, s) for s in range(1, 1 << n) for a in range(1, s + 1) if a & s == a}
    entries.update({(1 << a, 1 << b): mat[a][b] for a in range(n) for b in range(n)})
    return STGame.from_tables(n, range(1, 1 << n), {s: s for s in range(1, 1 << n)}, entries)


class TestFloatRange:
    """Team detectors refuse an expectation past the float range, and no numpy warning
    escapes (tier-1 turns every RuntimeWarning into an error)."""

    def test_a_gap_past_the_float_range_is_a_violation(self):
        # u_0 + u_1 is finite, u_01 minus it is not
        g = STGame.from_tables(2, "abc", {1: "a", 2: "b", 3: "c"}, {
            (1, "a"): 0.0, (2, "b"): 0.0, (1, "c"): 1e308, (2, "c"): -1.5e308, (3, "c"): 1.5e308,
        })
        assert _find_additive_violation(g, 1e-9) == (3, 3, 1.5e308, -5e307)

    def test_an_additive_expectation_past_the_float_range(self):
        g = STGame.from_tables(2, "abc", {1: "a", 2: "b", 3: "c"}, {
            (1, "a"): 0.0, (2, "b"): 0.0, (1, "c"): 1e308, (2, "c"): 1e308, (3, "c"): 0.0,
        })
        with pytest.raises(NumericOverflowError, match=(
                r"^the additive expectation of \{0,1\} at coalition \{0,1\} is past")):
            is_additive(g)

    def test_a_matrix_reconstruction_past_the_float_range(self):
        g = matrix_game([[1e308, 0.0], [0.0, 1e308]])
        with pytest.raises(NumericOverflowError, match=(
                r"^the matrix reconstruction of \{0,1\} at coalition \{0,1\} is past")):
            extract_matrix(g)

    @pytest.mark.parametrize("players, label", [(None, "{0} at coalition {0,1}"),
                                                 ("xy", "{x} at coalition {x,y}")])
    def test_a_matrix_whose_row_sum_overflows_builds_no_game(self, players, label):
        # the row sum of player 0 over {0,1} is its utility u_0(V({0,1}))
        matrix = BiAdditiveMatrix(2, [[1e308, 1e308], [0.0, 0.0]])
        with pytest.raises(NumericOverflowError) as got:
            matrix.to_game(players)
        assert str(got.value) == f"the utility of {label} is past the float range"

    def test_row_sums_at_the_float_limit_build_the_game(self):
        g = BiAdditiveMatrix(2, [[1.7e308, -1.7e308], [1e308, 0.0]]).to_game()
        assert [g.u(1, s) for s in (1, 2, 3)] == [1.7e308, -1.7e308, 0.0]
        assert g.u(2, 3) == 1e308

    def test_a_row_sum_the_reconstruction_never_reads_may_overflow(self):
        # player 0's row overflows over {1,2}, which holds no assessor 0, not over {0,1,2}
        mat = [[-1e308, 1e308, 1e308], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert np.array_equal(extract_matrix(matrix_game(mat)).m, mat)


class TestFastMetrics:
    def test_identity_matrix_example(self):
        m = BiAdditiveMatrix(2, np.eye(2))
        fm = fast_metrics(m, PlayerSet.of(0), PlayerSet.of(1))
        assert fm.competitive == 1.0  # m[0][0] + m[0][1]
        assert fm.altruism == 0.0     # m[1][0]
        assert fm.marginal == 1.0

    def test_matches_generic_metrics_on_all_pairs(self):
        m = random_biadditive_matrix(4, np.random.default_rng(9))
        g = m.to_game()
        for a, b in disjoint_pairs(4, nonempty_b=False):
            fm = fast_metrics(m, a, b)
            assert abs(fm.competitive - competitive_contribution(g, a, b)) <= 1e-9
            assert abs(fm.marginal - total_marginal(g, a, b)) <= 1e-9
            if b:
                assert abs(fm.altruism - altruistic_contribution(g, a, b)) <= 1e-9

    def test_fully_cooperative_with_nonneg_diagonal_is_sensible(self):
        rng = np.random.default_rng(10)
        checked = 0
        for k in range(60):
            if k % 2:
                # guaranteed hypothesis: nonnegative perceptions everywhere
                mat = rng.uniform(0.0, 1.0, size=(3, 3))
            else:
                mat = rng.uniform(-1.0, 1.0, size=(3, 3))
            m = BiAdditiveMatrix(3, mat)
            g = m.to_game()
            if not is_fully_cooperative(g):
                continue
            if any(mat[a][a] < 0 for a in range(3)):
                continue
            checked += 1
            assert is_sensible(g)
        assert checked >= 20

    def test_overlapping_subsets_rejected(self):
        m = BiAdditiveMatrix(2, np.eye(2))
        g = m.to_game()
        a, b = PlayerSet.of(0), PlayerSet.of(0, 1)
        for metrics, subject in ((fast_metrics, m), (additive_metrics, g), (coadditive_metrics, g)):
            with pytest.raises(DisjointnessError, match="overlap"):
                metrics(subject, a, b)

    def test_row_sums_memory_stays_below_twice_the_result(self):
        mat = np.random.default_rng(3).normal(size=(16, 16))
        tracemalloc.start()
        try:
            sums = subset_sums(mat.T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * sums.nbytes


class TestStructuredPredicates:
    def test_additive_report_matches_generic(self):
        rng = np.random.default_rng(11)
        for kind in ("plain", "nonnegative", "monotone"):
            for _ in range(8):
                g = random_additive_game(
                    3,
                    rng,
                    nonnegative=kind == "nonnegative",
                    monotone=kind == "monotone",
                )
                report = additive_predicates(g)
                assert report.sensible == is_sensible(g)
                assert report.fully_cooperative == is_fully_cooperative(g)
                assert report.individual_values_nonneg == report.sensible
                if report.individual_gains_nonneg:
                    assert report.fully_cooperative

    def test_additive_monotone_games_pass_everything(self):
        g = random_additive_game(3, np.random.default_rng(12), nonnegative=True, monotone=True)
        report = additive_predicates(g)
        assert report.sensible and report.fully_cooperative
        assert report.individual_values_nonneg and report.individual_gains_nonneg

    def test_additive_player_losing_in_grand_coalition(self):
        outcomes = tuple(range(1, 4))
        values = {
            # player 1 strictly prefers being alone
            (0, 1): 1.0, (0, 2): 0.0, (0, 3): 2.0,
            (1, 1): 0.0, (1, 2): 3.0, (1, 3): 1.0,
        }
        individual = {p: {x: values[(p, x)] for x in outcomes} for p in range(2)}
        g = from_ntu(2, outcomes, {m: m for m in outcomes}, individual)
        report = additive_predicates(g)
        assert not report.fully_cooperative
        assert not is_fully_cooperative(g)

    def test_additive_report_requires_additivity(self):
        with pytest.raises(StructureError):
            additive_predicates(random_st_game(3, np.random.default_rng(13)))

    def test_coadditive_report_matches_generic(self):
        rng = np.random.default_rng(14)
        for _ in range(12):
            g = random_coadditive_game(3, rng)
            report = coadditive_predicates(g)
            assert report.sensible == is_sensible(g)
            assert report.fully_cooperative == is_fully_cooperative(g)
            assert report.perceptions_of_outsiders_nonneg == report.fully_cooperative
            if report.assessments_monotone:
                assert report.sensible

    def test_coadditive_nonneg_perceptions_are_fully_cooperative(self):
        rng = np.random.default_rng(15)
        m = BiAdditiveMatrix(3, rng.uniform(0.0, 1.0, size=(3, 3)))
        report = coadditive_predicates(m.to_game())
        assert report.fully_cooperative

    def test_coadditive_report_requires_coadditivity(self):
        with pytest.raises(StructureError):
            coadditive_predicates(PD)


class TestPerceptionGraph:
    def test_identity_matrix_gives_self_loops(self):
        graph = export_graph(BiAdditiveMatrix(3, np.eye(3)))
        loops = [(s, d, w) for s, d, w in graph.edges if w != 0.0]
        assert loops == [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]

    def test_edge_weights_follow_perceiver_convention(self):
        m = BiAdditiveMatrix(2, [[1.0, 2.0], [3.0, 4.0]])
        graph = export_graph(m)
        weights = {(s, d): w for s, d, w in graph.edges}
        # edge x -> y carries m[y][x]: what y thinks x is worth
        assert weights[(0, 1)] == 3.0
        assert weights[(1, 0)] == 2.0

    def test_out_weight_is_altruism_in_weight_is_competitive(self):
        rng = np.random.default_rng(16)
        m = random_biadditive_matrix(4, rng)
        graph = export_graph(m)
        for mask in range(1, 15):  # proper nonempty subsets
            a = PlayerSet(mask)
            b = a.complement(4)
            fm = fast_metrics(m, a, b)
            assert abs(graph.out_weight(a) - fm.altruism) <= 1e-9
            assert abs(graph.in_weight(a) - fm.competitive) <= 1e-9

    def test_edge_lines_format(self):
        graph = export_graph(BiAdditiveMatrix(2, [[0.5, 0.0], [1.25, -2.0]]))
        assert graph.to_lines() == [
            "0 0 0.5",
            "0 1 1.25",
            "1 0 0.0",
            "1 1 -2.0",
        ]


class TestGenericAgreement:
    def test_matrix_point_matches_generic_coop_point(self):
        m = random_biadditive_matrix(3, np.random.default_rng(17))
        g = m.to_game()
        for mask in range(1, 7):
            a = PlayerSet(mask)
            p = coop_point(g, a)
            fm = fast_metrics(m, a, a.complement(3))
            assert abs(p.altruism - fm.altruism) <= 1e-9
            assert abs(p.competitive - fm.competitive) <= 1e-9


class TestFastMetricsPastTheFloatRange:
    """The closed-form metrics refuse a value past the float range, naming the quantity
    and the pair, and no numpy warning escapes (tier-1 turns it into an error)."""

    def test_a_bi_additive_competitive_part(self):
        matrix = BiAdditiveMatrix(2, [[1e308, 1e308], [0.0, 0.0]])
        with pytest.raises(NumericOverflowError) as got:
            fast_metrics(matrix, PlayerSet.of(0), PlayerSet.of(1))
        assert str(got.value) == ("the competitive contribution of {0} against {1} is past "
                                  "the float range")

    def test_an_additive_marginal(self):
        # altruism and competitive part 1e308 each
        game = BiAdditiveMatrix(2, [[1e308, 0.0], [1e308, 0.0]]).to_game()
        with pytest.raises(NumericOverflowError) as got:
            additive_metrics(game, PlayerSet.of(0), PlayerSet.of(1))
        assert str(got.value) == "the total marginal of {0} against {1} is past the float range"

    def test_an_additive_altruism_of_opposite_overflows(self):
        # each bystander's gain is past the float range, one up and one down: their sum is NaN
        individual = {0: {"x": 0.0, "y": 0.0}, 1: {"x": 1.7e308, "y": -1.7e308},
                      2: {"x": -1.7e308, "y": 1.7e308}}
        game = from_ntu(3, "xy", lambda s: "x" if s.mask == 7 else "y", individual, "abc")
        with pytest.raises(NumericOverflowError) as got:
            additive_metrics(game, PlayerSet.of(0), PlayerSet.of(1, 2))
        assert str(got.value) == "the altruism of {a} against {b,c} is past the float range"

    def test_a_co_additive_competitive_part(self):
        # u_a = 1, u_b = -1.7e308 and u_ab = 1.7e308 at the one outcome x
        game = STGame.from_tables(2, ("x",), {1: "x", 2: "x", 3: "x"},
                                  {(1, "x"): 1.0, (2, "x"): -1.7e308, (3, "x"): 1.7e308}, "ab")
        with pytest.raises(NumericOverflowError) as got:
            coadditive_metrics(game, PlayerSet.of(0), PlayerSet.of(1))
        assert str(got.value) == ("the competitive contribution of {a} against {b} is past "
                                  "the float range")

    def test_finite_metrics_keep_their_bits(self):
        matrix = BiAdditiveMatrix(2, [[1.7e308, -1.7e308], [1e308, 0.0]])
        assert fast_metrics(matrix, PlayerSet.of(0), PlayerSet.of(1)) == (1e308, 0.0, 1e308)
        assert fast_metrics(matrix, PlayerSet.of(1), PlayerSet.of(0)) == (-1.7e308, 1e308,
                                                                          -1.7e308 + 1e308)
        game = matrix.to_game()
        assert additive_metrics(game, PlayerSet.of(0), PlayerSet.of(1)) == (1e308, 0.0, 1e308)


class TestCallsOutsideTheTeam:
    """The closed-form calls refuse sets outside the team as ``st``'s per-pair functions
    do, a perception matrix holds finite entries only, and a matrix utility past the float
    range is refused."""

    MATRIX = BiAdditiveMatrix(2, [[1, 2], [3, 4]])
    OUTSIDE = r"^PlayerSet.of\(0\) and PlayerSet.of\(2\) do not fit a 2-player team$"

    def test_fast_metrics(self):
        with pytest.raises(ValueError, match=self.OUTSIDE):
            fast_metrics(self.MATRIX, PlayerSet.of(0), PlayerSet.of(2))

    def test_additive_metrics(self):
        with pytest.raises(ValueError, match=self.OUTSIDE):
            additive_metrics(self.MATRIX.to_game(), PlayerSet.of(0), PlayerSet.of(2))

    def test_coadditive_metrics(self):
        with pytest.raises(ValueError, match=self.OUTSIDE):
            coadditive_metrics(self.MATRIX.to_game(), PlayerSet.of(0), PlayerSet.of(2))

    def test_matrix_utility(self):
        message = r"^PlayerSet.of\(2\) and PlayerSet.of\(0\) do not fit a 2-player team$"
        with pytest.raises(ValueError, match=message):
            self.MATRIX.utility(PlayerSet.of(2), PlayerSet.of(0))
        assert self.MATRIX.utility(PlayerSet.of(0), PlayerSet.of(0, 1)) == 3.0

    @pytest.mark.parametrize("entry, at", [(np.nan, (0, 0)), (np.inf, (1, 1)), (-np.inf, (1, 0))])
    def test_a_non_finite_matrix_entry(self, entry, at):
        m = np.zeros((2, 2))
        m[at] = entry
        message = rf"^matrix entry m\[{at[0]}\]\[{at[1]}\] must be finite, got {entry}$"
        with pytest.raises(ValueError, match=message):
            BiAdditiveMatrix(2, m)

    def test_matrix_utility_past_the_float_range(self):
        matrix = BiAdditiveMatrix(2, [[1e308, 1e308], [0.0, 0.0]])
        with pytest.raises(NumericOverflowError) as got:
            matrix.utility(PlayerSet.of(0), PlayerSet.of(0, 1))
        assert str(got.value) == "the utility of {0} at coalition {0,1} is past the float range"
        assert matrix.utility(PlayerSet.of(0), PlayerSet.of(1)) == 1e308
