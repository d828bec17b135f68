"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Tolerances are pinned in the assertions, not
configurable; runtime budgets are asserted alongside the results.
"""

import json
import math
import time

import numpy as np
import reference_loops as ref
from oracles import brute_force_max_size, grid_oracle

import teamgames as tg
from teamgames.additivity import (
    additive_metrics,
    additive_predicates,
    coadditive_metrics,
    coadditive_predicates,
    extract_matrix,
    fast_metrics,
)
from teamgames.cli import main as cli_main
from teamgames.cobb import (
    EQUAL,
    PROPORTIONAL,
    UNBOUNDED,
    CobbDouglasConfig,
    ContributionProfile,
    cd_altruistic,
    cd_competitive,
    cd_subset_utility,
    cooperation_path,
    hybrid,
    max_stable_team_size,
    payoff,
    payoff_utility_grid,
    rational_contribution,
)
from teamgames.players import PlayerSet
from teamgames.random_games import (
    random_additive_game,
    random_biadditive_matrix,
    random_coadditive_game,
    random_st_game,
    random_tu_game,
)
from teamgames.scenarios import PRISONERS_DILEMMA, builtin_game


def _report(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}: {elapsed:.2f}s{suffix}")


def random_disjoint_pair(rng, n):
    while True:
        a_mask = int(rng.integers(1, 1 << n))
        b_mask = int(rng.integers(0, 1 << n)) & ~a_mask
        if b_mask:
            return PlayerSet(a_mask), PlayerSet(b_mask)


def test_criterion_01_prisoners_dilemma_exactness():
    game = builtin_game("pd")
    a, b = PlayerSet.of(0), PlayerSet.of(1)
    tg.coop_point(game, a)  # warm caches before timing
    start = time.perf_counter()
    points = [tg.coop_point(game, s) for s in (a, b)]
    quadrants = [tg.classify_quadrant(p) for p in points]
    elapsed = time.perf_counter() - start
    for p in points:
        assert (p.altruism, p.competitive, p.marginal) == (1.0, 2.0, 3.0)
    assert all(q is tg.Quadrant.I for q in quadrants)
    assert elapsed < 1e-3, f"metric computation took {elapsed * 1e3:.3f}ms"
    print(f"[PASS] criterion 1 (dilemma exactness): {elapsed * 1e3:.3f}ms")


def test_criterion_02_decomposition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        g = random_st_game(n, rng, n_outcomes=min(2**n - 1, 12))
        for a, b in ref.disjoint_pairs(n, nonempty_b=False):
            m = tg.total_marginal(g, a, b)
            c = tg.competitive_contribution(g, a, b)
            alt = tg.altruistic_contribution(g, a, b) if b else 0.0
            worst = max(worst, abs(m - (c + alt)))
    assert worst <= 1e-9
    _report("criterion 2 (decomposition identity)", start, 5.0, f"max residual {worst:.2e}")


def test_criterion_03_shapley_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        g = random_tu_game(n, rng)
        oracle = ref.shapley_by_permutations(g)
        worst = max(worst, float(np.max(np.abs(tg.shapley_value(g) - oracle))))
        worst = max(worst, float(np.max(np.abs(ref.shapley_value_stratified(g) - oracle))))
    assert worst <= 1e-9
    glove = builtin_game("glove")
    assert np.allclose(tg.shapley_value(glove), [2 / 3, 1 / 6, 1 / 6], atol=1e-9)
    _report("criterion 3 (Shapley oracle equivalence)", start, 10.0, f"max deviation {worst:.2e}")


def test_criterion_04_core_facts():
    start = time.perf_counter()
    glove = builtin_game("glove")
    assert not tg.in_core(glove, tg.shapley_value(glove))
    assert tg.in_core(glove, [1.0, 0.0, 0.0])
    assert tg.core_is_nonempty(glove)
    majority = builtin_game("majority3")
    assert not tg.core_is_nonempty(majority)
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = tg.random_convex_game(n, rng)
        assert tg.in_core(g, tg.shapley_value(g))
    _report("criterion 4 (core facts)", start, 10.0)


def test_criterion_05_structure_propositions():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    composite_checked = 0

    for i in range(500):
        n = int(rng.integers(2, 7))
        kind = i % 3
        if kind == 0:
            structured = i % 6 == 3
            g = random_additive_game(n, rng, nonnegative=structured, monotone=structured)
            report = additive_predicates(g)
            # the report's headline predicates equal the generic ones
            assert report.sensible == tg.is_sensible(g)
            assert report.fully_cooperative == tg.is_fully_cooperative(g)
            # per-player sensibility is exactly equivalent (both directions)
            assert report.individual_values_nonneg == report.sensible
            # per-player gains force cohesion; the converse is exhibited on
            # the monotone instances (bystander groups can also gain only in
            # aggregate, so it is not a theorem)
            if report.individual_gains_nonneg:
                assert report.fully_cooperative
            if structured:
                assert report.individual_gains_nonneg and report.fully_cooperative
            for a, b in ref.disjoint_pairs(n, nonempty_b=False):
                fm = additive_metrics(g, a, b)
                worst = max(worst, abs(fm.competitive - tg.competitive_contribution(g, a, b)))
                worst = max(worst, abs(fm.marginal - tg.total_marginal(g, a, b)))
                if b:
                    worst = max(worst, abs(fm.altruism - tg.altruistic_contribution(g, a, b)))
        elif kind == 1:
            structured = i % 6 == 4
            g = random_coadditive_game(n, rng, monotone=structured)
            report = coadditive_predicates(g)
            assert report.sensible == tg.is_sensible(g)
            assert report.fully_cooperative == tg.is_fully_cooperative(g)
            # per-player outsider perceptions are exactly cohesion (both directions)
            assert report.perceptions_of_outsiders_nonneg == report.fully_cooperative
            # monotone assessments force sensibility; converse on structured
            if report.assessments_monotone:
                assert report.sensible
            if structured:
                assert report.assessments_monotone and report.sensible
            for a, b in ref.disjoint_pairs(n, nonempty_b=False):
                fm = coadditive_metrics(g, a, b)
                worst = max(worst, abs(fm.competitive - tg.competitive_contribution(g, a, b)))
                worst = max(worst, abs(fm.marginal - tg.total_marginal(g, a, b)))
                if b:
                    worst = max(worst, abs(fm.altruism - tg.altruistic_contribution(g, a, b)))
        else:
            if i % 2:
                matrix = random_biadditive_matrix(n, rng)
            else:
                # bias toward the composite hypothesis: nonnegative perceptions
                matrix = tg.BiAdditiveMatrix(n, rng.uniform(0.0, 1.0, size=(n, n)))
            g = matrix.to_game()
            assert tg.is_biadditive(g)
            recovered = extract_matrix(g)
            assert np.allclose(recovered.m, matrix.m, atol=1e-9)
            for a, b in ref.disjoint_pairs(n, nonempty_b=False):
                fm = fast_metrics(matrix, a, b)
                worst = max(worst, abs(fm.competitive - tg.competitive_contribution(g, a, b)))
                worst = max(worst, abs(fm.marginal - tg.total_marginal(g, a, b)))
                if b:
                    worst = max(worst, abs(fm.altruism - tg.altruistic_contribution(g, a, b)))
            if tg.is_fully_cooperative(g) and all(matrix.m[p][p] >= 0 for p in range(n)):
                composite_checked += 1
                assert tg.is_sensible(g), "composite hypothesis must imply sensibility"

    assert worst <= 1e-9
    assert composite_checked >= 30
    _report(
        "criterion 5 (structure propositions)",
        start,
        30.0,
        f"max deviation {worst:.2e}, {composite_checked} composite instances",
    )


def test_criterion_06_contribution_game_sensibility():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    schemes = [PROPORTIONAL, EQUAL, hybrid(0.25), hybrid(0.5), hybrid(0.75)]
    worst_c = math.inf
    sign_checks = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        res = tuple(float(v) for v in rng.uniform(0.2, 2.0, n))
        x = tuple(float(v) for v in rng.uniform(0.0, res))
        prof = ContributionProfile(x, res)
        cfg = CobbDouglasConfig(
            theta=float(rng.uniform(0.0, 1.0)),
            beta=float(rng.uniform(1.01, 3.0)),
            alpha=float(rng.uniform(0.5, 2.0)),
        )
        a, b = random_disjoint_pair(rng, n)
        scheme = schemes[int(rng.integers(0, len(schemes)))]
        c = cd_competitive(scheme, cfg, prof, a, b)
        worst_c = min(worst_c, c)
        assert c >= -1e-9
        if prof.reserve(b) > 0:
            sign_checks += 1
            union = a | b
            balance = payoff(scheme, cfg, prof, b, union) - cfg.value(prof.total(b))
            alt = cd_altruistic(scheme, cfg, prof, a, b)
            if alt > 1e-12:
                assert balance > -1e-12
            elif alt < -1e-12:
                assert balance < 1e-12
    assert sign_checks > 5000
    _report(
        "criterion 6 (contribution-game sensibility)",
        start,
        30.0,
        f"min competitive {worst_c:.2e}, {sign_checks} sign checks",
    )


def test_criterion_07_team_size_bound_vs_brute_force():
    start = time.perf_counter()
    cap = 40
    for gamma in (0.0, 0.25, 0.5, 0.75):
        for r in (0.2, 0.4, 0.6, 0.8):
            closed = max_stable_team_size(gamma, r, 1.5)
            brute = brute_force_max_size(gamma, r, 1.5, cap=cap)
            if closed == UNBOUNDED:
                assert brute == cap, f"gamma={gamma}, r={r}: bounded at {brute}"
            else:
                assert closed == brute, f"gamma={gamma}, r={r}: {closed} != {brute}"
    assert max_stable_team_size(1.0, 0.5, 1.5) == UNBOUNDED
    _report("criterion 7 (team-size bound vs brute force)", start, 30.0)


def test_criterion_08_optimizer_vs_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_x = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        # unit-scale pools keep the oracle's grid spacing well inside the
        # 1e-4 argument tolerance
        res = tuple(float(v) for v in rng.uniform(0.2, 1.0, n))
        x = tuple(float(v) for v in rng.uniform(0.0, res))
        prof = ContributionProfile(x, res)
        cfg = CobbDouglasConfig(
            theta=float(rng.uniform(0.0, 1.0)),
            beta=float(rng.uniform(1.01, 3.0)),
            alpha=float(rng.uniform(0.5, 2.0)),
        )
        scheme = hybrid(float(rng.uniform(0.0, 1.0)))
        player = int(rng.integers(0, n))
        found = rational_contribution(scheme, cfg, prof, player)
        oracle_x, oracle_u = grid_oracle(scheme, cfg, prof, player)
        me = PlayerSet.of(player)
        team = PlayerSet.full(n)
        found_u = cd_subset_utility(scheme, cfg, prof.replace(player, found), me, team)
        assert found_u >= oracle_u - 1e-8
        worst_x = max(worst_x, abs(found - oracle_x))
        assert abs(found - oracle_x) <= 1e-4
    _report(
        "criterion 8 (optimizer vs grid oracle)", start, 30.0, f"max argmax gap {worst_x:.2e}"
    )


def test_criterion_09_figure_level_claims():
    start = time.perf_counter()
    cfg = CobbDouglasConfig(theta=0.75, beta=1.5)

    # (i) equal team sizes: rational paths never leave the cohesive half-plane
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        path = cooperation_path(hybrid(gamma), cfg, 2, 2, samples=21)
        assert all(altruism >= -1e-9 for altruism in path["altruism"].tolist())

    # (ii) proportional payoffs: cohesive everywhere along the path
    path = cooperation_path(hybrid(1.0), cfg, 2, 10, samples=21)
    assert all(altruism >= -1e-9 for altruism in path["altruism"].tolist())

    # (iii) equal payoffs with a large bystander group: free-riding appears
    path = cooperation_path(hybrid(0.0), cfg, 2, 10, samples=21)
    tail = path["altruism"][path["xB_avg"] >= 0.8]
    assert any(altruism < 0 for altruism in tail.tolist())

    # (iv) partition identity on every emitted grid cell
    scheme = hybrid(0.5)
    size_a, size_b = 2, 10
    table = payoff_utility_grid(scheme, cfg, size_a, size_b, resolution=21)
    a = PlayerSet.from_players(range(size_a))
    b = PlayerSet.from_players(range(size_a, size_a + size_b))
    union = a | b
    cells = list(zip(table["xA_avg"], table["xB_avg"]))
    for x_a, x_b in cells:
        prof = ContributionProfile.create([x_a] * size_a + [x_b] * size_b)
        total = payoff(scheme, cfg, prof, a, union) + payoff(scheme, cfg, prof, b, union)
        assert abs(total - cfg.value(prof.total(union))) <= 1e-9

    _report("criterion 9 (figure-level claims)", start, 60.0, f"{len(cells)} grid cells")


MATRIX_DOC = {
    "version": 1,
    "players": ["A", "B"],
    "outcomes": ["oA", "oB", "oAB"],
    "consequence": [
        {"subset": ["A"], "outcome": "oA"},
        {"subset": ["B"], "outcome": "oB"},
        {"subset": ["A", "B"], "outcome": "oAB"},
    ],
    "utilities": [
        {"subset": ["A"], "outcome": "oA", "value": 1.0},
        {"subset": ["A"], "outcome": "oB", "value": 2.0},
        {"subset": ["A"], "outcome": "oAB", "value": 3.0},
        {"subset": ["B"], "outcome": "oA", "value": 0.0},
        {"subset": ["B"], "outcome": "oB", "value": 3.0},
        {"subset": ["B"], "outcome": "oAB", "value": 3.0},
        {"subset": ["A", "B"], "outcome": "oA", "value": 1.0},
        {"subset": ["A", "B"], "outcome": "oB", "value": 5.0},
        {"subset": ["A", "B"], "outcome": "oAB", "value": 6.0},
    ],
}


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    pd_path = tmp_path / "pd.game"
    pd_path.write_text(json.dumps(PRISONERS_DILEMMA), encoding="utf-8")
    flat_doc = {
        "version": 1,
        "players": ["A", "B"],
        "outcomes": ["x", "y", "z"],
        "consequence": [
            {"subset": ["A"], "outcome": "x"},
            {"subset": ["B"], "outcome": "y"},
            {"subset": ["A", "B"], "outcome": "z"},
        ],
        "utilities": [
            {"subset": s, "outcome": o, "value": {"x": 1, "y": 2, "z": 5}[o]}
            for s in (["A"], ["B"], ["A", "B"])
            for o in ("x", "y", "z")
        ],
    }
    flat_path = tmp_path / "flat.game"
    flat_path.write_text(json.dumps(flat_doc), encoding="utf-8")
    matrix_path = tmp_path / "matrix.game"
    matrix_path.write_text(json.dumps(MATRIX_DOC), encoding="utf-8")
    glove_path = tmp_path / "glove.game"

    assert cli_main(["scenario", "glove", "-o", str(tmp_path)]) == 0

    commands = {
        "metrics.csv": ["metrics", str(pd_path)],
        "alloc.csv": ["shapley", str(glove_path)],
        "core.csv": ["core", str(glove_path)],
        "reduced.game": ["reduce-tu", str(flat_path)],
        "graph.edges": ["graph", str(matrix_path)],
        "sweep.csv": [
            "cobb", "sweep", "--sizeA", "2", "--sizeB", "3",
            "--resolution", "5", "--gammas", "0,0.5,1",
        ],
        "path.csv": [
            "cobb", "path", "--sizeA", "2", "--sizeB", "2",
            "--samples", "7", "--gammas", "0,1",
        ],
        "frontier.csv": ["cobb", "frontier", "--beta", "1.5", "--resolution", "10"],
        "rational.csv": [
            "cobb", "rational", "--sizeA", "1", "--sizeB", "2",
            "--resolution", "5", "--gammas", "0,0.5",
        ],
    }

    outputs: dict[str, bytes] = {}
    for run_tag in ("first", "second"):
        for name, argv in commands.items():
            out = tmp_path / f"{run_tag}-{name}"
            assert cli_main(argv + ["-o", str(out)]) == 0, f"{name} failed on {run_tag} run"
            data = out.read_bytes()
            if run_tag == "first":
                outputs[name] = data
            else:
                assert data == outputs[name], f"{name} differs on {run_tag} run"
    _report("criterion 10 (CLI determinism)", start, 60.0, f"{len(commands)} commands x 2 runs")
