"""The chunked pair kernels and the subset-lattice closures against the pair-at-a-time
reference walks.

Every predicate and detector that scans disjoint or nested mask pairs, or
decides a table by closures, must give the reference walk's answer, and when
it names a violation it must name the same first pair, with the same values,
in the same words.
"""

import functools
import inspect
import itertools
import math
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

import reference_loops as ref
import teamgames
import teamgames.additivity as additivity
import teamgames.players as players
import teamgames.st as st
from teamgames.additivity import (
    AdditiveReport,
    BiAdditiveMatrix,
    CoadditiveReport,
    _find_additive_violation,
    _find_coadditive_violation,
    additive_predicates,
    coadditive_predicates,
    extract_matrix,
    is_additive,
    is_biadditive,
    is_coadditive,
)
from teamgames.cobb import (
    EQUAL, CobbDouglasConfig, ContributionProfile, altruism_roots, cd_fully_cooperative,
    cooperation_path, hybrid, maximize_scalar, payoff_utility_grid, rational_table,
    st_game_view, zero_altruism_contour,
)
from teamgames.errors import (
    MissingUtilityError, NotReducibleError, NumericOverflowError, SizeLimitError, StructureError,
)
from teamgames.players import FIRST_CHUNK, MAX_PAIR_SCAN, PAIR_CHUNK, PlayerSet, mask_pairs
from random_games import (
    coadditive_game,
    monotone_series,
    random_additive_game,
    random_biadditive_matrix,
    random_coadditive_game,
    random_st_game,
    random_tu_game,
)
from teamgames.st import (
    MAX_TABLE_CELLS,
    CoopPoint,
    STGame,
    all_coop_points,
    classify_quadrant,
    coalition_outcomes,
    from_ntu,
    is_cohesive,
    is_fully_cooperative,
    is_sensible,
    quadrant_labels,
    reduce_to_tu,
)
from teamgames.tu import TUGame, in_core, is_convex, is_superadditive, random_convex_game

SIZES = range(1, 8)


def _nested_entry(n, rng):
    """A random (assessor, coalition) mask pair with the assessor inside."""
    s_mask = int(rng.integers(1, 1 << n))
    subs = ref.iter_submasks(s_mask, nonempty=True)
    return subs[int(rng.integers(0, len(subs)))], s_mask


def _perturbed(game, rng, scale=0.5):
    """Copy of a game with one reachable assessment shifted."""
    utilities = dict(game.utility_table)
    a_mask, s_mask = _nested_entry(game.n, rng)
    key = (a_mask, game._v(s_mask))
    utilities[key] += scale
    return STGame.from_tables(
        game.n, game.outcomes, dict(game.consequence_table), utilities, game.players
    )


def _competition_free(n, rng):
    """Every assessor values each coalition's outcome alike: reducible to TU."""
    worth = {mask: float(rng.integers(-8, 9)) / 4 for mask in range(1, 1 << n)}
    return STGame.from_functions(
        n, tuple(worth), lambda s: s.mask, lambda a, x: worth[x] if a else 0.0
    )


def _sparse(game, rng, others=0.5):
    """Copy keeping every reachable entry and about a share ``others`` of the others."""
    reachable = {
        (a_mask, game._v(s_mask))
        for s_mask in range(1, 1 << game.n)
        for a_mask in ref.iter_submasks(s_mask, nonempty=True)
    }
    utilities = {
        key: value
        for key, value in game.utility_table.items()
        if key in reachable or rng.random() < others
    }
    return STGame.from_tables(
        game.n, game.outcomes, dict(game.consequence_table), utilities, game.players
    )


@functools.lru_cache(maxsize=None)
def _games(n, seed):
    rng = np.random.default_rng(1000 * n + seed)
    matrix = random_biadditive_matrix(n, rng)
    outcomes = tuple(range(1, 1 << n))
    individual = {p: {x: float(rng.uniform(-0.2, 1.0)) for x in outcomes} for p in range(n)}
    games = {
        "random_st": random_st_game(n, rng),
        "random_st_few_outcomes": random_st_game(n, rng, n_outcomes=3),
        "monotone_series": monotone_series(n, rng),
        "additive": random_additive_game(n, rng),
        "additive_monotone": random_additive_game(n, rng, nonnegative=True, monotone=True),
        "coadditive": random_coadditive_game(n, rng),
        "coadditive_monotone": random_coadditive_game(n, rng, monotone=True),
        "biadditive": matrix.to_game(),
        "biadditive_nonneg": BiAdditiveMatrix(n, np.abs(matrix.m)).to_game(),
        "from_ntu": from_ntu(n, outcomes, {m: m for m in outcomes}, individual),
        "competition_free": _competition_free(n, rng),
    }
    games["biadditive_perturbed"] = _perturbed(games["biadditive"], rng)
    games["biadditive_sparse"] = _sparse(games["biadditive"], rng)
    games["additive_perturbed"] = _perturbed(games["additive_monotone"], rng)
    games["coadditive_perturbed"] = _perturbed(games["coadditive_monotone"], rng)
    games["competition_free_perturbed"] = _perturbed(games["competition_free"], rng, 0.25)
    profile = ContributionProfile.create(rng.uniform(0.0, 1.0, size=n).tolist())
    games["cobb_view"] = st_game_view(hybrid(0.5), CobbDouglasConfig(beta=1.2), profile)
    return games


CASES = [(n, seed) for n in SIZES for seed in range(2 if n < 7 else 1)]


@pytest.mark.parametrize("n,seed", CASES)
def test_team_predicates_match_reference(n, seed):
    s = PlayerSet(int(np.random.default_rng(n + seed).integers(1, 1 << n)))
    for name, g in _games(n, seed).items():
        assert is_sensible(g) == ref.is_sensible(g), name
        assert is_fully_cooperative(g) == ref.is_fully_cooperative(g), name
        assert is_cohesive(g, s) == ref.is_cohesive(g, s), name
        for include_grand in (True, False):
            assert all_coop_points(g, include_grand=include_grand) == ref.all_coop_points(
                g, include_grand
            ), name


@pytest.mark.parametrize("n,seed", CASES)
def test_reduce_to_tu_matches_reference(n, seed):
    for name, g in _games(n, seed).items():
        try:
            expected = ref.reduce_to_tu(g)
        except NotReducibleError as exc:
            with pytest.raises(NotReducibleError) as got:
                reduce_to_tu(g)
            assert (got.value.a, got.value.b, got.value.value) == (exc.a, exc.b, exc.value), name
            assert str(got.value) == str(exc), name
        else:
            reduced = reduce_to_tu(g)
            assert reduced.players == expected.players
            assert reduced.u.tolist() == expected.u.tolist(), name


@pytest.mark.parametrize("n,seed", CASES)
def test_structure_detectors_match_reference(n, seed):
    for name, g in _games(n, seed).items():
        additive = ref.find_additive_violation(g)
        coadditive = ref.find_coadditive_violation(g)
        assert _find_additive_violation(g, 1e-9) == additive, name
        assert _find_coadditive_violation(g, 1e-9) == coadditive, name

        expected = ref.extract_matrix(g)
        if isinstance(expected, StructureError):
            with pytest.raises(StructureError) as got:
                extract_matrix(g)
            assert got.value.witness == expected.witness, name
            assert str(got.value) == str(expected), name
        else:
            assert extract_matrix(g).m.tolist() == expected.tolist(), name

        if additive is None:
            report = additive_predicates(g)
            values_ok, coop_ok, gains_ok = ref.additive_predicates(g)
            assert (report.sensible, report.individual_values_nonneg) == (values_ok, values_ok)
            assert report.fully_cooperative == coop_ok, name
            assert report.individual_gains_nonneg == gains_ok, name
        else:
            with pytest.raises(StructureError) as got:
                additive_predicates(g)
            assert got.value.witness == additive, name
        if coadditive is None:
            report = coadditive_predicates(g)
            sensible_ok, outsiders_ok, monotone_ok = ref.coadditive_predicates(g)
            assert report.sensible == sensible_ok, name
            assert report.fully_cooperative == outsiders_ok, name
            assert report.perceptions_of_outsiders_nonneg == outsiders_ok, name
            assert report.assessments_monotone == monotone_ok, name
        else:
            with pytest.raises(StructureError) as got:
                coadditive_predicates(g)
            assert got.value.witness == coadditive, name


def test_structured_families_reach_both_answers():
    """The cases above see each detector and predicate both pass and fail."""
    seen = {}
    for n, seed in CASES:
        for g in _games(n, seed).values():
            seen.setdefault(("sensible", ref.is_sensible(g)), True)
            seen.setdefault(("cooperative", ref.is_fully_cooperative(g)), True)
            seen.setdefault(("additive", ref.find_additive_violation(g) is None), True)
            seen.setdefault(("coadditive", ref.find_coadditive_violation(g) is None), True)
            try:
                ref.reduce_to_tu(g)
                seen[("reducible", True)] = True
            except NotReducibleError:
                seen[("reducible", False)] = True
    for key in ("sensible", "cooperative", "additive", "coadditive", "reducible"):
        assert (key, True) in seen and (key, False) in seen, key


def _scaled(game, peak=1.5e308):
    """Tabulated copy of a game with its entries scaled so the largest is ``peak``: their
    differences and sums leave the float range."""
    entries = game.utility_table
    position = {outcome: j for j, outcome in enumerate(game.outcomes)}
    assessors, positions = zip(*((a, position[x]) for a, x in entries))
    values = np.array(list(entries.values()))
    return STGame.from_entries(game.n, game.outcomes, game._columns, assessors, positions,
                               values / (np.abs(values).max() or 1.0) * peak, game.players)


@functools.lru_cache(maxsize=None)
def _tables(n, seed):
    """Every family above as a table: clean and perturbed ones, sparse copies (NaN cells) of
    families that pass, copies whose entries reach 1.5e308, and copies with the reachable
    entries only, whose outcomes' frames are narrower than the team."""
    rng = np.random.default_rng(2000 * n + seed)
    games = dict(_games(n, seed))
    for name in ("monotone_series", "additive_monotone", "coadditive_monotone",
                 "competition_free"):
        games[f"{name}_sparse"] = _sparse(games[name], rng)
    for name in ("random_st_few_outcomes", "additive_monotone", "competition_free"):
        games[f"{name}_huge"] = _scaled(games[name])
    for name in ("random_st", "monotone_series", "biadditive", "additive_perturbed",
                 "competition_free"):
        games[f"{name}_reachable"] = _sparse(games[name], rng, others=0.0)
    games["competition_free_reachable_huge"] = _scaled(games["competition_free_reachable"])
    return games


@pytest.mark.parametrize("n,seed", CASES)
def test_blocks_read_as_the_dense_table(n, seed):
    """Every table family reads, through ``u`` and ``utility_table``, as the dense assessor x
    outcome table built here from the entries each was made of (for a closed form, the
    cells it stored): NaN where no entry was given, 0 for the empty assessor."""
    build, made = STGame.from_entries.__func__, {}

    def recording(cls, n, outcomes, columns, assessors, positions, values, players):
        g = build(cls, n, outcomes, columns, assessors, positions, values, players)
        dense = np.full((1 << n, len(outcomes)), np.nan)
        dense[0] = 0.0
        dense[np.asarray(assessors, dtype=int), np.asarray(positions, dtype=int)] = values
        made[id(g)] = g, dense
        return g

    _games.cache_clear()
    _tables.cache_clear()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(STGame, "from_entries", classmethod(recording))
        tables = _tables(n, seed)
    masks = np.arange(1 << n)
    narrow = 0
    for name, g in tables.items():
        if id(g) in made:
            dense = made[id(g)][1]
        else:
            dense = np.full((1 << n, len(g.outcomes)), np.nan)
            dense[0] = 0.0
            position = {outcome: j for j, outcome in enumerate(g.outcomes)}
            for (a, outcome), value in g.utility_table.items():
                dense[a, position[outcome]] = value
        got = g.u(masks[:, None], masks[None, :])
        assert np.array_equal(got, dense[:, g._columns], equal_nan=True), name
        rows, cols = np.nonzero(~np.isnan(dense[1:]))
        entries = [((a, g.outcomes[j]), v) for a, j, v in
                   zip((rows + 1).tolist(), cols.tolist(), dense[rows + 1, cols].tolist())]
        assert list(g.utility_table.items()) == entries, name
        narrow += len(g._blocks.cells) < dense.size
    assert narrow >= (5 if n > 1 else 0)


def _answers(g, s):
    """Every predicate's answer on g, and a refusal as its type, message and witness."""
    def answer(predicate):
        try:
            result = predicate()
        except NotReducibleError as exc:
            return "not reducible", str(exc), (exc.a, exc.b, exc.value)
        except StructureError as exc:
            return "structure", str(exc), exc.witness
        return result.m.tolist() if isinstance(result, BiAdditiveMatrix) else result

    return [answer(predicate) for predicate in (
        lambda: is_sensible(g), lambda: is_fully_cooperative(g), lambda: is_cohesive(g, s),
        lambda: reduce_to_tu(g).u.tolist(), lambda: _find_additive_violation(g, 1e-9),
        lambda: _find_coadditive_violation(g, 1e-9), lambda: extract_matrix(g),
        lambda: all_coop_points(g))]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("noise", [0.0, 4.0])
def test_size_outcome_tables_place_entries_without_frames(n, noise):
    """A table whose frames are all the team, as in every size-outcome document, places its
    entries at ``a * outcomes + j``: its cells are the dense table, and the missing-entry
    message and every predicate's answer and witness are those of the same entries read
    through their frames, here forced by one more outcome that nothing produces or names."""
    rng = np.random.default_rng(40 + n)
    sizes = players.mask_sizes(n)
    columns = np.maximum(sizes - 1, 0).astype(np.intp)  # V(S) is |S|, at position |S| - 1
    masks, cols = (part.ravel() for part in np.meshgrid(np.arange(1, 1 << n), np.arange(n),
                                                        indexing="ij"))
    values = sizes[masks] * (cols + 1.0) + noise * rng.normal(size=len(masks)).round(1)
    outcomes, names = tuple(f"k{k}" for k in range(1, n + 1)), tuple(map(str, range(n)))
    dense = STGame.from_entries(n, outcomes, columns, masks, cols, values, names)
    framed = STGame.from_entries(n, outcomes + ("x",), columns, masks, cols, values, names)
    assert (len(dense._blocks.cells), len(framed._blocks.cells)) == (n << n, (n << n) + 1)
    table = np.full((1 << n, n), np.nan)
    table[0] = 0.0
    table[masks, cols] = values
    assert np.array_equal(dense._blocks.cells.reshape(1 << n, n), table)
    assert dict(dense.utility_table) == dict(framed.utility_table)
    s = PlayerSet(int(rng.integers(1, 1 << n)))
    assert _answers(dense, s) == _answers(framed, s)

    coalition = int(rng.integers(1, 1 << n))  # drop one entry its coalition reaches
    subs = [a for a in range(1, coalition + 1) if a & coalition == a]
    drop = (masks != subs[int(rng.integers(len(subs)))]) | (cols != columns[coalition])
    consequence = {mask: outcomes[j] for mask, j in enumerate(columns.tolist()) if mask}
    utilities = {(int(a), outcomes[j]): v for a, j, v in zip(masks[drop], cols[drop], values[drop])}
    messages = []
    for declared in (outcomes, outcomes + ("x",)):
        with pytest.raises(ValueError, match="^missing utility") as missing:
            STGame.from_entries(n, declared, columns, masks[drop], cols[drop], values[drop], names)
        messages.append(str(missing.value))
    assert messages == [ref.check_tables(n, outcomes, consequence, utilities, names)] * 2


@pytest.fixture
def pair_scans(monkeypatch):
    """The number of chunks read by each pair scan started, one entry a scan."""
    started = []
    walk = players.mask_pairs

    def counting(*args, **kwargs):
        started.append(0)
        scan = len(started) - 1

        def chunks():
            for chunk in walk(*args, **kwargs):
                started[scan] += 1
                yield chunk

        return chunks()

    monkeypatch.setattr(players, "mask_pairs", counting)
    return started


@pytest.mark.parametrize("tol", [1e-9, 0.0])
@pytest.mark.parametrize("n,seed", CASES)
def test_closures_match_reference(n, seed, tol, pair_scans):
    """The closure-decided predicates give the reference walk's answers. One that holds
    starts no pair scan, and neither does the additive detector's violation, located from
    its closure. A reduction reads the first chunk of its pair scan, and reads on only when
    its closures find a violation, which the pair kernel locates. Every witness and message
    is the walk's."""
    for name, g in _tables(n, seed).items():
        before = len(pair_scans)
        assert is_sensible(g, tol) == ref.is_sensible(g, tol), name
        assert is_fully_cooperative(g, tol) == ref.is_fully_cooperative(g, tol), name
        assert len(pair_scans) == before, name

        try:
            expected = ref.reduce_to_tu(g, tol)
        except NotReducibleError as exc:
            with pytest.raises((NotReducibleError, NumericOverflowError)) as got:
                reduce_to_tu(g, tol)
            if math.isinf(exc.value):
                a, b = (players.subset_label(x.mask, g.players) for x in (exc.a, exc.b))
                assert str(got.value) == (f"the competitive contribution of {a} against {b} "
                                          "is past the float range"), name
            else:
                assert (got.value.a, got.value.b, got.value.value) == (
                    exc.a, exc.b, exc.value), name
                assert str(got.value) == str(exc), name
        else:
            assert reduce_to_tu(g, tol).u.tolist() == expected.u.tolist(), name
            assert len(pair_scans) == before + 1 and pair_scans[-1] <= 1, name

        before = len(pair_scans)
        expected = ref.find_additive_violation(g, tol)
        if expected is None:
            assert _find_additive_violation(g, tol) is None and is_additive(g, tol), name
            values_ok, coop_ok, gains_ok = ref.additive_predicates(g, tol)
            assert additive_predicates(g, tol) == AdditiveReport(values_ok, coop_ok, values_ok,
                                                                 gains_ok), name
        elif math.isinf(expected[3]):
            a, s = (players.subset_label(mask, g.players) for mask in expected[:2])
            for detect in (_find_additive_violation, additive_predicates, is_additive):
                with pytest.raises(NumericOverflowError) as got:
                    detect(g, tol)
                assert str(got.value) == (f"the additive expectation of {a} at coalition {s} "
                                          "is past the float range"), name
        else:
            assert _find_additive_violation(g, tol) == expected, name
            assert not is_additive(g, tol), name
            with pytest.raises(StructureError) as got:
                additive_predicates(g, tol)
            assert got.value.witness == expected, name
            assert str(got.value) == "game is not additive", name
        assert len(pair_scans) == before, name


def test_table_families_reach_both_answers():
    """The tables above see each closure-decided predicate pass and fail, the reduction and
    the additive expectation also past the float range."""
    seen = set()
    for n, seed in CASES:
        for g in _tables(n, seed).values():
            seen.add(("sensible", ref.is_sensible(g)))
            seen.add(("cooperative", ref.is_fully_cooperative(g)))
            try:
                ref.reduce_to_tu(g)
                seen.add(("reducible", True))
            except NotReducibleError as exc:
                seen.add(("reducible", "past" if math.isinf(exc.value) else False))
            additive = ref.find_additive_violation(g)
            seen.add(("additive", "past" if additive and math.isinf(additive[3])
                      else additive is None))
    for key in ("sensible", "cooperative", "reducible", "additive"):
        assert {(key, True), (key, False)} <= seen, key
    assert {("reducible", "past"), ("additive", "past")} <= seen


def _view(table):
    """``table`` read through callables, which its construction reads at every cell of the
    frames of a closed-form game."""
    return STGame.from_functions(table.n, table.outcomes, lambda s: table._v(s.mask),
                                 lambda a, x: table._u(a.mask, x), table.players)


@pytest.mark.parametrize("route", ["closures", "scans"])
@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.3])
@pytest.mark.parametrize("n,seed", CASES)
def test_cohesion_of_every_coalition_matches_reference(n, seed, tol, route, monkeypatch):
    """Every nonempty coalition of every table gets the reference walk's answer, by closures
    with no pair scan: on the table's blocks, or (route "scans") on those of a view of the
    table through callables. Only a table with entries left out, sparse or reachable-only,
    can lack a cell that the view stores, and then the view is refused when it is built.
    From the table, sensibility, full cooperation and additivity are decided with no pair
    scan too."""
    def refuse(*args, **kwargs):
        raise AssertionError("a closure-decided predicate scanned pairs")

    monkeypatch.setattr(players, "mask_pairs", refuse)
    seen = set()
    for name, table in _tables(n, seed).items():
        g = table
        if route == "scans":
            try:
                g = _view(table)
            except MissingUtilityError:
                assert "_sparse" in name or "_reachable" in name, name
                continue
        for mask in range(1, 1 << n):
            expected = ref.is_cohesive(table, PlayerSet(mask), tol)
            assert is_cohesive(g, PlayerSet(mask), tol) == expected, (name, mask)
            seen.add((mask == (1 << n) - 1, expected))
        if route == "closures":
            assert is_sensible(g, tol) == ref.is_sensible(g, tol), name
            assert is_fully_cooperative(g, tol) == ref.is_fully_cooperative(g, tol), name
            additive = ref.find_additive_violation(g, tol)
            with (pytest.raises(NumericOverflowError) if additive and math.isinf(additive[3])
                  else nullcontext()):
                assert is_additive(g, tol) == (additive is None), name
    if n > 2:  # at n = 2 every proper coalition has one member, so is cohesive
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


@functools.lru_cache(maxsize=None)
def _past_the_limit_table():
    """A table of ``MAX_PAIR_SCAN`` + 1 players and one outcome, valued by every assessor at
    its size."""
    n = MAX_PAIR_SCAN + 1
    assessors = np.arange(1, 1 << n)
    return STGame.from_entries(n, ("x",), np.zeros(1 << n, dtype=np.intp), assessors,
                               np.zeros(len(assessors), dtype=np.intp),
                               players.mask_sizes(n)[1:].astype(float),
                               tuple(map(str, range(n))))


def _refuse_reads(monkeypatch):
    def read(*args):
        raise AssertionError("a utility read past the pair-scan limit")

    monkeypatch.setattr(STGame, "u", read)
    monkeypatch.setattr(STGame, "_u", read)


def test_cohesion_past_the_pair_scan_limit_is_refused_before_its_lattice(monkeypatch):
    g = _past_the_limit_table()
    n = g.n
    _refuse_reads(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError,
                           match=f"^disjoint-pair scans support n <= {MAX_PAIR_SCAN}, got {n}$"):
            is_cohesive(g, PlayerSet.full(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << n  # under a byte per coalition of the refused lattice


def test_cohesion_of_a_coalition_of_a_team_past_the_limit():
    """A coalition of at most ``MAX_PAIR_SCAN`` members is decided in a larger team, from
    its table and from a view of it through callables."""
    n = MAX_PAIR_SCAN + 1
    table = random_st_game(n, np.random.default_rng(17), n_outcomes=2)
    view = _view(table)
    for s in (PlayerSet.of(16), PlayerSet.of(0, 5, 16), PlayerSet.of(*range(1, 17, 2))):
        expected = ref.is_cohesive(table, s)
        assert is_cohesive(table, s) == is_cohesive(view, s) == expected, s


def test_clean_size_outcome_tables_scan_no_pairs(pair_scans, monkeypatch):
    """At the pair-scan limit the closures decide a clean table with one outcome per
    coalition size and scan no pairs, and so they do a table with one outcome per
    coalition."""
    def refuse(*args, **kwargs):
        raise AssertionError("a closure-decided predicate scanned pairs")

    g = _size_outcome_game(MAX_PAIR_SCAN)
    with monkeypatch.context() as patched:
        patched.setattr(players, "mask_pairs", refuse)
        for predicate in (is_sensible, is_fully_cooperative, is_additive):
            assert predicate(g), predicate.__name__
    coalition = random_additive_game(6, np.random.default_rng(3), nonnegative=True)
    assert is_sensible(coalition)
    assert len(pair_scans) == 0


GAME = object()  # stands for a 3-player game in the table below
# the arguments of every call that takes a tol, but the tol
TOL_CALLS = {
    is_sensible: (GAME,), is_cohesive: (GAME, PlayerSet.of(0, 1)), is_fully_cooperative: (GAME,),
    reduce_to_tu: (GAME,), is_additive: (GAME,), is_coadditive: (GAME,), is_biadditive: (GAME,),
    extract_matrix: (GAME,), additive_predicates: (GAME,), coadditive_predicates: (GAME,),
    is_convex: (GAME,), is_superadditive: (GAME,), in_core: (GAME, [0.0, 0.0, 0.0]),
    quadrant_labels: (0.0, 0.0),  # the origin at the default tol
    classify_quadrant: (CoopPoint(0.0, 0.0, 0.0, PlayerSet.of(0)),),
    payoff_utility_grid: (hybrid(0.5), CobbDouglasConfig(), 1, 1, 2),  # with an origin row
    cooperation_path: (hybrid(0.5), CobbDouglasConfig(), 1, 1),
    cd_fully_cooperative: (EQUAL, CobbDouglasConfig(), ContributionProfile.create([0.2, 0.5]),
                           PlayerSet.of(0), PlayerSet.of(1)),
    # B's payment balance is 0 at x_A = 0, a root at the default tol
    altruism_roots: (EQUAL, CobbDouglasConfig(), 1, 1, 0.0),
    zero_altruism_contour: (EQUAL, CobbDouglasConfig(), 1, 1, 0.0),
    rational_table: (EQUAL, CobbDouglasConfig(), 1, 1, 3),
}


@pytest.mark.parametrize("predicate", list(TOL_CALLS), ids=lambda predicate: predicate.__name__)
@pytest.mark.parametrize("tol", [math.nan, -1e-9])
def test_predicates_refuse_a_nan_or_negative_tol(predicate, tol):
    if predicate in (is_convex, is_superadditive, in_core):
        game = random_convex_game(3, np.random.default_rng(1))
    else:
        game = _games(3, 0)["biadditive"]
    args = [game if arg is GAME else arg for arg in TOL_CALLS[predicate]]
    with pytest.raises(ValueError, match=f"^tol must be a nonnegative number, got {tol}$"):
        predicate(*args, tol=tol)


def test_every_exported_tol_is_checked():
    """Every callable the package exports with a ``tol`` parameter is in the table above."""
    takes_tol = [name for name in teamgames.__all__ if callable(value := getattr(teamgames, name))
                 and not inspect.isclass(value) and "tol" in inspect.signature(value).parameters]
    assert [name for name in takes_tol if getattr(teamgames, name) not in TOL_CALLS] == []


@pytest.mark.parametrize("hi", [math.nan, -1e-9])
def test_maximize_scalar_refuses_a_bracket_without_lo_below_hi(hi):
    """A NaN end, or an upper end below the lower one, is refused in any row: the search
    takes no tol, so it is not in the table above."""
    for lo, top in ((0.0, hi), ([0.0, 0.0], [1.0, hi])):
        with pytest.raises(ValueError, match="^empty bracket$"):
            maximize_scalar(lambda x: -x, lo, top)


def test_additive_predicates_read_member_terms_once(monkeypatch):
    """The detector and the report share one read of the per-player terms, on a game with one
    outcome per coalition and on one with one outcome per coalition size."""
    calls = []
    read = additivity._member_terms
    monkeypatch.setattr(additivity, "_member_terms", lambda g: calls.append(g) or read(g))
    scanned = random_additive_game(6, np.random.default_rng(3), nonnegative=True)
    for g in (scanned, _size_outcome_game(6)):
        del calls[:]
        assert additive_predicates(g).sensible
        assert calls == [g]


@pytest.mark.parametrize("n", SIZES)
def test_superadditivity_matches_reference(n):
    rng = np.random.default_rng(77 + n)
    games = [random_tu_game(n, rng) for _ in range(3)]
    convex = random_convex_game(n, rng)
    games.append(convex)
    if n > 1:
        table = convex.u.copy()
        table[int(rng.integers(1, 1 << n))] -= 0.5
        games.append(type(convex)(n, table))
    for g in games:
        assert is_superadditive(g) == ref.is_superadditive(g)
    assert is_superadditive(convex)


@pytest.mark.parametrize("n", range(1, 6))
def test_from_tables_names_the_same_missing_entry(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(6):
        g = random_st_game(n, rng, n_outcomes=min(3, (1 << n) - 1))
        consequence = dict(g.consequence_table)
        utilities = dict(g.utility_table)
        # drop a few entries, some of them reachable
        keys = list(utilities)
        for index in rng.choice(len(keys), size=min(3, len(keys)), replace=False):
            del utilities[keys[int(index)]]
        a_mask, s_mask = _nested_entry(n, rng)
        utilities.pop((a_mask, consequence[s_mask]), None)
        message = ref.check_tables(n, g.outcomes, consequence, utilities)
        assert message is not None and message.startswith("missing utility")
        with pytest.raises(ValueError) as got:
            STGame.from_tables(n, g.outcomes, consequence, utilities)
        assert str(got.value) == message

        consequence.pop(int(rng.integers(1, 1 << n)))
        message = ref.check_tables(n, g.outcomes, consequence, utilities)
        with pytest.raises(ValueError, match="consequence map is missing") as got:
            STGame.from_tables(n, g.outcomes, consequence, utilities)
        assert str(got.value) == message


def test_from_tables_rejects_nan_values():
    g = random_st_game(2, np.random.default_rng(5), n_outcomes=2)
    utilities = dict(g.utility_table)
    utilities[next(iter(utilities))] = float("nan")
    with pytest.raises(ValueError, match="is not a number"):
        STGame.from_tables(2, g.outcomes, dict(g.consequence_table), utilities)


def test_from_tables_refuses_a_table_past_the_cell_limit():
    """The limit counts block cells: an outcome that an entry of the whole team names holds
    2^n of them, one that no coalition produces and no entry names holds one."""
    n = 16
    full = (1 << n) - 1
    outcomes = tuple(f"o{k}" for k in range(MAX_TABLE_CELLS // (1 << n) + 1))
    consequence = {mask: outcomes[0] for mask in range(1, 1 << n)}
    message = (f"^16 players and {len(outcomes)} outcomes need {len(outcomes) << n} table "
               f"cells, over the limit of {MAX_TABLE_CELLS}$")
    with pytest.raises(SizeLimitError, match=message):
        STGame.from_tables(n, outcomes, consequence, {(full, x): 0.0 for x in outcomes})
    g = STGame.from_tables(n, outcomes, consequence, {(a, "o0"): 1.0 for a in range(1, 1 << n)})
    assert len(g.utility_table) == full and g.u(full, full) == 1.0


def _coalition_entries(n):
    """Entry arrays of a team game with one outcome per coalition, V(S) = S at position
    S - 1, that values it at |A| for every nonempty assessor A inside S: sensible."""
    pairs = list(mask_pairs(n, nested=True))
    coalitions, assessors = (np.concatenate(part) for part in zip(*pairs))
    return (coalitions - 1, assessors,
            players.mask_sizes(n)[assessors].astype(float))


def test_a_13_player_table_with_one_outcome_per_coalition_builds_in_its_blocks():
    """Each outcome's block spans only its coalition's 2^|S| assessors, 3^13 - 1 cells in
    all, where a dense table would need 2^13 x (2^13 - 1), past the cell limit; the build
    and a pair scan over it hold little more than the blocks."""
    n = 13
    outcomes, columns = coalition_outcomes(n)
    positions, assessors, values = _coalition_entries(n)
    blocks = (3**n - 1) * 8
    assert len(outcomes) << n > MAX_TABLE_CELLS
    tracemalloc.start()
    try:
        g = STGame.from_entries(n, outcomes, columns, assessors, positions, values,
                                tuple(map(str, range(n))))
        assert is_sensible(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * blocks
    assert g.u(5, 7) == 2.0 and math.isnan(g.u(8, 7))  # {0,2} inside {0,1,2}; {3} outside


def test_enumerator_order_and_coverage():
    for n in (0, 1, 3, 4, 8):
        full = (1 << n) - 1
        for nested in (False, True):
            got = [
                (int(x), int(y))
                for xs, ys in mask_pairs(n, nested=nested)
                for x, y in zip(xs, ys)
            ]
            expected = [
                (x, y)
                for x in ref.iter_submasks(full, nonempty=True)
                for y in ref.iter_submasks(x if nested else full & ~x, nonempty=True)
            ]
            assert got == expected


def _size_outcome_game(n):
    """Additive team game whose outcome is the coalition size: sensible, fully cooperative
    and additive, so a pair kernel deciding it walks every pair."""
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    columns = np.maximum(sizes - 1, 0).astype(np.intp)
    weight = np.array([sum(0.5 + i for i in range(n) if m >> i & 1) for m in range(1 << n)])
    table = weight[:, None] * np.arange(1, n + 1)[None, :]
    outcomes = tuple(f"k{k}" for k in range(1, n + 1))
    players = tuple(str(i) for i in range(n))
    masks, cols = np.meshgrid(np.arange(1, 1 << n), np.arange(n), indexing="ij")
    return STGame.from_entries(
        n, outcomes, columns, masks.ravel(), cols.ravel(), table[1:].ravel(), players
    )


def test_sensibility_scan_memory_is_chunk_bounded():
    """Deciding sensibility holds nothing near a 3^n array: this table is decided by a
    closure over one copy of it, a scan by one chunk of pairs at a time."""
    n = 14
    g = _size_outcome_game(n)
    tracemalloc.start()
    try:
        assert is_sensible(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3**n * 8


def _cohesion_without_player_0(g):
    return is_cohesive(g, PlayerSet.full(g.n) - PlayerSet.of(0))


@pytest.mark.parametrize("predicate", [is_sensible, is_fully_cooperative, reduce_to_tu,
                                       is_additive, _cohesion_without_player_0],
                         ids=lambda predicate: predicate.__name__)
def test_closure_memory_is_table_bounded(predicate):
    """A closure holds temporaries no larger than the table, one or two at a time."""
    g = _size_outcome_game(14)
    tracemalloc.start()
    try:
        with pytest.raises(NotReducibleError) if predicate is reduce_to_tu else nullcontext():
            predicate(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (len(g.outcomes) << g.n) * 8  # the table's float cells


def test_violation_near_the_start_stops_early(pair_scans, monkeypatch):
    """A reduction whose witness lies in the first chunk of its pair scan reads that chunk
    alone and folds no table."""
    def refuse(*args):
        raise AssertionError("a reduction folded its table")

    g = _size_outcome_game(14)
    monkeypatch.setattr(st, "_bystander_gap", refuse)
    with pytest.raises(NotReducibleError) as got:
        reduce_to_tu(g)
    assert pair_scans == [1]
    assert (got.value.a, got.value.b, got.value.value) == (PlayerSet.of(0), PlayerSet.of(1), 1.0)


def _chunk_seam():
    """The smallest team whose scan of nonempty disjoint pairs fills a chunk of
    ``PAIR_CHUNK`` pairs and has another after it, the last pair of that chunk and the first
    of the next, found by the reference enumeration: chunks of ``FIRST_CHUNK`` pairs doubling
    up to ``PAIR_CHUNK``."""
    size = end = FIRST_CHUNK
    while size < PAIR_CHUNK:
        size = min(2 * size, PAIR_CHUNK)
        end += size
    for n in range(1, MAX_PAIR_SCAN + 1):
        full = (1 << n) - 1
        pairs = ((x, y) for x in ref.iter_submasks(full, nonempty=True)
                 for y in ref.iter_submasks(full & ~x, nonempty=True))
        seam = list(itertools.islice(pairs, end - 1, end + 1))
        if len(seam) == 2:
            return n, *seam
    raise AssertionError("no scan within the limit fills a chunk")


@pytest.mark.parametrize("planted", [[0], [1], [0, 1]], ids=["last", "first", "both"])
def test_a_violation_at_a_chunk_seam_is_the_witness(planted):
    """A reduction's witness at the last pair of a full chunk or the first pair of the next
    is that pair, and with both planted, the earlier one."""
    n, *seam = _chunk_seam()
    pairs = [seam[k] for k in planted]
    raised = {(b, a | b) for a, b in pairs}  # B's assessment of the outcome of A|B

    def utility(assessor, outcome):
        return float(len(PlayerSet(outcome))) + ((assessor.mask, outcome) in raised)

    g = STGame.from_functions(n, range(1, 1 << n), lambda s: s.mask, utility)
    with pytest.raises(NotReducibleError) as witness:
        reduce_to_tu(g)
    assert (witness.value.a.mask, witness.value.b.mask, witness.value.value) == (*pairs[0], -1.0)


def test_functional_games_call_user_code_once_per_cell():
    """A functional game calls its utility once per stored cell when it is built, and never
    while a predicate decides it."""
    n = 9
    calls = 0

    def utility(a, outcome):
        nonlocal calls
        calls += 1
        return float(len(a)) * len(PlayerSet(outcome))

    g = STGame.from_functions(n, tuple(range(1, 1 << n)), lambda s: s.mask, utility)
    # a coalition's own outcome at each of its nonempty assessors, and a one-player
    # coalition's at every nonempty assessor of the team
    assert calls == (3**n - 2**n - n) + n * (2**n - 1) == len(g.utility_table)
    built = calls
    assert is_sensible(g) and is_fully_cooperative(g)
    assert calls == built


@pytest.mark.parametrize(
    "scan",
    [is_sensible, is_fully_cooperative, reduce_to_tu, is_additive, is_coadditive, extract_matrix,
     additive_predicates, coadditive_predicates, is_superadditive],
    ids=lambda scan: scan.__name__,
)
def test_pair_scans_refuse_past_the_limit_before_scanning(monkeypatch, scan):
    def refuse(*args, **kwargs):
        raise AssertionError("mask_pairs called past the pair-scan limit")

    n = MAX_PAIR_SCAN + 1
    if scan is is_superadditive:
        game = TUGame(n, np.zeros(1 << n))
    else:  # the structure detectors read per-player tables before scanning: refuse reads
        game = _past_the_limit_table()
        _refuse_reads(monkeypatch)
    monkeypatch.setattr(players, "mask_pairs", refuse)
    with pytest.raises(SizeLimitError, match=f"pair scans support n <= {MAX_PAIR_SCAN}, got {n}"):
        scan(game)


@pytest.mark.parametrize("report", [additive_predicates, coadditive_predicates],
                         ids=lambda report: report.__name__)
def test_only_the_co_additive_report_scans_pairs(pair_scans, report):
    """The co-additive detector scans pairs, once; the additive detector, the generic
    predicates and the per-player conditions are lattice closures."""
    rng = np.random.default_rng(7)
    game = (random_additive_game(6, rng, nonnegative=True, monotone=True)
            if report is additive_predicates else random_coadditive_game(6, rng, monotone=True))
    report(game)
    assert len(pair_scans) == (report is coadditive_predicates)


EDGE_TOL = 2.0**-20  # n + EDGE_TOL is exact, so a planted difference is exactly -EDGE_TOL


def _edge_value(n, below):
    """n + EDGE_TOL, or the float after it: n minus it is -EDGE_TOL, or one ulp below."""
    value = n + EDGE_TOL
    return np.nextafter(value, np.inf) if below else value


def _sizes(n):
    return np.array([mask.bit_count() for mask in range(1, 1 << n)], dtype=float)


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("below", [False, True])
def test_additive_report_at_the_tolerance_edge(n, below):
    # player 0 values each outcome V(S) = S at |S|, but the team without player n - 1 at
    # n + EDGE_TOL: bystander 0 loses exactly EDGE_TOL, or one ulp more, when n - 1 joins
    outcomes, columns = coalition_outcomes(n)
    values = np.tile(_sizes(n), (n, 1))
    values[0, (1 << (n - 1)) - 2] = _edge_value(n, below)
    g = STGame.additive(n, outcomes, columns, values)
    values_ok, coop_ok, gains_ok = ref.additive_predicates(g, EDGE_TOL)
    assert additive_predicates(g, EDGE_TOL) == AdditiveReport(values_ok, coop_ok, values_ok,
                                                              gains_ok)
    assert gains_ok is not below


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("below", [False, True])
def test_coadditive_report_at_the_tolerance_edge(n, below):
    # every subset A perceives each player at |A|, but the team without player n - 1
    # perceives player 0 at n + EDGE_TOL: the grand team values 0 exactly EDGE_TOL less, or
    # one ulp more
    perception = np.zeros((1 << n, n))
    perception[1:] = _sizes(n)[:, None]
    perception[(1 << (n - 1)) - 1, 0] = _edge_value(n, below)
    g = coadditive_game(n, perception)
    sensible_ok, outsiders_ok, monotone_ok = ref.coadditive_predicates(g, EDGE_TOL)
    assert coadditive_predicates(g, EDGE_TOL) == CoadditiveReport(
        sensible_ok, outsiders_ok, outsiders_ok, monotone_ok)
    assert monotone_ok is not below


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_reports_past_the_float_range_match_the_reference(sign):
    """Differences that overflow, in the pair scans or against a closure, decide by their
    sign, with no warning."""
    outcomes, columns = coalition_outcomes(2)
    values = np.zeros((2, 3))
    values[0] = (-sign * 1.5e308, 0.0, sign * 1.5e308)  # player 0 at V({0}), V({1}), V({0,1})
    additive = STGame.additive(2, outcomes, columns, values)
    # {0} perceives player 0 at sign * 1.5e308, the grand team at the opposite
    perception = np.zeros((4, 2))
    perception[1, 0], perception[3, 0] = sign * 1.5e308, -sign * 1.5e308
    coadditive = coadditive_game(2, perception)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values_ok, coop_ok, gains_ok = ref.additive_predicates(additive)
        assert additive_predicates(additive) == AdditiveReport(values_ok, coop_ok, values_ok,
                                                               gains_ok)
        sensible_ok, outsiders_ok, monotone_ok = ref.coadditive_predicates(coadditive)
        assert coadditive_predicates(coadditive) == CoadditiveReport(
            sensible_ok, outsiders_ok, outsiders_ok, monotone_ok)
    assert not (values_ok or monotone_ok)


def test_assessments_monotone_reads_members_only():
    # A perceives its members at |A| and each outsider at 1 / |A|: valuations of members grow
    # with the assessor, valuations of outsiders shrink, and only members count
    n = 5
    perception = np.zeros((1 << n, n))
    for a in range(1, 1 << n):
        for b in range(n):
            perception[a, b] = a.bit_count() if a >> b & 1 else 1 / a.bit_count()
    g = coadditive_game(n, perception)
    sensible_ok, outsiders_ok, monotone_ok = ref.coadditive_predicates(g)
    assert coadditive_predicates(g) == CoadditiveReport(sensible_ok, outsiders_ok, outsiders_ok,
                                                        monotone_ok)
    assert monotone_ok
