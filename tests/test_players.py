import re
from pathlib import Path

import numpy as np
import pytest

from teamgames import additivity, cobb, st, tu
from teamgames.errors import DisjointnessError, SizeLimitError
from reference_loops import coalition_row_sums, disjoint_pairs, iter_submasks, iter_subset_masks
from teamgames.players import (
    MAX_PAIR_SCAN, PlayerSet, first_pair, mask_pairs, mask_sizes, member_sum, player_names,
    subset_closure, subset_sums, subsets,
)
from random_games import random_additive_game, random_biadditive_matrix


def test_construction_and_membership():
    s = PlayerSet.of(0, 3, 5)
    assert 0 in s and 3 in s and 5 in s
    assert 1 not in s
    assert len(s) == 3
    assert s.members() == (0, 3, 5)


def test_set_algebra():
    a = PlayerSet.of(0, 1)
    b = PlayerSet.of(1, 2)
    assert (a | b).members() == (0, 1, 2)
    assert (a & b).members() == (1,)
    assert (a - b).members() == (0,)
    assert not a.isdisjoint(b)
    assert a.isdisjoint(PlayerSet.of(3))
    assert PlayerSet.of(1) <= a
    assert not (a <= b)


def test_full_empty_complement():
    full = PlayerSet.full(4)
    assert full.members() == (0, 1, 2, 3)
    assert not PlayerSet.empty()
    assert PlayerSet.of(1, 2).complement(4).members() == (0, 3)
    assert full.complement(4) == PlayerSet.empty()


def test_fits():
    assert PlayerSet.of(2).fits(3)
    assert not PlayerSet.of(3).fits(3)


def test_invalid_masks():
    with pytest.raises(ValueError):
        PlayerSet(-1)
    with pytest.raises(ValueError):
        PlayerSet.of(64)


def test_subset_enumeration_is_ascending():
    masks = list(iter_subset_masks(3))
    assert masks == list(range(8))
    assert [s.mask for s in subsets(3, nonempty=True)] == list(range(1, 8))


def test_submask_enumeration():
    assert iter_submasks(0b101) == [0b000, 0b001, 0b100, 0b101]
    assert iter_submasks(0b101, nonempty=True) == [0b001, 0b100, 0b101]
    assert iter_submasks(0) == [0]
    assert iter_submasks(0, nonempty=True) == []


def test_disjoint_pairs_count():
    # each player independently goes to A, B, or neither; drop A empty, B empty
    pairs = list(disjoint_pairs(3))
    assert len(pairs) == 3**3 - 2**3 - (2**3 - 1)
    for a, b in pairs:
        assert a and b and a.isdisjoint(b)
    with_empty_b = list(disjoint_pairs(3, nonempty_b=False))
    assert len(with_empty_b) == 3**3 - 2**3


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("edge", ["first-of-later-chunk", "last-of-chunk"])
def test_first_pair_stops_at_the_first_flagged_pair(nested, edge):
    n = 10
    chunks = [list(zip(x.tolist(), y.tolist())) for x, y in mask_pairs(n, nested=nested)]
    assert len(chunks) >= 3
    target = chunks[2][0] if edge == "first-of-later-chunk" else chunks[1][-1]
    order = [pair for chunk in chunks for pair in chunk]
    start = order.index(target)
    calls = []

    def test(outer, inner):
        calls.append(len(outer))
        index = np.arange(len(outer)) + sum(calls[:-1])
        return index >= start, outer * 1000 + inner, index

    got = first_pair(n, test, nested=nested)
    assert got == (*target, target[0] * 1000 + target[1], start)
    assert all(type(v) is int for v in got)
    assert len(calls) == (3 if edge == "first-of-later-chunk" else 2)
    assert first_pair(n, lambda x, y: (x < 0,), nested=nested) is None


def test_first_pair_refuses_before_calling_test():
    def test(outer, inner):
        raise AssertionError("test called past the pair-scan limit")

    with pytest.raises(SizeLimitError, match=f"got {MAX_PAIR_SCAN + 1}"):
        first_pair(MAX_PAIR_SCAN + 1, test)


PAIR_ENTRY_POINTS = [
    "st.total_marginal", "st.competitive_contribution", "st.altruistic_contribution",
    "tu.marginal_contribution", "additivity.fast_metrics", "additivity.additive_metrics",
    "additivity.coadditive_metrics", "cobb.cd_competitive", "cobb.cd_altruistic",
    "cobb.cd_marginal", "cobb.cd_coop_point", "cobb.cd_fully_cooperative",
]


def _leading_arguments(module, function):
    """What a call of ``module.function`` takes before its (A, B) pair."""
    rng = np.random.default_rng(5)
    if function == "fast_metrics":
        return [random_biadditive_matrix(3, rng)]
    if module == "tu":
        return [tu.TUGame(3, np.zeros(8))]
    if module == "cobb":
        profile = cobb.ContributionProfile.create([0.2, 0.5, 0.7])
        return [cobb.EQUAL, cobb.CobbDouglasConfig(), profile]
    return [random_additive_game(3, rng)]


@pytest.mark.parametrize("name", PAIR_ENTRY_POINTS)
def test_every_pair_entry_point_refuses_overlapping_subsets(name):
    module, function = name.split(".")
    entry = getattr({"st": st, "tu": tu, "additivity": additivity, "cobb": cobb}[module], function)
    overlap = r"^PlayerSet.of\(0, 1\) and PlayerSet.of\(1, 2\) overlap$"
    with pytest.raises(DisjointnessError, match=overlap):
        entry(*_leading_arguments(module, function), PlayerSet.of(0, 1), PlayerSet.of(1, 2))


@pytest.mark.parametrize("name", PAIR_ENTRY_POINTS)
def test_every_pair_entry_point_refuses_a_subset_outside_the_team(name):
    module, function = name.split(".")
    entry = getattr({"st": st, "tu": tu, "additivity": additivity, "cobb": cobb}[module], function)
    outside = r"^PlayerSet.of\(0\) and PlayerSet.of\(3\) do not fit a 3-player team$"
    with pytest.raises(ValueError, match=outside):
        entry(*_leading_arguments(module, function), PlayerSet.of(0), PlayerSet.of(3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda *args: cobb.payoff(*args, PlayerSet.of(3), PlayerSet.of(0, 3)),
         "PlayerSet.of(3) and PlayerSet.of(0, 3) do not fit a 3-player team"),
        (lambda *args: cobb.cd_subset_utility(*args, PlayerSet.of(0), PlayerSet.of(3)),
         "PlayerSet.of(0) and PlayerSet.of(3) do not fit a 3-player team"),
        (lambda *args: cobb.symmetric_rational_contribution(*args, PlayerSet.of(3)),
         "PlayerSet.of(3) is not a group of a 3-player team"),
        (lambda *args: cobb.rational_contribution(*args, 3), "player 3 is not in a 3-player team"),
    ],
    ids=["payoff", "cd_subset_utility", "symmetric_rational_contribution",
         "rational_contribution"],
)
def test_cobb_calls_refuse_a_player_outside_the_profile(call, message):
    with pytest.raises(ValueError) as got:
        call(*_leading_arguments("cobb", "payoff"))
    assert str(got.value) == message


def test_player_names_default_and_length_check():
    assert player_names(3) == ("0", "1", "2")
    assert player_names(2, ["x", "y"]) == ("x", "y")
    for bad in (lambda: player_names(2, ["x"]), lambda: tu.TUGame(2, np.zeros(4), ("x",))):
        with pytest.raises(ValueError, match="player name list must match the player count"):
            bad()
    assert tu.TUGame(2, np.zeros(4)).players == ("0", "1")


def same_bits(x, y) -> bool:
    """Equal shapes, dtypes and bytes: signed zeros and NaN payloads count."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _mixed_terms(rng, shape):
    """Terms of either sign from 1e-300 to 1e300, with some +0.0 and -0.0."""
    terms = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
    terms[rng.random(shape) < 0.2] = 0.0
    terms[rng.random(shape) < 0.2] = -0.0
    return terms


@pytest.mark.parametrize("n", range(21))
def test_subset_sums_equal_member_sum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    masks = np.arange(1 << n)
    terms = _mixed_terms(rng, n)
    assert same_bits(subset_sums(terms), member_sum(n, masks, lambda i, sel: terms[i]))
    counts = rng.integers(-1000, 1000, size=n)
    sums = subset_sums(counts)
    assert sums.dtype == np.int64
    assert same_bits(sums.astype(float), member_sum(n, masks, lambda i, sel: counts[i]))
    if n <= 12:  # one row of k terms per player
        rows = _mixed_terms(rng, (n, 3))
        grid = np.broadcast_to(masks[:, None], (1 << n, 3))
        by_row = member_sum(n, grid, lambda i, sel: np.broadcast_to(rows[i], grid.shape)[sel])
        assert same_bits(subset_sums(rows), by_row)


def test_mask_sizes_are_popcounts():
    for n in range(12):
        assert mask_sizes(n).tolist() == [m.bit_count() for m in range(1 << n)]
    assert mask_sizes(3).dtype == np.int64


@pytest.mark.parametrize("n", range(13))
def test_row_sums_match_a_sum_per_coalition(n):
    rng = np.random.default_rng(100 + n)
    mat = _mixed_terms(rng, (n, n)) if n % 2 else rng.normal(size=(n, n))
    sums = subset_sums(mat.T)
    expected = np.array([coalition_row_sums(mat, s) for s in range(1 << n)]).reshape(sums.shape)
    # numpy's sum starts from the first term, not from 0.0: only a zero's sign may differ
    assert np.array_equal(sums, expected)


def _block_row_sums(mat, block=1 << 10):
    """Row sums over each coalition's columns, coalitions of equal size gathered in blocks
    and summed along a contiguous last axis, as the library built them before."""
    n = len(mat)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = mask_sizes(n)
    sums = np.zeros((1 << n, n))
    for size in range(1, n + 1):
        group = masks[sizes == size]
        for part in np.split(group, range(block, len(group), block)):
            members = np.nonzero((part[:, None] >> np.arange(n)) & 1)[1].reshape(-1, size)
            sums[part] = mat[:, members].sum(axis=2).T
    return sums


def test_row_sums_match_the_block_gather_at_18_players():
    mat = np.random.default_rng(18).normal(size=(18, 18))
    assert same_bits(subset_sums(mat.T), _block_row_sums(mat))


def _submask_fold(table, ufunc):
    """``ufunc`` folded over the entries of every submask, one coalition at a time."""
    out = np.empty_like(table)
    for s in range(len(table)):
        out[s] = ufunc.reduce(table[[b for b in range(s + 1) if b & s == b]], axis=0)
    return out


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("ufunc", [np.logical_or, np.add, np.fmin, np.fmax])
@pytest.mark.parametrize("columns", [None, 3])
def test_subset_closure_matches_a_submask_fold(n, ufunc, columns):
    rng = np.random.default_rng(n)
    shape = (1 << n,) if columns is None else (1 << n, columns)
    if ufunc is np.logical_or:
        table = rng.random(shape) < 0.1
    elif ufunc is np.add:  # small integers: every order of addition gives the same float
        table = rng.integers(-50, 50, size=shape).astype(float)
    else:  # NaN cells, which fmin and fmax skip unless a whole fold is NaN
        table = rng.normal(size=shape)
        table[rng.random(shape) < 0.4] = np.nan
    expected = _submask_fold(table, ufunc)
    closed = subset_closure(table, ufunc)
    assert closed is table
    assert same_bits(closed, expected)


def _first_flagged_walk(flags, blocks, columns, within=None):
    """The first (S, A) with the cell of A at outcome ``columns[S]`` flagged, one nested pair
    at a time, S inside ``within`` when it is given."""
    coalitions = range(1, len(columns)) if within is None else iter_submasks(within, nonempty=True)
    for s in coalitions:
        for a in iter_submasks(s, nonempty=True):
            if flags[blocks.index(a, columns[s])]:
                return s, a
    return None


def _mixed_frames(n, outcomes, rng):
    """Frames of mixed sizes, the last one the team, and for every coalition an outcome whose
    frame holds it."""
    frames = rng.integers(0, 1 << n, size=outcomes)
    frames[-1] = (1 << n) - 1
    columns = np.zeros(1 << n, dtype=np.intp)
    for s in range(1, 1 << n):
        holding = np.flatnonzero(frames & s == s)
        columns[s] = holding[rng.integers(len(holding))]
    return frames, columns


@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("outcomes", [1, 2, 5])
def test_first_nested_cell_matches_a_nested_walk(n, outcomes):
    """On the dense table (every frame the team, OR-closed in place as one lattice) and on
    blocks with frames of mixed sizes."""
    rng = np.random.default_rng(10 * n + outcomes)
    team = st._Blocks.layout(np.full(outcomes, (1 << n) - 1), n)
    mixed, mixed_columns = _mixed_frames(n, outcomes, rng)
    mixed = st._Blocks.layout(mixed, n)
    for density in (0.0, 0.01, 0.05, 0.3):
        flags = rng.random((1 << n, outcomes)) < density
        columns = rng.integers(0, outcomes, size=1 << n)
        expected = _first_flagged_walk(flags.ravel(), team, columns)
        row_cleared = flags.copy()
        row_cleared[0] = False
        assert team.first_nested(flags.ravel(), columns) == expected
        assert same_bits(flags, subset_closure(row_cleared, np.logical_or))  # closed in place

        flags = rng.random(len(mixed.cells)) < density
        expected = _first_flagged_walk(flags, mixed, mixed_columns)
        assert mixed.first_nested(flags, mixed_columns) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_first_nested_cell_on_a_coalition_s_subgame(n):
    """Within a coalition, the search on the team's table finds the walk's first pair among
    the coalitions inside it."""
    rng = np.random.default_rng(n)
    _, columns = _mixed_frames(n, 4, rng)
    # each (assessor, outcome) pair once: coalitions share outcomes
    pairs = sorted({(a, columns[s]) for s in range(1, 1 << n)
                    for a in iter_submasks(s, nonempty=True)})
    assessors, positions = np.array(pairs).T
    g = st.STGame.from_entries(n, tuple(range(4)), columns, assessors, positions,
                               rng.normal(size=len(pairs)), tuple(map(str, range(n))))
    blocks = g._blocks
    for coalition in range(1, 1 << n):
        for density in (0.0, 0.05, 0.3):
            flags = rng.random(len(blocks.cells)) < density
            expected = _first_flagged_walk(flags, blocks, columns, coalition)
            assert blocks.first_nested(flags, columns, coalition) == expected
    assert len(blocks.cells) < 4 << n  # some frame is narrower than the team


@pytest.mark.parametrize("n", range(5))
def test_first_nested_cell_finds_nothing_unflagged_or_in_row_zero(n):
    frames, columns = _mixed_frames(n, 3, np.random.default_rng(n))
    for blocks in (st._Blocks.layout(np.full(3, (1 << n) - 1), n), st._Blocks.layout(frames, n)):
        flags = np.zeros(len(blocks.cells), dtype=bool)
        assert blocks.first_nested(flags, columns) is None
        flags[blocks.offsets] = True  # the empty assessor is in no nested pair
        assert blocks.first_nested(flags, columns) is None
        assert not flags.any()


SRC = Path(__file__).parents[1] / "src" / "teamgames"
# an n-pass closure over halves of the lattice, the doubling slice of a subset sum, and a
# submask filter (a nested lattice search)
LATTICE_IDIOMS = re.compile(
    r"reshape\(-1, 2, 1 <<|\[1 << \w+ ?: ?2 << \w+\]|\((\w+) & (\w+)\) == \1")


def test_subset_lattice_loops_live_in_players_only():
    found = {path.name for path in SRC.glob("*.py") if LATTICE_IDIOMS.search(path.read_text())}
    assert found == {"players.py"}
