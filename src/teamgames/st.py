"""Subset team games and cooperation-space metrics.

A subset team game gives every coalition S an outcome V(S) and every
assessing subset A its own valuation u_A of outcomes. The marginal worth a
coalition adds then splits into two comparable parts:

* competitive contribution  c_A = u_{A|B}(V(A|B)) - u_B(V(A|B)),
  two assessments of the same outcome;
* altruistic contribution   a_A = u_B(V(A|B)) - u_B(V(B)),
  one bystander's assessment of two outcomes;

with total marginal m_A = c_A + a_A. The pair (a_A, c_A) is a point in
cooperation space; quadrant I (both positive) is where stable teamwork
lives.

Empty-set convention: the empty assessor values everything at 0 and the
empty coalition produces a distinct null outcome (``None``). Metrics with
B empty therefore reduce to m_A(A) = u_A(V(A)).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, NamedTuple

from .errors import (
    MissingUtilityError, NotReducibleError, NumericOverflowError, RepeatedEntryError,
    SizeLimitError,
)
from .limits import DEFAULT_TOL, check_tol
from .players import (
    PlayerSet, check_pair_scan, check_subset_array, first_pair, member_sum, pdep, pext,
    player_names, require_disjoint, require_fit, subset_closure, subset_label,
)

# numpy after the package's modules: without bytecode files, their compile is freed before
# numpy maps its libraries, rather than stacking on them
import numpy as np

if TYPE_CHECKING:
    from .quadrants import Quadrant
    from .tu import TUGame

Outcome = Hashable
NULL_OUTCOME: Outcome = None

MAX_TABLE_CELLS = 1 << 25  # block cells of a tabulated game (256 MiB)
ENTRY_CHUNK = 1 << 12  # entries placed, or cells read, at a time: a chunk's temporary is 32 KiB


class _Blocks(NamedTuple):
    """The cells of a tabulated game. Outcome j's block holds one cell per submask A of its
    frame F_j, at ``cells[offsets[j] + pext(A, F_j) * strides[j]]``; blocks of one frame size
    sit side by side as one C-ordered (2^k, count) array, an outcome per column, and
    ``spans`` holds each such array's (outcome positions, first cell, 2^k)."""

    cells: np.ndarray
    frames: np.ndarray
    offsets: np.ndarray
    strides: np.ndarray
    n: int
    spans: tuple

    @classmethod
    def layout(cls, frames: np.ndarray, n: int) -> _Blocks:
        """Blocks for outcomes with these frames, every cell NaN; more than ``MAX_TABLE_CELLS``
        cells are refused before they are allocated."""
        spans = tuple(_frame_groups(frames, n))
        cells = sum(rows * len(group) for group, _, rows in spans)
        if cells > MAX_TABLE_CELLS:
            raise SizeLimitError(
                f"{n} players and {len(frames)} outcomes need {cells} table cells, "
                f"over the limit of {MAX_TABLE_CELLS}"
            )
        offsets, strides = np.empty_like(frames), np.empty_like(frames)
        for group, base, _ in spans:  # a group's outcomes are the columns of its array
            offsets[group], strides[group] = base + np.arange(len(group)), len(group)
        return cls(np.full(cells, np.nan), frames, offsets, strides, n, spans)

    @property
    def dense(self) -> bool:
        """Whether every frame is the team: the cells are the 2^n x |outcomes| table."""
        return len(self.cells) == len(self.frames) << self.n

    def index(self, a, j):
        """Cell position of assessor mask a, inside the frame of outcome position j."""
        if self.dense:  # no pext
            return a * len(self.frames) + j
        at = pext(a, self.frames[j], self.n)  # a new array, or a scalar
        at *= self.strides[j]
        at += self.offsets[j]
        return at

    def groups(self, *arrays):
        """(outcome positions, (2^k, count) view of each of ``arrays``) for each frame size k,
        for arrays laid out as the cells."""
        for positions, base, rows in self.spans:
            yield positions, *(array[base:base + rows * len(positions)].reshape(rows, -1)
                               for array in arrays)

    def assessors(self, positions, lo: int, hi: int):
        """The assessor masks of rows lo to hi of a group's (2^k, count) cells: rank r of each
        frame."""
        ranks = np.arange(lo, hi)[:, None]
        team = self.frames[positions[0]] == (1 << self.n) - 1  # the 2^n-row group: no pdep
        return ranks if team else pdep(ranks, self.frames[positions], self.n)

    def entries(self, flags: np.ndarray):
        """(assessor masks, outcome positions, values) of the flagged cells of nonempty
        assessors, ascending in (assessor, position), for ``flags`` laid out as the cells."""
        parts = []
        for group, block, cells in self.groups(flags, self.cells):
            rows, cols = np.nonzero(block[1:])
            a = pdep(rows + 1, self.frames[group[cols]], self.n)
            parts.append((a, group[cols], cells[rows + 1, cols]))
        a, j, values = map(np.concatenate, zip(*parts))
        order = np.lexsort((j, a))
        return a[order], j[order], values[order]

    def first_nested(self, flags: np.ndarray, columns, within: int | None = None):
        """The first (S, A) with the cell of assessor A at outcome position ``columns[S]``
        flagged, or None, in ``first_pair``'s nested order: nonempty S inside ``within`` (a
        coalition mask; the team by default) ascending, then its nonempty submasks A ascending.
        ``flags`` is a boolean array laid out as the cells. Each group is OR-closed in place on
        its own lattice with its row 0 (the empty assessor) cleared: a submask of a frame ranks
        at a submask of the frame's rank, in the same order, so the first covered submask of S
        is also its first flagged one, whatever coalition holds S."""
        for _, group in self.groups(flags):
            group[0] = False
            subset_closure(group, np.logical_or)
        within = (1 << self.n) - 1 if within is None else within
        end = 1 << within.bit_count()
        for lo in range(1, end, ENTRY_CHUNK):  # the coalitions, a chunk at a time
            coalitions = np.arange(lo, min(lo + ENTRY_CHUNK, end))
            if end < len(columns):  # a proper coalition: its nonempty submasks, ascending
                coalitions = pdep(coalitions, within, self.n)
            bad = flags[self.index(coalitions, columns[coalitions])]
            if bad.any():
                s = int(coalitions[np.argmax(bad)])
                subs = pdep(np.arange(1, 1 << s.bit_count()), s, self.n)  # ascending
                return s, int(subs[np.argmax(flags[self.index(subs, columns[s])])])
        return None


def _produced_frames(n: int, outcomes: int, columns) -> np.ndarray:
    """Per outcome position, the union of the coalitions that produce it."""
    frames = np.zeros(outcomes, dtype=np.int64)
    np.bitwise_or.at(frames, columns[1:], np.arange(1, 1 << n))
    return frames


def _frame_groups(frames: np.ndarray, n: int):
    """For each frame size k, ascending: the positions of the outcomes whose frames have k
    players, ascending, the first cell of their blocks, and 2^k."""
    if (frames == (1 << n) - 1).all():  # every frame is the team: one group, no pext
        yield np.arange(len(frames)), 0, 1 << n
        return
    rows = pext(frames, frames, n) + 1  # 2^|F|: pext(F, F) is |F| one bits
    order = np.argsort(rows, kind="stable")
    base = 0
    for size, start, count in zip(*(part.tolist() for part in np.unique(
            rows[order], return_index=True, return_counts=True))):
        yield order[start:start + count], base, size
        base += size * count


def _require_players(n: int) -> None:
    if n < 1:
        raise SizeLimitError(f"team games support 1 or more players, got {n}")


@dataclass(frozen=True, eq=False)
class STGame:
    """Team game with per-subset outcome assessments.

    Every game is a table: ``_columns[S]``, the position in ``outcomes`` of
    V(S) for every coalition mask S, and ``_blocks``, which stores u_A(o_j)
    only on the frame of o_j: the union of the coalitions that produce it and
    of the assessors its entries name (see :meth:`_tabulate` for closed
    forms). An assessor outside the frame, or a cell with no entry, reads
    NaN; the empty assessor reads 0. A table whose frames are all the team is
    the dense 2^n x |outcomes| array. Pair kernels read games through
    :meth:`u`; the lattice closures that decide the predicates read the
    blocks, one frame-size group at a time. A team has at least one player.
    """

    n: int
    outcomes: tuple
    players: tuple[str, ...]
    _columns: np.ndarray
    _blocks: _Blocks

    def __post_init__(self):
        _require_players(self.n)
        self._columns.flags.writeable = False
        self._blocks.cells.flags.writeable = False

    @classmethod
    def from_tables(
        cls,
        n: int,
        outcomes,
        consequence: Mapping[int, Outcome],
        utilities: Mapping[tuple[int, Outcome], float],
        players=None,
    ) -> STGame:
        """Build a tabulated game and eagerly validate totality.

        ``consequence`` must cover every nonempty coalition mask, and the
        utility table must contain every (A, V(S)) entry with A a nonempty
        subset of S: exactly the assessments the metrics can reach. Other
        entries may be present (detectors for co-additive structure use
        them) but are not required.
        """
        _require_players(n)
        outcomes = tuple(outcomes)
        players = player_names(n, players)
        columns = _outcome_columns(n, outcomes, consequence, players)
        column_of = {outcome: j for j, outcome in enumerate(outcomes)}
        assessors, positions, values = [], [], []
        for (a_mask, outcome), value in utilities.items():
            if not 0 < a_mask < 1 << n:
                raise ValueError(f"utility entry has invalid assessor mask {a_mask}")
            if outcome not in column_of:
                raise ValueError(f"utility entry references undeclared outcome {outcome!r}")
            value = float(value)
            if math.isnan(value):
                raise ValueError(
                    f"utility of assessor {subset_label(a_mask, players)} at outcome "
                    f"{outcome!r} is not a number"
                )
            assessors.append(a_mask)
            positions.append(column_of[outcome])
            values.append(value)
        return cls.from_entries(n, outcomes, columns, assessors, positions, values, players)

    @classmethod
    def from_entries(
        cls, n: int, outcomes: tuple, columns, assessors, positions, values, players
    ) -> STGame:
        """Tabulated game from outcome positions and utility entries.

        ``columns[S]`` is the position in ``outcomes`` of V(S) for every
        coalition mask S (entry 0 is ignored); entry k values outcome
        ``positions[k]`` at ``values[k]`` for assessor mask ``assessors[k]``.
        Refuses index arrays that are not integers, arrays and names that do
        not fit the team, a value that is not finite, an (assessor, position)
        pair that comes twice (a :class:`RepeatedEntryError` naming the first
        repeat by position), or blocks of more than ``MAX_TABLE_CELLS`` cells
        in all, in that order and before allocating the blocks. The entries are
        read in place and placed ``ENTRY_CHUNK`` at a time; then the first
        missing assessment is named in ascending (coalition, assessor) order.
        """
        _require_players(n)
        columns = _index_array("columns", columns).astype(np.intp)
        if columns.shape != (1 << n,):
            raise ValueError(f"columns must have shape {(1 << n,)}, got {columns.shape}")
        columns[0] = 0
        _require_within("columns", columns[1:], 0, len(outcomes))
        assessors = _require_within("assessors", assessors, 1, 1 << n)
        positions = _require_within("positions", positions, 0, len(outcomes))
        if not len(assessors) == len(positions) == len(values):
            raise ValueError("assessors, positions and values must have one length")
        players = player_names(n, players)
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(
                f"utility of assessor {subset_label(int(assessors[k]), players)} at outcome "
                f"{outcomes[positions[k]]!r} must be finite, got {values[k]}"
            )
        frames = _produced_frames(n, len(outcomes), columns)

        def chunks():  # 8-byte copies of the index arrays, a small chunk at a time
            for lo in range(0, len(values), ENTRY_CHUNK):
                chunk = slice(lo, lo + ENTRY_CHUNK)
                yield assessors[chunk].astype(np.int64), positions[chunk].astype(np.intp), chunk

        for a, j, _ in chunks():
            np.bitwise_or.at(frames, j, a)
        try:
            blocks = _Blocks.layout(frames, n)
        except SizeLimitError:  # refused before placing: a repeated utility comes first
            _refuse_repeat(assessors, positions, outcomes, players)
            raise
        cells = blocks.cells
        cells[blocks.offsets] = 0.0  # the empty assessor
        for a, j, chunk in chunks():
            cells[blocks.index(a, j)] = values[chunk]
        empty = np.isnan(cells)
        # every value is finite, so a pair named twice leaves fewer cells filled than entries
        if len(cells) - len(outcomes) - np.count_nonzero(empty) < len(values):
            _refuse_repeat(assessors, positions, outcomes, players)
        missing = blocks.first_nested(empty, columns)
        if missing is not None:
            s, a = missing
            raise ValueError(
                f"missing utility: assessor {subset_label(a, players)} "
                f"at outcome {outcomes[columns[s]]!r} (reachable via coalition "
                f"{subset_label(s, players)})"
            )
        return cls(n, outcomes, players, columns, blocks)

    @classmethod
    def from_functions(
        cls, n: int, outcomes, consequence: Callable[[PlayerSet], Outcome],
        utility: Callable[[PlayerSet, Outcome], float], players=None,
    ) -> STGame:
        """Game over callables, read here: ``consequence`` once per coalition, naming a
        declared outcome, and ``utility`` once per cell :meth:`_tabulate` stores."""
        _require_players(n)
        outcomes = tuple(outcomes)
        players = player_names(n, players)
        columns = _outcome_columns(n, outcomes, consequence, players)

        def assess(a, j):
            pairs = zip(a.ravel().tolist(), j.ravel().tolist())
            values = [float(utility(PlayerSet(m), outcomes[k])) for m, k in pairs]
            return np.array(values, dtype=float).reshape(a.shape)

        return cls._tabulate(n, outcomes, columns, players, assess)

    @classmethod
    def additive(cls, n: int, outcomes, columns, values, players=None) -> STGame:
        """Additive game: u_A(o_j) is the sum of ``values[i, j]`` over the members i of A,
        where o_j is ``outcomes[j]`` and ``columns[S]`` is the position of V(S), tabulated on
        the frames of :meth:`_tabulate`. A stored sum past the float range is refused."""
        _require_players(n)
        values = np.array(values, dtype=float)

        def assess(a, j):
            with np.errstate(over="ignore"):  # refused by _tabulate
                return member_sum(n, a, lambda i, sel: values[i, j[sel]])

        return cls._tabulate(n, tuple(outcomes), columns, player_names(n, players), assess)

    @classmethod
    def _tabulate(cls, n: int, outcomes: tuple, columns, players, assess) -> STGame:
        """The table of a closed form ``assess(a, j)``, the value of outcome positions j to
        assessor masks a (broadcast int64 arrays), called once per frame-size group. Outcome
        j's frame joins the coalitions that produce it, or is the team when a one-player one
        does: every nested read and perception u_A(V({b})) is stored. A cell past the float
        range raises ``NumericOverflowError``, a NaN one ``ValueError``, naming the first
        nested one, else the first in (assessor, j) order."""
        frames = _produced_frames(n, len(outcomes), columns)
        frames[columns[1 << np.arange(n)]] = (1 << n) - 1
        blocks = _Blocks.layout(frames, n)
        for positions, cells in blocks.groups(blocks.cells):
            cells[0] = 0.0
            cells[1:] = assess(*np.broadcast_arrays(
                blocks.assessors(positions, 1, len(cells)), positions))
        bad = ~np.isfinite(blocks.cells)
        if bad.any():
            first = blocks.first_nested(bad.copy(), columns)
            a, j = ((first[1], columns[first[0]]) if first
                    else (int(k[0]) for k in blocks.entries(bad)[:2]))
            label, outcome = subset_label(a, players), outcomes[j]
            if math.isnan(blocks.cells[blocks.index(a, j)]):
                raise ValueError(
                    f"utility of assessor {label} at outcome {outcome!r} is not a number")
            raise NumericOverflowError(
                f"the utility of {label} at outcome {outcome!r} is past the float range")
        return cls(n, outcomes, players, columns, blocks)

    @property
    def utility_table(self) -> Mapping[tuple[int, Outcome], float]:
        """Read-only (assessor mask, outcome) -> value map of the game's stored cells of
        nonempty assessors in ascending (assessor, outcome position) order, built on each
        access."""
        assessors, positions, values = self._blocks.entries(~np.isnan(self._blocks.cells))
        keys = zip(assessors.tolist(), (self.outcomes[j] for j in positions.tolist()))
        return MappingProxyType(dict(zip(keys, values.tolist())))

    @property
    def consequence_table(self) -> Mapping[int, Outcome]:
        """Read-only coalition mask -> outcome map, built on each access."""
        return MappingProxyType(
            {mask: self.outcomes[j] for mask, j in enumerate(self._columns.tolist()) if mask}
        )

    def consequence(self, coalition: PlayerSet) -> Outcome:
        """Outcome produced by a coalition; the empty coalition yields the null outcome."""
        if not coalition.fits(self.n):
            raise ValueError(f"{coalition} is not a coalition of a {self.n}-player team")
        return self._v(coalition.mask)

    def assess(self, assessor: PlayerSet, outcome: Outcome) -> float:
        """Value of an outcome to an assessing subset; empty assessor values 0."""
        if not assessor.fits(self.n):
            raise ValueError(f"{assessor} is not a subset of a {self.n}-player team")
        return self._u(assessor.mask, outcome)

    def subset_utility(self, assessor: PlayerSet, coalition: PlayerSet) -> float:
        """u_A(S): the assessor's value of the coalition's outcome."""
        return self.assess(assessor, self.consequence(coalition))

    def u(self, a_masks, s_masks) -> np.ndarray:
        """u_A(V(S)) over broadcast assessor and coalition masks; 0 where A is empty, NaN
        where no cell is stored."""
        a, j = np.broadcast_arrays(a_masks, self._columns[s_masks])
        blocks = self._blocks
        if blocks.dense:
            return blocks.cells.reshape(1 << self.n, -1)[a, j]
        value = blocks.cells[blocks.index(a, j)]  # read before the frame test's arrays exist
        return np.where(a & ~blocks.frames[j], np.nan, value)

    @cached_property
    def _block_of(self) -> dict:
        """Outcome -> (frame, first cell, stride) of its block, as Python ints."""
        parts = (self._blocks.frames, self._blocks.offsets, self._blocks.strides)
        return dict(zip(self.outcomes, zip(*(part.tolist() for part in parts))))

    # scalar accessors for the per-pair functions
    def _v(self, mask: int) -> Outcome:
        return NULL_OUTCOME if mask == 0 else self.outcomes[self._columns.item(mask)]

    def _u(self, mask: int, outcome: Outcome) -> float:
        if mask == 0:
            return 0.0
        frame, offset, stride = self._block_of.get(outcome, (0, 0, 0))  # frame 0: no outcome
        if mask & frame == mask:
            rank, rest = 0, mask  # pext(mask, frame): member bit b goes to |frame below b|
            while rest:
                low = rest & -rest
                rank |= 1 << (frame & (low - 1)).bit_count()
                rest ^= low
            value = self._blocks.cells.item(offset + rank * stride)
            if value == value:  # not NaN: a stored cell
                return value
        raise MissingUtilityError(subset_label(mask, self.players), outcome)


def __getattr__(name: str):
    """``Quadrant`` and ``quadrant_labels``, re-exported from :mod:`teamgames.quadrants` on
    first use, so that a command that labels no point does not load it."""
    if name in ("Quadrant", "quadrant_labels"):
        from . import quadrants

        return getattr(quadrants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _index_array(name: str, values) -> np.ndarray:
    """``values`` as an integer array, read in place; refused unless they are integers (or
    there are none)."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return values
    if values.size:
        raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
    return values.astype(np.intp)


def _require_within(name: str, values, low: int, high: int) -> np.ndarray:
    """``values`` as an integer array, refused unless every entry is in [low, high)."""
    values = _index_array(name, values)
    if values.size and (values.min() < low or values.max() >= high):
        outside = (values < low) | (values >= high)
        raise ValueError(f"{name} holds {values[outside][0]}, outside [{low}, {high})")
    return values


def _refuse_repeat(assessors, positions, outcomes: tuple, players) -> None:
    """Raise :class:`RepeatedEntryError` naming the first (assessor, position) entry an earlier
    one repeats, by position, if there is one."""
    keys = np.asarray(assessors, dtype=np.int64) * len(outcomes) + np.asarray(positions, np.int64)
    first = np.zeros(len(keys), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    if first.all():
        return
    k = int(np.argmin(first))
    earlier = int(np.argmax(keys == keys[k]))
    raise RepeatedEntryError(
        f"repeated utility: assessor {subset_label(int(assessors[k]), players)} at "
        f"outcome {outcomes[positions[k]]!r} (entries {earlier} and {k})", k, earlier
    )


def coalition_outcomes(n: int) -> tuple[tuple, np.ndarray]:
    """Outcomes 1..2^n - 1 with V(S) = S, and the position of every coalition's outcome."""
    check_subset_array(n)
    return tuple(range(1, 1 << n)), np.maximum(np.arange(-1, (1 << n) - 1, dtype=np.intp), 0)


def _outcome_columns(n: int, outcomes: tuple, consequence, players) -> np.ndarray:
    """Position in ``outcomes`` of V(S) for every coalition mask S, read once from a map
    of masks or a callable over PlayerSets; an undeclared outcome is refused."""
    check_subset_array(n)
    column_of = {outcome: j for j, outcome in enumerate(outcomes)}
    columns = np.zeros(1 << n, dtype=np.intp)
    for mask in range(1, 1 << n):
        if callable(consequence):
            outcome = consequence(PlayerSet(mask))
        elif mask in consequence:
            outcome = consequence[mask]
        else:
            raise ValueError(f"consequence map is missing coalition {subset_label(mask, players)}")
        if outcome not in column_of:
            raise ValueError(
                f"consequence of {subset_label(mask, players)} is an undeclared outcome "
                f"{outcome!r}"
            )
        columns[mask] = column_of[outcome]
    return columns


def _require_pair(g: STGame, a: PlayerSet, b: PlayerSet) -> None:
    require_disjoint(a, b)
    if not a:
        raise ValueError("the contributing subset A must be nonempty")
    require_fit(g.n, a, b)


def pair_value(value: float, what: str, a: int, b: int, players) -> float:
    """``value``, the ``what`` of coalition mask A against B, refused with
    ``NumericOverflowError`` when it is past the float range."""
    if not math.isfinite(value):
        a, b = (subset_label(mask, players) for mask in (a, b))
        raise NumericOverflowError(f"the {what} of {a} against {b} is past the float range")
    return value


def total_marginal(g: STGame, a: PlayerSet, b: PlayerSet) -> float:
    """m_A(A|B): joint worth to the joint coalition minus B's worth to itself. A margin
    past the float range raises ``NumericOverflowError``, as do the metrics below."""
    _require_pair(g, a, b)
    union = a.mask | b.mask
    margin = g._u(union, g._v(union)) - g._u(b.mask, g._v(b.mask))
    return pair_value(margin, "total marginal", a.mask, b.mask, g.players)


def competitive_contribution(g: STGame, a: PlayerSet, b: PlayerSet) -> float:
    """c_A(A|B): how much more the joint coalition values its own outcome than B does."""
    _require_pair(g, a, b)
    union = a.mask | b.mask
    x = g._v(union)
    c = g._u(union, x) - g._u(b.mask, x)
    return pair_value(c, "competitive contribution", a.mask, b.mask, g.players)


def altruistic_contribution(g: STGame, a: PlayerSet, b: PlayerSet) -> float:
    """a_A(A|B): how much B gains, by its own lights, from A's participation."""
    _require_pair(g, a, b)
    if not b:
        raise ValueError("the bystanding subset B must be nonempty")
    union = a.mask | b.mask
    alt = g._u(b.mask, g._v(union)) - g._u(b.mask, g._v(b.mask))
    return pair_value(alt, "altruism", a.mask, b.mask, g.players)


@dataclass(frozen=True)
class CoopPoint:
    """One subset's coordinates in cooperation space (vs. the rest of the team)."""

    altruism: float
    competitive: float
    marginal: float
    subset: PlayerSet


def classify_quadrant(point: CoopPoint, tol: float = DEFAULT_TOL, *, closed: bool = False) -> Quadrant:
    """Which quadrant a cooperation-space point occupies (see ``quadrant_labels``)."""
    return quadrant_of(point.altruism, point.competitive, tol, closed=closed)


def quadrant_of(a: float, c: float, tol: float = DEFAULT_TOL, *, closed: bool = False) -> Quadrant:
    """The quadrant of the point with altruism ``a`` and competitive part ``c``."""
    from .quadrants import Quadrant, quadrant_labels

    return Quadrant(quadrant_labels(a, c, tol, closed=closed))


def coop_point(g: STGame, a: PlayerSet) -> CoopPoint:
    """Cooperation-space point of subset A against the rest of the team.

    For A equal to the whole team the bystander set is empty, so altruism is
    0 by convention and the competitive part carries the full marginal. A
    coordinate past the float range raises ``NumericOverflowError``.
    """
    if not a:
        raise ValueError("subset must be nonempty")
    if not a.fits(g.n):
        raise ValueError(f"{a} is not a subset of a {g.n}-player team")
    b = a.complement(g.n)
    c = competitive_contribution(g, a, b)
    alt = altruistic_contribution(g, a, b) if b else 0.0
    marginal = pair_value(alt + c, "total marginal", a.mask, b.mask, g.players)
    return CoopPoint(altruism=alt, competitive=c, marginal=marginal, subset=a)


class CoopSpace(Sequence):
    """The cooperation space of a team as columns, read as a sequence of ``CoopPoint``s:
    ``subsets`` holds the nonempty coalition masks in ascending order (int64), and
    ``altruism``, ``competitive`` and ``marginal`` each one's coordinates against the rest of
    the team (float64). A point is made only when it is read, and the space equals any
    sequence of the same points."""

    __slots__ = ("subsets", "altruism", "competitive", "marginal")

    def __init__(self, subsets, altruism, competitive, marginal):
        self.subsets, self.altruism = subsets, altruism
        self.competitive, self.marginal = competitive, marginal

    def __len__(self) -> int:
        return len(self.subsets)

    def __getitem__(self, k: int) -> CoopPoint:
        return CoopPoint(altruism=self.altruism[k].item(), competitive=self.competitive[k].item(),
                         marginal=self.marginal[k].item(), subset=PlayerSet(self.subsets[k].item()))

    def __iter__(self):
        for mask, alt, c, m in zip(self.subsets.tolist(), self.altruism.tolist(),
                                   self.competitive.tolist(), self.marginal.tolist()):
            yield CoopPoint(altruism=alt, competitive=c, marginal=m, subset=PlayerSet(mask))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def all_coop_points(g: STGame, *, include_grand: bool = True) -> CoopSpace:
    """One point per nonempty subset, ascending mask order, held as columns.

    The grand coalition's point (computed under the empty-bystander
    convention) comes last; drop it with ``include_grand=False``. A
    coordinate past the float range raises ``NumericOverflowError`` naming
    the first such subset.
    """
    check_subset_array(g.n)
    full = (1 << g.n) - 1
    subsets = np.arange(1, full + include_grand, dtype=np.int64)
    rest = full ^ subsets
    rest_joint = g.u(rest, full)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        competitive = g.u(full, full) - rest_joint
        altruism = np.where(rest != 0, rest_joint - g.u(rest, rest), 0.0)
        marginal = altruism + competitive
    past = np.isinf([altruism, competitive, marginal])  # a NaN marginal has an infinite part
    if past.any():
        k, what = divmod(int(np.argmax(past.T)), 3)
        raise NumericOverflowError(
            f"the {('altruism', 'competitive contribution', 'total marginal')[what]} of "
            f"{subset_label(int(subsets[k]), g.players)} is past the float range")
    return CoopSpace(subsets, altruism, competitive, marginal)


def _bystander_breaks(g: STGame, fold, empty: float, breaks) -> bool:
    """Whether ``breaks`` flags u_T(V(T)) minus ``fold`` (np.fmin or np.fmax) of u_B(V(T))
    over the assessors B inside T, the empty one at ``empty`` (NaN leaves it out), for some
    coalition T. fl(x - y) is monotone in y, so the least or most u_B(V(T)) decides T. Each
    frame-size group is copied and folded in turn, and the coalitions with their own cell in
    it read ``ENTRY_CHUNK`` at a time, up to the first that breaks."""
    blocks, columns = g._blocks, g._columns
    for positions, base, rows in blocks.spans:
        cells = blocks.cells[base:base + rows * len(positions)]
        folded = cells.reshape(rows, -1).copy()
        folded[0] = empty
        folded = subset_closure(folded, fold).ravel()
        for lo in range(0, len(columns), ENTRY_CHUNK):
            t = np.arange(lo, min(lo + ENTRY_CHUNK, len(columns)))
            at = blocks.index(t, columns[t]) - base
            at = at[(at >= 0) & (at < len(cells))]  # the cells of T inside this group
            with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
                if breaks(cells[at] - folded[at]).any():
                    return True
        del folded  # before the next group's copy
    return False


def is_sensible(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    """No subset's participation is valued below the bystanders' assessment.

    Quantifies c_A(A|B) >= 0 over all disjoint nonempty pairs and the B-empty case
    (self-assessments nonnegative), by table closures up to the first group that breaks it.
    """
    check_tol(tol)
    # T's gap to the most any B inside T, the empty one at 0, values V(T) (B = T adds 0)
    return not _bystander_breaks(g, np.fmax, 0.0, lambda gap: gap < -tol)


def is_cohesive(g: STGame, s: PlayerSet, tol: float = DEFAULT_TOL) -> bool:
    """No part of coalition S loses, by its own assessment, from another part joining: read
    off the team's closure at the coalitions inside S, at the cost of the team's table."""
    check_tol(tol)
    if not s:
        raise ValueError("coalition must be nonempty")
    if not s.fits(g.n):
        raise ValueError(f"{s} is not a coalition of a {g.n}-player team")
    blocks, columns = g._blocks, g._columns
    # B loses when it values below V(B) an outcome that a coalition above it produces; the
    # coalition B itself adds u_B(V(B)) - u_B(V(B)), never below -tol
    own = np.empty(len(columns))  # u_B(V(B)) for every coalition B
    for lo in range(0, len(columns), ENTRY_CHUNK):  # temporaries of a chunk at a time
        b = np.arange(lo, min(lo + ENTRY_CHUNK, len(columns)))
        own[b] = blocks.cells[blocks.index(b, columns[b])]
    loses = np.empty(len(blocks.cells), dtype=bool)
    with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
        for positions, cells, flags in blocks.groups(blocks.cells, loses):
            step = -(-ENTRY_CHUNK // len(positions))  # rows of about ENTRY_CHUNK cells
            for lo in range(0, len(cells), step):
                b = blocks.assessors(positions, lo, min(lo + step, len(cells)))
                np.less(cells[lo:lo + step] - own[b], -tol, out=flags[lo:lo + step])
    return blocks.first_nested(loses, columns, s.mask) is None


def is_fully_cooperative(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    """Every coalition is cohesive.

    Pairs inside any coalition are also pairs inside the whole team, so this
    is equivalent to cohesiveness of the grand coalition.
    """
    return is_cohesive(g, PlayerSet.full(g.n), tol)


def from_ntu(
    n: int,
    outcomes,
    consequence: Mapping[int, Outcome] | Callable[[PlayerSet], Outcome],
    individual: Mapping[int, Mapping[Outcome, float]],
    players=None,
) -> STGame:
    """Embed per-player utilities ``individual[p][x]``, given for every player p and
    outcome x, as an additive team game: u_A = sum of members' u_a."""
    _require_players(n)
    outcomes = tuple(outcomes)
    for p in range(n):
        for x in outcomes:
            if x not in individual.get(p, ()):
                raise ValueError(f"missing individual utility for player {p} at outcome {x!r}")
    values = [[individual[p][x] for x in outcomes] for p in range(n)]
    players = player_names(n, players)
    columns = _outcome_columns(n, outcomes, consequence, players)
    return STGame.additive(n, outcomes, columns, values, players)


def reduce_to_tu(g: STGame, tol: float = DEFAULT_TOL) -> TUGame:
    """Collapse a competition-free team game to its TU payoff table.

    Requires every competitive contribution over disjoint nonempty pairs to
    vanish (all participating subsets then agree on each reachable outcome's
    value), as the table's closures decide. Raises :class:`NotReducibleError`
    with the first witnessing pair in disjoint order otherwise, named by a pair
    scan (so past ``MAX_PAIR_SCAN`` players it is refused up front), or
    ``NumericOverflowError`` when its contribution is past the float range.
    """
    from .tu import TUGame

    check_tol(tol)

    def competes(a, b):
        union = a | b
        c = g.u(union, union) - g.u(b, union)  # an infinite contribution is reported below
        return np.abs(c) > tol, c

    check_pair_scan(g.n)
    # some nonempty B inside a coalition T values V(T) more than tol off u_T when the least or
    # the most such u_B(V(T)) does; B = T adds u_T - u_T, never more than tol off
    if any(_bystander_breaks(g, fold, np.nan, lambda gap: np.abs(gap) > tol)
           for fold in (np.fmin, np.fmax)):  # then so does the first pair of the scan
        a, b, c = first_pair(g.n, competes)
        pair_value(c, "competitive contribution", a, b, g.players)  # raises when infinite
        raise NotReducibleError(PlayerSet(a), PlayerSet(b), c)
    masks = np.arange(1 << g.n, dtype=np.int64)
    return TUGame(g.n, g.u(masks, masks), g.players)
