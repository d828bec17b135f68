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

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Hashable, Mapping

import numpy as np

from .errors import MissingUtilityError, NotReducibleError, NumericOverflowError, SizeLimitError
from .limits import DEFAULT_TOL, check_tol
from .players import (
    PlayerSet, check_pair_scan, check_subset_array, first_nested_cell, first_pair, member_sum,
    player_names, require_disjoint, require_fit, subset_closure, subset_label, subset_sums,
)

if TYPE_CHECKING:
    from .tu import TUGame

Outcome = Hashable
NULL_OUTCOME: Outcome = None

MAX_TABLE_CELLS = 1 << 25  # assessor x outcome cells of a tabulated game (256 MiB)
# closure cells allowed per pair a scan would walk: a cell costs 0.2-0.9 ns and a pair 50-115 ns
# (measured), so closures that find a violation add at most an eighth of a full scan
CELLS_PER_PAIR = 8


@dataclass(frozen=True, eq=False)
class STGame:
    """Team game with per-subset outcome assessments.

    Every game is two things: ``_columns[S]``, the position in ``outcomes``
    of V(S) for every coalition mask S, and ``_assess(a, j)``, the value of
    outcome position j to assessor mask a, for two int arrays of one shape
    or two ints. A tabulated game reads it from ``_table[A, j]``, NaN where
    no entry was given (row 0, the empty assessor, is all 0); structured
    games compute it in closed form; only :meth:`from_functions` calls user
    code per element. Pair kernels read games through :meth:`u`; lattice closures read ``_table``.
    """

    n: int
    outcomes: tuple
    players: tuple[str, ...]
    _columns: np.ndarray
    _assess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _table: np.ndarray | None = None

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
        ``positions[k]`` at ``values[k]`` for assessor mask ``assessors[k]``,
        and no (assessor, position) pair comes twice. Refuses a table of more
        than ``MAX_TABLE_CELLS`` cells, index arrays that are not integers,
        or arrays and names that do not fit it, before allocating it, then
        names the first missing assessment in ascending (coalition, assessor)
        order.
        """
        cells = (1 << n) * len(outcomes)
        if cells > MAX_TABLE_CELLS:
            raise SizeLimitError(
                f"{n} players and {len(outcomes)} outcomes need {cells} table cells, "
                f"over the limit of {MAX_TABLE_CELLS}"
            )
        columns = _index_array("columns", columns).copy()
        if columns.shape != (1 << n,):
            raise ValueError(f"columns must have shape {(1 << n,)}, got {columns.shape}")
        columns[0] = 0
        _require_within("columns", columns[1:], 0, len(outcomes))
        assessors = _require_within("assessors", assessors, 1, 1 << n)
        positions = _require_within("positions", positions, 0, len(outcomes))
        if not len(assessors) == len(positions) == len(values):
            raise ValueError("assessors, positions and values must have one length")
        players = player_names(n, players)
        table = np.full((1 << n, len(outcomes)), np.nan)
        table[0] = 0.0
        table[assessors, positions] = values
        missing = first_nested_cell(np.isnan(table), columns)
        if missing is not None:
            s, a = missing
            raise ValueError(
                f"missing utility: assessor {subset_label(a, players)} "
                f"at outcome {outcomes[columns[s]]!r} (reachable via coalition "
                f"{subset_label(s, players)})"
            )
        columns.flags.writeable = False
        table.flags.writeable = False
        return cls(n, outcomes, players, columns, lambda a, j: table[a, j], table)

    @classmethod
    def from_functions(
        cls,
        n: int,
        outcomes,
        consequence: Callable[[PlayerSet], Outcome],
        utility: Callable[[PlayerSet, Outcome], float],
        players=None,
    ) -> STGame:
        """Game over callables: ``consequence`` is read once per coalition here and must
        name a declared outcome; ``utility`` is called per element a kernel reads."""
        outcomes = tuple(outcomes)
        players = player_names(n, players)
        columns = _outcome_columns(n, outcomes, consequence, players)

        def assess(a, j):
            a, j = np.broadcast_arrays(a, j)
            pairs = zip(a.ravel().tolist(), j.ravel().tolist())
            values = [float(utility(PlayerSet(m), outcomes[k])) if m else 0.0 for m, k in pairs]
            return np.array(values, dtype=float).reshape(a.shape)

        return cls(n, outcomes, players, columns, assess)

    @classmethod
    def additive(cls, n: int, outcomes, columns, values, players=None) -> STGame:
        """Additive game: u_A(o_j) is the sum of ``values[i, j]`` over the members i of A,
        where o_j is ``outcomes[j]`` and ``columns[S]`` is the position of V(S). A sum past
        the float range raises ``NumericOverflowError`` naming its assessor and outcome."""
        values = np.array(values, dtype=float)
        outcomes, players = tuple(outcomes), player_names(n, players)

        def refuse(a: int, j: int):
            raise NumericOverflowError(f"the utility of {subset_label(a, players)} at outcome "
                                       f"{outcomes[j]!r} is past the float range")

        def assess(a, j):
            if isinstance(a, int):  # one read: a loop over A's members beats n array passes
                total = sum(values.item(i, j) for i in range(n) if a >> i & 1)
                if math.isinf(total):
                    refuse(a, j)
                return total
            with np.errstate(over="ignore"):  # refused below
                total = member_sum(n, a, lambda i, sel: values[i, j[sel]])
            past = np.isinf(total)
            if past.any():
                k = int(np.argmax(past))
                refuse(int(a.flat[k]), int(j.flat[k]))
            return total

        return cls(n, outcomes, players, columns, assess)

    @property
    def utility_table(self) -> Mapping[tuple[int, Outcome], float] | None:
        """Read-only (assessor mask, outcome) -> value map of a tabulated game's
        entries, built on each access; ``None`` for other games."""
        if self._table is None:
            return None
        rows, cols = np.nonzero(~np.isnan(self._table[1:]))
        values = self._table[rows + 1, cols].tolist()
        keys = zip((rows + 1).tolist(), (self.outcomes[j] for j in cols.tolist()))
        return MappingProxyType(dict(zip(keys, values)))

    @property
    def consequence_table(self) -> Mapping[int, Outcome] | None:
        """Read-only coalition mask -> outcome map of a tabulated game, built on
        each access; ``None`` for other games."""
        if self._table is None:
            return None
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
        where a tabulated game has no entry."""
        return self._assess(*np.broadcast_arrays(a_masks, self._columns[s_masks]))

    @cached_property
    def _position(self) -> dict:
        return {outcome: j for j, outcome in enumerate(self.outcomes)}

    # scalar accessors for the per-pair functions
    def _v(self, mask: int) -> Outcome:
        return NULL_OUTCOME if mask == 0 else self.outcomes[self._columns.item(mask)]

    def _u(self, mask: int, outcome: Outcome) -> float:
        if mask == 0:
            return 0.0
        j = self._position.get(outcome)  # None: not an outcome of this game
        value = math.nan if j is None else float(self._assess(int(mask), j))
        if value != value:  # NaN: no entry
            raise MissingUtilityError(subset_label(mask, self.players), outcome)
        return value


def _index_array(name: str, values) -> np.ndarray:
    """``values`` as an index array, refused unless they are integers (or there are none)."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
    return values.astype(np.intp, copy=False)


def _require_within(name: str, values, low: int, high: int) -> np.ndarray:
    """``values`` as an index array, refused unless every entry is an integer in [low, high)."""
    values = _index_array(name, values)
    outside = (values < low) | (values >= high)
    if outside.any():
        raise ValueError(f"{name} holds {values[outside][0]}, outside [{low}, {high})")
    return values


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


class Quadrant(enum.Enum):
    """Region of cooperation space, with explicit axis and origin tags."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    AXIS_A = "axis-a"  # on the altruism axis: c within tolerance of 0
    AXIS_C = "axis-c"  # on the competitive axis: a within tolerance of 0
    ORIGIN = "origin"


@dataclass(frozen=True)
class CoopPoint:
    """One subset's coordinates in cooperation space (vs. the rest of the team)."""

    altruism: float
    competitive: float
    marginal: float
    subset: PlayerSet


# quadrant of a point by the side of each coordinate: 0 below the band, 1 inside, 2 above
_QUADRANT_GRID = np.array([[Quadrant[name].value for name in row.split()] for row in (
    "III AXIS_A II", "AXIS_C ORIGIN AXIS_C", "IV AXIS_A I")], dtype=object)


def quadrant_labels(altruism, competitive, tol: float = DEFAULT_TOL, *, closed: bool = False):
    """The ``Quadrant`` value of each point (altruism[i], competitive[i]): an object array of
    labels, or one label for a pair of numbers.

    Open mode (default) keeps a symmetric band |x| <= tol around each axis
    and tags points inside it as axis or origin points. Closed mode absorbs
    the band into the nonnegative side, so quadrant I means a >= -tol and
    c >= -tol; this matches predicates stated with >= 0. A NaN coordinate
    fails both comparisons and lands on the negative side.
    """
    check_tol(tol)

    def side(x):
        x = np.asarray(x, dtype=float)
        if closed:
            return np.where(x >= -tol, 2, 0)
        return np.where(np.abs(x) <= tol, 1, np.where(x > 0, 2, 0))

    return _QUADRANT_GRID[side(altruism), side(competitive)]


def classify_quadrant(point: CoopPoint, tol: float = DEFAULT_TOL, *, closed: bool = False) -> Quadrant:
    """Which quadrant a cooperation-space point occupies (see ``quadrant_labels``)."""
    return quadrant_of(point.altruism, point.competitive, tol, closed=closed)


def quadrant_of(a: float, c: float, tol: float = DEFAULT_TOL, *, closed: bool = False) -> Quadrant:
    """The quadrant of the point with altruism ``a`` and competitive part ``c``."""
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


def all_coop_points(g: STGame, *, include_grand: bool = True) -> list[CoopPoint]:
    """One point per nonempty subset, ascending mask order.

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
    return [
        CoopPoint(altruism=alt, competitive=c, marginal=m, subset=PlayerSet(mask))
        for mask, alt, c, m in zip(
            subsets.tolist(), altruism.tolist(), competitive.tolist(), marginal.tolist()
        )
    ]


def closure_table(g: STGame, k: int) -> np.ndarray | None:
    """A tabulated game's table when lattice closures over k of its players decide a pair
    predicate faster than a pair scan, else None: they pass k * 2^k * |outcomes| cells
    against the scan's 3^k pairs. A scan past the pair-scan limit is refused either way."""
    check_pair_scan(k)
    if g._table is not None and k * len(g.outcomes) << k < CELLS_PER_PAIR * 3**k:
        return g._table
    return None


def _own_values(g: STGame, table: np.ndarray) -> np.ndarray:
    """u_S(V(S)) for every coalition mask S of a tabulated game."""
    return table[np.arange(1 << g.n), g._columns]


def _bystander_gap(g: STGame, table: np.ndarray, fold, empty: float) -> np.ndarray:
    """u_T(V(T)) minus ``fold`` (np.fmin or np.fmax) of u_B(V(T)) over the assessors B inside
    T, for every coalition T of a tabulated game; the empty assessor values at ``empty``, and
    NaN leaves it out. fl(x - y) is monotone in y, so the least or most u_B(V(T)) decides T."""
    values = table.copy()
    values[0] = empty
    with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
        return _own_values(g, table) - _own_values(g, subset_closure(values, fold))


def is_sensible(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    """No subset's participation is valued below the bystanders' assessment.

    Quantifies c_A(A|B) >= 0 over all disjoint nonempty pairs and over the
    B-empty case (self-assessments nonnegative).
    """
    check_tol(tol)
    table = closure_table(g, g.n)
    if table is not None:
        # T's gap to the most any B inside T, the empty one at 0, values V(T); B = T adds
        # u_T - u_T, never below -tol
        return not np.any(_bystander_gap(g, table, np.fmax, 0.0) < -tol)

    def loses(a, b):  # A|B values its outcome below B's assessment of it
        union = a | b
        with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
            return (g.u(union, union) - g.u(b, union) < -tol,)

    return first_pair(g.n, loses) is None


def is_cohesive(g: STGame, s: PlayerSet, tol: float = DEFAULT_TOL) -> bool:
    """No part of coalition S loses, by its own assessment, from another part joining."""
    check_tol(tol)
    if not s:
        raise ValueError("coalition must be nonempty")
    if not s.fits(g.n):
        raise ValueError(f"{s} is not a coalition of a {g.n}-player team")
    table = closure_table(g, len(s))  # refuses a scan past the limit before any 2^|S| array
    masks = subset_sums(np.left_shift(1, s.members()))  # S's own lattice: b names masks[b]
    if table is not None:
        # B loses when it values below V(B) an outcome that a coalition above it produces;
        # the coalition B itself adds u_B(V(B)) - u_B(V(B)), never below -tol
        columns = g._columns[masks]
        rows = table if len(s) == g.n else table[masks]
        with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
            loses = rows - rows[np.arange(len(masks)), columns][:, None] < -tol
        return first_nested_cell(loses, columns) is None

    def loses(a, b):  # B values A joining below its own outcome
        with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
            return (g.u(masks[b], masks[a | b]) - g.u(masks[b], masks[b]) < -tol,)

    return first_pair(len(s), loses, nonempty=True) is None


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
    value). Raises :class:`NotReducibleError` with the witnessing pair
    otherwise, or ``NumericOverflowError`` when its contribution is past the
    float range.
    """
    from .tu import TUGame

    check_tol(tol)

    def competes(a, b):
        union = a | b
        with np.errstate(over="ignore"):  # an infinite contribution is reported below
            c = g.u(union, union) - g.u(b, union)
        return np.abs(c) > tol, c

    table = closure_table(g, g.n)
    witness = None
    if table is None or _competition_in(g, table, tol):
        witness = first_pair(g.n, competes, nonempty=True)
    if witness is not None:
        a, b, c = witness
        pair_value(c, "competitive contribution", a, b, g.players)  # raises when infinite
        raise NotReducibleError(PlayerSet(a), PlayerSet(b), c)
    masks = np.arange(1 << g.n, dtype=np.int64)
    return TUGame(g.n, g.u(masks, masks), g.players)


def _competition_in(g: STGame, table: np.ndarray, tol: float) -> bool:
    """Whether some nonempty B inside a coalition T values V(T) more than ``tol`` off u_T:
    the least and the most such u_B(V(T)) decide T. The empty assessor is left out; B = T
    adds u_T - u_T, never more than tol off."""
    return any(np.any(np.abs(_bystander_gap(g, table, fold, np.nan)) > tol)
               for fold in (np.fmin, np.fmax))
