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
from types import MappingProxyType
from typing import Callable, Hashable, Mapping

import numpy as np

from .errors import (
    DisjointnessError,
    MissingUtilityError,
    NotReducibleError,
    SizeLimitError,
)
from .players import PlayerSet, mask_pairs
from .tu import DEFAULT_TOL, TUGame

Outcome = Hashable
NULL_OUTCOME: Outcome = None

MAX_PAIR_SCAN = 16  # predicates walk ~3^n disjoint pairs
MAX_POINTS = 20     # cooperation-space point tables
MAX_TABLE_CELLS = 1 << 25  # assessor x outcome cells of a tabulated game (256 MiB)


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


@dataclass(frozen=True, eq=False)
class STGame:
    """Team game with per-subset outcome assessments.

    A tabulated game is two arrays: ``_columns[S]``, the position in
    ``outcomes`` of V(S) for every coalition mask, and ``_table[A, j]``,
    assessor A's value of outcome j, NaN where no entry was given (row 0,
    the empty assessor, is all 0). A functional game holds callables over
    masks instead and is evaluated lazily. Every kernel reads both kinds
    through :meth:`u`.
    """

    n: int
    outcomes: tuple
    players: tuple[str, ...]
    _consequence: Callable[[int], Outcome] | None = None
    _utility: Callable[[int, Outcome], float] | None = None
    _columns: np.ndarray | None = None
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
        players = tuple(players) if players is not None else _default_names(n)
        if len(players) != n:
            raise ValueError("player name list must match the player count")
        column_of = {outcome: j for j, outcome in enumerate(outcomes)}
        columns = [0]
        for mask in range(1, 1 << n):
            if mask not in consequence:
                raise ValueError(
                    f"consequence map is missing coalition {_subset_label(mask, players)}"
                )
            if consequence[mask] not in column_of:
                raise ValueError(
                    f"consequence of {_subset_label(mask, players)} is an undeclared outcome "
                    f"{consequence[mask]!r}"
                )
            columns.append(column_of[consequence[mask]])
        assessors, positions, values = [], [], []
        for (a_mask, outcome), value in utilities.items():
            if not 0 < a_mask < 1 << n:
                raise ValueError(f"utility entry has invalid assessor mask {a_mask}")
            if outcome not in column_of:
                raise ValueError(f"utility entry references undeclared outcome {outcome!r}")
            value = float(value)
            if math.isnan(value):
                raise ValueError(
                    f"utility of assessor {_subset_label(a_mask, players)} at outcome "
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

        The shared builder of :meth:`from_tables` and the document loader.
        ``columns[S]`` is the position in ``outcomes`` of V(S) for every
        coalition mask S (entry 0 is ignored); entry k values outcome
        ``positions[k]`` at ``values[k]`` for assessor mask ``assessors[k]``,
        and no (assessor, position) pair comes twice. Refuses a table of
        more than ``MAX_TABLE_CELLS`` cells before allocating it, then walks
        the nested (coalition, assessor) pairs in ascending order and names
        the first missing assessment.
        """
        cells = (1 << n) * len(outcomes)
        if cells > MAX_TABLE_CELLS:
            raise SizeLimitError(
                f"{n} players and {len(outcomes)} outcomes need {cells} table cells, "
                f"over the limit of {MAX_TABLE_CELLS}"
            )
        columns = np.array(columns, dtype=np.intp)
        columns[0] = 0
        table = np.full((1 << n, len(outcomes)), np.nan)
        table[0] = 0.0
        table[np.asarray(assessors, dtype=np.intp), np.asarray(positions, dtype=np.intp)] = values
        columns.flags.writeable = False
        table.flags.writeable = False
        game = cls(n, outcomes, players, _columns=columns, _table=table)
        for s, a in mask_pairs((1 << n) - 1, nested=True, nonempty=True):
            missing = np.isnan(game.u(a, s))
            if missing.any():
                k = int(np.argmax(missing))
                raise ValueError(
                    f"missing utility: assessor {_subset_label(int(a[k]), players)} "
                    f"at outcome {game._v(int(s[k]))!r} (reachable via coalition "
                    f"{_subset_label(int(s[k]), players)})"
                )
        return game

    @classmethod
    def from_functions(
        cls,
        n: int,
        outcomes,
        consequence: Callable[[PlayerSet], Outcome],
        utility: Callable[[PlayerSet, Outcome], float],
        players=None,
    ) -> STGame:
        """Wrap callables over PlayerSets; no totality check is possible."""
        players = tuple(players) if players is not None else _default_names(n)
        return cls(
            n=n,
            outcomes=tuple(outcomes),
            players=players,
            _consequence=lambda mask: consequence(PlayerSet(mask)),
            _utility=lambda mask, x: float(utility(PlayerSet(mask), x)),
        )

    @property
    def utility_table(self) -> Mapping[tuple[int, Outcome], float] | None:
        """Read-only (assessor mask, outcome) -> value map of a tabulated game's
        entries, built on each access; ``None`` for functional games."""
        if self._table is None:
            return None
        rows, cols = np.nonzero(~np.isnan(self._table[1:]))
        values = self._table[rows + 1, cols].tolist()
        keys = zip((rows + 1).tolist(), (self.outcomes[j] for j in cols.tolist()))
        return MappingProxyType(dict(zip(keys, values)))

    @property
    def consequence_table(self) -> Mapping[int, Outcome] | None:
        """Read-only coalition mask -> outcome map of a tabulated game, built on
        each access; ``None`` for functional games."""
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
        """u_A(V(S)) over (broadcast) arrays of assessor and coalition masks.

        0 where A is empty; NaN where a tabulated game has no entry. A
        functional game calls its callables once per element, so a scan
        that asks chunk by chunk holds one chunk of values at a time.
        """
        if self._table is not None:
            return self._table[a_masks, self._columns[s_masks]]
        a_masks, s_masks = np.broadcast_arrays(a_masks, s_masks)
        values = [
            self._u(a, self._v(s)) for a, s in zip(a_masks.ravel().tolist(), s_masks.ravel().tolist())
        ]
        return np.array(values, dtype=float).reshape(a_masks.shape)

    # scalar accessors for the per-pair functions
    def _v(self, mask: int) -> Outcome:
        if mask == 0:
            return NULL_OUTCOME
        if self._table is None:
            return self._consequence(mask)
        return self.outcomes[self._columns.item(mask)]

    def _u(self, mask: int, outcome: Outcome) -> float:
        if mask == 0:
            return 0.0
        if self._table is None:
            return self._utility(mask, outcome)
        try:
            value = self._table.item(mask, self.outcomes.index(outcome))
        except ValueError:  # not an outcome of this game
            value = math.nan
        if value != value:  # NaN: no entry
            raise MissingUtilityError(_subset_label(mask, self.players), outcome)
        return value


def _subset_label(mask: int, players) -> str:
    return "{" + ",".join(players[i] for i in PlayerSet(mask)) + "}"


def _require_pair(g: STGame, a: PlayerSet, b: PlayerSet) -> None:
    if not a.isdisjoint(b):
        raise DisjointnessError(f"{a} and {b} overlap")
    if not a:
        raise ValueError("the contributing subset A must be nonempty")
    if not (a | b).fits(g.n):
        raise ValueError(f"{a} and {b} do not fit a {g.n}-player team")


def total_marginal(g: STGame, a: PlayerSet, b: PlayerSet) -> float:
    """m_A(A|B): joint worth to the joint coalition minus B's worth to itself."""
    _require_pair(g, a, b)
    union = a.mask | b.mask
    return g._u(union, g._v(union)) - g._u(b.mask, g._v(b.mask))


def competitive_contribution(g: STGame, a: PlayerSet, b: PlayerSet) -> float:
    """c_A(A|B): how much more the joint coalition values its own outcome than B does."""
    _require_pair(g, a, b)
    union = a.mask | b.mask
    x = g._v(union)
    return g._u(union, x) - g._u(b.mask, x)


def altruistic_contribution(g: STGame, a: PlayerSet, b: PlayerSet) -> float:
    """a_A(A|B): how much B gains, by its own lights, from A's participation."""
    _require_pair(g, a, b)
    if not b:
        raise ValueError("the bystanding subset B must be nonempty")
    union = a.mask | b.mask
    return g._u(b.mask, g._v(union)) - g._u(b.mask, g._v(b.mask))


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
    """One subset's coordinates in cooperation space (vs. the rest of the team).

    ``subset`` is None for a point of a symmetric group given by its size.
    """

    altruism: float
    competitive: float
    marginal: float
    subset: PlayerSet | None

    def as_pair(self) -> tuple[float, float]:
        return (self.altruism, self.competitive)


def classify_quadrant(point: CoopPoint, tol: float = DEFAULT_TOL, *, closed: bool = False) -> Quadrant:
    """Which quadrant a cooperation-space point occupies.

    Open mode (default) keeps a symmetric tolerance band around the axes and
    reports axis/origin tags for points inside it. Closed mode absorbs the
    band into the nonnegative side, so quadrant I means a >= -tol and
    c >= -tol; this matches predicates stated with >= 0.
    """
    return quadrant_of(point.altruism, point.competitive, tol, closed=closed)


def quadrant_of(a: float, c: float, tol: float = DEFAULT_TOL, *, closed: bool = False) -> Quadrant:
    """The quadrant of the point with altruism ``a`` and competitive part ``c``."""
    if closed:
        if a >= -tol:
            return Quadrant.I if c >= -tol else Quadrant.IV
        return Quadrant.II if c >= -tol else Quadrant.III
    a_sign = 0 if abs(a) <= tol else (1 if a > 0 else -1)
    c_sign = 0 if abs(c) <= tol else (1 if c > 0 else -1)
    if a_sign == 0 and c_sign == 0:
        return Quadrant.ORIGIN
    if a_sign == 0:
        return Quadrant.AXIS_C
    if c_sign == 0:
        return Quadrant.AXIS_A
    if a_sign > 0:
        return Quadrant.I if c_sign > 0 else Quadrant.IV
    return Quadrant.II if c_sign > 0 else Quadrant.III


def coop_point(g: STGame, a: PlayerSet) -> CoopPoint:
    """Cooperation-space point of subset A against the rest of the team.

    For A equal to the whole team the bystander set is empty, so altruism is
    0 by convention and the competitive part carries the full marginal.
    """
    if not a:
        raise ValueError("subset must be nonempty")
    if not a.fits(g.n):
        raise ValueError(f"{a} is not a subset of a {g.n}-player team")
    b = a.complement(g.n)
    c = competitive_contribution(g, a, b)
    if b:
        alt = altruistic_contribution(g, a, b)
    else:
        alt = 0.0
    return CoopPoint(altruism=alt, competitive=c, marginal=alt + c, subset=a)


def all_coop_points(g: STGame, *, include_grand: bool = True) -> list[CoopPoint]:
    """One point per nonempty subset, ascending mask order.

    The grand coalition's point (computed under the empty-bystander
    convention) comes last; drop it with ``include_grand=False``.
    """
    if g.n > MAX_POINTS:
        raise SizeLimitError(f"point tables support n <= {MAX_POINTS}, got {g.n}")
    full = (1 << g.n) - 1
    subsets = np.arange(1, full + include_grand, dtype=np.int64)
    rest = full ^ subsets
    rest_joint = g.u(rest, full)
    competitive = g.u(full, full) - rest_joint
    altruism = np.where(rest != 0, rest_joint - g.u(rest, rest), 0.0)
    marginal = altruism + competitive
    return [
        CoopPoint(altruism=alt, competitive=c, marginal=m, subset=PlayerSet(mask))
        for mask, alt, c, m in zip(
            subsets.tolist(), altruism.tolist(), competitive.tolist(), marginal.tolist()
        )
    ]


def _check_pair_scan(n: int) -> None:
    if n > MAX_PAIR_SCAN:
        raise SizeLimitError(f"disjoint-pair scans support n <= {MAX_PAIR_SCAN}, got {n}")


def is_sensible(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    """No subset's participation is valued below the bystanders' assessment.

    Quantifies c_A(A|B) >= 0 over all disjoint nonempty pairs and over the
    B-empty case (self-assessments nonnegative).
    """
    _check_pair_scan(g.n)
    for a, b in mask_pairs((1 << g.n) - 1):
        union = a | b
        if np.any(g.u(union, union) - g.u(b, union) < -tol):
            return False
    return True


def is_cohesive(g: STGame, s: PlayerSet, tol: float = DEFAULT_TOL) -> bool:
    """No part of coalition S loses, by its own assessment, from another part joining."""
    if not s:
        raise ValueError("coalition must be nonempty")
    if not s.fits(g.n):
        raise ValueError(f"{s} is not a coalition of a {g.n}-player team")
    _check_pair_scan(len(s))
    for a, b in mask_pairs(s.mask, nonempty=True):
        if np.any(g.u(b, a | b) - g.u(b, b) < -tol):
            return False
    return True


def is_fully_cooperative(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    """Every coalition is cohesive.

    Pairs inside any coalition are also pairs inside the whole team, so this
    is equivalent to cohesiveness of the grand coalition.
    """
    _check_pair_scan(g.n)
    return is_cohesive(g, PlayerSet.full(g.n), tol)


def in_st_core(
    n: int,
    outcomes,
    consequence: Mapping[int, Outcome],
    utilities: Mapping[tuple[int, Outcome], float],
    tol: float = DEFAULT_TOL,
    players=None,
) -> bool:
    """Does this utility table make the consequence function fully cooperative?

    Membership predicate for the set of utility functions under which the
    given consequence map supports stable teamwork.
    """
    game = STGame.from_tables(n, outcomes, consequence, utilities, players)
    return is_fully_cooperative(game, tol)


def from_ntu(
    n: int,
    outcomes,
    consequence: Mapping[int, Outcome] | Callable[[PlayerSet], Outcome],
    individual: Mapping[int, Mapping[Outcome, float]],
    players=None,
) -> STGame:
    """Embed per-player utilities as an additive team game: u_A = sum of members' u_a."""
    for p in range(n):
        if p not in individual:
            raise ValueError(f"missing individual utility for player {p}")
    if callable(consequence):
        cons_fn = consequence
    else:
        cons_map = dict(consequence)
        cons_fn = lambda s: cons_map[s.mask]  # noqa: E731

    def utility(a: PlayerSet, outcome) -> float:
        return sum(individual[p][outcome] for p in a)

    return STGame.from_functions(n, outcomes, cons_fn, utility, players)


def reduce_to_tu(g: STGame, tol: float = DEFAULT_TOL) -> TUGame:
    """Collapse a competition-free team game to its TU payoff table.

    Requires every competitive contribution over disjoint nonempty pairs to
    vanish (all participating subsets then agree on each reachable outcome's
    value). Raises :class:`NotReducibleError` with the witnessing pair
    otherwise.
    """
    _check_pair_scan(g.n)
    for a, b in mask_pairs((1 << g.n) - 1, nonempty=True):
        union = a | b
        c = g.u(union, union) - g.u(b, union)
        bad = np.abs(c) > tol
        if bad.any():
            k = int(np.argmax(bad))
            raise NotReducibleError(PlayerSet(int(a[k])), PlayerSet(int(b[k])), float(c[k]))
    masks = np.arange(1 << g.n, dtype=np.int64)
    return TUGame(g.n, g.u(masks, masks), g.players)
