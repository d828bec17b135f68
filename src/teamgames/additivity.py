"""Additive, co-additive, and bi-additive structure in team games.

A subset utility is additive when it splits over the assessing subset,
co-additive when it splits over the coalition members, and bi-additive when
both hold, in which case the whole game collapses to an n-by-n matrix of
pairwise perceptions M[a][b] = u_a(V({b})). Structured games admit fast
closed forms for the cooperation metrics and per-player stability
conditions, and can be drawn as a weighted digraph.

All identities are checked only on pairs with the assessor inside the
coalition; values u_A(S) with A not in S are unconstrained by structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericOverflowError, StructureError
from .limits import DEFAULT_TOL, _left_sum, check_tol
from .players import (
    PlayerSet, check_pair_scan, first_pair, member_sum, player_names,
    require_disjoint, require_fit, subset_closure, subset_label, subset_sums,
)
from .st import STGame, coalition_outcomes, is_fully_cooperative, is_sensible, pair_value


def _members(n: int) -> np.ndarray:
    """``[S, i]``: whether player i is a member of coalition mask S."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


def _member_terms(g: STGame) -> np.ndarray:
    """``[S, i]`` = u_i(V(S)) for every coalition mask S and member i of S, NaN elsewhere:
    the per-player terms of an additive game, read at member cells only."""
    s, i = np.nonzero(_members(g.n))
    terms = np.full((1 << g.n, g.n), np.nan)
    terms[s, i] = g.u(1 << i, s)
    return terms


def _perceptions(g: STGame) -> np.ndarray:
    """``[A, b]`` = u_A(V({b})) for every assessor mask A and player b: the per-player
    terms of a co-additive game."""
    check_pair_scan(g.n)  # every caller scans pairs: refuse before reading
    return g.u(np.arange(1 << g.n)[:, None], 1 << np.arange(g.n))


def _violation(g: STGame, what: str, a: int, s: int, got: float, want: float):
    """The violation u_A(S) = ``got`` against its expectation ``want``, as (A, S, got,
    expected); a NaN expectation (a missing entry) gives got and expected None, and an
    infinite one (the ``what`` of A at S past the float range) raises
    ``NumericOverflowError``."""
    if math.isinf(want):
        a, s = (subset_label(mask, g.players) for mask in (a, s))
        raise NumericOverflowError(f"the {what} of {a} at coalition {s} is past the float range")
    return (a, s, got, want) if want == want else (a, s, None, None)


def _first_mismatch(g: STGame, what: str, tol: float, terms, by_assessor: bool):
    """First nested pair (assessor A, coalition S) in scan order where u_A(S) is more than
    ``tol`` off its expectation, as ``_violation`` gives it. The expectation sums
    ``terms[S, i]`` over the members i of A (``by_assessor``) or ``terms[A, i]`` over the
    members i of S; a NaN one (a missing entry) counts as off."""
    def off(s, a):
        rows, members = (s, a) if by_assessor else (a, s)
        want = member_sum(g.n, members, lambda i, sel: terms[rows[sel], i])
        got = g.u(a, s)
        return ~np.isfinite(want) | (np.abs(got - want) > tol), got, want

    witness = first_pair(g.n, off, nested=True)
    if witness is None:
        return None
    s, a, got, want = witness
    return _violation(g, what, a, s, got, want)


def _find_additive_violation(g: STGame, tol: float):
    """First violation of u_A(S) = sum over members a of u_a(S)."""
    # the expectation depends on A and V(S) only: each block's singleton rows summed over A,
    # compared wherever a coalition containing A produces the outcome; ascending rank in a
    # frame is ascending player, so the sums add in the scan's order
    off = np.empty(len(g._blocks.cells), dtype=bool)
    for _, cells, flags in g._blocks.groups(g._blocks.cells, off):
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite sum is off
            sums = subset_sums(cells[1 << np.arange(len(cells).bit_length() - 1)])
            np.logical_not(np.isfinite(sums), out=flags)
            flags |= np.abs(np.subtract(cells, sums, out=sums), out=sums) > tol
    first = g._blocks.first_nested(off, g._columns)
    if first is None:
        return None
    # the flagged pair alone, its member terms added as `member_sum` adds them (not `np.sum`,
    # which adds pairwise)
    s, a = first
    singles = 1 << np.arange(g.n, dtype=np.int64)
    want = _left_sum(g.u(singles[singles & a != 0], s).tolist())
    return _violation(g, "additive expectation", a, s, float(g.u(a, s)), want)


def _find_coadditive_violation(g: STGame, tol: float):
    """First violation of u_A(S) = sum over members b of u_A(V({b})). A tabulated game
    that lacks a needed singleton assessment reports the missing entry."""
    return _first_mismatch(g, "co-additive expectation", tol, _perceptions(g), False)


def is_additive(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    check_tol(tol)
    return _find_additive_violation(g, tol) is None


def is_coadditive(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    check_tol(tol)
    return _find_coadditive_violation(g, tol) is None


def is_biadditive(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    """Additive, co-additive, and reproduced within ``tol`` by its perception matrix.

    Each detector allows ``tol`` per entry, so a game can pass both while the
    matrix misses an entry by up to their sum; ``extract_matrix`` refuses it.
    Past ``MAX_PAIR_SCAN`` players any game is refused up front (pair scans).
    """
    check_tol(tol)
    check_pair_scan(g.n)
    if not (is_additive(g, tol) and is_coadditive(g, tol)):
        return False
    try:
        extract_matrix(g, tol)
    except StructureError:
        return False
    return True


@dataclass(frozen=True)
class BiAdditiveMatrix:
    """Pairwise perception matrix: m[a][b] is assessor a's value of player b's presence."""

    n: int
    m: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.m, dtype=float)
        if mat.shape != (self.n, self.n):
            raise ValueError(f"matrix must be {self.n}x{self.n}, got {mat.shape}")
        bad = ~np.isfinite(mat)
        if bad.any():
            a, b = divmod(int(np.argmax(bad)), self.n)
            raise ValueError(f"matrix entry m[{a}][{b}] must be finite, got {mat[a, b]}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "m", mat)

    def utility(self, assessor: PlayerSet, coalition: PlayerSet) -> float:
        """u_A(S), the sum of m[a][b] over a in A and b in S; a sum past the float range
        raises ``NumericOverflowError``."""
        require_fit(self.n, assessor, coalition)
        total = _left_sum(self.m.item(a, b) for a in assessor for b in coalition)
        if math.isinf(total):
            a, s = (subset_label(x.mask, player_names(self.n)) for x in (assessor, coalition))
            raise NumericOverflowError(f"the utility of {a} at coalition {s} is past the "
                                       "float range")
        return total

    def to_game(self, players=None) -> STGame:
        """The bi-additive team game this matrix determines.

        Outcomes are the coalition masks themselves (the consequence map is
        the identity), and u_A(S) sums m[a]'s row sum over S for a in A, on the
        frames of ``STGame._tabulate``. A row sum past the float range, the
        utility u_a(S), raises ``NumericOverflowError``, as does a stored u_A(S).
        """
        outcomes, columns = coalition_outcomes(self.n)
        with np.errstate(over="ignore"):  # refused below
            sums = subset_sums(self.m.T)
        if np.isinf(sums).any():
            s, a = divmod(int(np.argmax(np.isinf(sums))), self.n)
            names = player_names(self.n, players)
            raise NumericOverflowError(f"the utility of {{{names[a]}}} at coalition "
                                       f"{subset_label(s, names)} is past the float range")
        return STGame.additive(self.n, outcomes, columns, sums[1:].T, players)


class FastMetrics(NamedTuple):
    altruism: float
    competitive: float
    marginal: float


def extract_matrix(g: STGame, tol: float = DEFAULT_TOL) -> BiAdditiveMatrix:
    """Read the perception matrix off a bi-additive game's singleton assessments.

    Every u_a(V({b})) entry must exist, and the reconstruction
    u_A(S) = sum over a in A, b in S of m[a][b] must match the game on all
    nested (assessor, coalition) pairs; otherwise a StructureError carries
    the first witness.
    """
    check_tol(tol)
    check_pair_scan(g.n)  # before the 2^n row sums are built
    n = g.n
    singles = 1 << np.arange(n, dtype=np.int64)
    mat = g.u(singles[:, None], singles[None, :])
    missing = np.isnan(mat)
    if missing.any():
        a, b = divmod(int(np.argmax(missing)), n)
        raise StructureError(
            f"singleton assessment u_{g.players[a]}(V({{{g.players[b]}}})) is missing; "
            "cannot extract a perception matrix",
            witness=(1 << a, 1 << b, None, None),
        )
    with np.errstate(over="ignore"):  # an infinite row sum of a is the expectation of {a}
        row_sums = subset_sums(mat.T)  # row_sums[S, a]: a's perceptions summed over S
    witness = _first_mismatch(g, "matrix reconstruction", tol, row_sums, True)
    if witness is not None:
        a_mask, s_mask, got, expected = witness
        raise StructureError(
            f"game is not bi-additive: u at assessor mask {a_mask}, coalition mask "
            f"{s_mask} is {got}, matrix reconstruction gives {expected}",
            witness=witness,
        )
    return BiAdditiveMatrix(n, mat)


def _metrics(altruism: float, competitive: float, a: PlayerSet, b: PlayerSet,
             players) -> FastMetrics:
    """The metrics of A against B; one past the float range raises ``NumericOverflowError``."""
    marginal = altruism + competitive
    for what, value in (("altruism", altruism), ("competitive contribution", competitive),
                        ("total marginal", marginal)):
        pair_value(value, what, a.mask, b.mask, players)
    return FastMetrics(altruism, competitive, marginal)


def fast_metrics(matrix: BiAdditiveMatrix, a: PlayerSet, b: PlayerSet) -> FastMetrics:
    """Closed-form cooperation metrics for a bi-additive game.

    The competitive part is everything A perceives in the joint coalition;
    the altruistic part is everything B perceives in A. A metric past the
    float range raises ``NumericOverflowError``, as in the two functions below.
    """
    require_disjoint(a, b)
    require_fit(matrix.n, a, b)
    item = matrix.m.item
    union = list(a) + list(b)
    competitive = _left_sum(item(x, y) for x in a for y in union)
    altruism = _left_sum(item(x, y) for x in b for y in a)
    return _metrics(altruism, competitive, a, b, player_names(matrix.n))


def additive_metrics(g: STGame, a: PlayerSet, b: PlayerSet) -> FastMetrics:
    """Cooperation metrics of an additive game from singleton assessments only.

    Competitive: the members of A's own stakes in the joint outcome.
    Altruistic: each bystander's gain between the joint and stand-alone
    outcomes. Assumes additivity; no structure check is repeated here.
    """
    require_disjoint(a, b)
    require_fit(g.n, a, b)
    x_union = g._v(a.mask | b.mask)
    competitive = _left_sum(g._u(1 << p, x_union) for p in a)
    x_b = g._v(b.mask)
    altruism = _left_sum(g._u(1 << p, x_union) - g._u(1 << p, x_b) for p in b)
    return _metrics(altruism, competitive, a, b, g.players)


def coadditive_metrics(g: STGame, a: PlayerSet, b: PlayerSet) -> FastMetrics:
    """Cooperation metrics of a co-additive game from per-member assessments.

    Altruistic: B's perception of A's members. Competitive: the assessment
    shift from B to the joint coalition summed over all members present.
    Assumes co-additivity.
    """
    require_disjoint(a, b)
    require_fit(g.n, a, b)
    union = a | b
    altruism = _left_sum(g._u(b.mask, g._v(1 << p)) for p in a)
    competitive = _left_sum(g._u(union.mask, g._v(1 << p)) - g._u(b.mask, g._v(1 << p))
                            for p in union)
    return _metrics(altruism, competitive, a, b, g.players)


@dataclass(frozen=True)
class AdditiveReport:
    """Per-player stability analysis of an additive game.

    ``sensible`` and ``fully_cooperative`` are exact (they equal the generic
    predicates). ``individual_values_nonneg`` restates sensibility through
    each member's own stake; ``individual_gains_nonneg`` asks that no single
    bystander lose from any join, which forces cohesion but can fail in
    games whose bystander groups only gain in aggregate.
    """

    sensible: bool
    fully_cooperative: bool
    individual_values_nonneg: bool
    individual_gains_nonneg: bool


def additive_predicates(g: STGame, tol: float = DEFAULT_TOL) -> AdditiveReport:
    """The report of an additive game, else ``StructureError`` with the detector's witness;
    refused past ``MAX_PAIR_SCAN`` players, before its n x 2^n tables of member terms."""
    check_tol(tol)
    check_pair_scan(g.n)
    violation = _find_additive_violation(g, tol)
    if violation is not None:
        raise StructureError("game is not additive", witness=violation)
    terms = _member_terms(g)
    values_ok = not np.any(terms < -tol)
    # p's least term over the supersets of B; fl(x - y) is monotone in x, so it decides B
    lowest = subset_closure(terms[::-1].copy(), np.fmin)[::-1]
    with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
        gains_ok = not np.any(lowest - terms < -tol)
    return AdditiveReport(values_ok, is_fully_cooperative(g, tol), values_ok, gains_ok)


@dataclass(frozen=True)
class CoadditiveReport:
    """Per-player stability analysis of a co-additive game.

    ``fully_cooperative`` and ``sensible`` are exact. A co-additive game is
    cohesive exactly when every subset values every outside player's
    presence nonnegatively (``perceptions_of_outsiders_nonneg``);
    ``assessments_monotone`` asks each per-member valuation to grow with the
    assessing subset, which forces sensibility but is not implied by it.
    """

    sensible: bool
    fully_cooperative: bool
    perceptions_of_outsiders_nonneg: bool
    assessments_monotone: bool


def coadditive_predicates(g: STGame, tol: float = DEFAULT_TOL) -> CoadditiveReport:
    check_tol(tol)
    perceptions = _perceptions(g)
    violation = _first_mismatch(g, "co-additive expectation", tol, perceptions, False)
    if violation is not None:
        raise StructureError("game is not co-additive", witness=violation)
    member = _members(g.n)
    outsiders_ok = not np.any(perceptions[~member] < -tol)
    # the most a submask of T values p; fl(x - y) is monotone in y, so it decides T
    highest = subset_closure(perceptions.copy(), np.fmax)
    with np.errstate(over="ignore"):  # an overflowing difference keeps its sign
        monotone = not np.any((perceptions - highest)[member] < -tol)
    return CoadditiveReport(is_sensible(g, tol), outsiders_ok, outsiders_ok, monotone)


@dataclass(frozen=True)
class PerceptionGraph:
    """Weighted digraph form of a bi-additive game.

    The edge x -> y carries m[y][x]: the value x provides as perceived by y.
    Altruism of a subset A (against its complement) is then the total weight
    leaving A, and its competitive contribution is the total weight
    terminating in A.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def out_weight(self, a: PlayerSet) -> float:
        return _left_sum(w for src, dst, w in self.edges if src in a and dst not in a)

    def in_weight(self, a: PlayerSet) -> float:
        return _left_sum(w for _, dst, w in self.edges if dst in a)

    def to_lines(self) -> list[str]:
        """Edge-list serialization: one ``src dst weight`` line per edge."""
        return [f"{src} {dst} {w!r}" for src, dst, w in self.edges]


def export_graph(matrix: BiAdditiveMatrix) -> PerceptionGraph:
    """All n^2 perception edges (self-loops included), ascending (src, dst)."""
    edges = tuple(
        (src, dst, float(matrix.m[dst][src]))
        for src in range(matrix.n)
        for dst in range(matrix.n)
    )
    return PerceptionGraph(matrix.n, edges)
