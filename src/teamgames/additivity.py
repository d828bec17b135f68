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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StructureError
from .limits import DEFAULT_TOL
from .players import (
    PlayerSet, check_pair_scan, first_pair, mask_sizes, member_sum, require_disjoint,
)
from .st import STGame, coalition_outcomes, is_fully_cooperative, is_sensible

ROW_BLOCK = 1 << 10  # coalitions per gathered block of row sums


def _first_mismatch(g: STGame, expected, tol: float):
    """First nested pair (assessor A, coalition S) in scan order where u_A(S) is more than
    ``tol`` off ``expected(s, a)``, as (A, S, got, expected); a NaN expectation (a missing
    entry) counts as off and is reported with got and expected None."""
    def off(s, a):
        want = expected(s, a)
        got = g.u(a, s)
        return np.isnan(want) | (np.abs(got - want) > tol), got, want

    witness = first_pair((1 << g.n) - 1, off, nested=True, nonempty=True)
    if witness is None:
        return None
    s, a, got, want = witness
    return (a, s, got, want) if want == want else (a, s, None, None)


def _find_additive_violation(g: STGame, tol: float):
    """First violation of u_A(S) = sum over members a of u_a(S)."""
    def expected(s, a):
        # u_i(V(S)) once per member i of each coalition in the chunk's range
        lo = int(s[0])
        span = np.arange(lo, int(s[-1]) + 1, dtype=np.int64)
        singles = np.zeros((len(span), g.n))
        for i in range(g.n):
            has = (span >> i) & 1 == 1
            singles[has, i] = g.u(1 << i, span[has])
        return member_sum(g.n, a, lambda i, sel: singles[s[sel] - lo, i])

    return _first_mismatch(g, expected, tol)


def _find_coadditive_violation(g: STGame, tol: float):
    """First violation of u_A(S) = sum over members b of u_A(V({b})).

    A tabulated game that lacks a needed singleton assessment cannot satisfy
    the identity as a total function; the missing entry is reported as the
    violation.
    """
    return _first_mismatch(
        g, lambda s, a: member_sum(g.n, s, lambda i, sel: g.u(a[sel], 1 << i)), tol
    )


def is_additive(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    return _find_additive_violation(g, tol) is None


def is_coadditive(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    return _find_coadditive_violation(g, tol) is None


def is_biadditive(g: STGame, tol: float = DEFAULT_TOL) -> bool:
    """Additive, co-additive, and reproduced within ``tol`` by its perception matrix.

    Each detector allows ``tol`` per entry, so a game can pass both while the
    matrix misses an entry by up to their sum; ``extract_matrix`` refuses it.
    """
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
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "m", mat)

    def utility(self, assessor: PlayerSet, coalition: PlayerSet) -> float:
        return float(sum(self.m[a][b] for a in assessor for b in coalition))

    def to_game(self, players=None) -> STGame:
        """The bi-additive team game this matrix determines.

        Outcomes are the coalition masks themselves (the consequence map is
        the identity), so u_A(S), the sum over a in A of m[a]'s row sum over
        S, is defined for every subset and every coalition.
        """
        outcomes, columns = coalition_outcomes(self.n)
        return STGame.additive(self.n, outcomes, columns, _row_sums(self.m)[1:].T, players)


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
    row_sums = _row_sums(mat)
    witness = _first_mismatch(
        g, lambda s, a: member_sum(n, a, lambda i, sel: row_sums[s[sel], i]), tol
    )
    if witness is not None:
        a_mask, s_mask, got, expected = witness
        raise StructureError(
            f"game is not bi-additive: u at assessor mask {a_mask}, coalition mask "
            f"{s_mask} is {got}, matrix reconstruction gives {expected}",
            witness=witness,
        )
    return BiAdditiveMatrix(n, mat)


def _row_sums(mat: np.ndarray) -> np.ndarray:
    """Row sums of ``mat`` over each coalition's columns, one row per coalition mask.

    Coalitions of equal size are summed together, up to ``ROW_BLOCK`` at a
    time so the gathered block stays small, each along a contiguous last
    axis exactly as ``mat[:, members].sum(axis=1)`` sums one, so the
    reconstruction (and the value a witness reports) matches a
    per-coalition computation to the last bit.
    """
    n = len(mat)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = mask_sizes(n)
    sums = np.zeros((1 << n, n))
    for size in range(1, n + 1):
        group = masks[sizes == size]
        for block in np.split(group, range(ROW_BLOCK, len(group), ROW_BLOCK)):
            members = np.nonzero((block[:, None] >> np.arange(n)) & 1)[1].reshape(-1, size)
            sums[block] = mat[:, members].sum(axis=2).T
    return sums


def fast_metrics(matrix: BiAdditiveMatrix, a: PlayerSet, b: PlayerSet) -> FastMetrics:
    """Closed-form cooperation metrics for a bi-additive game.

    The competitive part is everything A perceives in the joint coalition;
    the altruistic part is everything B perceives in A.
    """
    require_disjoint(a, b)
    mat = matrix.m
    union = list(a) + list(b)
    competitive = float(sum(mat[x][y] for x in a for y in union))
    altruism = float(sum(mat[x][y] for x in b for y in a))
    return FastMetrics(altruism, competitive, altruism + competitive)


def additive_metrics(g: STGame, a: PlayerSet, b: PlayerSet) -> FastMetrics:
    """Cooperation metrics of an additive game from singleton assessments only.

    Competitive: the members of A's own stakes in the joint outcome.
    Altruistic: each bystander's gain between the joint and stand-alone
    outcomes. Assumes additivity; no structure check is repeated here.
    """
    require_disjoint(a, b)
    x_union = g._v(a.mask | b.mask)
    competitive = float(sum(g._u(1 << p, x_union) for p in a))
    x_b = g._v(b.mask)
    altruism = float(sum(g._u(1 << p, x_union) - g._u(1 << p, x_b) for p in b))
    return FastMetrics(altruism, competitive, altruism + competitive)


def coadditive_metrics(g: STGame, a: PlayerSet, b: PlayerSet) -> FastMetrics:
    """Cooperation metrics of a co-additive game from per-member assessments.

    Altruistic: B's perception of A's members. Competitive: the assessment
    shift from B to the joint coalition summed over all members present.
    Assumes co-additivity.
    """
    require_disjoint(a, b)
    union = a | b
    altruism = float(sum(g._u(b.mask, g._v(1 << p)) for p in a))
    competitive = float(
        sum(
            g._u(union.mask, g._v(1 << p)) - g._u(b.mask, g._v(1 << p))
            for p in union
        )
    )
    return FastMetrics(altruism, competitive, altruism + competitive)


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
    violation = _find_additive_violation(g, tol)
    if violation is not None:
        raise StructureError("game is not additive", witness=violation)
    n = g.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    values_ok = not any(
        np.any(g.u(1 << p, masks[(masks >> p) & 1 == 1]) < -tol) for p in range(n)
    )

    def loses(a, b):  # some bystander p in B values A joining below B's own outcome
        bad = np.zeros(len(a), dtype=bool)
        for p in range(n):
            sel = (b >> p) & 1 == 1
            bad[sel] |= g.u(1 << p, a[sel] | b[sel]) - g.u(1 << p, b[sel]) < -tol
        return (bad,)

    return AdditiveReport(
        sensible=values_ok,
        fully_cooperative=is_fully_cooperative(g, tol),
        individual_values_nonneg=values_ok,
        individual_gains_nonneg=first_pair((1 << n) - 1, loses, nonempty=True) is None,
    )


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
    violation = _find_coadditive_violation(g, tol)
    if violation is not None:
        raise StructureError("game is not co-additive", witness=violation)
    n = g.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    outsiders_ok = not any(
        np.any(g.u(masks[(masks >> p) & 1 == 0], 1 << p) < -tol) for p in range(n)
    )

    def drops(a, b):  # A|B values some member p's presence below B's valuation of it
        union = a | b
        bad = np.zeros(len(a), dtype=bool)
        for p in range(n):
            sel = (union >> p) & 1 == 1
            bad[sel] |= g.u(union[sel], 1 << p) - g.u(b[sel], 1 << p) < -tol
        return (bad,)

    return CoadditiveReport(
        sensible=is_sensible(g, tol),
        fully_cooperative=outsiders_ok,
        perceptions_of_outsiders_nonneg=outsiders_ok,
        assessments_monotone=first_pair((1 << n) - 1, drops) is None,
    )


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
        return float(sum(w for src, dst, w in self.edges if src in a and dst not in a))

    def in_weight(self, a: PlayerSet) -> float:
        return float(sum(w for _, dst, w in self.edges if dst in a))

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
