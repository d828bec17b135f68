"""Resource-contribution team game with Cobb-Douglas preferences.

Each player holds a resource pool X_a and contributes x_a of it; the pooled
contribution x_S produces a value f(x_S) that a payoff scheme divides among
the members. A subset assesses an outcome by balancing its payment against
its kept reserve with the Cobb-Douglas aggregate

    u_A(S) = payoff_A(S)^theta * reserve_A^(1-theta).

A payoff scheme is one share gamma paid by contribution, the rest per head
(1 proportional, 0 equal). Every metric pays groups given by their total
contribution, head count and reserve through one evaluator. The module
provides the cooperation metrics of this game, rational (utility-maximizing)
contribution choices, zero altruism contours, and the dense sweep tables
behind all of the above. The parameters and the closed-form team-size
stability bound for power value functions live in the numpy-free
:mod:`teamgames.cobb_params` and are re-exported here.

The searches run on arrays of rows: ``maximize_scalar`` (a coarse scan,
then golden section; Kiefer 1953) and ``altruism_roots`` (a sign scan, then
bisection) take one row per table row. A path or rational table calls
``altruism_roots`` once and ``maximize_scalar`` once per 256 rows, and
every 2-D scan is evaluated over blocks of whole rows, at most ``EVAL_CELLS``
cells each.
Each row keeps the step count its own bracket fixes and is frozen once it
is done, so it does the float operations of a search run on it alone; a
single number is a table of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .cobb_params import FRONTIER_COLUMNS, UNBOUNDED, CobbDouglasConfig  # noqa: F401
from .cobb_params import max_stable_team_size, stable_size_grid  # noqa: F401 - re-exported
from .limits import DEFAULT_TOL, check_tol
from .players import (
    PlayerSet, mask_sizes, player_names, require_disjoint, require_fit, subset_sums,
)

if TYPE_CHECKING:
    from .st import CoopPoint, STGame

# maximize_scalar: intervals of the coarse scan, and the width golden refinement stops at
ARGMAX_SCAN = 256
ARGMAX_XATOL = 1e-6
# altruism_roots: intervals of the sign scan, and the width bisection stops at
ROOT_SCAN = 1024
ROOT_XATOL = 1e-8
# cells (rows x points) of one argmax scan: 256 rows, so that a block of rows written at a time
# (1,024 of them) is searched in whole scans, with no short one left over
SCAN_CELLS = 256 * (ARGMAX_SCAN + 1)
# cells of a scan evaluated at a time, so the objective's temporaries stay near 64 KB each:
# 32 rows of the argmax scan, 8 of the root scan
EVAL_CELLS = 32 * (ARGMAX_SCAN + 1)

# column order of the sweep and path tables and of the rational table
COBB_COLUMNS = ["gamma", "theta", "beta", "sizeA", "sizeB", "xA_avg", "xB_avg", "payoff",
                "utility", "altruism", "competitive", "marginal", "quadrant"]
RATIONAL_COLUMNS = ["gamma", "theta", "beta", "sizeA", "sizeB", "xB_avg", "xA_rational",
                    "zero_altruism_xA"]


@dataclass(frozen=True)
class ContributionProfile:
    """Per-player contributions, each within that player's resource pool."""

    x: tuple[float, ...]
    resources: tuple[float, ...]

    def __post_init__(self):
        x = tuple(float(v) for v in self.x)
        res = tuple(float(v) for v in self.resources)
        if len(x) != len(res):
            raise ValueError("contributions and resources must have equal length")
        for i, (xi, ri) in enumerate(zip(x, res)):
            if not 0.0 <= xi <= ri:
                raise ValueError(f"contribution of player {i} is {xi}, outside [0, {ri}]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "resources", res)

    @classmethod
    def create(cls, x: Iterable[float], resources=None) -> ContributionProfile:
        x = tuple(float(v) for v in x)
        res = tuple(resources) if resources is not None else (1.0,) * len(x)
        return cls(x, res)

    def __len__(self) -> int:
        return len(self.x)

    def total(self, coalition: PlayerSet) -> float:
        return float(sum(self.x[p] for p in coalition))

    def reserve(self, coalition: PlayerSet) -> float:
        return float(sum(self.resources[p] - self.x[p] for p in coalition))

    def replace(self, player: int, value: float) -> ContributionProfile:
        x = list(self.x)
        x[player] = value
        return ContributionProfile(tuple(x), self.resources)


@dataclass(frozen=True)
class PayoffScheme:
    """Share ``mix`` (gamma) of the value paid by contribution, the rest by head: 1 is
    proportional, 0 equal, anything between a hybrid."""

    mix: float

    def __post_init__(self):
        if not 0.0 <= self.mix <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.mix}")
        object.__setattr__(self, "mix", float(self.mix))

    def label(self) -> str:
        if self.mix == 1.0:
            return "proportional"
        if self.mix == 0.0:
            return "equal"
        return f"hybrid({self.mix})"


PROPORTIONAL = PayoffScheme(1.0)
EQUAL = PayoffScheme(0.0)


def hybrid(gamma: float) -> PayoffScheme:
    return PayoffScheme(gamma)


def cd_value(theta: float, y, z):
    """Cobb-Douglas aggregate y^theta z^(1-theta) with the 0^0 = 1 convention.

    Works elementwise on arrays. At theta 0 or 1 the untouched quantity
    drops out even when it is zero, so the endpoints degenerate cleanly to
    pure reserve or pure payoff.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(y < 0) or np.any(z < 0):
        raise ValueError(f"Cobb-Douglas inputs must be nonnegative, got ({y.min()}, {z.min()})")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return (y**theta * z ** (1.0 - theta))[()]


def _group_payoff(scheme: PayoffScheme, cfg: CobbDouglasConfig, x_a, size_a, x_s, size_s):
    """Payment to a group (total x_a, size_a heads) out of a coalition's (x_s, size_s) value.

    Elementwise; a coalition that produced nothing, the empty one among
    them, pays nothing under every scheme.
    """
    x_s = np.asarray(x_s, dtype=float)
    mix = scheme.mix
    produced = x_s > 0.0
    by_heads = size_a / np.where(produced, size_s, 1)
    share = mix * (x_a / np.where(produced, x_s, 1.0)) + (1.0 - mix) * by_heads
    return np.where(produced, share, 0.0)[()] * cfg.value(x_s)


def _group_utility(scheme: PayoffScheme, cfg: CobbDouglasConfig, group, coalition):
    """(payment, utility) of a (total contribution, head count, reserve) group out of the
    value of a (total contribution, head count) coalition; numbers or arrays. Every
    Cobb-Douglas metric reads the game through this function."""
    total, heads, reserve = group
    pay = _group_payoff(scheme, cfg, total, heads, *coalition)
    return pay, cd_value(cfg.theta, pay, reserve)


def _group(profile: ContributionProfile, coalition: PlayerSet) -> tuple[float, int, float]:
    return profile.total(coalition), len(coalition), profile.reserve(coalition)


def payoff(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    profile: ContributionProfile,
    a: PlayerSet,
    s: PlayerSet,
) -> float:
    """Payment to subset A out of coalition S's produced value. Requires A in S."""
    if not a.issubset(s):
        raise ValueError(f"{a} is not a subset of the coalition {s}")
    require_fit(len(profile), a, s)
    return float(_group_payoff(scheme, cfg, profile.total(a), len(a), profile.total(s), len(s)))


def cd_subset_utility(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    profile: ContributionProfile,
    a: PlayerSet,
    s: PlayerSet,
) -> float:
    """u_A(S): the Cobb-Douglas balance of A's payment from S, made to A's members inside
    S, and A's reserve; the empty assessor values everything at 0."""
    require_fit(len(profile), a, s)
    inside = a & s
    group = (profile.total(inside), len(inside), profile.reserve(a))
    return float(_group_utility(scheme, cfg, group, (profile.total(s), len(s)))[1])


def st_game_view(
    scheme: PayoffScheme, cfg: CobbDouglasConfig, profile: ContributionProfile, players=None
) -> STGame:
    """The game as a generic team game, so every cooperation metric applies.

    Outcomes are coalition masks (the consequence map is the identity),
    tabulated at construction on the frames of ``STGame._tabulate``: every
    assessor inside the coalition, and every assessor at a one-player
    coalition, of whom only the members inside get paid.
    """
    from .st import STGame, coalition_outcomes

    n = len(profile)
    outcomes, columns = coalition_outcomes(n)
    total = subset_sums(profile.x)
    reserve = subset_sums(np.subtract(profile.resources, profile.x))
    heads = mask_sizes(n)

    def assess(a, j):
        s = j + 1  # outcome position j is coalition mask j + 1
        inside = a & s
        group = (total[inside], heads[inside], reserve[a])
        return _group_utility(scheme, cfg, group, (total[s], heads[s]))[1]

    return STGame._tabulate(n, outcomes, columns, player_names(n, players), assess)


def cd_coop_point(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> CoopPoint:
    """A's cooperation point against B; with B empty, A's own utility is all competitive."""
    from .st import CoopPoint

    require_disjoint(a, b)
    require_fit(len(profile), a, b)
    if not b:
        alone = cd_subset_utility(scheme, cfg, profile, a, a)
        return CoopPoint(altruism=0.0, competitive=alone, marginal=alone, subset=a)
    metrics = _group_metrics(scheme, cfg, _group(profile, a), _group(profile, b))
    alt, comp, marginal = (float(v) for v in metrics[2:])
    return CoopPoint(altruism=alt, competitive=comp, marginal=marginal, subset=a)


def cd_competitive(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> float:
    """c_A(A|B) for this game; nonnegative for every configuration and scheme.

    The joint coalition is paid at least as much as B alone out of the same
    pot and keeps at least B's reserve, so the difference of the two
    Cobb-Douglas values cannot go negative.
    """
    return cd_coop_point(scheme, cfg, profile, a, b).competitive


def cd_altruistic(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> float:
    """a_A(A|B): B's utility with A participating minus B's utility alone."""
    return cd_coop_point(scheme, cfg, profile, a, b).altruism


def cd_marginal(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> float:
    return cd_coop_point(scheme, cfg, profile, a, b).marginal


def cd_fully_cooperative(
    scheme, cfg, profile, a: PlayerSet, b: PlayerSet, tol: float = DEFAULT_TOL
) -> bool:
    """Does B keep at least its stand-alone payment when A joins?

    Equivalent to a_A(A|B) >= 0 whenever B keeps any reserve: the altruism
    factorizes as (payment_joint^theta - payment_alone^theta) * reserve^(1-theta).
    """
    check_tol(tol)
    require_disjoint(a, b)
    require_fit(len(profile), a, b)
    if not b:
        raise ValueError("the bystanding subset B must be nonempty")
    return payoff(scheme, cfg, profile, b, a | b) >= payoff(scheme, cfg, profile, b, b) - tol


def avg_return_condition(cfg: CobbDouglasConfig, x: float, y: float) -> bool:
    """Does the average return f(t)/t weakly grow from x to y (0 < x <= y)?

    For power value functions this holds for every pair exactly when the
    exponent is at least 1, which is what makes proportional payoffs stable.
    """
    if not 0 < x <= y:
        raise ValueError(f"need 0 < x <= y, got ({x}, {y})")
    return bool(cfg.value(y) / y >= cfg.value(x) / x)


def _golden_max(fn, lo, hi, xatol: float):
    """Golden-section maximizer on each row's [lo, hi]; assumes unimodality inside a bracket.

    Each row takes the step count its own bracket fixes, and a row that has taken them is
    frozen, so every row does the float operations of a search run on it alone.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    span = hi - lo
    steps = np.array([math.ceil(math.log(xatol / s) / math.log(inv_phi)) if s > xatol else 0
                      for s in span.tolist()], dtype=np.int64)
    c = lo + inv_phi2 * span
    d = lo + inv_phi * span
    points = np.stack([c, d], axis=1)
    yc, yd = np.broadcast_to(fn(points), points.shape).T
    for k in range(int(steps.max(initial=0)) - 1):
        # keep [lo, d] and probe x below its old c, or keep [c, hi] and probe x above its old d
        left = yc > yd
        span_next = span * inv_phi
        lo_next = np.where(left, lo, c)
        x = lo_next + np.where(left, inv_phi2, inv_phi) * span_next
        y = np.broadcast_to(fn(x[:, None]), (len(x), 1))[:, 0]
        moved = (lo_next, np.where(left, d, hi), np.where(left, x, d), np.where(left, c, x),
                 np.where(left, y, yd), np.where(left, yc, y), span_next)
        live = k < steps - 1  # a row that has taken its steps stays as it is
        lo, hi, c, d, yc, yd, span = [np.where(live, new, old) for new, old in
                                      zip(moved, (lo, hi, c, d, yc, yd, span))]
    refined = np.where(yc > yd, (lo + d) / 2.0, (c + hi) / 2.0)
    return np.where(steps > 0, refined, (lo + hi) / 2.0)


def maximize_scalar(fn, lo, hi):
    """Argmax of fn on each row's [lo, hi]: coarse scan, golden refinement, smallest-x ties.

    ``lo`` and ``hi`` are numbers or equal-length arrays, one bracket per row, and the
    result has their shape. ``fn`` maps a (rows, k) array, k points of each row's bracket,
    to values of that shape (a number counts for every point). The scan survives
    non-unimodal objectives (equal-split utilities can peak at a boundary): one call
    evaluates ``ARGMAX_SCAN + 1`` evenly spaced points per row, then golden section
    sharpens each row's winning bracket to width ``ARGMAX_XATOL``, one call per step for
    all rows. Whenever several candidates reach the same value the smallest argument wins.
    Each row gets the float operations of a search run on it alone.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    if not np.all(lo <= hi):
        raise ValueError("empty bracket")
    # np.linspace per row: j * step + lo, or (j / n) * span + lo where the step underflows,
    # ending exactly at hi
    span = (hi - lo)[:, None]
    step = span / ARGMAX_SCAN
    j = np.arange(ARGMAX_SCAN + 1.0)
    grid = j * step
    tiny = step[:, 0] == 0
    grid[tiny] = j / ARGMAX_SCAN * span[tiny]
    grid += lo[:, None]
    grid[:, -1] = hi
    best_i = np.argmax(np.broadcast_to(fn(grid), grid.shape), axis=1)
    rows = np.arange(len(lo))
    bracket_lo = grid[rows, np.maximum(best_i - 1, 0)]
    bracket_hi = grid[rows, np.minimum(best_i + 1, ARGMAX_SCAN)]
    refined = _golden_max(fn, bracket_lo, bracket_hi, ARGMAX_XATOL)
    # ascending candidates; a stable sort keeps the first of equal ones, a repeat is skipped
    candidates = np.sort(np.stack([lo, hi, grid[rows, best_i], refined], axis=1),
                         axis=1, kind="stable")
    values = np.broadcast_to(fn(candidates), candidates.shape)
    best_x, best_y = candidates[:, 0], values[:, 0]
    for k in range(1, candidates.shape[1]):
        better = (values[:, k] > best_y) & (candidates[:, k] != candidates[:, k - 1])
        best_x = np.where(better, candidates[:, k], best_x)
        best_y = np.where(better, values[:, k], best_y)
    best_x = np.where(hi == lo, lo, best_x)
    return float(best_x[0]) if scalar else best_x


def _require_groups(size_a: int, size_b: int) -> None:
    if size_a < 1 or size_b < 1:
        raise ValueError("both subset sizes must be at least 1")


def _best_response(scheme, cfg, size, others_total, team_size, cap=1.0, pool=1.0):
    """Common contribution in [0, cap] of ``size`` members that maximizes one member's utility.

    One search per row of ``others_total``, what the rest of the ``team_size`` team
    contributes there; the member keeps ``pool`` minus its contribution. Rows are searched
    ``SCAN_CELLS // (ARGMAX_SCAN + 1)`` at a time, and the utility is evaluated over at
    most ``EVAL_CELLS`` points at a time, whole rows in row order, so the scan arrays stay
    small and an overflow names the first overflowing row.
    """
    others_total = np.asarray(others_total, dtype=float)
    block = SCAN_CELLS // (ARGMAX_SCAN + 1)
    found = [np.zeros(0)]
    for start in range(0, len(others_total), block):
        others = others_total[start:start + block, None]

        def utility(v, others=others):
            values = np.empty(v.shape)
            step = max(1, EVAL_CELLS // v.shape[1])
            for lo in range(0, len(v), step):
                x, rest = v[lo:lo + step], others[lo:lo + step]
                coalition = (size * x + rest, team_size)
                values[lo:lo + step] = _group_utility(scheme, cfg, (x, 1, pool - x), coalition)[1]
            return values

        found.append(maximize_scalar(utility, np.zeros(len(others)), np.full(len(others), cap)))
    return np.concatenate(found)


def rational_contribution(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    profile: ContributionProfile,
    player: int,
) -> float:
    """The contribution maximizing the player's own utility in the full team.

    Everyone else's contribution is taken from ``profile`` (the player's own
    entry is ignored); ties break toward contributing less.
    """
    if not 0 <= player < len(profile):
        raise ValueError(f"player {player} is not in a {len(profile)}-player team")
    return symmetric_rational_contribution(scheme, cfg, profile, PlayerSet.of(player))


def symmetric_rational_contribution(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    profile: ContributionProfile,
    group: PlayerSet,
) -> float:
    """Common per-member contribution maximizing a group member's utility.

    All members of ``group`` move together (they are interchangeable here),
    so the choice reduces to one dimension: the value each of them
    contributes. The rest of the team stays at ``profile``. The members
    must share one resource pool, or the choice would depend on which
    member is asked.
    """
    if not group:
        raise ValueError("group must be nonempty")
    if not group.fits(len(profile)):
        raise ValueError(f"{group} is not a group of a {len(profile)}-player team")
    pools = sorted({profile.resources[p] for p in group})
    if len(pools) > 1:
        raise ValueError(f"group members must share one resource pool, got pools {pools}")
    n = len(profile)
    others = [profile.total(group.complement(n))]
    found = _best_response(scheme, cfg, len(group), others, n, cap=pools[0], pool=pools[0])
    return float(found[0])


def altruism_roots(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    x_b_total,
    *,
    tol: float = DEFAULT_TOL,
):
    """All zero crossings of A's altruism as a function of A's total contribution.

    The altruism factors as (f_B(A|B)^theta - f_B(B)^theta) * reserve_B^(1-theta),
    so its sign is the sign of the payoff balance f_B(A|B) - f_B(B); the
    roots of that balance are located (they stay meaningful even when B has
    contributed its whole pool and the reserve factor collapses the raw
    altruism to zero everywhere).

    A and B contribute symmetrically within themselves over unit pools; the
    scan covers x_A in [0, size_a] in ``ROOT_SCAN`` intervals. Grid points
    within ``tol`` of zero count as roots; sign changes are bisected to
    ``ROOT_XATOL``, or until no float lies between the ends. ``x_b_total`` is
    a number, giving one ascending list of roots, or an array of rows, giving
    one list per row; the rows are scanned ``EVAL_CELLS // (ROOT_SCAN + 1)``
    at a time and bisected together, each with the float operations of a
    search run on it alone.
    """
    check_tol(tol)
    _require_groups(size_a, size_b)
    x_b = np.atleast_1d(np.asarray(x_b_total, dtype=float))
    outside = ~((0.0 <= x_b) & (x_b <= size_b))
    if outside.any():
        raise ValueError(f"x_B must lie in [0, {size_b}], got {x_b[outside][0].item()}")
    size = size_a + size_b
    alone = _group_payoff(scheme, cfg, x_b, size_b, x_b, size_b)

    def altruism(x_a, rows):
        """The payoff balance at A's totals x_a, broadcast against the rows' x_B."""
        return _group_payoff(scheme, cfg, x_b[rows], size_b, x_a + x_b[rows], size) - alone[rows]

    grid = np.linspace(0.0, float(size_a), ROOT_SCAN + 1)
    roots = [[] for _ in x_b]
    # sign changes of every row: (row, interval, balance at the interval's left end)
    cross_rows, cross_at, cross_f = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    block = EVAL_CELLS // (ROOT_SCAN + 1)
    for start in range(0, len(x_b), block):
        rows = np.arange(start, min(start + block, len(x_b)))
        values = altruism(grid, rows[:, None])
        near = np.abs(values) <= tol
        negative = values < 0
        crossing = ~near[:, :-1] & ~near[:, 1:] & (negative[:, :-1] != negative[:, 1:])
        for r, i in zip(*np.nonzero(near)):
            roots[start + r].append(grid[i].item())
        r, i = np.nonzero(crossing)
        cross_rows.append(rows[r])
        cross_at.append(i)
        cross_f.append(values[r, i])
    rows, at, f_lo = (np.concatenate(part) for part in (cross_rows, cross_at, cross_f))
    lo, hi = grid[at], grid[at + 1]
    live = hi - lo > ROOT_XATOL
    while live.any():
        mid = (lo + hi) / 2.0
        live &= (mid != lo) & (mid != hi)  # no float lies between lo and hi: the row is done
        f_mid = altruism(mid, rows)
        hit = f_mid == 0.0  # an exact zero ends the row's bisection at mid
        same = (f_mid < 0) == (f_lo < 0)
        lo = np.where(live & (hit | same), mid, lo)
        hi = np.where(live & (hit | ~same), mid, hi)
        f_lo = np.where(live & same & ~hit, f_mid, f_lo)
        live &= hi - lo > ROOT_XATOL
    for r, root in zip(rows.tolist(), ((lo + hi) / 2.0).tolist()):
        roots[r].append(root)
    for row in roots:
        row.sort()
    return roots if np.ndim(x_b_total) else roots[0]


def zero_altruism_contour(
    scheme, cfg, size_a: int, size_b: int, x_b_total: float, *, tol: float = DEFAULT_TOL
) -> float | None:
    """Smallest contribution of A at which its altruism vanishes, if any."""
    roots = altruism_roots(scheme, cfg, size_a, size_b, x_b_total, tol=tol)
    return roots[0] if roots else None


def _group_metrics(scheme, cfg, a, b):
    """A's payoff and utility in the union of A and B, and its cooperation point against B.

    Each group is a (total contribution, head count, reserve) triple of
    numbers or arrays, B's head count at least 1; the union adds them up.
    Returns (payoff, utility, altruism, competitive, marginal).
    """
    union = tuple(x + y for x, y in zip(a, b))
    pay_a, utility_a = _group_utility(scheme, cfg, a, union[:2])
    _, u_b_joint = _group_utility(scheme, cfg, b, union[:2])
    altruism = u_b_joint - _group_utility(scheme, cfg, b, b[:2])[1]
    competitive = _group_utility(scheme, cfg, union, union[:2])[1] - u_b_joint
    return pay_a, utility_a, altruism, competitive, altruism + competitive


def _unit_pool_group(size: int, x):
    """The group triple of ``size`` members who each contribute x of a unit pool."""
    x = np.asarray(x, dtype=float)
    return size * x, size, size * (1.0 - x)


def _row_indices(count: int, rows: slice):
    """The indices of the rows ``rows`` picks out of a table of ``count`` rows, as an array."""
    span = range(count)[rows]
    return np.arange(span.start, span.stop, span.step)


def _unit_axis(count: int, k):
    """``np.linspace(0.0, 1.0, count)[k]`` for an index array k, without the whole axis:
    k times the step 1 / (count - 1), as linspace computes it, and exactly 1 at the end."""
    return np.where(k == count - 1, 1.0, k * (1.0 / (count - 1)))


def cooperation_path(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    samples: int = 101,
    tol: float = DEFAULT_TOL,
    rows: slice = slice(None),
) -> dict:
    """Path traced by subset A responding rationally to B's average contribution, as columns.

    For each sampled average contribution of B in [0, 1] (unit pools), the
    members of A choose a common utility-maximizing contribution; the row is
    ``contribution_table``'s for that pair, so it holds A's (altruism,
    competitive) point against B and its quadrant at tolerance ``tol``.
    ``rows`` picks the rows to compute (all by default); each row is the same
    whichever rows are computed with it.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    check_tol(tol)
    _require_groups(size_a, size_b)
    x_b = _unit_axis(samples, _row_indices(samples, rows))
    x_a = _best_response(scheme, cfg, size_a, size_b * x_b, size_a + size_b)
    return contribution_table(scheme, cfg, size_a, size_b, x_a, x_b, tol)


def contribution_table(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    x_a,
    x_b,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Columns of the sweep and path tables, keyed by ``COBB_COLUMNS``.

    Row i holds A's payoff, utility and cooperation point against B when
    every member of A contributes x_a[i] and every member of B contributes
    x_b[i] (unit pools), with the quadrant classified at tolerance ``tol``.
    """
    from .quadrants import quadrant_labels

    _require_groups(size_a, size_b)
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    group_a, group_b = _unit_pool_group(size_a, x_a), _unit_pool_group(size_b, x_b)
    pay, utility, alt, comp, marginal = _group_metrics(scheme, cfg, group_a, group_b)
    n = len(x_a)
    return {
        "gamma": [scheme.mix] * n, "theta": [cfg.theta] * n, "beta": [cfg.beta] * n,
        "sizeA": [size_a] * n, "sizeB": [size_b] * n, "xA_avg": x_a, "xB_avg": x_b,
        "payoff": pay, "utility": utility, "altruism": alt, "competitive": comp,
        "marginal": marginal,
        "quadrant": quadrant_labels(alt, comp, tol).tolist(),
    }


def payoff_utility_grid(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    resolution: int = 101,
    tol: float = DEFAULT_TOL,
    rows: slice = slice(None),
) -> dict:
    """Dense sweep of A's payoff, utility, and cooperation metrics, as table columns.

    Axes are the average contributions of the members of A and B over unit
    pools, ``resolution`` samples each; rows run with the B axis outer and
    the A axis inner, both ascending. ``rows`` picks the rows to compute
    (all by default) out of the resolution² of the table.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    k = _row_indices(resolution**2, rows)
    x_a, x_b = _unit_axis(resolution, k % resolution), _unit_axis(resolution, k // resolution)
    return contribution_table(scheme, cfg, size_a, size_b, x_a, x_b, tol)


def rational_table(
    scheme, cfg, size_a: int, size_b: int, resolution: int = 101, tol: float = DEFAULT_TOL,
    rows: slice = slice(None),
) -> dict:
    """Columns of the rational table, one row per average contribution k/(resolution-1) of B.

    Each row holds the common utility-maximizing contribution of A's
    members and the smallest average contribution of A at which B's payment
    balance vanishes, within ``tol`` (None without a zero crossing); pools
    are unit. ``rows`` picks the rows to compute (all by default); each row
    is the same whichever rows are computed with it.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    check_tol(tol)
    x_b = _row_indices(resolution, rows) / (resolution - 1)
    x_a = _best_response(scheme, cfg, size_a, size_b * x_b, size_a + size_b)
    roots = altruism_roots(scheme, cfg, size_a, size_b, x_b * size_b, tol=tol)
    zero = [row[0] / size_a if row else None for row in roots]
    n = len(x_b)
    return {
        "gamma": [scheme.mix] * n, "theta": [cfg.theta] * n, "beta": [cfg.beta] * n,
        "sizeA": [size_a] * n, "sizeB": [size_b] * n, "xB_avg": x_b, "xA_rational": x_a,
        "zero_altruism_xA": zero,
    }
