"""Resource-contribution team game with Cobb-Douglas preferences.

Each player holds a resource pool X_a and contributes x_a of it; the pooled
contribution x_S produces a value f(x_S) that a payoff scheme divides among
the members. A subset assesses an outcome by balancing its payment against
its kept reserve with the Cobb-Douglas aggregate

    u_A(S) = payoff_A(S)^theta * reserve_A^(1-theta).

Three division schemes are covered: proportional to contributions, equal
per head, and their gamma-blend. The module provides the cooperation
metrics of this game, closed-form team-size stability bounds for power
value functions, rational (utility-maximizing) contribution choices, zero
altruism contours, and the dense sweep tables behind all of the above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DisjointnessError, NumericOverflowError
from .players import PlayerSet
from .st import STGame, CoopPoint, quadrant_of
from .tu import DEFAULT_TOL

UNBOUNDED = math.inf


@dataclass(frozen=True)
class CobbDouglasConfig:
    """Game parameters.

    theta weighs payoff against reserve (1 = payoff only), gamma is the
    default hybrid mix (1 = proportional), and the produced value is
    alpha * x^beta.
    ``resources`` fixes per-player pools; None means a unit pool per player,
    the normalization under which sweep parameters are average
    contributions in [0, 1].
    """

    theta: float = 0.75
    gamma: float = 0.5
    alpha: float = 1.0
    beta: float = 1.5
    resources: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.resources is not None:
            res = tuple(float(r) for r in self.resources)
            if any(r < 0 for r in res):
                raise ValueError("resources must be nonnegative")
            object.__setattr__(self, "resources", res)

    def value(self, x):
        """Total value produced by a pooled contribution x (a number or an array).

        Raises ``NumericOverflowError`` where alpha * x^beta exceeds the float range.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError(f"contribution must be nonnegative, got {x.min()}")
        with np.errstate(over="ignore"):
            produced = self.alpha * x**self.beta
        overflow = ~np.isfinite(produced)
        if overflow.any():
            raise NumericOverflowError(
                f"alpha * x^beta overflows at x = {float(x[overflow].min())!r} "
                f"(alpha = {self.alpha!r}, beta = {self.beta!r})"
            )
        return produced[()]


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
    """How the produced value is divided: by contribution, by head, or blended."""

    kind: str
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("proportional", "equal", "hybrid"):
            raise ValueError(f"unknown payoff scheme {self.kind!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    @property
    def mix(self) -> float:
        """Weight on the proportional part."""
        if self.kind == "proportional":
            return 1.0
        if self.kind == "equal":
            return 0.0
        return self.gamma

    def label(self) -> str:
        if self.kind == "hybrid":
            return f"hybrid({self.gamma})"
        return self.kind


PROPORTIONAL = PayoffScheme("proportional")
EQUAL = PayoffScheme("equal")


def hybrid(gamma: float) -> PayoffScheme:
    return PayoffScheme("hybrid", gamma)


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


def _member_share(scheme: PayoffScheme, x_a, size_a, x_s, size_s):
    """Share of f(x_S) paid to a sub-group with contribution x_a and size_a heads, elementwise."""
    if np.any(np.asarray(size_s) <= 0):
        raise ValueError("coalition must be nonempty")
    x_s = np.asarray(x_s, dtype=float)
    mix = scheme.mix
    produced = x_s > 0.0
    share = mix * (x_a / np.where(produced, x_s, 1.0)) + (1.0 - mix) * (size_a / size_s)
    # where nothing was produced every scheme pays nothing
    return np.where(produced, share, 0.0)[()]


def _group_payoff(scheme: PayoffScheme, cfg: CobbDouglasConfig, x_a, size_a, x_s, size_s):
    """Payment to a group (total x_a, size_a heads) out of a coalition's (x_s, size_s) value."""
    return _member_share(scheme, x_a, size_a, x_s, size_s) * cfg.value(x_s)


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
    return _payoff_members(scheme, cfg, profile, a, s)


def _payoff_members(scheme, cfg, profile, a: PlayerSet, s: PlayerSet) -> float:
    """Payment to A's members inside S (players of A outside S are paid nothing)."""
    if not s:
        return 0.0
    inside = a & s
    x_s = profile.total(s)
    return float(_group_payoff(scheme, cfg, profile.total(inside), len(inside), x_s, len(s)))


def cd_subset_utility(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    profile: ContributionProfile,
    a: PlayerSet,
    s: PlayerSet,
) -> float:
    """u_A(S): the Cobb-Douglas balance of A's payment from S and A's reserve."""
    if not a:
        return 0.0
    return float(
        cd_value(cfg.theta, _payoff_members(scheme, cfg, profile, a, s), profile.reserve(a))
    )


def st_game_view(
    scheme: PayoffScheme, cfg: CobbDouglasConfig, profile: ContributionProfile, players=None
) -> STGame:
    """The game as a generic team game, so every cooperation metric applies.

    Outcomes are coalition masks (the consequence map is the identity); for
    assessors not contained in the coalition only their members inside get
    paid, which extends the utility totally without touching any value the
    metrics read.
    """
    n = len(profile)
    outcomes = tuple(range(1, 1 << n))
    return STGame.from_functions(
        n,
        outcomes,
        lambda s: s.mask,
        lambda a, outcome: cd_subset_utility(scheme, cfg, profile, a, PlayerSet(int(outcome))),
        players=players,
    )


def _require_disjoint(a: PlayerSet, b: PlayerSet) -> None:
    if not a.isdisjoint(b):
        raise DisjointnessError(f"{a} and {b} overlap")


def cd_competitive(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> float:
    """c_A(A|B) for this game; nonnegative for every configuration and scheme.

    The joint coalition is paid at least as much as B alone out of the same
    pot and keeps at least B's reserve, so the difference of the two
    Cobb-Douglas values cannot go negative.
    """
    _require_disjoint(a, b)
    union = a | b
    return cd_subset_utility(scheme, cfg, profile, union, union) - cd_subset_utility(
        scheme, cfg, profile, b, union
    )


def cd_altruistic(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> float:
    """a_A(A|B): B's utility with A participating minus B's utility alone."""
    _require_disjoint(a, b)
    if not b:
        return 0.0
    union = a | b
    return cd_subset_utility(scheme, cfg, profile, b, union) - cd_subset_utility(
        scheme, cfg, profile, b, b
    )


def cd_marginal(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> float:
    _require_disjoint(a, b)
    union = a | b
    return cd_subset_utility(scheme, cfg, profile, union, union) - cd_subset_utility(
        scheme, cfg, profile, b, b
    )


def cd_coop_point(scheme, cfg, profile, a: PlayerSet, b: PlayerSet) -> CoopPoint:
    alt = cd_altruistic(scheme, cfg, profile, a, b)
    comp = cd_competitive(scheme, cfg, profile, a, b)
    return CoopPoint(altruism=alt, competitive=comp, marginal=alt + comp, subset=a)


def cd_fully_cooperative(
    scheme, cfg, profile, a: PlayerSet, b: PlayerSet, tol: float = DEFAULT_TOL
) -> bool:
    """Does B keep at least its stand-alone payment when A joins?

    Equivalent to a_A(A|B) >= 0 whenever B keeps any reserve: the altruism
    factorizes as (payment_joint^theta - payment_alone^theta) * reserve^(1-theta).
    """
    _require_disjoint(a, b)
    if not b:
        raise ValueError("the bystanding subset B must be nonempty")
    union = a | b
    return _payoff_members(scheme, cfg, profile, b, union) >= _payoff_members(
        scheme, cfg, profile, b, b
    ) - tol


def avg_return_condition(cfg: CobbDouglasConfig, x: float, y: float) -> bool:
    """Does the average return f(t)/t weakly grow from x to y (0 < x <= y)?

    For power value functions this holds for every pair exactly when the
    exponent is at least 1, which is what makes proportional payoffs stable.
    """
    if not 0 < x <= y:
        raise ValueError(f"need 0 < x <= y, got ({x}, {y})")
    return bool(cfg.value(y) / y >= cfg.value(x) / x)


def max_stable_team_size(gamma: float, r: float, beta: float) -> float:
    """Largest team size whose top contributor (share r of the pool) stays.

    For f = alpha*x^beta with beta > 1 under the gamma-hybrid scheme the
    stay condition reduces to |S| <= (1-gamma) / (r^beta - gamma*r); when
    the denominator is not positive every size is stable and ``math.inf``
    is returned, otherwise the floor of the bound. A quotient within 4 ulps
    below an integer counts as reaching it, since rounding in r^beta - gamma*r
    can pull an exact integer bound just under itself; from 2^40 on, where
    4 ulps approach a whole step, the plain floor is kept.
    """
    if not 0 < r <= 1:
        raise ValueError(f"contribution share r must lie in (0, 1], got {r}")
    if not beta > 1:
        raise ValueError(f"the bound needs beta > 1, got {beta}")
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    denom = r**beta - gamma * r
    if denom <= 0:
        return UNBOUNDED
    quotient = (1.0 - gamma) / denom
    bound = math.floor(quotient)
    # an exact integer bound can come out a few ulps short in floating point
    slack = 4 * math.ulp(quotient)
    if slack < 2.0**-10 and bound + 1 - quotient <= slack:
        bound += 1
    return float(bound)


def _golden_max(fn, lo: float, hi: float, xatol: float) -> float:
    """Golden-section maximizer on [lo, hi]; assumes unimodality inside the bracket."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    span = hi - lo
    if span <= xatol:
        return (lo + hi) / 2.0
    steps = int(math.ceil(math.log(xatol / span) / math.log(inv_phi)))
    c = lo + inv_phi2 * span
    d = lo + inv_phi * span
    yc = fn(c)
    yd = fn(d)
    for _ in range(steps - 1):
        if yc > yd:
            hi = d
            d = c
            yd = yc
            span *= inv_phi
            c = lo + inv_phi2 * span
            yc = fn(c)
        else:
            lo = c
            c = d
            yc = yd
            span *= inv_phi
            d = lo + inv_phi * span
            yd = fn(d)
    return (lo + d) / 2.0 if yc > yd else (c + hi) / 2.0


def maximize_scalar(fn, lo: float, hi: float, *, coarse: int = 256, xatol: float = 1e-6) -> float:
    """Argmax of fn on [lo, hi]: coarse scan, golden refinement, smallest-x ties.

    The scan survives non-unimodal objectives (equal-split utilities can
    peak at a boundary); golden section then sharpens the winning bracket.
    Whenever several candidates reach the same value the smallest argument
    wins. The scan calls fn once on the array of its ``coarse + 1`` points
    (a scalar result counts for every point); the refinement calls it on
    single numbers.
    """
    if hi < lo:
        raise ValueError("empty bracket")
    if hi == lo:
        return lo
    grid = np.linspace(lo, hi, coarse + 1)
    best_i = int(np.argmax(np.broadcast_to(fn(grid), grid.shape)))
    bracket_lo = float(grid[max(best_i - 1, 0)])
    bracket_hi = float(grid[min(best_i + 1, coarse)])
    refined = _golden_max(fn, bracket_lo, bracket_hi, xatol)
    candidates = sorted({lo, hi, float(grid[best_i]), refined})
    best_x = candidates[0]
    best_y = fn(best_x)
    for x in candidates[1:]:
        y = fn(x)
        if y > best_y:
            best_x, best_y = x, y
    return best_x


def _require_groups(size_a: int, size_b: int) -> None:
    if size_a < 1 or size_b < 1:
        raise ValueError("both subset sizes must be at least 1")


def _best_response(scheme, cfg, size, others_total, team_size, cap=1.0, pool=1.0, xatol=1e-6):
    """Common contribution in [0, cap] of ``size`` members that maximizes one member's utility.

    The rest of the ``team_size`` team contributes ``others_total``; the
    member keeps ``pool`` minus its contribution.
    """

    def utility(v):
        pay = _group_payoff(scheme, cfg, v, 1, size * v + others_total, team_size)
        return cd_value(cfg.theta, pay, pool - v)

    return maximize_scalar(utility, 0.0, cap, xatol=xatol)


def rational_contribution(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    profile: ContributionProfile,
    player: int,
    *,
    xatol: float = 1e-6,
) -> float:
    """The contribution maximizing the player's own utility in the full team.

    Everyone else's contribution is taken from ``profile`` (the player's own
    entry is ignored); ties break toward contributing less.
    """
    return symmetric_rational_contribution(scheme, cfg, profile, PlayerSet.of(player), xatol=xatol)


def symmetric_rational_contribution(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    profile: ContributionProfile,
    group: PlayerSet,
    *,
    xatol: float = 1e-6,
) -> float:
    """Common per-member contribution maximizing a group member's utility.

    All members of ``group`` move together (they are interchangeable here),
    so the choice reduces to one dimension: the value each of them
    contributes. The rest of the team stays at ``profile``.
    """
    if not group:
        raise ValueError("group must be nonempty")
    n = len(profile)
    members = list(group)
    return _best_response(
        scheme,
        cfg,
        len(members),
        profile.total(group.complement(n)),
        n,
        cap=min(profile.resources[p] for p in members),
        pool=profile.resources[members[0]],
        xatol=xatol,
    )


def altruism_roots(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    x_b_total: float,
    *,
    scan: int = 1024,
    xatol: float = 1e-8,
    tol: float = DEFAULT_TOL,
) -> list[float]:
    """All zero crossings of A's altruism as a function of A's total contribution.

    The altruism factors as (f_B(A|B)^theta - f_B(B)^theta) * reserve_B^(1-theta),
    so its sign is the sign of the payoff balance f_B(A|B) - f_B(B); the
    roots of that balance are located (they stay meaningful even when B has
    contributed its whole pool and the reserve factor collapses the raw
    altruism to zero everywhere).

    A and B contribute symmetrically within themselves over unit pools; the
    scan covers x_A in [0, size_a]. Grid points already within tolerance of
    zero count as roots; sign changes are bisected to ``xatol``.
    """
    _require_groups(size_a, size_b)
    if not 0.0 <= x_b_total <= size_b:
        raise ValueError(f"x_B must lie in [0, {size_b}], got {x_b_total}")
    size = size_a + size_b
    alone = _group_payoff(scheme, cfg, x_b_total, size_b, x_b_total, size_b)

    def altruism(x_a_total):
        return _group_payoff(scheme, cfg, x_b_total, size_b, x_a_total + x_b_total, size) - alone

    grid = np.linspace(0.0, float(size_a), scan + 1)
    values = altruism(grid).tolist()
    roots: list[float] = []
    for i, v in enumerate(values):
        if abs(v) <= tol:
            x = float(grid[i])
            if not roots or x - roots[-1] > xatol:
                roots.append(x)
    for i in range(scan):
        lo_v, hi_v = values[i], values[i + 1]
        if abs(lo_v) <= tol or abs(hi_v) <= tol:
            continue
        if (lo_v < 0) == (hi_v < 0):
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        f_lo = lo_v
        while hi - lo > xatol:
            mid = (lo + hi) / 2.0
            f_mid = altruism(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        roots.append((lo + hi) / 2.0)
    roots.sort()
    return roots


def zero_altruism_contour(
    scheme, cfg, size_a: int, size_b: int, x_b_total: float, **kwargs
) -> float | None:
    """Smallest contribution of A at which its altruism vanishes, if any."""
    roots = altruism_roots(scheme, cfg, size_a, size_b, x_b_total, **kwargs)
    return roots[0] if roots else None


def _group_metrics(scheme, cfg, size_a: int, size_b: int, x_a, x_b):
    """A's payoff and utility in the union of A and B, and its cooperation point against B.

    Every member of A contributes x_a and every member of B contributes
    x_b out of a unit pool, so each quantity is a closed form in the group
    totals and head counts; x_a and x_b may be arrays. Returns the arrays
    (payoff, utility, altruism, competitive, marginal).
    """
    _require_groups(size_a, size_b)
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    total_a, total_b = size_a * x_a, size_b * x_b
    total, size = total_a + total_b, size_a + size_b
    reserve_a, reserve_b = size_a * (1.0 - x_a), size_b * (1.0 - x_b)
    pay_a = _group_payoff(scheme, cfg, total_a, size_a, total, size)
    pay_b_joint = _group_payoff(scheme, cfg, total_b, size_b, total, size)
    pay_b_alone = _group_payoff(scheme, cfg, total_b, size_b, total_b, size_b)
    pay_joint = _group_payoff(scheme, cfg, total, size, total, size)
    u_b_joint = cd_value(cfg.theta, pay_b_joint, reserve_b)
    altruism = u_b_joint - cd_value(cfg.theta, pay_b_alone, reserve_b)
    competitive = cd_value(cfg.theta, pay_joint, reserve_a + reserve_b) - u_b_joint
    utility_a = cd_value(cfg.theta, pay_a, reserve_a)
    return pay_a, utility_a, altruism, competitive, altruism + competitive


@dataclass(frozen=True)
class PathPoint:
    """One sample of a rational-behavior path through cooperation space.

    A is a symmetric group, not a set of numbered players, so
    ``point.subset`` is None.
    """

    x_b_avg: float
    x_a_avg: float
    point: CoopPoint


def cooperation_path(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    samples: int = 101,
    *,
    xatol: float = 1e-6,
) -> list[PathPoint]:
    """Path traced by subset A responding rationally to B's average contribution.

    For each sampled average contribution of B in [0, 1] (unit pools), the
    members of A choose a common utility-maximizing contribution and the
    resulting (altruism, competitive) point of A against B is recorded.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    _require_groups(size_a, size_b)
    x_b = np.linspace(0.0, 1.0, samples).tolist()
    team = size_a + size_b
    x_a = [_best_response(scheme, cfg, size_a, size_b * t, team, xatol=xatol) for t in x_b]
    _, _, alt, comp, marginal = _group_metrics(scheme, cfg, size_a, size_b, x_a, x_b)
    return [
        PathPoint(t, x, CoopPoint(*point, subset=None))
        for t, x, point in zip(x_b, x_a, zip(alt.tolist(), comp.tolist(), marginal.tolist()))
    ]


def contribution_rows(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    x_a,
    x_b,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Rows of the sweep and path tables.

    One row per pair (x_a[i], x_b[i]): A's payoff, utility and cooperation
    point against B when every member of A contributes x_a[i] and every
    member of B contributes x_b[i] (unit pools), with the quadrant
    classified at tolerance ``tol``.
    """
    fixed = {"gamma": scheme.mix, "theta": cfg.theta, "beta": cfg.beta,
             "sizeA": size_a, "sizeB": size_b}
    names = ("xA_avg", "xB_avg", "payoff", "utility", "altruism", "competitive", "marginal")
    columns = (x_a, x_b, *_group_metrics(scheme, cfg, size_a, size_b, x_a, x_b))
    rows = []
    for values in zip(*(np.asarray(c, dtype=float).tolist() for c in columns)):
        row = dict(fixed, **dict(zip(names, values)))
        row["quadrant"] = quadrant_of(row["altruism"], row["competitive"], tol).value
        rows.append(row)
    return rows


def payoff_utility_grid(
    scheme: PayoffScheme,
    cfg: CobbDouglasConfig,
    size_a: int,
    size_b: int,
    resolution: int = 101,
    tol: float = DEFAULT_TOL,
) -> list[dict]:
    """Dense sweep of A's payoff, utility, and cooperation metrics.

    Axes are the average contributions of the members of A and B over unit
    pools, ``resolution`` samples each; rows are emitted with the B axis
    outer and the A axis inner, both ascending.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axis = np.linspace(0.0, 1.0, resolution)
    x_b, x_a = np.meshgrid(axis, axis, indexing="ij")
    return contribution_rows(scheme, cfg, size_a, size_b, x_a.ravel(), x_b.ravel(), tol)


def rational_rows(scheme, cfg, size_a: int, size_b: int, resolution: int = 101) -> list[dict]:
    """Rows of the rational table, one per average contribution k/(resolution-1) of B.

    Each row holds the common utility-maximizing contribution of A's
    members and the smallest average contribution of A at which B's payment
    balance vanishes (None without a zero crossing); pools are unit.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    fixed = {"gamma": scheme.mix, "theta": cfg.theta, "beta": cfg.beta,
             "sizeA": size_a, "sizeB": size_b}
    rows = []
    for k in range(resolution):
        x_b = k / (resolution - 1)
        x_a = _best_response(scheme, cfg, size_a, size_b * x_b, size_a + size_b)
        root = zero_altruism_contour(scheme, cfg, size_a, size_b, x_b * size_b)
        zero = None if root is None else root / size_a
        rows.append(dict(fixed, xB_avg=x_b, xA_rational=x_a, zero_altruism_xA=zero))
    return rows


def stable_size_grid(beta: float, gammas, shares) -> list[dict]:
    """Closed-form maximum stable team size over a (gamma, r) grid."""
    rows = []
    for gamma in gammas:
        for r in shares:
            rows.append(
                {
                    "gamma": float(gamma),
                    "r": float(r),
                    "beta": float(beta),
                    "max_stable_size": max_stable_team_size(float(gamma), float(r), float(beta)),
                }
            )
    return rows
