"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's closed forms: the optimizer is
checked against a dense grid argmax, and the team-size bound against direct
altruism checks over defecting subsets.
"""

import numpy as np

from teamgames.cobb import CobbDouglasConfig, ContributionProfile, cd_altruistic, hybrid
from teamgames.players import PlayerSet


def grid_oracle(scheme, cfg, profile, player, points=10_000):
    """Vectorized argmax of the player's utility over a dense contribution grid."""
    cap = profile.resources[player]
    others_total = sum(x for i, x in enumerate(profile.x) if i != player)
    n = len(profile)
    xs = np.linspace(0.0, cap, points)
    x_s = others_total + xs
    f = cfg.alpha * x_s**cfg.beta
    share = np.zeros_like(xs)
    positive = x_s > 0
    share[positive] = scheme.mix * (xs[positive] / x_s[positive]) + (1.0 - scheme.mix) / n
    pay = share * f
    reserve = cap - xs
    if cfg.theta == 0.0:
        utility = reserve
    elif cfg.theta == 1.0:
        utility = pay
    else:
        utility = pay**cfg.theta * reserve ** (1.0 - cfg.theta)
    best = int(np.argmax(utility))
    return float(xs[best]), float(utility[best])


def brute_force_max_size(gamma, r, beta, cap=40):
    """Largest stable size for a team with one share-r contributor.

    A team of size s is stable when no defecting subset (by symmetry: the
    big contributor and/or k equal small contributors) would assess its own
    coalition above the full team, i.e. every complement-pair altruism is
    nonnegative under the hybrid scheme.
    """
    cfg = CobbDouglasConfig(theta=0.75, beta=beta)
    scheme = hybrid(gamma)
    best = 0
    for s in range(1, cap + 1):
        if s == 1:
            best = 1
            continue
        small = (1.0 - r) / (s - 1)
        contributions = [r] + [small] * (s - 1)
        resources = tuple(c + 0.5 for c in contributions)
        prof = ContributionProfile(tuple(contributions), resources)
        stable = True
        for include_big in (True, False):
            for k in range(0, s):
                size = (1 if include_big else 0) + k
                if size == 0 or size == s:
                    continue
                members = ([0] if include_big else []) + list(range(1, 1 + k))
                b = PlayerSet.from_players(members)
                a = b.complement(s)
                if cd_altruistic(scheme, cfg, prof, a, b) < -1e-9:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            best = s
    return best
