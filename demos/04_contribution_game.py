"""The resource-contribution game: who contributes, who free-rides, who leaves.

Players hold unit resource pools, contribute a slice, and the pool's value
f(x) = x^1.5 is divided proportionally, equally, or by a gamma-blend of the
two. Everyone balances payment against reserve with a Cobb-Douglas utility
(theta = 0.75: a strong preference for reward over savings).
"""

import teamgames as tg
from teamgames.cobb import (
    EQUAL,
    PROPORTIONAL,
    CobbDouglasConfig,
    ContributionProfile,
    cooperation_path,
    hybrid,
    max_stable_team_size,
    rational_contribution,
    zero_altruism_contour,
)
from teamgames.game_io import write_table

cfg = CobbDouglasConfig(theta=0.75, beta=1.5)

print("== payoff schemes on a lopsided team ==")
prof = ContributionProfile.create([0.9, 0.1])
a, team = tg.PlayerSet.of(0), tg.PlayerSet.of(0, 1)
for scheme in (PROPORTIONAL, hybrid(0.5), EQUAL):
    pay = tg.payoff(scheme, cfg, prof, a, team)
    print(f"  {scheme.label():>12}: the 0.9-contributor is paid {pay:.3f} of f(1.0)=1.0")
print()

print("== how large can a team grow before its top contributor walks? ==")
print("(one player provides a share r of the pool; f convex, so equal")
print(" splits tax concentration)")
print("     r    equal   gamma=0.5   proportional")
for r in (0.2, 0.4, 0.6, 0.8):
    sizes = [max_stable_team_size(g, r, cfg.beta) for g in (0.0, 0.5, 1.0)]
    rendered = ["unbounded" if s == tg.UNBOUNDED else str(int(s)) for s in sizes]
    print(f"  {r:4}  {rendered[0]:>6} {rendered[1]:>10} {rendered[2]:>13}")
print()

print("== rational contributions against a generous partner ==")
others = ContributionProfile.create([0.0, 0.8, 0.8])
for scheme in (EQUAL, hybrid(0.5), PROPORTIONAL):
    best = rational_contribution(scheme, cfg, others, 0)
    print(f"  {scheme.label():>12}: player 0 contributes {best:.4f}")
print("(equal split invites free-riding; proportional pay rewards effort)")
print()

print("== the zero-altruism frontier ==")
print("minimum total contribution by A at which B stops losing (|A|=|B|=1):")
for x_b in (0.4, 0.7, 1.0):
    root = zero_altruism_contour(EQUAL, cfg, 1, 1, x_b)
    print(f"  B contributes {x_b}: A must give {root:.4f}")
print()

print("== paths of rational behavior in cooperation space ==")
tables = [cooperation_path(hybrid(gamma), cfg, 2, 10, samples=11) for gamma in (0.0, 0.5, 1.0)]
write_table(tables, ["gamma", "xB_avg", "xA_avg", "altruism", "competitive"], "paths.csv")
print("wrote paths.csv; the 2-member subset A responds rationally to the")
print("10-member B's average contribution")

equal, _, proportional = tables
print(f"equal split: altruism dips to {min(equal['altruism']):.4f} as B nears full effort")
print(f"proportional: never below {min(proportional['altruism']):.4f} (cheating does not pay)")
