"""Classical TU analysis: Shapley values, cores, and their fault lines.

The glove game (one left glove, two right gloves, only pairs are worth
anything) is the standard example where fairness and stability part ways:
the Shapley value compensates averages, the core rewards scarcity.
"""

import numpy as np

import teamgames as tg
from teamgames.scenarios import builtin_game

glove = builtin_game("glove")

print("== Shapley value ==")
print("subset-weighted sum :", tg.shapley_value(glove))
print()

phi = tg.shapley_value(glove)
print("== fairness vs stability ==")
print("efficient (sums to the grand worth):", abs(phi.sum() - glove.grand_value()) < 1e-9)
print("Shapley value in the core?         :", tg.in_core(glove, phi))
print("  (L+R1 claim 1.0 together but are allocated only",
      round(float(phi[0] + phi[1]), 4), ")")
print("all-to-the-left-glove (1,0,0) works:", tg.in_core(glove, [1.0, 0.0, 0.0]))
print("exact core decision with witness   :", tg.core_witness(glove))
print()

majority = builtin_game("majority3")
print("== a game with no stable allocation at all ==")
print("three-player majority vote, any pair wins the prize")
print("core nonempty?", tg.core_is_nonempty(majority))
print("  (the three pair claims sum to 3/2 > 1, so no split satisfies everyone)")
print()

print("== convexity rescues the Shapley value ==")
rng = np.random.default_rng(7)
for trial in range(3):
    game = tg.random_convex_game(4, rng)
    phi = tg.shapley_value(game)
    print(
        f"random convex game {trial}: convex={tg.is_convex(game)}, "
        f"Shapley in core={tg.in_core(game, phi)}"
    )
print()

print("== superadditivity keeps everyone on board ==")
print("glove game superadditive:", tg.is_superadditive(glove))
print("so each Shapley share covers the player's solo worth:")
for i, name in enumerate(glove.players):
    solo = glove.value(tg.PlayerSet.of(i))
    print(f"  {name}: share {float(tg.shapley_value(glove)[i]):.4f} >= solo {solo}")
