"""Built-in example games, stored as plain document trees.

Keeping these as documents (rather than prebuilt objects) means the
``scenario`` command can write them to disk and everything downstream goes
through the ordinary loading path.
"""

from __future__ import annotations

# Two prisoners choosing between teaming up and acting alone. Together the
# pair is worth 4 and each member individually values the joint outcome at
# 2; alone each is worth 1 to itself. Both players therefore sit at
# (altruism, competitive) = (1, 2): quadrant I, stable teamwork.
PRISONERS_DILEMMA = {
    "version": 1,
    "players": ["A", "B"],
    "outcomes": ["together", "A-alone", "B-alone"],
    "consequence": [
        {"subset": ["A"], "outcome": "A-alone"},
        {"subset": ["B"], "outcome": "B-alone"},
        {"subset": ["A", "B"], "outcome": "together"},
    ],
    "utilities": [
        {"subset": ["A"], "outcome": "A-alone", "value": 1},
        {"subset": ["B"], "outcome": "B-alone", "value": 1},
        {"subset": ["A"], "outcome": "together", "value": 2},
        {"subset": ["B"], "outcome": "together", "value": 2},
        {"subset": ["A", "B"], "outcome": "together", "value": 4},
    ],
}

# One left glove (player L) and two right gloves: only a left-right pair is
# worth anything. Superadditive but not convex; the Shapley value
# (2/3, 1/6, 1/6) lies outside the core while (1, 0, 0) lies inside.
GLOVE = {
    "version": 1,
    "players": ["L", "R1", "R2"],
    "utilities": [
        {"subset": ["L"], "value": 0},
        {"subset": ["R1"], "value": 0},
        {"subset": ["R2"], "value": 0},
        {"subset": ["L", "R1"], "value": 1},
        {"subset": ["L", "R2"], "value": 1},
        {"subset": ["R1", "R2"], "value": 0},
        {"subset": ["L", "R1", "R2"], "value": 1},
    ],
}

# Three-player majority voting: any two players capture the full prize.
# The three pair claims sum to more than the grand worth, so the core is
# empty.
MAJORITY3 = {
    "version": 1,
    "players": ["P1", "P2", "P3"],
    "utilities": [
        {"subset": ["P1"], "value": 0},
        {"subset": ["P2"], "value": 0},
        {"subset": ["P3"], "value": 0},
        {"subset": ["P1", "P2"], "value": 1},
        {"subset": ["P1", "P3"], "value": 1},
        {"subset": ["P2", "P3"], "value": 1},
        {"subset": ["P1", "P2", "P3"], "value": 1},
    ],
}

SCENARIOS = {
    "pd": PRISONERS_DILEMMA,
    "glove": GLOVE,
    "majority3": MAJORITY3,
}


def scenario_document(name: str) -> dict:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None


def builtin_game(name: str):
    """Load a built-in scenario through the regular document path."""
    from .game_io import parse_document

    return parse_document(scenario_document(name))
