"""The quadrants of cooperation space and the array rule that labels points with them.

:mod:`teamgames.st` re-exports both names; the Cobb-Douglas tables read them
from here without loading the team-game module.
"""

from __future__ import annotations

import enum

import numpy as np

from .limits import DEFAULT_TOL, check_tol


class Quadrant(enum.Enum):
    """Region of cooperation space, with explicit axis and origin tags."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    AXIS_A = "axis-a"  # on the altruism axis: c within tolerance of 0
    AXIS_C = "axis-c"  # on the competitive axis: a within tolerance of 0
    ORIGIN = "origin"


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
