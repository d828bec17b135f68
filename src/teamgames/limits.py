"""Tolerance, size limits and float-sum order shared by the package, readable without numpy."""

import functools

DEFAULT_TOL = 1e-9

MAX_PAIR_SCAN = 16  # a 3^n pair scan past this many players runs for minutes
MAX_CORE_DECIDE = 14  # exact LP columns: 2^n - 2
MAX_SUBSET_ARRAY = 20  # an array over all 2^n subsets past this many players outgrows memory


def _left_sum(terms) -> float:
    """``terms`` added left to right from 0.0, as ``players.member_sum`` adds them (``sum``
    compensates from Python 3.12)."""
    return functools.reduce(float.__add__, terms, 0.0)


def check_tol(tol: float) -> None:
    """Refuse a NaN or negative comparison tolerance: no difference exceeds a NaN one,
    and a negative one flags the differences of 0 that the predicates compare."""
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
