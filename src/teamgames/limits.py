"""Tolerance and size limits shared across the package, readable without numpy."""

DEFAULT_TOL = 1e-9

MAX_PAIR_SCAN = 16  # a 3^n pair scan past this many players runs for minutes
MAX_CORE_DECIDE = 14  # exact LP columns: 2^n - 2
MAX_SUBSET_ARRAY = 20  # an array over all 2^n subsets past this many players outgrows memory


def check_tol(tol: float) -> None:
    """Refuse a NaN or negative comparison tolerance: no difference exceeds a NaN one,
    and a negative one flags the differences of 0 that the predicates compare."""
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
