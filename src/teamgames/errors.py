"""Exception types shared across the package."""


class GameError(Exception):
    """Base class for all package-specific errors."""


class DisjointnessError(GameError, ValueError):
    """Two coalitions that must be disjoint overlap."""


class SizeLimitError(GameError, ValueError):
    """A game exceeds the player-count bound of an exhaustive operation."""


class RepeatedEntryError(GameError, ValueError):
    """A table's entries name one cell twice: ``entry`` is the first such entry by position,
    and ``earlier`` the entry whose cell it names again."""

    def __init__(self, message, entry: int, earlier: int):
        self.entry = entry
        self.earlier = earlier
        super().__init__(message)


class NumericOverflowError(GameError, OverflowError):
    """A computed quantity is too large for a float."""


class MissingUtilityError(GameError, KeyError):
    """A tabulated game has no entry for a requested (assessor, outcome) pair."""

    def __init__(self, assessor, outcome):
        self.assessor = assessor
        self.outcome = outcome
        super().__init__(f"no utility entry for assessor {assessor} at outcome {outcome!r}")


class StructureError(GameError, ValueError):
    """A game does not have the additivity structure an operation requires.

    ``witness`` holds the offending (assessor, coalition, got, expected)
    tuple when the detector found a concrete violation.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotReducibleError(GameError):
    """A team game is not competition-free, so it cannot collapse to a TU game.

    Carries the witnessing pair of coalitions and the nonzero competitive
    contribution.
    """

    def __init__(self, a, b, value):
        self.a = a
        self.b = b
        self.value = value
        super().__init__(
            f"competitive contribution of {a} against {b} is {value}, not 0"
        )


class GameLoadError(GameError, ValueError):
    """A game document failed validation; ``location`` names the bad field."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
