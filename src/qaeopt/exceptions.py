"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented invariant (shape, hermiticity, normalization, ...)."""


class StateFileError(ValueError):
    """A state file is missing, malformed, or fails its format invariants."""
