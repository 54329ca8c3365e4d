"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live over different ground dimensions or tensor degrees."""


class DegreeOutOfRange(ValueError):
    """An operator was applied outside its admissible degree range."""


class InvalidIndex(ValueError):
    """A slot position or basis index is out of range or malformed."""


class NotInvariant(ValueError):
    """The subspace is not preserved by the requested action."""


class ConfigError(ValueError):
    """Invalid verification run configuration."""
