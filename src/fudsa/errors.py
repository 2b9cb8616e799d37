"""Exception hierarchy shared by all fudsa modules."""


class FudsaError(Exception):
    """Base class for all library errors."""


class InvalidShape(FudsaError):
    """A tensor was requested with a zero or negative extent."""


class ShapeMismatch(FudsaError):
    """Operands have incompatible extents for the requested operation."""


class InvalidArgument(FudsaError):
    """A parameter value is outside its legal range."""


class InvalidLabel(FudsaError):
    """A mask tensor contains values other than 0 and 1."""


class InvalidState(FudsaError):
    """Optimizer state no longer matches the parameters it was built for."""


class CorruptCheckpoint(FudsaError):
    """A checkpoint file is malformed, truncated or mislabeled."""


class NumericalDivergence(FudsaError):
    """A model produced a non-finite loss or final map."""
