"""Exception types shared across the package."""


class ShapingError(Exception):
    """Base class for errors raised by this package."""


class ResourceLimitError(ShapingError):
    """A computation would exceed the partition walk's byte budget or
    depth, the series limit or physical memory."""


class NotInImageError(ShapingError):
    """A length n+k string is not the image of any length-n string."""


class InvalidSymbolError(ShapingError, ValueError):
    """A symbol index is outside [0, alphabet_size)."""


class BlockLengthError(ShapingError, ValueError):
    """Input length does not divide into whole blocks."""


class CorruptStreamError(ShapingError):
    """A bitstream container failed to parse or decode."""


class DegenerateSampleError(ShapingError):
    """Monte Carlo configuration leaves no samples below the quantile cut."""
