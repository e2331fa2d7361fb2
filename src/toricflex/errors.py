"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class NonSquareError(ToolkitError):
    """A square matrix was required."""


class ZeroVectorError(ToolkitError):
    """The zero vector has no primitive representative."""


class DimensionMismatchError(ToolkitError):
    """Vector or matrix dimensions do not fit together."""


class InvalidFanError(ToolkitError):
    """Fan data violates a structural invariant."""


class NotSimplicialError(InvalidFanError):
    """A cone's generators are rationally dependent."""


class FanFormatError(ToolkitError):
    """A fan document has the wrong shape or value types."""


class CertificateFormatError(ToolkitError):
    """A certificate document has the wrong shape or value types."""


class BadIndexError(ToolkitError):
    """A ray or cone index is out of range or malformed."""


class BadConeError(ToolkitError):
    """The named cone cannot be used for the requested operation."""


class BadParameterError(ToolkitError):
    """A constructor parameter is out of range."""


class NotSmoothError(ToolkitError):
    """A smooth fan or cone was required."""


class NotFullDimensionalError(ToolkitError):
    """A full-dimensional cone was required."""


class DegenerateError(ToolkitError):
    """The fan's rays do not span the ambient space."""
