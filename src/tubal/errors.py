"""Exception types raised by the tubal package."""


class TubalError(ValueError):
    """Base class for all tubal errors."""


class DimMismatch(TubalError):
    """Operand shapes are incompatible."""


class SymmetryViolation(TubalError):
    """A frequency-domain tensor broke the conjugate-symmetry invariant."""


class IndexOutOfRange(TubalError):
    """A basis index falls outside the tensor dimensions."""


class LengthMismatch(TubalError):
    """A flat vector does not match the expected n1*n2*n3 length."""


class ZeroMeasurements(TubalError):
    """A measurement map was requested with m < 1."""


class TooLarge(TubalError):
    """An array would hold more values than the size rule allows."""


class MapTooLarge(TooLarge):
    """Dense measurement matrix would exceed the memory guard."""


class InvalidRate(TubalError):
    """Sampling rate outside (0, 1]."""


class InvalidRank(TubalError):
    """Requested tubal rank outside [1, min(n1, n2)]."""


class NegativeThreshold(TubalError):
    """Singular value threshold must be nonnegative."""


class InvalidEpsilon(TubalError):
    """Robust-recovery epsilon must lie in (0, 1)."""


class UnsupportedFormat(TubalError):
    """File is not one of the supported binary formats."""


class FrameSizeMismatch(TubalError):
    """Frames in a sequence do not all share the same size."""


class NonFiniteValues(TubalError):
    """Input data contains NaN or Inf entries."""


class InvalidSolverConfig(TubalError):
    """ADMM settings outside their valid ranges."""


class EmptyTensor(TubalError):
    """A tensor, or the dims of one, has a zero or negative dimension."""


class InvalidParameter(TubalError):
    """A tolerance, trial count, grid kind or value list is not one the call accepts."""
