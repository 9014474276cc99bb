"""Exception hierarchy for the micpq package.

Every error raised on a documented contract boundary derives from
:class:`MicpqError`, so callers (and the CLI) can distinguish data/usage
problems from genuine bugs.
"""


class MicpqError(Exception):
    """Base class for all micpq errors."""


# --- file format errors -------------------------------------------------

class FileFormatError(MicpqError):
    """A binary file does not match its declared format."""


class BadMagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class TruncatedFileError(FileFormatError):
    """File ended before the declared payload was complete."""


class VersionMismatchError(FileFormatError):
    """File carries an unsupported format version."""


class NonFiniteValueError(MicpqError):
    """A NaN or infinity was found where finite data is required."""


# --- data validation ----------------------------------------------------

class LengthMismatchError(MicpqError):
    """Paired data structures disagree on the number of documents."""


class NonContiguousClassesError(MicpqError):
    """Class labels are not contiguous integers starting at 0."""


class InvalidSpecError(MicpqError):
    """A synthetic corpus specification violates its invariants."""


class InvalidConfigError(MicpqError):
    """A training configuration violates its invariants."""


class DimMismatchError(MicpqError):
    """Vector or matrix dimensions do not agree."""


class NonFiniteInputError(MicpqError):
    """An operation received non-finite input values."""


# --- quantization / objectives ------------------------------------------

class NonPositiveTemperatureError(MicpqError):
    """Softmax temperature must be strictly positive."""


class IndexOutOfRangeError(MicpqError):
    """A codeword index is outside [0, K), or a requested row outside a file's rows."""


class ZeroNormError(MicpqError):
    """Cosine similarity is undefined for (near-)zero vectors."""


class NonFiniteGradientError(MicpqError):
    """A gradient contained NaN or infinity; the update was aborted."""


# --- retrieval / evaluation ----------------------------------------------

class EmptyIndexError(MicpqError):
    """The retrieval index contains no documents."""


class ConfigMismatchError(MicpqError):
    """Two objects were built under incompatible (M, K) settings."""


class KNot2Error(MicpqError):
    """Hamming-distance mode requires two codewords per codebook."""


class UnknownDocIdError(MicpqError):
    """A retrieved document id has no label."""


class TooFewPointsError(MicpqError):
    """K-means needs at least as many points as clusters."""
