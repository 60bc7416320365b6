"""Exception types shared across the package.

Every exception carries a stable machine-readable ``code`` used by the CLI
when emitting error JSON.
"""


class CfcError(Exception):
    code = "error"


class InvalidGenerator(CfcError):
    """A generator index (or rank) outside 1..n."""

    code = "invalid_generator"


class NotReduced(CfcError):
    """Operation requires a reduced expression."""

    code = "not_reduced"


class ClosureTooLarge(CfcError):
    """A rewriting closure exceeded the configured word cap."""

    code = "closure_too_large"


class InvalidSetting(CfcError):
    """An environment setting does not hold a value of the required form."""

    code = "invalid_setting"


class RankTooLarge(CfcError):
    """An enumeration was requested above the configured rank cap."""

    code = "rank_too_large"


class DegreeMismatch(CfcError):
    """Two permutations of different degrees were combined."""

    code = "degree_mismatch"


class NotAPermutation(CfcError):
    """A one-line sequence is not a permutation of 1..degree."""

    code = "not_a_permutation"


class NotCFC(CfcError):
    """Operation requires a cyclically fully commutative element."""

    code = "not_cfc"


class NotMaximalBlock(CfcError):
    """No maximal block with the requested label exists in the heap."""

    code = "not_maximal_block"


class ChunkAtBoundary(CfcError):
    """A slide was requested past the last generator column."""

    code = "chunk_at_boundary"


class OutOfRange(CfcError):
    """Chunk sizes do not fit inside the requested rank."""

    code = "out_of_range"


class PatternMismatch(CfcError):
    """The word does not carry the expected factor at the given position."""

    code = "pattern_mismatch"


class InvalidObject(CfcError):
    """A loaded JSON object contradicts the value it claims to describe."""

    code = "invalid_object"


class WriteFailed(CfcError):
    """An output file could not be written."""

    code = "write_failed"


class VerificationFailed(CfcError):
    """A synthesized certificate failed its check; this is a bug, never data."""

    code = "verification_failed"
