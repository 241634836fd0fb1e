"""Exception types raised by the psdperm package."""

from __future__ import annotations


class PsdPermError(Exception):
    """Base class for all psdperm errors."""


class NotSquareError(PsdPermError):
    """Input matrix is not a square 2-D array, or a Gram factor not a 2-D one."""


class NonFiniteError(PsdPermError):
    """Input contains NaN or infinite entries."""


class NotHermitianError(PsdPermError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(PsdPermError):
    """Matrix is not positive semidefinite beyond tolerance."""


class ReconstructionError(PsdPermError):
    """Gram factor fails to reproduce the source matrix within tolerance."""


class NotPositiveDefiniteError(PsdPermError):
    """Cholesky factorization failed; matrix is not positive definite."""


class ZeroRowError(PsdPermError):
    """A Gram factor row is zero, so the objective is ``-inf`` everywhere."""


class TooLargeError(PsdPermError):
    """Matrix dimension exceeds the guard for an exact algorithm."""


class BadRankError(PsdPermError):
    """Requested rank is invalid for the instance ensemble."""


class ParseError(PsdPermError):
    """Instance file is not well-formed structured text."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class SchemaError(PsdPermError):
    """Instance file parses but violates the schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
