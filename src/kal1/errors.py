"""Exception types shared across the package."""


class Kal1Error(Exception):
    """Base class for all library errors."""


class ParameterError(Kal1Error):
    """Invalid or inconsistent code parameters."""


class DimensionMismatch(Kal1Error):
    """Operands have incompatible shapes or lengths."""


class SingularMatrixError(Kal1Error):
    """Inversion attempted on a rank-deficient matrix."""


class GenerationFailure(Kal1Error):
    """Key generation exhausted its resampling budget."""


class DecodingFailure(Kal1Error):
    """No error vector of acceptable weight matches the syndrome.

    ``reason`` is a stable code: ``"locator-not-split"`` when the error
    locator does not have as many distinct roots on the support as its
    degree, ``"syndrome-mismatch"`` when the located error's syndrome
    differs from the one decoded, ``"syndrome-not-invertible"`` when the
    syndrome polynomial has no inverse modulo a Goppa polynomial with a
    repeated factor.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


class WeightError(Kal1Error):
    """Vector does not have the required Hamming weight."""


class RangeError(Kal1Error):
    """Integer outside the usable message or rank range."""


class FormatError(Kal1Error):
    """Malformed serialized key, ciphertext or KAT record."""


class PolicyError(Kal1Error):
    """Seed-row policy inconsistent with the code parameters."""


class KatMismatch(Kal1Error):
    """A KAT record did not reproduce."""

    def __init__(self, record: int, field: str, expected: str, actual: str):
        super().__init__(f"record {record}: {field} expected {expected}, got {actual}")
        self.record = record
        self.field = field
        self.expected = expected
        self.actual = actual
