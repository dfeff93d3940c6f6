"""Exception types shared across the package, and ``Frozen``, the one base
of its value classes: equality, hashing, repr by fields and immutability
without importing dataclasses (which pulls in inspect, ast and tokenize)."""


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


class Frozen:
    """A value: equal to, and hashing as, an instance of the same class
    whose ``_fields`` are equal, with a repr of those fields.  Its
    ``__init__`` writes the fields into ``__dict__`` once; assigning or
    deleting any attribute afterwards raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
