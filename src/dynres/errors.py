"""Exception types shared across the package.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable error objects.
"""


class DynresError(Exception):
    code = "internal-error"


class InvalidArgumentError(DynresError, ValueError):
    code = "invalid-argument"


class NotAMorphismError(DynresError):
    """The coefficient tuple has vanishing resultant and defines no morphism."""

    code = "not-a-morphism"


class UnfactoredResidueError(DynresError):
    """Integer factorization gave up; carries the cofactor it could neither split nor certify prime."""

    code = "unfactored-residue"

    def __init__(self, message: str, cofactor: int):
        super().__init__(message)
        self.cofactor = cofactor


class MalformedJsonError(DynresError, ValueError):
    """Input text is not valid JSON at all."""

    code = "malformed-json"


class SchemaError(DynresError, ValueError):
    """A JSON payload violating the documented schema."""

    code = "schema-violation"


class CensusAssertionError(DynresError):
    """A census hard assertion failed; carries the offending record."""

    code = "census-assertion"

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class CensusConfigMismatchError(CensusAssertionError):
    """A census prefix holds records written under other settings, or with none recorded."""

    code = "census-config-mismatch"
