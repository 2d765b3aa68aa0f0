"""Exception hierarchy for qdlab.

Every structural failure raises a subclass of :class:`QdlabError` so callers
(and the CLI) can distinguish malformed input (exit code 2) from a failed
numerical check (exit code 1).
"""


class QdlabError(Exception):
    """Base class for all qdlab errors."""

    #: short machine-readable tag used in JSON error reports
    tag = "QdlabError"

    def to_json(self):
        return {"error": self.tag, "detail": str(self)}


class SurfaceError(QdlabError):
    tag = "SurfaceError"


class ClosureViolation(SurfaceError):
    tag = "ClosureViolation"


class DegenerateTriangle(SurfaceError):
    tag = "DegenerateTriangle"


class GluingMismatch(SurfaceError):
    tag = "GluingMismatch"


class NonIntegerOrder(SurfaceError):
    tag = "NonIntegerOrder"


class UnmarkedPole(SurfaceError):
    tag = "UnmarkedPole"


class InconsistentSymbol(QdlabError):
    tag = "InconsistentSymbol"


class MismatchedType(QdlabError):
    tag = "MismatchedType"


class NonTerminating(QdlabError):
    tag = "NonTerminating"


class BasisMismatch(QdlabError):
    tag = "BasisMismatch"


class InconsistentFunctional(QdlabError):
    tag = "InconsistentFunctional"


class SingularJ(QdlabError):
    tag = "SingularJ"


class TriangleFlip(QdlabError):
    tag = "TriangleFlip"


class OutOfDisk(QdlabError):
    tag = "OutOfDisk"


class NormOutOfRange(QdlabError):
    tag = "NormOutOfRange"


class NegativeNorm(QdlabError):
    tag = "NegativeNorm"


class SingularPoint(QdlabError):
    tag = "SingularPoint"


class InputFormatError(QdlabError):
    tag = "InputFormatError"
