"""Exception types shared across the library."""


class UnilabError(Exception):
    """Base class for every error raised by this library."""


class NonFiniteError(UnilabError):
    """A value that must be finite came out as nan or inf."""


class SingularMatrixError(UnilabError):
    """Determinant magnitude fell below the scale-aware singularity guard."""


class SingularFrameError(UnilabError):
    """Frame matrix is not invertible at the evaluation point."""


class ExpressionSyntaxError(UnilabError):
    """Malformed expression text, reported with the byte offset of the fault."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.message = message


class ExpressionCompileError(UnilabError):
    """Expression (or one of its derivatives) nests too deeply for Python to compile."""


class UnknownIdentifierError(UnilabError):
    """Identifier outside the x1/x2/x3, pi/e, function whitelist."""

    def __init__(self, offset: int, name: str):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.offset = offset
        self.name = name


class EvaluationDomainError(UnilabError):
    """Evaluation left the domain of a function (log of a negative, division by zero, ...)."""


class OutOfDomainError(UnilabError):
    """Evaluation point lies outside the body domain or sampling grid."""


class MissingDirectorError(UnilabError):
    """Symmetry case requires a director field that was not supplied."""


class NotAGroupError(UnilabError):
    """Matrix set fails a group axiom (identity, closure, or inverses)."""


class NotComposableError(UnilabError):
    """Arrows or squares do not meet tip-to-tail along the required edge."""


class InconsistentCornersError(UnilabError):
    """Square arrows do not match the declared corner points."""


class NotTransitiveError(UnilabError):
    """Groupoid has no arrow between the requested points."""


class NotTriclinicError(UnilabError):
    """More than one arrow between a pair of points where uniqueness is required."""


class NotOneCompatibleError(UnilabError):
    """Point pairs fail 1-compatibility, so the normalizer test does not apply."""


class SingularJacobianError(UnilabError):
    """Configuration-change Jacobian is not invertible at some point."""


class PreconditionViolatedError(UnilabError):
    """Caller-supplied data violates a documented precondition."""


class SizeLimitError(UnilabError):
    """Enumeration would exceed the configured size cap."""


class ScanFailedError(UnilabError):
    """Too many lattice nodes failed during a domain scan."""


class ConfigError(UnilabError):
    """Analysis configuration is structurally or semantically invalid."""


# ---------------------------------------------------------------------------
# Per-node failures of stacked computations
# ---------------------------------------------------------------------------
#
# A computation over an (N, 3) stack of points returns, next to its arrays,
# a dict mapping each failing node index to the error that the per-point
# route raises there: the first one, in the order the per-point route
# performs its steps.


def merge_failures(failures: dict, later: dict) -> None:
    """Add the failures of a later step for nodes that did not fail before it."""
    for node, exc in later.items():
        failures.setdefault(node, exc)


def raise_first(failures: dict) -> None:
    """Raise the error of the lowest failing node, if any node failed."""
    if failures:
        raise failures[min(failures)]
