"""Exception hierarchy for clusterforge.

Every error raised on a documented contract boundary derives from
ClusterForgeError, so CLI code can map domain failures to exit code 1
while genuine bugs still surface as ordinary tracebacks.
"""


class ClusterForgeError(Exception):
    """Base class for all domain errors."""


class CyclicQuiver(ClusterForgeError):
    """The directed graph contains an oriented cycle."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"oriented cycle through vertices {self.cycle}")


class DimensionMismatch(ClusterForgeError):
    """Vector or matrix shapes are incompatible."""


class NoSolution(ClusterForgeError):
    """An integer linear system has no solution over Z."""


class PreconditionViolated(ClusterForgeError):
    """An operation was called outside its documented domain."""


class IsProjective(ClusterForgeError):
    """tau is undefined on modules with a projective summand."""


class IsInjective(ClusterForgeError):
    """tau_inv is undefined on modules with an injective summand."""


class NotExceptional(ClusterForgeError):
    """A computation certified that its rigidity hypothesis fails."""


class VertexNotSinkOrSource(ClusterForgeError):
    """Reflection requested at a vertex that is not a sink or source."""


class SimpleAtVertex(ClusterForgeError):
    """Reflection requested on a module with a simple summand there."""


class NotFoundWithinBound(ClusterForgeError):
    """Mutation target exists but was not found within the dimension bound."""


class ConstructionFailed(ClusterForgeError):
    """The approximation construction did not produce a valid complement."""


class BalanceUnsolvable(ClusterForgeError):
    """The partner of an exchange pair is not of the class its exchange
    matrix predicts."""


class FormatError(ClusterForgeError):
    """A structured input file is malformed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
