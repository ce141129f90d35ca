"""Exception types shared across the package."""


class ZigzagError(Exception):
    """Base class for all library errors."""


class DegenerateSide(ZigzagError):
    """A side length is zero or negative (boundary of the moduli cell)."""


class EpsTooLarge(ZigzagError):
    """Handle-insertion parameter outside the admissible range."""


class QuadratureFailure(ZigzagError):
    """A quadrature did not reach the requested tolerance."""


class NoConvergence(ZigzagError):
    """A Newton solve did not converge.

    Carries max|F| at every Newton point reached in ``trace``, the history
    a converged solve returns as its residuals: each from one 12-node sum,
    or the certified value where a point that looked converged was
    certified and found not to be.  A point whose certification fails is
    not in it.  A stacked solve ends at its first failure and carries the
    trace of the member that failed: the member whose step did not reduce
    its max|F| or could not be taken; for a point the kernel refused, the
    first member still stepping; for a failed certificate, the first
    member waiting for it.  The message ends with its length and last
    entry.
    """

    def __init__(self, message, trace=None):
        self.trace = list(trace or [])
        if self.trace:
            message += f" after {len(self.trace)} Newton iterations, last residual {self.trace[-1]:.3e}"
        super().__init__(message)


class FitFailure(ZigzagError):
    """A least-squares model fit failed its certification threshold."""


class DegenerateCrossRatio(ZigzagError):
    """Two of the four cross-ratio points coincide."""


class DomainError(ZigzagError):
    """Argument outside the mathematical domain of an operation."""


class NotReflexive(ZigzagError):
    """A zigzag is not certified reflexive: its height D is not below the
    tolerance, or its NE and SW prevertex tuples differ beyond it."""


class PeriodMismatch(ZigzagError):
    """A Weierstrass period check failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
