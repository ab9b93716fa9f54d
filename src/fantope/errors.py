"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Bad input: wrong shape, non-finite entries, out-of-range parameter, or (as
    SpsViolated or InfeasibleConstraint) a matrix or budget outside the theory's domain."""


class NumericalFailure(RuntimeError):
    """A dense linear-algebra routine failed to converge or returned garbage."""


class NotConverged(RuntimeError):
    """The splitting loop stopped before meeting its residual tolerance.

    It stops short when progress stalls (the sublinear-progress bail-out) or
    when it hits max_iters; the message names which, with the iteration count,
    both residuals and the tolerance.  Carries the partial solution so callers
    can inspect it, or resume with solve_fps(s, config, warm=exc.solution).
    """

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


class InfeasibleConstraint(InvalidInput):
    """A constraint level that no feasible point can satisfy (e.g. R < k)."""


class GapCollapsed(RuntimeError):
    """An eigenvalue gap required by a procedure is zero or negative."""


class SpsViolated(InvalidInput):
    """The population matrix lacks the spectral structure a check requires."""


class DegenerateModel(RuntimeError):
    """Model generation produced a degenerate instance (after retries)."""
