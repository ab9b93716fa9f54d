"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Bad input: wrong shape, non-finite entries, out-of-range parameter, or (as
    SpsViolated or InfeasibleConstraint) a matrix or budget outside the theory's domain."""


class NumericalFailure(RuntimeError):
    """A dense linear-algebra routine failed to converge or returned garbage."""


class NotConverged(RuntimeError):
    """Iterative solver hit max_iters before meeting its residual tolerances.

    Carries the partial solution so callers can inspect it, or resume with
    solve_fps(s, config, warm=exc.solution).
    """

    def __init__(self, message, solution=None):
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
