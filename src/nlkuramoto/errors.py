"""Exception hierarchy shared across the package.

The CLI maps these to exit codes: configuration problems exit 2, numerical
failures (a blow-up, or a lambda_star solve that did not converge) exit 3,
failed invariant or acceptance checks exit 1.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Invalid run configuration.

    Carries every violation found (``problems``), not just the first, so a
    user can fix a config file in one pass.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ParameterError(ValueError):
    """Out-of-range argument in a direct API call."""


class GridMismatchError(ValueError):
    """Operands were built on different grids."""


class SingularityError(ValueError):
    """Singular kernel evaluated at zero distance (diagonal not excluded)."""


class BlowUpError(RuntimeError):
    """Non-finite state produced by a time step.

    When raised from a full simulation, ``trajectories`` holds every
    member's partial trajectory up to the last good state, ``trajectory``
    that of member ``row``, and ``t`` the time it was reached.  ``row`` is
    the first member of a family of states that went non-finite, and
    ``node`` the node of that member's largest |rate| at the last finite
    state.
    """

    def __init__(self, message, trajectory=None, t=None, row=None, node=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.trajectories = []
        self.t = t
        self.row = row
        self.node = node


class IterationError(RuntimeError):
    """Eigenvalue iteration did not converge; ``residual`` is the final one."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual
