"""Exception types shared across the package."""


class BosegasError(Exception):
    """Base class for all package errors."""


class CutoffTooSmall(BosegasError):
    """Momentum cutoff below the first lattice shell; the ball is empty."""


class BetaOutOfRange(BosegasError):
    """Scaling exponent outside (0, 1)."""


class NotCubicInvariant(BosegasError):
    """Input to the convolver is not constant on cubic orbits."""


class NonConvergence(BosegasError):
    """Fixed-point scattering solver failed to reach the target residual."""

    def __init__(self, iterations: int, last_residual: float):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(last residual {last_residual:.3e}); coupling or particle "
            f"number is outside the contractive regime"
        )


class DiagonalizationFailure(BosegasError):
    """|G_p| >= F_p for some mode; the quadratic form is not diagonalizable."""

    def __init__(self, point, ratio: float, N: int, kappa: float):
        self.point = tuple(point)
        self.ratio = ratio
        super().__init__(
            f"|G|/F = {ratio:.6g} >= 1 at lattice point {tuple(point)} "
            f"(N={N}, kappa={kappa}); out of regime"
        )


class NonFiniteSum(BosegasError):
    """A lattice sum overflowed or met both infinities: the run's tables
    left the range of floats, so the coupling is out of regime."""


class ZeroMomentumArgument(BosegasError):
    """Cubic vertex evaluated with p, q or p+q at the zero mode."""


class BasisTooLarge(BosegasError):
    """Fock basis enumeration exceeded the configured dimension limit."""


class MomentumViolation(BosegasError):
    """An operator term maps a sector state to an in-cap occupation of
    nonzero total momentum."""


class EigenNonConvergence(BosegasError):
    """Iterative extremal eigensolver did not meet its residual target."""


class LinearSolveNonConvergence(BosegasError):
    """Projected resolvent linear system did not meet its residual target."""


class InconsistentLattice(BosegasError):
    """Energy components were computed on different momentum lattices."""


class RejectedConfig(BosegasError):
    """Run configuration is structurally invalid for the requested command."""
