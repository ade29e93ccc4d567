"""Exception types shared across the package."""


class BosegasError(Exception):
    """Base class for all package errors."""


class CutoffTooSmall(BosegasError):
    """Momentum cutoff below the first lattice shell; the ball is empty."""


class BetaOutOfRange(BosegasError):
    """Scaling exponent outside (0, 1)."""


class NonConvergence(BosegasError):
    """Fixed-point scattering solver failed to reach the target residual."""

    def __init__(self, iterations: int, best_residual: float):
        self.iterations = iterations
        self.best_residual = best_residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(smallest residual {best_residual:.3e}); coupling or particle "
            f"number is outside the contractive regime"
        )


class DiagonalizationFailure(BosegasError):
    """|G_p| >= F_p for some mode; the quadratic form is not diagonalizable."""

    def __init__(self, point, ratio: float, N: int, kappa: float):
        self.point = tuple(int(i) for i in point)
        self.ratio = ratio
        super().__init__(
            f"|G|/F = {ratio:.6g} >= 1 at lattice point {self.point} "
            f"(N={N}, kappa={kappa}); out of regime"
        )


class NonFiniteSum(BosegasError):
    """A lattice sum overflowed or met both infinities: the run's tables
    left the range of floats, so the coupling is out of regime."""


class BasisTooLarge(BosegasError):
    """Fock basis enumeration exceeded the configured dimension limit."""


class MomentumViolation(BosegasError):
    """An operator term maps a sector state to an in-cap occupation of
    nonzero total momentum."""


class EigenNonConvergence(BosegasError):
    """A dense block eigensolve of a Fock operator failed, or a result
    built on those spectra did not hold: the ground eigenpair missed its
    residual target, or the second-order resolvent met a level not above
    E0 or missed its residual target."""


class InconsistentLattice(BosegasError):
    """A lattice reaches beyond the ball it is read from: a sub-ball
    beyond the cutoff, pair sums whose p + q pass the cutoff (2 K2 > K),
    or a Fock mode set outside the tabulated ball."""


class RejectedConfig(BosegasError):
    """Run configuration is structurally invalid for the requested command."""
