"""Energy expansion for N bosons on the unit torus.

Pipeline: enumerate a momentum ball, solve the lattice scattering equation,
build the quadratic-diagonalization tables, assemble all energy terms along
two independent routes, and cross-check the closed forms against truncated
Fock-space brute force.
"""

from .errors import (
    BasisTooLarge,
    BetaOutOfRange,
    BosegasError,
    CutoffTooSmall,
    DiagonalizationFailure,
    EigenNonConvergence,
    InconsistentLattice,
    LinearSolveNonConvergence,
    NonConvergence,
    NonFiniteSum,
    NotCubicInvariant,
    RejectedConfig,
    ZeroMomentumArgument,
)
from .lattice_potential import (
    LatticeBall,
    Potential,
    ScaledPotentialTable,
    born2_sum,
    enumerate_lattice,
    scaled_table,
)
from .scattering import (
    ScatteringSolution,
    eta_tail,
    residual,
    scattering_length,
    solve_eta,
)
from .bogoliubov import (
    BogoliubovTables,
    bogoliubov_ground_energy,
    build_tables,
    constant_C,
    e00,
    e01,
)
from .corrections import (
    EnergyReport,
    assemble_report,
    c_constant,
    depletion,
    e_corr,
    e_pert_tilde,
    f_pq,
    g2_expectation,
)

__version__ = "0.1.0"
