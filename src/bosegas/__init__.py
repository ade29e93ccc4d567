"""Energy expansion for N bosons on the unit torus.

Pipeline: enumerate a momentum ball, solve the lattice scattering equation,
build the quadratic-diagonalization tables, assemble all energy terms along
two independent routes, and cross-check the closed forms against truncated
Fock-space brute force.
"""

__version__ = "0.1.0"
