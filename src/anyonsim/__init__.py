"""Anyonic interferometry and topological-memory protocols on surface codes.

Modules: lattice (code geometry and string operators), pauli / weyl (exact
operator algebra with phase tracking), tableau (stabilizer simulation),
statevector (dense oracle and non-Clifford states), protocols
(interferometry, SWAP access, teleported rotations on the dense memory,
geometric phase gate),
diffusion (stochastic anyon hopping with echo control), analytics (error
budgets), oracle (cross-validation suites), cli (batch front-end).
"""

from .errors import ConfigurationError, ContractError, UsageError
from .lattice import (Lattice, LatticeSpec, StringPath, build_lattice,
                      crossing_parity, deform_string, degeneracy,
                      logical_operators, planar, shortest_string, torus)
from .pauli import PauliString, commutation_phase, from_string_path, multiply
from .weyl import WeylString, weyl_braiding_phase, weyl_gate_count, weyl_multiply

__all__ = [
    "ConfigurationError", "ContractError", "UsageError",
    "Lattice", "LatticeSpec", "StringPath", "build_lattice", "crossing_parity",
    "deform_string", "degeneracy", "logical_operators", "planar",
    "shortest_string", "torus",
    "PauliString", "commutation_phase",
    "from_string_path", "multiply",
    "WeylString", "weyl_braiding_phase", "weyl_gate_count", "weyl_multiply",
]

__version__ = "0.1.0"
