"""spintrio: three exchange-coupled spin-1/2 qubits in time-dependent
magnetic fields.

Real-valued 63-equation evolution of the Pauli-product expansion
coefficients, five global entanglement measures along trajectories, and an
independent complex density-matrix propagator used as a cross-check oracle.
"""

__version__ = "0.1.0"

from .dynamics import (CouplingConstants, FieldSpec, IntegratorConfig,
                       TimeSeries, integrate, integrate_two, propagate_direct,
                       rhs_three)
from .errors import AccuracyError, ConfigError, SpintrioError, ValidationError
from .measures import (concurrence_c3, flip_probability, m_b, m_k, m_l, m_sm,
                       pair_tensors, triple_tensor)
from .pauli import bloch_length, build_hamiltonian, initial_state, rho_to_r

__all__ = [
    "__version__",
    "CouplingConstants", "FieldSpec", "IntegratorConfig", "TimeSeries",
    "integrate", "integrate_two", "propagate_direct", "rhs_three",
    "AccuracyError", "ConfigError", "SpintrioError", "ValidationError",
    "concurrence_c3", "flip_probability", "m_b", "m_k", "m_l", "m_sm",
    "pair_tensors", "triple_tensor",
    "bloch_length", "build_hamiltonian", "initial_state", "rho_to_r",
]
