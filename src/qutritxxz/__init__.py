"""Thermal entanglement of a two-qutrit XXZ pair with z-axis DM
interaction and Herring-Flicker distance-dependent coupling."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    DegenerateCoupling,
    DomainError,
    ModelParams,
    analytic_spectrum,
    hamiltonian_closed_form,
    hamiltonian_tensor,
    hf_coupling,
)
from .thermal import (  # noqa: F401
    ThermalState,
    gibbs,
    gibbs_analytic,
    gibbs_numeric,
    ground_state_mixture,
    partition_function,
    thermal_point,
)
from .entanglement import (  # noqa: F401
    negativity,
    partial_transpose,
    pure_state_negativity_oracle,
)
from .sweeps import (  # noqa: F401
    CriticalPoint,
    SweepResult,
    SweepSpec,
    detect_critical_dz,
    detect_critical_field,
    figure_preset,
    run_sweep,
)
from .validate import validate  # noqa: F401
