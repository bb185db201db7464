"""One-stage extended Runge-Kutta-Nystrom integrators for Hamiltonian systems
with a single high frequency, their trigonometric/splitting conjugates, and
structure verification tools (symmetry, symplecticity, non-resonance, drift).
"""

from .methods import (
    METHODS,
    NU_GRID,
    ErknMethod,
    SymmetryReport,
    SymplecticityReport,
    check_symmetry,
    check_symplecticity,
    erkn_step,
    step_map,
    stepper,
    symmetric,
    symplectic,
)
from .oscfun import block_expand, sinc
from .splitting import (
    ConjugacyReport,
    NonSymmetricMethod,
    TrigMethod,
    conjugacy_check,
    flow_kick,
    flow_linear,
    strang_lnl_step,
    trig_method_from,
    trig_step_composed,
    trig_stepper,
    upsilon_from,
)
from .systems import (
    Partition,
    State,
    System,
    energies,
    fpu_initial,
    fpu_system,
    hamiltonian,
    linear_system,
    oscillatory_energy,
)
from .verify import (
    AssumptionReport,
    DefectReport,
    DriftStats,
    NonFiniteState,
    ZeroCoefficient,
    adjoint_defect,
    assumption_report,
    drift_check,
    drift_engine,
    drift_series,
    drift_stats,
    non_resonance_max_N,
    sigma,
    structure_defects,
    symplecticity_defect,
)

__version__ = "0.1.0"
