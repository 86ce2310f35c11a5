"""Fast entangling-gate design for long trapped-ion chains.

Builds chain normal-mode models, simulates state-dependent-kick gate
dynamics classically, scores gates with a thermal-weighted infidelity
model, and optimises antisymmetric pulse-group sequences in two stages.
"""

__version__ = "0.1.0"

from .chain import (
    ChainModel,
    EquilibriumNotConverged,
    NonConfiningPotential,
    TrapConfig,
    axial_frequency,
    build_chain,
    equilibrium_positions,
    hessian,
    lamb_dicke,
    length_scale,
    normal_modes,
)
from .dynamics import (
    BASIS_STATES,
    ModeState,
    PhaseSymmetryError,
    TrajectoryResult,
    entangling_phase,
    free_evolution,
    propagate,
    propagate_lanes,
    propagate_linear_ode,
    propagate_nonlinear,
)
from .fidelity import (
    GateReport,
    ThermalSpec,
    analytic_cost,
    analytic_report,
    apply_pulse_error,
    evaluate_train,
    evaluate_trains,
    infidelity,
    thermal_occupation,
)
from .optimize import (
    OptimizationResult,
    Stage1Config,
    Stage2Config,
    jitter_sensitivity,
    optimize_gate,
    stage1,
    stage2,
)
from .sequence import (
    BurstOverlap,
    GridResolutionError,
    KickTrain,
    PulseGroupSequence,
    expand_groups,
    instantaneous_train,
)
from .stark import (
    ShelvingScenario,
    TransitionData,
    gate_phase_budget,
    load_atomic_data,
    qubit_phase_per_pulse,
    scenario_from_data,
    stark_shift,
)
