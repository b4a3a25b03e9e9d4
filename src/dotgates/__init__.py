"""Intrinsic multi-qubit gate synthesis and verification for quantum-dot arrays."""

from .model import (
    Bond,
    Dot,
    DotArray,
    array_from_json,
    tunneling_from_soi,
)
from .gates import (
    BondReading,
    ControlAnalysis,
    DynamicsCandidates,
    FreePhase,
    GateSpec,
    LatticeBudgetExceeded,
    MqcpFactor,
    NoBondVelocity,
    ParitySolution,
    PhaseVector,
    Unreachable,
    assert_single_control,
    equiv_up_to_free_phase,
    mqcp_phase_solution,
    phase_polynomial,
    read_bonds,
    solve_dynamics,
    solve_parity,
)
from .simulate import (
    DegenerateSpectrum,
    DenseLimitExceeded,
    EigensolverFailure,
    PhaseLimitExceeded,
    SimReport,
    Spectrum,
    build_hamiltonian,
    fidelity_lower_bound,
    optimal_phase_correction,
    pulsed_evolution,
    qubit_frame_evolution,
    simulate_gate,
)
from .calibrate import (
    BudgetExceeded,
    CalibrationTarget,
    InfeasibleSchedule,
    PauliAssignment,
    PulseSchedule,
    Stage,
    accumulated_bond_phases,
    extra_local_phases,
    kspace_path,
    solve_intervals,
    weave_dd,
)
from .circuits import (
    consecutive_ones_parity,
    logical_z_triangle,
    order_reversal,
    parity_check_circuit,
    surface_code_cycle_unit,
)

__version__ = "0.1.0"
