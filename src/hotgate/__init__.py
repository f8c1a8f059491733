"""Simulator for a two-qubit trapped-ion gate that works on hot motional states.

Layers, bottom to top:

* fock_core — truncated oscillator algebra: ladder/displacement operators,
  thermal states, tensor products, partial traces, the truncation heuristic.
* trap_model — statics of two ions in a power-law trap: equilibrium
  separation, normal modes, the commensurability condition nu_r = 2 nu_c,
  and the anharmonic correction to the two-mode picture.
* gate_protocol — the kick / free-flight / addressed-flip / closing-kick
  schedule, its condition solver, the gate channel (1-D Gaussian integrals
  over ion 1's position, in any harmonic trap), the motional output from
  propagated thermal Fock columns, which are also the channel's oracle, and
  the literal composite-unitary path that tests use as their oracle.
* analysis — separation curves, channel fidelity/purity, the perturbative
  anharmonic fidelity with its exact-propagation cross-check, and grid scans.
* cli — the `hotgate` command.
"""

from .analysis import (
    AnharmonicReport,
    GateReport,
    QuantumChannel,
    SeparationCurve,
    anharmonic_fidelity,
    average_fidelity,
    average_purity,
    exact_anharmonic_fidelity,
    gate_report,
    scan,
    separation_analytic,
    separation_numeric,
    separation_scan,
)
from .errors import (
    ConfigError,
    InfeasibleRatioError,
    InvalidOperatorError,
    KindMismatchError,
    NoEquilibriumError,
    NonConvergenceError,
)
from .fock_core import (
    DensityOp,
    PureState,
    annihilation,
    coherent_state,
    creation,
    default_fock_dim,
    displacement,
    fock_state,
    hermitian_expm,
    partial_trace,
    position_operator,
    tensor,
    thermal_probabilities,
    thermal_state,
    trace_distance,
)
from .gate_protocol import (
    AddressedPulse,
    ConditionReport,
    GateChannel,
    GateSchedule,
    KickPulse,
    SystemState,
    build_schedule,
    condition_solver,
    eta_lower_bound,
    gate_channel,
    ideal_gate,
    initial_state,
    motional_output,
    pulse_train,
    run_gate,
)
from .trap_model import (
    AnharmonicExpansion,
    ModeBasis,
    TrapSpec,
    anharmonic_expansion,
    build_mode_basis,
    equilibrium_separation,
    frequency_ratio,
    mode_frequencies,
    relative_occupation,
    solve_exponent_for_ratio,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
