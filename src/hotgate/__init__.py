"""Simulator for a two-qubit trapped-ion gate that works on hot motional states.

Layers, bottom to top:

* fock_core — truncated oscillator algebra on plain arrays: ladder,
  position and displacement operators, thermal states, trace distance, the
  truncation heuristic.
* trap_model — statics of two ions in a power-law trap: equilibrium
  separation, normal modes, the commensurability condition nu_r = 2 nu_c,
  the anharmonic correction to the two-mode picture, and (ModeBasis) the
  thermal and kick geometry the layers above read.
* gate_protocol — the kick / free-flight / addressed-flip / closing-kick
  protocol at its fixed times, the condition solver for the addressed
  pulse, the one input solved per operating point, the gate channel (1-D
  Gaussian integrals over ion 1's position, in any harmonic trap), and the
  motional output where it has a closed form.  The Fock-space oracles the tests check these
  against live in tests/oracles.py, outside the package.
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
    NoEquilibriumError,
    NonConvergenceError,
)
from .fock_core import (
    DensityOp,
    annihilation,
    default_fock_dim,
    displacement,
    hermitian_expm,
    position_operator,
    thermal_probabilities,
    thermal_state,
    trace_distance,
)
from .gate_protocol import (
    AddressedPulse,
    ConditionReport,
    GateChannel,
    build_schedule,
    condition_solver,
    eta_lower_bound,
    gate_channel,
    ideal_gate,
    motional_output,
    pulse_train,
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
