"""Pulse schedule and propagators for the two-ion conditional-flip gate.

Protocol on the composite space qubit1 (x) qubit2 (x) mode_c (x) mode_r:

1. a state-dependent momentum kick on ion 2 (sigma+ e^{ikx2} + sigma- e^{-ikx2}),
   which splits the motion into two coherent branches correlated with qubit 2;
2. free evolution to t0 = 2*pi/(3*nu_c), where the branch separation of ion 1
   peaks;
3. a spatially addressed Rabi pulse on ion 1 whose Gaussian profile is tuned
   so one branch sees a half-integer number of Rabi cycles (flip) and the
   other an integer number (no net effect);
4. free evolution to t_g = 2*pi/nu_c, where both motional modes complete an
   integer number of periods (nu_r = 2*nu_c), refocusing the branches;
5. the closing kick, which undoes step 1.

In the commensurate harmonic trap the motional state factors out exactly and
the internal action is a qubit-1 flip conditioned on qubit 2 being |0>.

Two execution paths coexist: the literal one builds full composite unitaries
(kick_unitary / free_propagator / addressed_flip_unitary, composed by
run_gate) and is the readable reference for moderate truncations; the branch
path (gate_channel / motional_output) exploits that the protocol is diagonal
in qubit 2 and block-diagonal in the sigma^x eigenbasis of qubit 1, so only
mode-local operators ever touch the motional factor.  Both paths are checked
against each other in the tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import exp, pi, sqrt

import numpy as np

from . import fock_core
from .trap_model import (
    AnharmonicExpansion,
    ModeBasis,
    mode_energies,
    motional_hamiltonian,
    relative_occupation,
    v_cor_operator,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
SIGMA_MINUS = SIGMA_PLUS.conj().T
PROJ_0 = np.diag([1.0, 0.0]).astype(complex)
PROJ_1 = np.diag([0.0, 1.0]).astype(complex)
ID2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class KickPulse:
    """Instantaneous state-dependent momentum kick on ion 2."""

    eta_effective: float
    target: int = 2

    def __post_init__(self):
        if self.eta_effective < 0:
            raise ValueError("eta_effective must be non-negative")
        if self.target != 2:
            raise ValueError("kicks address ion 2 in this protocol")


@dataclass(frozen=True)
class AddressedPulse:
    """Gaussian-profile Rabi pulse on ion 1: Omega(x) = omega0 * exp(-(x-center)^2/(2 width^2))."""

    omega0: float
    center: float
    width: float
    duration: float
    target: int = 1

    def __post_init__(self):
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")
        if self.width <= 0 or self.duration <= 0:
            raise ValueError("width and duration must be positive")
        if self.target != 1:
            raise ValueError("the addressed pulse drives ion 1 in this protocol")


def gaussian_rabi(pulse: AddressedPulse, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return pulse.omega0 * np.exp(-((x - pulse.center) ** 2) / (2.0 * pulse.width**2))


@dataclass(frozen=True)
class GateSchedule:
    """Timing and pulses of one gate execution.

    frame_phase is the virtual z-rotation (radians) applied to qubit 2's |0>
    component after the closing kick.  The solved Gaussian schedule sets it
    to pi/2: the commanded branch pulse areas differ by half a Rabi cycle,
    which deterministically tags the flipped branch with -i, and the frame
    rotation returns the realized gate to the ideal gate's phase frame.
    """

    t0: float
    t_g: float
    kick_open: KickPulse
    kick_close: KickPulse
    flip: AddressedPulse | None = None
    frame_phase: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.t0 < self.t_g:
            raise ValueError("need 0 < t0 < t_g")
        if self.flip is not None and self.flip.duration > self.t_g / 20.0:
            warnings.warn("addressed pulse lasts more than t_g/20; the "
                          "instantaneous-pulse approximation degrades", stacklevel=2)


@dataclass(frozen=True)
class ConditionReport:
    """Solved addressing geometry and validity flags for one operating point.

    The flags operationalize the protocol's separation hierarchy and pulse
    rules; `satisfied` maps short names to booleans, and well_conditioned
    is their conjunction.
    """

    eta: float
    n_bar_c: float
    n_bar_r: float
    rabi_cycles: int
    margin: float
    big_d: float
    delta: float
    big_w: float
    center: float
    t1: float
    omega0: float
    omega0_t1: float
    pulse_area: float
    w_over_d: float
    eta_bound: float
    eta_bound_ratio: float
    satisfied: dict = field(default_factory=dict)

    @property
    def well_conditioned(self) -> bool:
        return all(self.satisfied.values())

    def to_dict(self) -> dict:
        out = {
            "eta": self.eta,
            "n_bar_c": self.n_bar_c,
            "n_bar_r": self.n_bar_r,
            "rabi_cycles": self.rabi_cycles,
            "margin": self.margin,
            "branch_separation_D": self.big_d,
            "wavepacket_delta": self.delta,
            "profile_width_W": self.big_w,
            "profile_center_l": self.center,
            "t1": self.t1,
            "omega0": self.omega0,
            "omega0_t1": self.omega0_t1,
            "pulse_area": self.pulse_area,
            "w_over_d": self.w_over_d,
            "eta_bound": self.eta_bound,
            "eta_bound_ratio": self.eta_bound_ratio,
            "well_conditioned": self.well_conditioned,
        }
        out.update({f"ok_{k}": v for k, v in self.satisfied.items()})
        return out


def eta_lower_bound(n_bar_c: float) -> float:
    """Minimum kick strength for branch separation to clear the thermal
    wavepacket size: sqrt(4*n_bar_c + 2*n_bar_r + 3)/(3*sqrt(3))."""
    n_bar_r = relative_occupation(n_bar_c)
    return sqrt(4.0 * n_bar_c + 2.0 * n_bar_r + 3.0) / (3.0 * sqrt(3.0))


def pulse_train(eta_single: float, n_pulses: int) -> float:
    """Effective kick strength of a train of n equal photon kicks.

    Each pulse also toggles qubit 2, so an odd count realizes the net
    sigma+/sigma- structure the protocol needs; the caller picks the count.
    """
    if int(n_pulses) != n_pulses or n_pulses < 1:
        raise ValueError("n_pulses must be a positive integer")
    if eta_single <= 0:
        raise ValueError("eta_single must be positive")
    return float(eta_single) * int(n_pulses)


def condition_solver(
    basis: ModeBasis,
    n_bar_c: float = 0.0,
    rabi_cycles: int = 3,
    margin: float = 3.0,
    t1_over_tg: float = 0.01,
) -> tuple[AddressedPulse, ConditionReport]:
    """Solve the addressed-pulse geometry for a thermal operating point.

    With N = rabi_cycles, the construction pins the Gaussian width to
    W = (4N + 1/2)*D at the branch separation maximum D = (3*sqrt(3)/2)*x0*eta,
    centers the profile at l = x_e/2 + W (its steepest point sits on ion 1),
    and fixes the pulse area Omega(x_e/2)*t1/2 = (2N + 1/4)*pi so the two
    branches see (2N + 1/2)*pi and 2N*pi respectively.
    """
    if int(rabi_cycles) != rabi_cycles or rabi_cycles < 1:
        raise ValueError("rabi_cycles must be a positive integer")
    if n_bar_c < 0:
        raise ValueError("n_bar_c must be non-negative")
    if margin < 1.0:
        raise ValueError("margin below 1 would defeat the validity flags")
    n = int(rabi_cycles)
    eta = basis.eta
    x0 = basis.x0
    n_bar_r = relative_occupation(n_bar_c)
    big_d = 1.5 * sqrt(3.0) * x0 * eta
    delta = sqrt(n_bar_c + n_bar_r / 2.0 + 0.75) * x0
    big_w = (4.0 * n + 0.5) * big_d
    center = basis.x_e / 2.0 + big_w
    t1 = t1_over_tg * basis.gate_time
    area = (2.0 * n + 0.25) * pi  # Omega(x_e/2) * t1 / 2
    omega_edge = 2.0 * area / t1
    omega0 = omega_edge * exp(0.5)
    bound = eta_lower_bound(n_bar_c)
    ratio = eta / bound if bound > 0 else float("inf")
    phase_spread = area * delta / big_w  # d(theta)/dx at x_e/2 times Delta
    satisfied = {
        "separation_hierarchy": big_w > big_d > delta * margin,
        "rabi_cycle_matching": True,  # exact by construction, see module tests
        "profile_linearity": phase_spread < 1.0 / margin,
        "pulse_area_rule": True,  # area == (2N + 1/4)*pi by construction
        "rabi_cycles_large": n >= 3,
        "eta_above_bound": ratio >= margin,
    }
    pulse = AddressedPulse(omega0=omega0, center=center, width=big_w, duration=t1)
    report = ConditionReport(
        eta=eta, n_bar_c=n_bar_c, n_bar_r=n_bar_r, rabi_cycles=n, margin=margin,
        big_d=big_d, delta=delta, big_w=big_w, center=center, t1=t1,
        omega0=omega0, omega0_t1=omega0 * t1, pulse_area=area,
        w_over_d=big_w / big_d, eta_bound=bound, eta_bound_ratio=ratio,
        satisfied=satisfied,
    )
    return pulse, report


def build_schedule(
    basis: ModeBasis,
    n_bar_c: float = 0.0,
    rabi_cycles: int = 3,
    margin: float = 3.0,
    t1_over_tg: float = 0.01,
) -> tuple[GateSchedule, ConditionReport]:
    """Assemble the full solved schedule for one operating point."""
    pulse, report = condition_solver(basis, n_bar_c, rabi_cycles, margin, t1_over_tg)
    schedule = GateSchedule(
        t0=basis.flip_time,
        t_g=basis.gate_time,
        kick_open=KickPulse(basis.eta),
        kick_close=KickPulse(basis.eta),
        flip=pulse,
        frame_phase=pi / 2.0,
    )
    return schedule, report


# ---------------------------------------------------------------------------
# composite-space operators (reference path)
# ---------------------------------------------------------------------------


def _kick_factors(basis: ModeBasis, pulse: KickPulse):
    """Mode displacement factors and constant phase of e^{+ik x2}.

    x2 = x_c - (x_r + x_e)/2, so the +k branch displaces mode c by +i*eta_c,
    mode r by -i*eta_r, and carries the constant phase e^{-i k x_e/2}.
    """
    k_eff = pulse.eta_effective / basis.x0
    eta_c = k_eff * basis.width_c
    eta_r = (k_eff / 2.0) * basis.width_r
    n_c, n_r = basis.dims
    d_c = fock_core.displacement(1j * eta_c, n_c)
    d_r = fock_core.displacement(-1j * eta_r, n_r)
    phase = np.exp(-0.5j * k_eff * basis.x_e)
    return d_c, d_r, phase


def kick_unitary(basis: ModeBasis, pulse: KickPulse) -> np.ndarray:
    """Full composite kick sigma+_2 e^{ik x2} + sigma-_2 e^{-ik x2}."""
    d_c, d_r, phase = _kick_factors(basis, pulse)
    e_plus = phase * np.kron(d_c, d_r)
    e_minus = e_plus.conj().T
    return (np.kron(np.kron(ID2, SIGMA_PLUS), e_plus)
            + np.kron(np.kron(ID2, SIGMA_MINUS), e_minus))


def _free_phases(basis: ModeBasis, t: float) -> np.ndarray:
    """Diagonal of the motional free propagator as an (n_c, n_r) grid."""
    e_c, e_r = mode_energies(basis)
    return np.exp(-1j * t * (e_c[:, None] + e_r[None, :]))


def free_propagator(basis: ModeBasis, t: float) -> np.ndarray:
    """Harmonic free evolution: diagonal phases e^{-i nu (n + 1/2) t} per
    mode, identity on both qubits."""
    diag = np.concatenate([_free_phases(basis, t).ravel()] * 4)
    return np.diag(diag)


def _flip_eigensystem(basis: ModeBasis):
    """Spectral data of ion 1's position x1 = x_c + (x_r + x_e)/2.

    The two mode contributions commute, so x1 diagonalizes in the product of
    the single-mode position eigenbases; returns per-mode eigenvectors and
    the (n_c, n_r) grid of x1 eigenvalues.
    """
    n_c, n_r = basis.dims
    xv_c, vec_c = np.linalg.eigh(fock_core.position_operator(n_c, basis.width_c))
    xv_r, vec_r = np.linalg.eigh(fock_core.position_operator(n_r, basis.width_r))
    xgrid = xv_c[:, None] + (xv_r[None, :] + basis.x_e) / 2.0
    return vec_c, vec_r, xgrid


def addressed_flip_unitary(basis: ModeBasis, pulse: AddressedPulse) -> np.ndarray:
    """exp[-i (t1/2) Omega(x1) sigma^x_1] on the full composite space."""
    vec_c, vec_r, xgrid = _flip_eigensystem(basis)
    theta = 0.5 * pulse.duration * gaussian_rabi(pulse, xgrid)
    vec = np.kron(vec_c, vec_r)
    out = np.zeros((4 * theta.size,) * 2, dtype=complex)
    for s, proj in ((1.0, (ID2 + SIGMA_X) / 2), (-1.0, (ID2 - SIGMA_X) / 2)):
        g = (vec * np.exp(-1j * s * theta).ravel()) @ vec.conj().T
        out += np.kron(np.kron(proj, ID2), g)
    return out


def idealized_flip_unitary(basis: ModeBasis) -> np.ndarray:
    """Testing surrogate: exact sigma^x on qubit 1, controlled on qubit 2
    being |1> (the branch that was kicked from |0>), identity on the motion."""
    eye_m = np.eye(int(np.prod(basis.dims)), dtype=complex)
    return (np.kron(np.kron(SIGMA_X, PROJ_1), eye_m)
            + np.kron(np.kron(ID2, PROJ_0), eye_m))


def frame_rotation(phase: float) -> np.ndarray:
    """Internal-only correction: phase e^{i*phase} on qubit 2's |0> component."""
    r2 = np.diag([np.exp(1j * phase), 1.0]).astype(complex)
    return np.kron(ID2, r2)


def ideal_gate() -> np.ndarray:
    """Target internal gate: flip qubit 1 iff qubit 2 is |0> (basis q1 (x) q2)."""
    return np.kron(SIGMA_X, PROJ_0) + np.kron(ID2, PROJ_1)


# ---------------------------------------------------------------------------
# system state and the literal gate run
# ---------------------------------------------------------------------------


@dataclass
class SystemState:
    """State on qubit1 (x) qubit2 (x) mode_c (x) mode_r."""

    dims: tuple[int, int, int, int]
    data: "fock_core.PureState | fock_core.DensityOp"

    def __post_init__(self):
        d = int(np.prod(self.dims))
        if self.dims[0] != 2 or self.dims[1] != 2:
            raise ValueError("the first two subsystems must be qubits")
        if self.data.dim != d:
            raise ValueError(f"state dimension {self.data.dim} != prod(dims) {d}")

    def density_matrix(self) -> np.ndarray:
        return self.data.to_density().matrix

    def internal_density(self) -> np.ndarray:
        return fock_core.partial_trace(self.density_matrix(), self.dims, keep=(0, 1))

    def motional_density(self) -> np.ndarray:
        return fock_core.partial_trace(self.density_matrix(), self.dims, keep=(2, 3))


def thermal_motional(basis: ModeBasis, n_bar_c: float) -> fock_core.DensityOp:
    """Product of truncation-renormalized thermal states of both modes, at the
    common temperature set by the COM occupation n_bar_c."""
    n_c, n_r = basis.dims
    p_c = fock_core.thermal_probabilities(n_bar_c, n_c)
    p_r = fock_core.thermal_probabilities(relative_occupation(n_bar_c), n_r)
    return fock_core.DensityOp(np.diag(np.kron(p_c, p_r)).astype(complex), check=False)


def initial_state(basis: ModeBasis, internal, n_bar_c: float = 0.0) -> SystemState:
    """Product of an internal two-qubit state with the thermal motion.

    internal may be a length-4 ket or a 4x4 density matrix (raw arrays or
    fock_core wrappers).  A pure internal state over the vacuum stays a
    PureState; anything thermal becomes a DensityOp.
    """
    n_c, n_r = basis.dims
    if isinstance(internal, fock_core.PureState):
        internal = internal.amplitudes
    elif isinstance(internal, fock_core.DensityOp):
        internal = internal.matrix
    internal = np.asarray(internal, dtype=complex)
    if internal.shape == (4,):
        if n_bar_c == 0:
            mot = np.zeros(n_c * n_r, dtype=complex)
            mot[0] = 1.0
            return SystemState((2, 2, n_c, n_r),
                               fock_core.PureState(np.kron(internal, mot)))
        internal = np.outer(internal, internal.conj())
    if internal.shape != (4, 4):
        raise ValueError("internal state must be a length-4 ket or 4x4 matrix")
    rho = np.kron(internal, thermal_motional(basis, n_bar_c).matrix)
    return SystemState((2, 2, n_c, n_r), fock_core.DensityOp(rho, check=False))


def _apply_diag(state_data, diag: np.ndarray):
    """Apply a diagonal unitary given as its phase vector."""
    if isinstance(state_data, fock_core.PureState):
        return fock_core.PureState(diag * state_data.amplitudes)
    m = state_data.matrix if isinstance(state_data, fock_core.DensityOp) else state_data
    out = m * np.outer(diag, diag.conj())
    if isinstance(state_data, fock_core.DensityOp):
        return fock_core.DensityOp(out, check=False)
    return out


def run_gate(
    schedule: GateSchedule,
    initial: SystemState,
    basis: ModeBasis,
    anharmonic: AnharmonicExpansion | None = None,
    flip_mode: str = "gaussian",
) -> SystemState:
    """Execute the schedule on a composite state (reference path).

    Builds the composite pulse unitaries explicitly, so it is meant for
    moderate truncations; large scans go through gate_channel.  When an
    anharmonic expansion is given, the free segments evolve under the full
    motional hamiltonian (dense exponential) instead of diagonal phases.
    """
    if flip_mode not in ("gaussian", "idealized", "none"):
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    if flip_mode == "gaussian" and schedule.flip is None:
        raise ValueError("schedule has no addressed pulse but flip_mode='gaussian'")
    if tuple(initial.dims[2:]) != tuple(basis.dims):
        raise ValueError("state dims do not match basis dims")
    state = initial.data
    u_kick = kick_unitary(basis, schedule.kick_open)
    state = fock_core.unitary_evolve(state, u_kick)
    state = _free_segment(state, basis, schedule.t0, anharmonic)
    if flip_mode == "gaussian":
        state = fock_core.unitary_evolve(state, addressed_flip_unitary(basis, schedule.flip))
    elif flip_mode == "idealized":
        state = fock_core.unitary_evolve(state, idealized_flip_unitary(basis))
    state = _free_segment(state, basis, schedule.t_g - schedule.t0, anharmonic)
    state = fock_core.unitary_evolve(state, kick_unitary(basis, schedule.kick_close))
    if flip_mode == "gaussian" and schedule.frame_phase:
        u_frame = np.kron(frame_rotation(schedule.frame_phase),
                          np.eye(int(np.prod(basis.dims)), dtype=complex))
        state = fock_core.unitary_evolve(state, u_frame)
    return SystemState(initial.dims, state)


def _free_segment(state, basis: ModeBasis, t: float, anharmonic):
    if anharmonic is None:
        diag = np.concatenate([_free_phases(basis, t).ravel()] * 4)
        return _apply_diag(state, diag)
    h = motional_hamiltonian(basis, v_cor_operator(anharmonic, basis))
    u_mot = fock_core.hermitian_expm(h, t)
    u = np.kron(np.eye(4, dtype=complex), u_mot)
    return fock_core.unitary_evolve(state, u)


# ---------------------------------------------------------------------------
# branch path: channel and motional output without composite operators
# ---------------------------------------------------------------------------


class _BranchOps:
    """Mode-factorized appliers for the per-branch motional operators.

    Batches are arrays of shape (n_c, n_r, k); every operation is either a
    single-mode matrix product or a diagonal grid multiply, so nothing larger
    than n_mode^2 (or M x M in the dense anharmonic variant) is ever formed.
    """

    def __init__(self, basis: ModeBasis, schedule: GateSchedule, flip_mode: str,
                 anharmonic: AnharmonicExpansion | None = None):
        self.basis = basis
        self.schedule = schedule
        self.flip_mode = flip_mode
        n_c, n_r = basis.dims
        d_c, d_r, phase = _kick_factors(basis, schedule.kick_open)
        # kick_close is allowed to differ in strength, though solved schedules
        # never use that freedom
        d_c2, d_r2, phase2 = _kick_factors(basis, schedule.kick_close)
        self._open = {0: (d_c, d_r, phase), 1: (d_c.conj().T, d_r.conj().T, np.conj(phase))}
        self._close = {0: (d_c2.conj().T, d_r2.conj().T, np.conj(phase2)),
                       1: (d_c2, d_r2, phase2)}
        self._anharmonic_u = {}
        if anharmonic is not None:
            h = motional_hamiltonian(basis, v_cor_operator(anharmonic, basis))
            self._anharmonic_u[schedule.t0] = fock_core.hermitian_expm(h, schedule.t0)
            rest = schedule.t_g - schedule.t0
            self._anharmonic_u[rest] = fock_core.hermitian_expm(h, rest)
        self.anharmonic = anharmonic
        if flip_mode == "gaussian":
            if schedule.flip is None:
                raise ValueError("gaussian flip requested but schedule.flip is None")
            self._vec_c, self._vec_r, xgrid = _flip_eigensystem(basis)
            self._theta = 0.5 * schedule.flip.duration * gaussian_rabi(schedule.flip, xgrid)

    @staticmethod
    def _mode_apply(mat_c, mat_r, batch):
        n_c, n_r, k = batch.shape
        if mat_c is not None:
            batch = (mat_c @ batch.reshape(n_c, n_r * k)).reshape(n_c, n_r, k)
        if mat_r is not None:
            flat = batch.transpose(1, 0, 2).reshape(n_r, n_c * k)
            flat = mat_r @ flat
            batch = flat.reshape(n_r, n_c, k).transpose(1, 0, 2)
        return np.ascontiguousarray(batch)

    def kick(self, which: str, b: int, batch):
        d_c, d_r, phase = (self._open if which == "open" else self._close)[b]
        return phase * self._mode_apply(d_c, d_r, batch)

    def free(self, t: float, batch):
        if self.anharmonic is not None:
            u = self._anharmonic_u[t]
            n_c, n_r, k = batch.shape
            return (u @ batch.reshape(n_c * n_r, k)).reshape(n_c, n_r, k)
        return batch * _free_phases(self.basis, t)[:, :, None]

    def flip_component(self, s: float, batch):
        """Project the Gaussian pulse onto the sigma^x_1 eigenvalue s."""
        w = self._mode_apply(self._vec_c.conj().T, self._vec_r.conj().T, batch)
        w *= np.exp(-1j * s * self._theta)[:, :, None]
        return self._mode_apply(self._vec_c, self._vec_r, w)

    def branch(self, b: int, s: float | None, batch):
        """Full motional operator of branch (b, s) applied to a batch."""
        out = self.kick("open", b, batch)
        out = self.free(self.schedule.t0, out)
        if self.flip_mode == "gaussian":
            out = self.flip_component(s, out)
        out = self.free(self.schedule.t_g - self.schedule.t0, out)
        return self.kick("close", b, out)


def _branch_terms(schedule: GateSchedule, flip_mode: str):
    """Internal operators Q and branch labels for the channel decomposition.

    The composite unitary is sum_j Q_j (x) M_j with Q_j acting on
    qubit1 (x) qubit2.  Qubit 2 stays diagonal (each kick toggles it twice);
    the Gaussian flip splits qubit 1 over the sigma^x eigenprojectors, and
    the frame rotation contributes its phase to the b = 0 terms.
    """
    p_plus = (ID2 + SIGMA_X) / 2.0
    p_minus = (ID2 - SIGMA_X) / 2.0
    proj = {0: PROJ_0, 1: PROJ_1}
    terms = []
    if flip_mode == "gaussian":
        for b in (0, 1):
            fphase = np.exp(1j * schedule.frame_phase) if b == 0 else 1.0
            for s, p in ((1.0, p_plus), (-1.0, p_minus)):
                terms.append((b, s, fphase * np.kron(p, proj[b])))
    elif flip_mode == "idealized":
        terms.append((0, None, np.kron(SIGMA_X, PROJ_0)))
        terms.append((1, None, np.kron(ID2, PROJ_1)))
    elif flip_mode == "none":
        terms.append((0, None, np.kron(ID2, PROJ_0)))
        terms.append((1, None, np.kron(ID2, PROJ_1)))
    else:
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    return terms


def _retained_levels(probs: np.ndarray, tail: float) -> int:
    """Smallest level count whose dropped mass stays below tail."""
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, 1.0 - tail)) + 1
    return min(max(idx, 1), probs.size)


@dataclass
class GateChannel:
    """Internal 4x4 channel of one gate execution over a thermal motion.

    choi is sum_ij |i><j| (x) Lambda(|i><j|) (trace 4 for trace preserving);
    gram holds the motional overlaps Tr[M_r rho_mot M_c^dag].
    """

    choi: np.ndarray
    gram: np.ndarray
    terms: list
    dims: tuple[int, int]
    kept: tuple[int, int]
    dropped_mass: float
    flip_mode: str

    def apply(self, rho_internal: np.ndarray) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for r, (_, _, q_r) in enumerate(self.terms):
            for c, (_, _, q_c) in enumerate(self.terms):
                out += self.gram[r, c] * (q_r @ rho_internal @ q_c.conj().T)
        return out


def gate_channel(
    basis: ModeBasis,
    schedule: GateSchedule,
    n_bar_c: float = 0.0,
    flip_mode: str = "gaussian",
    anharmonic: AnharmonicExpansion | None = None,
    mass_cutoff: float = 1e-10,
) -> GateChannel:
    """Reconstruct the internal channel by propagating the occupied thermal
    levels through each branch operator.

    The channel is fully determined by the Gram matrix
    T[r, c] = Tr[M_r rho_mot M_c^dag] of the branch motional operators, so
    only K = (retained c-levels) x (retained r-levels) basis columns are ever
    propagated; mass_cutoff bounds the thermal weight discarded that way.
    """
    n_c, n_r = basis.dims
    p_c = fock_core.thermal_probabilities(n_bar_c, n_c)
    p_r = fock_core.thermal_probabilities(relative_occupation(n_bar_c), n_r)
    k_c = _retained_levels(p_c, mass_cutoff / 2.0)
    k_r = _retained_levels(p_r, mass_cutoff / 2.0)
    probs = np.kron(p_c[:k_c], p_r[:k_r])
    dropped = 1.0 - float(probs.sum())
    probs = probs / probs.sum()
    k = k_c * k_r
    batch = np.zeros((n_c, n_r, k), dtype=complex)
    cols = np.arange(k)
    batch[cols // k_r, cols % k_r, cols] = 1.0
    ops = _BranchOps(basis, schedule, flip_mode, anharmonic)
    terms = _branch_terms(schedule, flip_mode)
    outs = []
    for b, s, _ in terms:
        outs.append(ops.branch(b, s, batch).reshape(n_c * n_r, k))
    n_t = len(terms)
    # gram[r, c] = Tr[M_r rho M_c^dag], hermitian by construction
    gram = np.empty((n_t, n_t), dtype=complex)
    for r in range(n_t):
        for c in range(r, n_t):
            val = np.einsum("mk,mk,k->", outs[c].conj(), outs[r], probs)
            if c == r:
                gram[r, r] = val.real
            else:
                gram[r, c] = val
                gram[c, r] = np.conj(val)
    vq = np.stack([q.T.reshape(16) for _, _, q in terms], axis=1)
    choi = vq @ gram @ vq.conj().T
    return GateChannel(choi=choi, gram=gram, terms=terms, dims=(n_c, n_r),
                       kept=(k_c, k_r), dropped_mass=dropped, flip_mode=flip_mode)


def motional_output(
    basis: ModeBasis,
    schedule: GateSchedule,
    internal: np.ndarray,
    n_bar_c: float = 0.0,
    flip_mode: str = "idealized",
    anharmonic: AnharmonicExpansion | None = None,
) -> fock_core.DensityOp:
    """Reduced motional state after the gate, for a product input
    internal (x) thermal(n_bar_c).

    rho_mot' = sum_{r,c} Tr[Q_r rho_int Q_c^dag] * M_r rho_mot M_c^dag,
    evaluated with the same factorized branch operators as gate_channel.
    """
    internal = np.asarray(internal, dtype=complex)
    if internal.shape != (4, 4):
        raise ValueError("internal must be a 4x4 density matrix")
    n_c, n_r = basis.dims
    m = n_c * n_r
    rho_mot = thermal_motional(basis, n_bar_c).matrix
    ops = _BranchOps(basis, schedule, flip_mode, anharmonic)
    terms = _branch_terms(schedule, flip_mode)
    n_t = len(terms)
    weights = np.empty((n_t, n_t), dtype=complex)
    for r, (_, _, q_r) in enumerate(terms):
        for c, (_, _, q_c) in enumerate(terms):
            weights[r, c] = np.trace(q_r @ internal @ q_c.conj().T)
    x = []  # X_r = M_r rho_mot
    for b, s, _ in terms:
        cols = rho_mot.reshape(n_c, n_r, m)
        x.append(ops.branch(b, s, cols).reshape(m, m))
    out = np.zeros((m, m), dtype=complex)
    for c, (b, s, _) in enumerate(terms):
        s_c = np.zeros((m, m), dtype=complex)
        for r in range(n_t):
            if weights[r, c] != 0:
                s_c += weights[r, c] * x[r]
        # right-multiply by M_c^dag via one more branch application
        y = ops.branch(b, s, s_c.conj().T.reshape(n_c, n_r, m)).reshape(m, m)
        out += y.conj().T
    out = (out + out.conj().T) / 2.0
    return fock_core.DensityOp(out, check=False)
