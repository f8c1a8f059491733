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

The channel goes through the branch decomposition: the protocol is diagonal
in qubit 2 and block-diagonal in the sigma^x eigenbasis of qubit 1, so the
gate is a sum of internal operators Q_j times mode-local motional operators
M_j, and the internal channel is fixed by the thermal Gram matrix
T[r, c] = Tr[M_r rho_mot M_c^dag].

gate_channel, for any harmonic trap and schedule, writes
M_{b,s} = U(t_g) G_b f_{b,s}(X), with X ion 1's Heisenberg position at t0
and G_b the displacement that imperfect refocusing leaves on branch b.  The
thermal state is Gaussian, so every entry of T is a 1-D Gaussian integral
over X (the cross-branch ones at a complex shift, by the characteristic
function of the Weyl operator G_1^dag G_0), free of any Fock truncation.
In the commensurate trap closed after one COM period G_b = 1 and the
integral is the plain average over X.

The Fock route propagates the retained thermal levels through every M_j in
one helper; fock_gate_channel contracts those columns into the channel (the
oracle gate_channel is tested against) and motional_output into the
reduced motional state (which, for the idealized flip in a refocusing trap,
is the thermal state with nothing propagated).

The literal path (kick_unitary / free_propagator / addressed_flip_unitary,
composed by run_gate) builds full composite unitaries and is the oracle the
tests compare the Fock branch route against.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import cos, erfc, exp, pi, sin, sqrt

import numpy as np

from . import fock_core
from .errors import NonConvergenceError
from .trap_model import ModeBasis, mode_energies, relative_occupation

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

    def __post_init__(self):
        if self.eta_effective < 0:
            raise ValueError("eta_effective must be non-negative")


@dataclass(frozen=True)
class AddressedPulse:
    """Gaussian-profile Rabi pulse on ion 1: Omega(x) = omega0 * exp(-(x-center)^2/(2 width^2))."""

    omega0: float
    center: float
    width: float
    duration: float

    def __post_init__(self):
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")
        if self.width <= 0 or self.duration <= 0:
            raise ValueError("width and duration must be positive")


def gaussian_rabi(pulse: AddressedPulse, x) -> np.ndarray:
    """Omega(x); x may be complex (the profile is entire), which the
    cross-branch Gram blocks use."""
    x = np.asarray(x, dtype=np.result_type(x, 1.0))
    return pulse.omega0 * np.exp(-((x - pulse.center) ** 2) / (2.0 * pulse.width**2))


@dataclass(frozen=True)
class GateSchedule:
    """Timing and pulses of one gate execution.

    kick is applied at t = 0 and again at t_g: the kick operator is its own
    inverse, so the second application closes the first.

    frame_phase is the virtual z-rotation (radians) applied to qubit 2's |0>
    component after the closing kick.  The solved Gaussian schedule sets it
    to pi/2: the commanded branch pulse areas differ by half a Rabi cycle,
    which deterministically tags the flipped branch with -i, and the frame
    rotation returns the realized gate to the ideal gate's phase frame.
    """

    t0: float
    t_g: float
    kick: KickPulse
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
    wavepacket size: sqrt(4*n_bar_c + 2*n_bar_r + 3)/(3*sqrt(3)), the
    paper's bound for the commensurate trap (n_bar_r at nu_r = 2 nu_c)."""
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
    n_bar_r = relative_occupation(n_bar_c, basis.nu_r / basis.nu_c)
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
        kick=KickPulse(basis.eta),
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
    p_r = fock_core.thermal_probabilities(
        relative_occupation(n_bar_c, basis.nu_r / basis.nu_c), n_r)
    return fock_core.DensityOp(np.diag(np.kron(p_c, p_r).astype(complex)), check=False)


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
    flip_mode: str = "gaussian",
) -> SystemState:
    """Execute the schedule on a composite state (reference path).

    Builds the composite pulse unitaries explicitly, so it is meant for
    moderate truncations; large scans go through gate_channel.
    """
    if flip_mode not in ("gaussian", "idealized"):
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    if flip_mode == "gaussian" and schedule.flip is None:
        raise ValueError("schedule has no addressed pulse but flip_mode='gaussian'")
    if tuple(initial.dims[2:]) != tuple(basis.dims):
        raise ValueError("state dims do not match basis dims")
    state = initial.data
    u_kick = kick_unitary(basis, schedule.kick)
    state = fock_core.unitary_evolve(state, u_kick)
    state = _free_segment(state, basis, schedule.t0)
    if flip_mode == "gaussian":
        state = fock_core.unitary_evolve(state, addressed_flip_unitary(basis, schedule.flip))
    else:
        state = fock_core.unitary_evolve(state, idealized_flip_unitary(basis))
    state = _free_segment(state, basis, schedule.t_g - schedule.t0)
    state = fock_core.unitary_evolve(state, u_kick)
    if flip_mode == "gaussian" and schedule.frame_phase:
        u_frame = np.kron(frame_rotation(schedule.frame_phase),
                          np.eye(int(np.prod(basis.dims)), dtype=complex))
        state = fock_core.unitary_evolve(state, u_frame)
    return SystemState(initial.dims, state)


def _free_segment(state, basis: ModeBasis, t: float):
    diag = np.concatenate([_free_phases(basis, t).ravel()] * 4)
    return _apply_diag(state, diag)


# ---------------------------------------------------------------------------
# branch path: channel and motional output without composite operators
# ---------------------------------------------------------------------------


class _BranchOps:
    """Mode-factorized appliers for the per-branch motional operators.

    Batches are arrays of shape (n_c, n_r, k); every operation is either a
    single-mode matrix product or a diagonal grid multiply, so nothing larger
    than n_mode^2 is ever formed.
    """

    def __init__(self, basis: ModeBasis, schedule: GateSchedule, flip_mode: str):
        self.basis = basis
        self.schedule = schedule
        self.flip_mode = flip_mode
        d_c, d_r, phase = _kick_factors(basis, schedule.kick)
        self._open = {0: (d_c, d_r, phase), 1: (d_c.conj().T, d_r.conj().T, np.conj(phase))}
        self._close = {0: self._open[1], 1: self._open[0]}
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
    else:
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    return terms


def _retained_levels(probs: np.ndarray, tail: float) -> int:
    """Smallest level count whose dropped mass stays below tail."""
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, 1.0 - tail)) + 1
    return min(max(idx, 1), probs.size)


_MASS_CUTOFF = 1e-10  # default thermal weight the branch route may drop


def _thermal_columns(basis: ModeBasis, schedule: GateSchedule, n_bar_c: float,
                     flip_mode: str, mass_cutoff: float):
    """Propagate the retained thermal levels through every branch operator.

    Keeps the K = k_c * k_r lowest product levels whose dropped thermal mass
    stays below mass_cutoff, and returns (ops, terms, outs, probs, flat,
    kept, dropped): outs[j] is the M x K array M_j E with E the K retained
    unit columns, probs their thermal weights renormalised to sum 1, and
    flat the indices of those levels in the n_c * n_r product basis.
    """
    n_c, n_r = basis.dims
    p_c = fock_core.thermal_probabilities(n_bar_c, n_c)
    p_r = fock_core.thermal_probabilities(
        relative_occupation(n_bar_c, basis.nu_r / basis.nu_c), n_r)
    k_c = _retained_levels(p_c, mass_cutoff / 2.0)
    k_r = _retained_levels(p_r, mass_cutoff / 2.0)
    probs = np.kron(p_c[:k_c], p_r[:k_r])
    dropped = 1.0 - float(probs.sum())
    probs = probs / probs.sum()
    k = k_c * k_r
    cols = np.arange(k)
    rows_c, rows_r = cols // k_r, cols % k_r
    batch = np.zeros((n_c, n_r, k), dtype=complex)
    batch[rows_c, rows_r, cols] = 1.0
    ops = _BranchOps(basis, schedule, flip_mode)
    terms = _branch_terms(schedule, flip_mode)
    outs = [ops.branch(b, s, batch).reshape(n_c * n_r, k) for b, s, _ in terms]
    flat = rows_c * n_r + rows_r
    return ops, terms, outs, probs, flat, (k_c, k_r), dropped


@dataclass
class GateChannel:
    """Internal 4x4 channel of one gate execution over a thermal motion.

    choi is sum_ij |i><j| (x) Lambda(|i><j|) (trace 4 for trace preserving);
    gram holds the motional overlaps Tr[M_r rho_mot M_c^dag].  gate_channel
    leaves kept None and sets dropped_mass to the Gaussian weight outside
    its quadrature span; the Fock oracle fock_gate_channel sets kept to the
    retained level count per mode and dropped_mass to the thermal weight
    left out.
    """

    choi: np.ndarray
    gram: np.ndarray
    terms: list
    dims: tuple[int, int]
    kept: tuple[int, int] | None
    dropped_mass: float
    flip_mode: str

    def apply(self, rho_internal: np.ndarray) -> np.ndarray:
        out = np.zeros((4, 4), dtype=complex)
        for r, (_, _, q_r) in enumerate(self.terms):
            for c, (_, _, q_c) in enumerate(self.terms):
                out += self.gram[r, c] * (q_r @ rho_internal @ q_c.conj().T)
        return out


def _channel(basis, terms, gram, flip_mode, kept, dropped) -> GateChannel:
    vq = np.stack([q.T.reshape(16) for _, _, q in terms], axis=1)
    choi = vq @ gram @ vq.conj().T
    return GateChannel(choi=choi, gram=gram, terms=terms, dims=basis.dims,
                       kept=kept, dropped_mass=dropped, flip_mode=flip_mode)


def fock_gate_channel(
    basis: ModeBasis,
    schedule: GateSchedule,
    n_bar_c: float = 0.0,
    flip_mode: str = "gaussian",
    mass_cutoff: float = _MASS_CUTOFF,
) -> GateChannel:
    """Reconstruct the internal channel by propagating the occupied thermal
    levels through each branch operator (the Fock oracle of gate_channel).

    Only K = (retained c-levels) x (retained r-levels) basis columns are
    ever propagated; mass_cutoff bounds the thermal weight discarded that
    way.
    """
    _, terms, outs, probs, _, kept, dropped = _thermal_columns(
        basis, schedule, n_bar_c, flip_mode, mass_cutoff)
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
    return _channel(basis, terms, gram, flip_mode, kept, dropped)


_SPAN = 14.0  # half-width of the quadrature span, in thermal widths of X
_GRAM_TOL = 1e-14
_MAX_INTERVALS = 2**18


def _refocuses(basis: ModeBasis, schedule: GateSchedule) -> bool:
    """True when free flight over the gate is a global phase: the trap is
    commensurate and the schedule closes after exactly one COM period."""
    return (basis.commensurate
            and abs(schedule.t_g - basis.gate_time) <= 1e-12 * basis.gate_time)


def _residual_displacement(basis: ModeBasis, schedule: GateSchedule,
                           n_bar_c: float):
    """(exp(-kappa^2 S_YY / 2), z, a) of the cross-branch Gram blocks.

    The residual displacements G_b of the two branches leave
    G_1^dag G_0 = exp(i kappa Y), kappa = 2k, Y = x2 - x2(t_g).  On
    R = (x_c, p_c, x_r, p_r) a Heisenberg position is
    x_m(t) = cos(nu_m t) x_m + sin(nu_m t)/(m_m nu_m) p_m, so X - x_e/2 and
    Y are linear forms whose thermal covariances S and commutator
    [X, Y] = i c_XY give z = kappa (i S_XY - c_XY/2) and a = kappa c_XY
    (Gaussian characteristic functions: Weedbrook et al., Rev. Mod. Phys.
    84, 621 (2012)).
    """
    n_bar_r = relative_occupation(n_bar_c, basis.nu_r / basis.nu_c)
    w_c, w_r = basis.width_c, basis.width_r
    var = np.array([w_c**2 * (2.0 * n_bar_c + 1.0), (2.0 * n_bar_c + 1.0) / (4.0 * w_c**2),
                    w_r**2 * (2.0 * n_bar_r + 1.0), (2.0 * n_bar_r + 1.0) / (4.0 * w_r**2)])

    def form(t: float, r: float) -> np.ndarray:  # x_c(t) + r x_r(t)
        return np.array([cos(basis.nu_c * t), sin(basis.nu_c * t) / (basis.m_c * basis.nu_c),
                         r * cos(basis.nu_r * t),
                         r * sin(basis.nu_r * t) / (basis.m_r * basis.nu_r)])

    x = form(schedule.t0, 0.5)
    y = form(0.0, -0.5) - form(schedule.t_g, -0.5)
    kappa = 2.0 * basis.wavenumber
    s_xy, s_yy = x @ (var * y), y @ (var * y)
    c_xy = x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]
    return exp(-0.5 * kappa**2 * s_yy), kappa * (1j * s_xy - 0.5 * c_xy), kappa * c_xy


def _phase_space_gram(basis: ModeBasis, schedule: GateSchedule, n_bar_c: float,
                      terms) -> np.ndarray:
    """Gram matrix of the Gaussian flip as 1-D Gaussian integrals over X.

    Each branch operator is M_{b,s} = U(t_g) G_b f_{b,s}(X): X = x1(t0) is
    ion 1's Heisenberg position at the flip, the opening kick shifts it by
    sigma_b D/2 (sigma_0 = +1 for the +k branch), so
    f_{b,s}(x) = exp(-i s theta(x + sigma_b D/2)), and
    G_b = exp(-i k_b x2(t_g)) exp(i k_b x2), k_0 = k, k_1 = -k, is the
    displacement that refocusing leaves behind.  U(t_g) cancels in
    T[r, c] = Tr[M_r rho M_c^dag].  Under the thermal state X is Gaussian
    with mean x_e/2 and variance
    width_c^2 (2 n_bar_c + 1) + width_r^2 (2 n_bar_r + 1) / 4.

    * Same branch: T[r, c] = E_X[f_r(X) conj(f_c(X))].
    * r in branch 0, c in branch 1: with (damp, z, a) from
      _residual_displacement,
      T[r, c] = damp E_X[f_r(X + z + a) fbar_c(X + z)], where
      fbar_c(x) = exp(+i s_c theta(x - D/2)) is the analytic continuation
      of conj(f_c) to the complex shift.  The (1, 0) block is its conjugate
      transpose.

    When _refocuses holds, G_b = 1 and the same-branch product already
    gives the cross blocks, so they are not evaluated apart.  The integrals
    are a trapezoid rule over +-_SPAN widths whose interval count doubles
    until two successive Gram matrices agree to _GRAM_TOL.
    """
    if schedule.flip is None:
        raise ValueError("gaussian flip requested but schedule.flip is None")
    n_bar_r = relative_occupation(n_bar_c, basis.nu_r / basis.nu_c)
    delta = sqrt(basis.width_c**2 * (2.0 * n_bar_c + 1.0)
                 + basis.width_r**2 * (2.0 * n_bar_r + 1.0) / 4.0)
    # x1 = x_c + x_r/2 + x_e/2; the kick moves p_c by +k and p_r by -k/2
    t0, k = schedule.t0, basis.wavenumber
    half_d = k * (sin(basis.nu_c * t0) / (basis.m_c * basis.nu_c)
                  - sin(basis.nu_r * t0) / (4.0 * basis.m_r * basis.nu_r))
    shifts = np.array([half_d if b == 0 else -half_d for b, _, _ in terms])
    signs = np.array([s for _, s, _ in terms])
    rows = np.array([b == 0 for b, _, _ in terms])
    cross = None if _refocuses(basis, schedule) else _residual_displacement(
        basis, schedule, n_bar_c)

    def theta(x, pick):
        return 0.5 * schedule.flip.duration * gaussian_rabi(
            schedule.flip, x[None, :] + shifts[pick, None])

    previous = None
    intervals = 64
    while intervals <= _MAX_INTERVALS:
        z = np.linspace(-_SPAN, _SPAN, intervals + 1)
        # the end weights are ~1e-43, so the trapezoid rule is the plain sum
        w = np.exp(-0.5 * z * z) * (2.0 * _SPAN / intervals / sqrt(2.0 * pi))
        x = basis.x_e / 2.0 + delta * z
        f = np.exp(-1j * signs[:, None] * theta(x, slice(None)))
        gram = (f * w) @ f.conj().T
        if cross is not None:
            damp, shift, a = cross
            f_r = np.exp(-1j * signs[rows, None] * theta(x + shift + a, rows))
            fbar_c = np.exp(1j * signs[~rows, None] * theta(x + shift, ~rows))
            block = damp * ((f_r * w) @ fbar_c.T)
            gram[np.ix_(rows, ~rows)] = block
            gram[np.ix_(~rows, rows)] = block.conj().T
        if previous is not None and np.max(np.abs(gram - previous)) <= _GRAM_TOL:
            return gram
        previous = gram
        intervals *= 2
    raise NonConvergenceError(
        f"phase-space Gram matrix did not settle to {_GRAM_TOL:g} "
        f"within {_MAX_INTERVALS} trapezoid intervals")


def gate_channel(
    basis: ModeBasis,
    schedule: GateSchedule,
    n_bar_c: float = 0.0,
    flip_mode: str = "gaussian",
) -> GateChannel:
    """Internal channel of the gate over the thermal motion, in any harmonic
    trap and for any schedule.

    The Gram matrix comes from _phase_space_gram, with no Fock truncation,
    so basis.dims does not enter.  For the idealized flip every f is 1 and
    the Gram matrix is [[1, damp], [damp, 1]] with
    damp = exp(-kappa^2 S_YY / 2) of _residual_displacement, all ones when
    the schedule refocuses.  fock_gate_channel is the oracle it is tested
    against.
    """
    terms = _branch_terms(schedule, flip_mode)
    if flip_mode == "idealized":
        gram = np.ones((len(terms), len(terms)), dtype=complex)
        if not _refocuses(basis, schedule):
            damp = _residual_displacement(basis, schedule, n_bar_c)[0]
            gram[0, 1] = gram[1, 0] = damp
        dropped = 0.0
    else:
        gram = _phase_space_gram(basis, schedule, n_bar_c, terms)
        dropped = erfc(_SPAN / sqrt(2.0))
    return _channel(basis, terms, gram, flip_mode, None, dropped)


def motional_output(
    basis: ModeBasis,
    schedule: GateSchedule,
    internal: np.ndarray,
    n_bar_c: float = 0.0,
    flip_mode: str = "idealized",
) -> fock_core.DensityOp:
    """Reduced motional state after the gate, for a product input
    internal (x) thermal(n_bar_c).

    rho_mot' = sum_{r,c} Tr[Q_r rho_int Q_c^dag] * M_r rho_mot M_c^dag,
    with rho_mot the retained thermal levels of fock_gate_channel (so the
    result deviates from the full-truncation one by at most the dropped
    mass).
    M_r rho_mot comes from the shared K propagated columns; the right factor
    M_c^dag is one more branch application to the conjugate transpose.
    The idealized flip in a refocusing trap (see gate_channel) makes every
    M_j equal to -1, so there the output is the full-truncation thermal
    state times sum_{r,c} Tr[Q_r rho_int Q_c^dag], with nothing propagated.
    """
    internal = np.asarray(internal, dtype=complex)
    if internal.shape != (4, 4):
        raise ValueError("internal must be a 4x4 density matrix")
    if flip_mode == "idealized" and _refocuses(basis, schedule):
        q = sum(q_j for _, _, q_j in _branch_terms(schedule, flip_mode))
        rho = thermal_motional(basis, n_bar_c)
        rho.matrix *= np.trace(q @ internal @ q.conj().T).real
        return rho
    n_c, n_r = basis.dims
    m = n_c * n_r
    ops, terms, outs, probs, flat, _, _ = _thermal_columns(
        basis, schedule, n_bar_c, flip_mode, _MASS_CUTOFF)
    n_t = len(terms)
    weights = np.empty((n_t, n_t), dtype=complex)
    for r, (_, _, q_r) in enumerate(terms):
        for c, (_, _, q_c) in enumerate(terms):
            weights[r, c] = np.trace(q_r @ internal @ q_c.conj().T)
    out = np.zeros((m, m), dtype=complex)
    for c, (b, s, _) in enumerate(terms):
        a_c = np.zeros_like(outs[0])  # sum_r w[r, c] M_r E, M x K
        for r in range(n_t):
            if weights[r, c] != 0:
                a_c += weights[r, c] * outs[r]
        # (sum_r w[r, c] M_r rho_mot)^dag is nonzero only on the retained rows
        s_dag = np.zeros((m, m), dtype=complex)
        s_dag[flat] = (a_c * probs).conj().T
        y = ops.branch(b, s, s_dag.reshape(n_c, n_r, m)).reshape(m, m)
        out += y.conj().T
    out = (out + out.conj().T) / 2.0
    return fock_core.DensityOp(out, check=False)
