"""Pulse schedule and propagators for the two-ion conditional-flip gate.

Protocol on the composite space qubit1 (x) qubit2 (x) mode_c (x) mode_r:

1. a state-dependent momentum kick on ion 2 (sigma+ e^{ikx2} + sigma- e^{-ikx2}),
   which splits the motion into two coherent branches correlated with qubit 2;
2. free evolution to t0 = 2*pi/(3*nu_c), where the branch separation of ion 1
   peaks on the commensurate trap;
3. a spatially addressed Rabi pulse on ion 1 whose Gaussian profile is tuned
   so one branch sees a half-integer number of Rabi cycles (flip) and the
   other an integer number (no net effect);
4. free evolution to t_g = 2*pi/nu_c, where both motional modes complete an
   integer number of periods (nu_r = 2*nu_c), refocusing the branches;
5. the closing kick, which undoes step 1.

In the commensurate harmonic trap the motional state factors out exactly and
the internal action is a qubit-1 flip conditioned on qubit 2 being |0>.

Every route reads the thermal and kick geometry from trap_model.ModeBasis,
so on any trap the condition solver tunes the pulse to the same branch
separation D and thermal spread Delta that the gate channel integrates over.

The channel goes through the branch decomposition: the protocol is diagonal
in qubit 2 and block-diagonal in the sigma^x eigenbasis of qubit 1, so the
gate is a sum of internal operators Q_j times mode-local motional operators
M_j, and the internal channel is fixed by the thermal Gram matrix
T[r, c] = Tr[M_r rho_mot M_c^dag].

gate_channel, for any harmonic trap and schedule, writes
M_{b,s} = U(t_g) G_b f_{b,s}(X), with X ion 1's Heisenberg position at t0
and G_b the displacement that imperfect refocusing leaves on branch b.  The
thermal state is Gaussian, so every entry of T is a 1-D Gaussian integral
over X (the cross-branch ones against a complex Gaussian weight, by the
characteristic function of the Weyl operator G_1^dag G_0), free of any Fock
truncation.
In the commensurate trap closed after one COM period G_b = 1 and the
integral is the plain average over X.

motional_output gives the reduced motional state where it has a closed
form: the idealized flip on a schedule that refocuses leaves the thermal
state.  The Fock-space routes that check all of this (the literal
composite-unitary path and the propagated thermal Fock columns) are test
oracles and live in tests/oracles.py.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from math import exp, pi, sqrt

import numpy as np

from . import fock_core
from .errors import NonConvergenceError
from .trap_model import ModeBasis, mode_energies, relative_occupation

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PROJ_0 = np.diag([1.0, 0.0]).astype(complex)
PROJ_1 = np.diag([0.0, 1.0]).astype(complex)
ID2 = np.eye(2, dtype=complex)

# the constant internal factors of _branch_terms: (b, s, Q) with Q acting on
# qubit1 (x) qubit2, built once; _branch_terms hands out fresh copies
_GAUSSIAN_TERMS = [(b, s, np.kron((ID2 + s * SIGMA_X) / 2.0, proj))
                   for b, proj in ((0, PROJ_0), (1, PROJ_1)) for s in (1.0, -1.0)]
_IDEALIZED_TERMS = [(0, None, np.kron(SIGMA_X, PROJ_0)), (1, None, np.kron(ID2, PROJ_1))]


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


def gaussian_rabi(pulse: AddressedPulse, offset) -> np.ndarray:
    """Omega = omega0 exp(-offset^2 / (2 width^2)) at offset = x - center from
    the profile centre."""
    return pulse.omega0 * np.exp(-(offset**2) / (2.0 * pulse.width**2))


@dataclass(frozen=True)
class GateSchedule:
    """Timing and pulses of one gate execution.

    The kick is applied at t = 0 and again at t_g: the kick operator is its
    own inverse, so the second application closes the first.  Its strength
    is basis.eta of the ModeBasis the schedule runs on.

    frame_phase is the virtual z-rotation (radians) applied to qubit 2's |0>
    component after the closing kick.  The solved Gaussian schedule sets it
    to pi/2: the commanded branch pulse areas differ by half a Rabi cycle,
    which deterministically tags the flipped branch with -i, and the frame
    rotation returns the realized gate to the ideal gate's phase frame.
    """

    t0: float
    t_g: float
    flip: AddressedPulse | None = None
    frame_phase: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.t0 < self.t_g:
            raise ValueError("need 0 < t0 < t_g")
        if self.flip is not None and self.flip.duration > self.t_g / 20.0:
            warnings.warn("addressed pulse lasts more than t_g/20; the "
                          "instantaneous-pulse approximation degrades", stacklevel=2)


# ConditionReport fields whose JSON key names the paper's symbol
_JSON_KEYS = {"big_d": "branch_separation_D", "delta": "wavepacket_delta",
              "big_w": "profile_width_W", "center": "profile_center_l"}


@dataclass(frozen=True)
class ConditionReport:
    """Solved addressing geometry and validity flags for one operating point.

    The flags operationalize the protocol's separation hierarchy, profile
    linearity, Rabi-cycle count and kick bound (the cycle matching and the
    pulse area hold by construction); `satisfied` maps short names to
    booleans, and well_conditioned is their conjunction.
    """

    eta: float
    n_bar_c: float
    n_bar_r: float
    rabi_cycles: int
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
        out = {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name)
               for f in fields(self) if f.name != "satisfied"}
        out["well_conditioned"] = self.well_conditioned
        out.update({f"ok_{k}": v for k, v in self.satisfied.items()})
        return out


_T1_OVER_TG = 0.01  # pulse length over t_g; GateSchedule warns above 1/20
_MARGIN = 3.0  # factor by which the separation, linearity and kick flags must hold


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
) -> tuple[AddressedPulse, ConditionReport]:
    """Solve the addressed-pulse geometry for a thermal operating point.

    D is ion 1's branch separation at the flip time and Delta its thermal
    spread, both from basis, on any trap; on the commensurate trap D is the
    maximum (3*sqrt(3)/2)*x0*eta.  With N = rabi_cycles, the construction
    pins the Gaussian width to W = (4N + 1/2)*D, centers the profile at
    l = x_e/2 + W (its steepest point sits on ion 1), and fixes the pulse
    area Omega(x_e/2)*t1/2 = (2N + 1/4)*pi so the two branches see
    (2N + 1/2)*pi and 2N*pi respectively, over t1 = _T1_OVER_TG * t_g.
    eta_bound_ratio = eta/ModeBasis.eta_bound = D/Delta on any trap.  The
    flags ask D > 3 Delta, a phase spread below 1/3 and eta/eta_bound >= 3
    (_MARGIN).
    D = 0 (an unkicked basis) leaves no profile to solve and raises
    ValueError.
    """
    if int(rabi_cycles) != rabi_cycles or rabi_cycles < 1:
        raise ValueError("rabi_cycles must be a positive integer")
    if n_bar_c < 0:
        raise ValueError("n_bar_c must be non-negative")
    n = int(rabi_cycles)
    big_d = 2.0 * float(basis.half_separation(basis.flip_time))
    if big_d == 0.0:
        raise ValueError("the branches are not separated at the flip time (D = 0); "
                         "the kick eta must be positive")
    delta = basis.thermal_spread(n_bar_c)
    big_w = (4.0 * n + 0.5) * big_d
    center = basis.x_e / 2.0 + big_w
    t1 = _T1_OVER_TG * basis.gate_time
    area = (2.0 * n + 0.25) * pi  # Omega(x_e/2) * t1 / 2
    omega_edge = 2.0 * area / t1
    omega0 = omega_edge * exp(0.5)
    bound = basis.eta_bound(n_bar_c)
    ratio = basis.eta / bound
    phase_spread = area * delta / big_w  # d(theta)/dx at x_e/2 times Delta
    satisfied = {
        "separation_hierarchy": big_w > big_d > delta * _MARGIN,
        "profile_linearity": phase_spread < 1.0 / _MARGIN,
        "rabi_cycles_large": n >= 3,
        "eta_above_bound": ratio >= _MARGIN,
    }
    pulse = AddressedPulse(omega0=omega0, center=center, width=big_w, duration=t1)
    report = ConditionReport(
        eta=basis.eta, n_bar_c=n_bar_c, n_bar_r=basis.stretch_occupation(n_bar_c),
        rabi_cycles=n,
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
) -> tuple[GateSchedule, ConditionReport]:
    """Assemble the full solved schedule for one operating point."""
    pulse, report = condition_solver(basis, n_bar_c, rabi_cycles)
    schedule = GateSchedule(
        t0=basis.flip_time,
        t_g=basis.gate_time,
        flip=pulse,
        frame_phase=pi / 2.0,
    )
    return schedule, report


# ---------------------------------------------------------------------------
# free flight, target gate and thermal motion
# ---------------------------------------------------------------------------


def _free_phases(basis: ModeBasis, t: float) -> np.ndarray:
    """Diagonal of the motional free propagator as an (n_c, n_r) grid."""
    e_c, e_r = mode_energies(basis)
    return np.exp(-1j * t * (e_c[:, None] + e_r[None, :]))


def free_propagator(basis: ModeBasis, t: float) -> np.ndarray:
    """Harmonic free evolution: diagonal phases e^{-i nu (n + 1/2) t} per
    mode, identity on both qubits."""
    diag = np.concatenate([_free_phases(basis, t).ravel()] * 4)
    return np.diag(diag)


def ideal_gate() -> np.ndarray:
    """Target internal gate: flip qubit 1 iff qubit 2 is |0> (basis q1 (x) q2)."""
    return _IDEALIZED_TERMS[0][2] + _IDEALIZED_TERMS[1][2]


def thermal_motional(basis: ModeBasis, n_bar_c: float) -> fock_core.DensityOp:
    """Product of truncation-renormalized thermal states of both modes, at the
    common temperature set by the COM occupation n_bar_c."""
    probs = np.kron(*basis.thermal_weights(n_bar_c))
    return fock_core.DensityOp(np.diag(probs.astype(complex)), check=False)


# ---------------------------------------------------------------------------
# the channel: branch decomposition and phase-space Gram matrix
# ---------------------------------------------------------------------------


def _branch_terms(schedule: GateSchedule, flip_mode: str):
    """Internal operators Q and branch labels for the channel decomposition.

    The composite unitary is sum_j Q_j (x) M_j with Q_j acting on
    qubit1 (x) qubit2.  Qubit 2 stays diagonal (each kick toggles it twice);
    the Gaussian flip splits qubit 1 over the sigma^x eigenprojectors, and
    the frame rotation contributes its phase to the b = 0 terms.  Every
    call returns new arrays.
    """
    if flip_mode == "gaussian":
        fphase = np.exp(1j * schedule.frame_phase)
        return [(b, s, (fphase if b == 0 else 1.0) * q) for b, s, q in _GAUSSIAN_TERMS]
    if flip_mode == "idealized":
        return [(b, s, q.copy()) for b, s, q in _IDEALIZED_TERMS]
    raise ValueError(f"unknown flip_mode {flip_mode!r}")


@dataclass
class GateChannel:
    """Internal 4x4 channel of one gate execution over a thermal motion,
    Lambda(rho) = sum_rc gram[r, c] Q_r rho Q_c^dag.

    gram holds the motional overlaps Tr[M_r rho_mot M_c^dag] of the branch
    terms (b, s, Q).  choi, sum_ij |i><j| (x) Lambda(|i><j|) (trace 4 for
    trace preserving), is assembled from them on first read (_choi): the
    figures of analysis.gate_report are contractions of gram alone.
    """

    gram: np.ndarray
    terms: list

    @cached_property
    def choi(self) -> np.ndarray:
        return _choi(self.terms, self.gram)


def _choi(terms, gram) -> np.ndarray:
    """sum_rc gram[r, c] vec(Q_r) vec(Q_c)^dag, vec(Q) = sum_i |i> (x) Q|i>."""
    vq = np.stack([q.T.reshape(16) for _, _, q in terms], axis=1)
    return vq @ gram @ vq.conj().T


_SPAN = 14.0  # half-width of the quadrature span, in thermal widths of X
_GRAM_TOL = 1e-14
_FIRST_LEVEL = 128  # intervals of the first grid the integrand is evaluated on
_MAX_INTERVALS = 2**18


@cache
def _trapezoid_nodes(intervals: int):
    """(t, w, step) of the trapezoid rule with `intervals` intervals over
    +-_SPAN thermal widths: nodes t and weights w = N(t) step, the end
    weights below e^-49, so the rule is a plain sum.  Above _FIRST_LEVEL
    only the nodes that the level adds, its odd ones, are returned.  Every
    node is dyadic, so each level's nodes are exactly those of the grids
    below it.  Built once per interval count, read-only."""
    t = np.linspace(-_SPAN, _SPAN, intervals + 1)
    if intervals > _FIRST_LEVEL:
        t = t[1::2].copy()
    step = 2.0 * _SPAN / intervals / sqrt(2.0 * pi)
    w = np.exp(-0.5 * t * t) * step
    t.flags.writeable = w.flags.writeable = False
    return t, w, step


def _refocuses(basis: ModeBasis, schedule: GateSchedule) -> bool:
    """True when free flight over the gate is a global phase: the trap is
    commensurate and the schedule closes after exactly one COM period."""
    return (basis.commensurate
            and abs(schedule.t_g - basis.gate_time) <= 1e-12 * basis.gate_time)


def _residual_displacement(basis: ModeBasis, schedule: GateSchedule,
                           n_bar_c: float):
    """(-kappa^2 S_YY / 2, z, a) of the cross-branch Gram blocks.

    The residual displacements G_b of the two branches leave
    G_1^dag G_0 = exp(i kappa Y), kappa = 2k, Y = x2 - x2(t_g).
    X - x_e/2 and Y are linear forms on R = (x_c, p_c, x_r, p_r)
    (ModeBasis.position_form) whose thermal covariances S and commutator
    [X, Y] = i c_XY give z = kappa (i S_XY - c_XY/2) and a = kappa c_XY
    (Gaussian characteristic functions: Weedbrook et al., Rev. Mod. Phys.
    84, 621 (2012)).
    """
    var = basis.thermal_variances(n_bar_c)
    x = basis.position_form(schedule.t0, 0.5)
    y = basis.position_form(0.0, -0.5) - basis.position_form(schedule.t_g, -0.5)
    kappa = 2.0 * basis.wavenumber
    s_xy, s_yy = x @ (var * y), y @ (var * y)
    c_xy = x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]
    return -0.5 * kappa**2 * s_yy, kappa * (1j * s_xy - 0.5 * c_xy), kappa * c_xy


def _phase_space_gram(basis: ModeBasis, schedule: GateSchedule, n_bar_c: float,
                      terms) -> np.ndarray:
    """Gram matrix of the Gaussian flip as 1-D Gaussian integrals over X.

    Each branch operator is M_{b,s} = U(t_g) G_b f_{b,s}(X): X = x1(t0) is
    ion 1's Heisenberg position at the flip, the opening kick shifts it by
    sigma_b D/2 (sigma_0 = +1 for the +k branch, D/2 from
    ModeBasis.half_separation), so
    f_{b,s}(x) = exp(-i s theta(x + sigma_b D/2)), and
    G_b = exp(-i k_b x2(t_g)) exp(i k_b x2), k_0 = k, k_1 = -k, is the
    displacement that refocusing leaves behind.  U(t_g) cancels in
    T[r, c] = Tr[M_r rho M_c^dag].  Under the thermal state X is Gaussian
    with mean x_e/2 and spread Delta = ModeBasis.thermal_spread.

    * Same branch: T[r, c] = E_X[f_r(X) conj(f_c(X))].
    * r in branch 0, c in branch 1: with (log_damp, z, a) from
      _residual_displacement, X sits at the complex shift X + z; the profile
      is entire, so the contour moves back to the real axis:
      T[r, c] = int f_r(x + a) conj(f_c(x)) e^{log_damp} N(x; z, Delta^2) dx.
      As S_XX S_YY - S_XY^2 >= c_XY^2/4 (Robertson-Schroedinger), the weight
      at x = x_e/2 + Delta t is at most exp(-(Re z/Delta)^2/2 - (t - Re z/Delta)^2/2)
      in modulus: below e^-49 at the span's ends, summing to at most 1.  The
      (1, 0) block is its conjugate transpose.

    When _refocuses holds, G_b = 1 and the same-branch product already
    gives the cross blocks, so they are not evaluated apart.  The profile
    is read for s = +1 only: f_{b,-1} is the conjugate of f_{b,+1}, bit for
    bit.  The integrals are a trapezoid rule over +-_SPAN widths
    (_trapezoid_nodes) whose interval count doubles from 64 until two
    successive Gram matrices agree to _GRAM_TOL.  The first evaluation is
    on _FIRST_LEVEL intervals, whose even nodes at twice the weight give the
    64-interval sum; each later level evaluates only its new nodes and adds
    their sum to half the previous Gram matrix.  Nodes are read as offsets
    from the profile centre l, (x_e/2 - l + sigma_b D/2) + (Delta t + a)
    with a only in f_r, so none carries the rounding of x_e/2 (~410 x0) for
    the doubling to chase.
    """
    flip = schedule.flip
    if flip is None:
        raise ValueError("gaussian flip requested but schedule.flip is None")
    delta = basis.thermal_spread(n_bar_c)
    half_d = basis.half_separation(schedule.t0)
    edge = basis.x_e / 2.0 - flip.center
    cross = None if _refocuses(basis, schedule) else _residual_displacement(
        basis, schedule, n_bar_c)
    # the profile is read on branch 0 and branch 1 at X and, for the cross
    # blocks, on branch 0 at X + a, all at s = +1; row k + n_rows of the
    # factors is the conjugate of row k
    offsets = np.array([edge + half_d, edge - half_d] + ([] if cross is None else [edge + half_d]))
    n_rows = offsets.size
    same = [b + (0 if s > 0 else n_rows) for b, s, _ in terms]
    shifted = [2 + (0 if s > 0 else n_rows) for b, s, _ in terms if b == 0]
    rows = np.array([b == 0 for b, _, _ in terms])

    def integrand(t, w, step):
        """Weights [w] and factors [f] (and the cross-block weight and
        f_r(X + a) unless the schedule refocuses) at the nodes t."""
        u = delta * t
        x = offsets[:, None] + (u if cross is None else np.stack([u, u, u + cross[2]]))
        f_plus = np.exp(-1j * (0.5 * flip.duration * gaussian_rabi(flip, x)))
        f = np.concatenate([f_plus, f_plus.conj()])
        if cross is None:
            return [w], [f[same]]
        log_damp, shift, _ = cross
        w_cross = np.exp(log_damp - 0.5 * (t - shift / delta) ** 2) * step
        return [w, w_cross], [f[same], f[shifted]]

    def gram_of(weights, factors):
        f = factors[0]
        gram = (f * weights[0]) @ f.conj().T
        if cross is not None:
            block = (factors[1] * weights[1]) @ f[~rows].conj().T
            gram[np.ix_(rows, ~rows)] = block
            gram[np.ix_(~rows, rows)] = block.conj().T
        return gram

    intervals = _FIRST_LEVEL
    weights, factors = integrand(*_trapezoid_nodes(intervals))
    gram = gram_of(weights, factors)
    previous = gram_of([2.0 * w[::2] for w in weights], [f[:, ::2] for f in factors])
    while np.max(np.abs(gram - previous)) > _GRAM_TOL:
        intervals *= 2
        if intervals > _MAX_INTERVALS:
            raise NonConvergenceError(
                f"phase-space Gram matrix did not settle to {_GRAM_TOL:g} "
                f"within {_MAX_INTERVALS} trapezoid intervals")
        previous, gram = gram, 0.5 * gram + gram_of(*integrand(*_trapezoid_nodes(intervals)))
    return gram


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
    damp = exp(-kappa^2 S_YY / 2) from _residual_displacement, all ones when
    the schedule refocuses.
    """
    terms = _branch_terms(schedule, flip_mode)
    if flip_mode == "idealized":
        gram = np.ones((len(terms), len(terms)), dtype=complex)
        if not _refocuses(basis, schedule):
            damp = exp(_residual_displacement(basis, schedule, n_bar_c)[0])
            gram[0, 1] = gram[1, 0] = damp
    else:
        gram = _phase_space_gram(basis, schedule, n_bar_c, terms)
    return GateChannel(gram=gram, terms=terms)


def motional_output(
    basis: ModeBasis,
    schedule: GateSchedule,
    internal: np.ndarray,
    n_bar_c: float = 0.0,
    flip_mode: str = "idealized",
) -> fock_core.DensityOp:
    """Reduced motional state after the gate, for a product input
    internal (x) thermal(n_bar_c), where it has a closed form.

    rho_mot' = sum_{r,c} Tr[Q_r rho_int Q_c^dag] * M_r rho_mot M_c^dag.  The
    idealized flip on a schedule that refocuses (see gate_channel) makes
    every M_j equal to -1, so there the output is the full-truncation
    thermal state times sum_{r,c} Tr[Q_r rho_int Q_c^dag], with nothing
    propagated.  Any other flip or schedule raises ValueError; the tests
    propagate the thermal Fock columns for those (tests/oracles.py).
    """
    internal = np.asarray(internal, dtype=complex)
    if internal.shape != (4, 4):
        raise ValueError("internal must be a 4x4 density matrix")
    if flip_mode != "idealized" or not _refocuses(basis, schedule):
        raise ValueError("the motional output has a closed form only for the "
                         "idealized flip on a schedule that refocuses")
    q = sum(q_j for _, _, q_j in _branch_terms(schedule, flip_mode))
    rho = thermal_motional(basis, n_bar_c)
    rho.matrix *= np.trace(q @ internal @ q.conj().T).real
    return rho
