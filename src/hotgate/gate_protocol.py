"""Addressed pulse and propagators for the two-ion conditional-flip gate.

Protocol on the composite space qubit1 (x) qubit2 (x) mode_c (x) mode_r:

1. a state-dependent momentum kick on ion 2 (sigma+ e^{ikx2} + sigma- e^{-ikx2}),
   which splits the motion into two coherent branches correlated with qubit 2;
2. free evolution to t0 = 2*pi/(3*nu_c), where the branch separation of ion 1
   peaks on the commensurate trap;
3. an instantaneous addressed flip of ion 1 whose Gaussian flip-angle profile
   is tuned so one branch sees a half-integer number of Rabi cycles (flip)
   and the other an integer number (no net effect);
4. free evolution to t_g = 2*pi/nu_c, where both motional modes complete an
   integer number of periods (nu_r = 2*nu_c), refocusing the branches;
5. the closing kick, which undoes step 1, and a pi/2 frame rotation on
   qubit 2 (_FRAME_FACTOR) that returns the gate to the target's frame.

Every time in the schedule is fixed (ModeBasis.flip_time and gate_time),
so the one thing solved per operating point is the addressed pulse
(condition_solver, also named build_schedule).

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

gate_channel, for any harmonic trap, writes
M_{b,s} = U(t_g) G_b f_{b,s}(X), with X ion 1's Heisenberg position at t0
and G_b the displacement that imperfect refocusing leaves on branch b.  The
thermal state is Gaussian, so every entry of T is a 1-D Gaussian integral
over X (the cross-branch ones against a complex Gaussian weight, by the
characteristic function of the Weyl operator G_1^dag G_0), free of any Fock
truncation.
In the commensurate trap G_b = 1 and the integral is the plain average
over X.

motional_output gives the reduced motional state where it has a closed
form: the idealized flip on the commensurate trap leaves the thermal
state.  The Fock-space routes that check all of this (the literal
composite-unitary path and the propagated thermal Fock columns) are test
oracles and live in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from math import exp, pi, sqrt

import numpy as np

from . import fock_core
from .errors import ConfigError, NonConvergenceError
from .trap_model import ModeBasis, mode_energies, relative_occupation

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PROJ_0 = np.diag([1.0, 0.0]).astype(complex)
PROJ_1 = np.diag([0.0, 1.0]).astype(complex)
ID2 = np.eye(2, dtype=complex)

# The frame rotation after the closing kick, e^{i pi/2} on qubit 2's |0>
# component: the commanded branch pulse areas differ by half a Rabi cycle,
# which tags the flipped branch with -i, and the rotation returns the
# realized gate to the ideal gate's phase frame.
_FRAME_FACTOR = np.exp(1j * pi / 2.0)


def _read_only(q: np.ndarray) -> np.ndarray:
    q.flags.writeable = False
    return q


# The branch decomposition's internal factors (b, s, Q), Q acting on
# qubit1 (x) qubit2: qubit 2 stays diagonal (each kick toggles it twice), the
# Gaussian flip splits qubit 1 over the sigma^x eigenprojectors and the frame
# rotation multiplies the b = 0 terms.  Shared by every channel, read-only.
_GAUSSIAN_TERMS = tuple(
    (b, s, _read_only(phase * np.kron((ID2 + s * SIGMA_X) / 2.0, proj)))
    for b, proj, phase in ((0, PROJ_0, _FRAME_FACTOR), (1, PROJ_1, 1.0)) for s in (1.0, -1.0))
_IDEALIZED_TERMS = ((0, None, _read_only(np.kron(SIGMA_X, PROJ_0))),
                    (1, None, _read_only(np.kron(ID2, PROJ_1))))


@dataclass(frozen=True)
class AddressedPulse:
    """Flip-angle profile of the instantaneous flip on ion 1, in its frame:
    theta(xi) = theta0 * exp(-z^2/2), z = (xi - offset)/width, at ion 1's
    offset xi = x1 - x_e/2 from its equilibrium."""

    theta0: float
    offset: float
    width: float

    def __post_init__(self):
        if self.theta0 < 0:
            raise ValueError("theta0 must be non-negative")
        if self.width <= 0:
            raise ValueError("width must be positive")


def flip_angle(pulse: AddressedPulse, xi) -> np.ndarray:
    """theta(xi), the flip angle at ion 1's offset xi from its equilibrium,
    read in widths z = (xi - offset)/W so that no W^2 under- or overflows:
    far out z^2 is inf and theta exactly 0, its limit, so nothing is guarded."""
    with np.errstate(over="ignore"):
        z = (xi - pulse.offset) / pulse.width
        return pulse.theta0 * np.exp(-0.5 * z * z)


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


_T1_OVER_TG = 0.01  # pulse length over t_g, reported only: the channel's flip is instantaneous
_MARGIN = 3.0  # factor by which the separation, linearity and kick flags must hold
_RABI_CYCLES_LIMIT = 2**50  # the least N whose 2N + 1/4 a double rounds to 2N


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
    pins the Gaussian width to W = (4N + 1/2)*D, centres the profile W from
    ion 1's equilibrium (its steepest point sits on ion 1), and fixes the
    pulse area theta(0) = (2N + 1/4)*pi so the branches see (2N + 1/2)*pi
    and 2N*pi.  The report gives theta0 as Omega0*t1/2 over
    t1 = _T1_OVER_TG * t_g, and the absolute centre l = x_e/2 + W.
    eta_bound_ratio = eta/ModeBasis.eta_bound = D/Delta on any trap.  The
    flags ask D > 3 Delta, a phase spread below 1/3 and eta/eta_bound >= 3
    (_MARGIN).
    D = 0 leaves no profile to solve: it raises ValueError, ConfigError for
    a positive kick whose D underflows.  From N = 2**50 on, 2N + 1/4 rounds
    to 2N in a double, which drops the quarter cycle that sets the branches
    half a Rabi cycle apart, so such N raise ValueError.

    build_schedule is the same function: the flip and gate times are
    ModeBasis.flip_time and gate_time and the frame rotation is fixed
    (_FRAME_FACTOR), so the solved pulse is the whole schedule.
    """
    if int(rabi_cycles) != rabi_cycles or rabi_cycles < 1:
        raise ValueError("rabi_cycles must be a positive integer")
    if rabi_cycles >= _RABI_CYCLES_LIMIT:
        raise ValueError(f"rabi_cycles must be below 2**50 = {_RABI_CYCLES_LIMIT}: from there "
                         f"2N + 1/4 rounds to 2N and the branches lose their half-cycle offset")
    if n_bar_c < 0:
        raise ValueError("n_bar_c must be non-negative")
    n = int(rabi_cycles)
    big_d = 2.0 * (basis.wavenumber * basis.flip_half_separation_per_k)
    if big_d == 0.0:
        if basis.eta > 0.0:
            raise ConfigError(f"the kick eta = {basis.eta:.3g} is too weak for this trap: its "
                              f"wavenumber eta/x0 leaves a separation D that underflows to 0")
        raise ValueError("the branches are not separated at the flip time (D = 0); "
                         "the kick eta must be positive")
    delta = basis.thermal_spread(n_bar_c)
    big_w = (4.0 * n + 0.5) * big_d
    center = basis.x_e / 2.0 + big_w
    t1 = _T1_OVER_TG * basis.gate_time
    area = (2.0 * n + 0.25) * pi  # theta(0) = Omega(x_e/2) * t1 / 2
    omega0 = 2.0 * area / t1 * exp(0.5)
    bound = basis.eta_bound(n_bar_c)
    ratio = basis.eta / bound
    phase_spread = area * delta / big_w  # d(theta)/d(xi) at xi = 0 times Delta
    satisfied = {
        "separation_hierarchy": big_w > big_d > delta * _MARGIN,
        "profile_linearity": phase_spread < 1.0 / _MARGIN,
        "rabi_cycles_large": n >= 3,
        "eta_above_bound": ratio >= _MARGIN,
    }
    pulse = AddressedPulse(theta0=0.5 * omega0 * t1, offset=big_w, width=big_w)
    report = ConditionReport(
        eta=basis.eta, n_bar_c=n_bar_c, n_bar_r=basis.stretch_occupation(n_bar_c),
        rabi_cycles=n,
        big_d=big_d, delta=delta, big_w=big_w, center=center, t1=t1,
        omega0=omega0, omega0_t1=omega0 * t1, pulse_area=area,
        w_over_d=big_w / big_d, eta_bound=bound, eta_bound_ratio=ratio,
        satisfied=satisfied,
    )
    return pulse, report


build_schedule = condition_solver


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


@dataclass
class GateChannel:
    """Internal 4x4 channel of one gate execution over a thermal motion,
    Lambda(rho) = sum_rc gram[r, c] Q_r rho Q_c^dag.

    gram holds the motional overlaps Tr[M_r rho_mot M_c^dag] of the branch
    terms (b, s, Q), the shared read-only _GAUSSIAN_TERMS or
    _IDEALIZED_TERMS.  choi, sum_ij |i><j| (x) Lambda(|i><j|) (trace 4 for
    trace preserving), is assembled from them on first read (_choi): the
    figures of analysis.gate_report are contractions of gram alone.
    """

    gram: np.ndarray
    terms: tuple

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


def _residual_displacement(basis: ModeBasis, n_bar_c: float):
    """(-kappa^2 S_YY / 2, z, a) of the cross-branch Gram blocks.

    The residual displacements G_b of the two branches leave
    G_1^dag G_0 = exp(i kappa Y), kappa = 2k, Y = x2 - x2(t_g), with the
    flip at t0 = ModeBasis.flip_time and t_g = ModeBasis.gate_time.
    X - x_e/2 and Y are linear forms on R = (x_c, p_c, x_r, p_r)
    (ModeBasis.position_form) whose thermal covariances S and commutator
    [X, Y] = i c_XY give z = kappa (i S_XY - c_XY/2) and a = kappa c_XY
    (Gaussian characteristic functions: Weedbrook et al., Rev. Mod. Phys.
    84, 621 (2012)).
    """
    var = basis.thermal_variances(n_bar_c)
    x = basis.position_form(basis.flip_time, 0.5)
    y = basis.position_form(0.0, -0.5) - basis.position_form(basis.gate_time, -0.5)
    kappa = 2.0 * basis.wavenumber
    s_xy, s_yy = x @ (var * y), y @ (var * y)
    c_xy = x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]
    return -0.5 * kappa**2 * s_yy, kappa * (1j * s_xy - 0.5 * c_xy), kappa * c_xy


def _phase_space_gram(basis: ModeBasis, pulse: AddressedPulse, n_bar_c: float) -> np.ndarray:
    """Gram matrix of _GAUSSIAN_TERMS as 1-D Gaussian integrals over X.

    Each branch operator is M_{b,s} = U(t_g) G_b f_{b,s}(X): X is ion 1's
    Heisenberg offset xi from equilibrium at the flip, t0 =
    ModeBasis.flip_time, the opening kick shifts it by sigma_b D/2
    (sigma_0 = +1 for the +k branch, D/2 from ModeBasis.flip_half_separation_per_k),
    so f_{b,s}(x) = exp(-i s flip_angle(x + sigma_b D/2)), and
    G_b = exp(-i k_b x2(t_g)) exp(i k_b x2), k_0 = k, k_1 = -k, is the
    displacement that refocusing leaves behind.  U(t_g) cancels in
    T[r, c] = Tr[M_r rho M_c^dag].  Under the thermal state X is Gaussian
    with mean 0 and spread Delta = ModeBasis.thermal_spread.

    * Same branch: T[r, c] = E_X[f_r(X) conj(f_c(X))].
    * r in branch 0, c in branch 1: with (log_damp, z, a) from
      _residual_displacement, X sits at the complex shift X + z; the profile
      is entire, so the contour moves back to the real axis:
      T[r, c] = int f_r(x + a) conj(f_c(x)) e^{log_damp} N(x; z, Delta^2) dx.
      As S_XX S_YY - S_XY^2 >= c_XY^2/4 (Robertson-Schroedinger), the weight
      at x = Delta t is at most exp(-(Re z/Delta)^2/2 - (t - Re z/Delta)^2/2)
      in modulus: below e^-49 at the span's ends, summing to at most 1.  The
      (1, 0) block is its conjugate transpose.

    On the commensurate trap G_b = 1 (free flight over t_g is a global
    phase) and the same-branch product already gives the cross blocks, so
    they are not evaluated apart.  The profile is read for s = +1 only:
    f_{b,-1} is the conjugate of f_{b,+1}, bit for bit.  The integrals are a trapezoid rule over +-_SPAN widths
    (_trapezoid_nodes) whose interval count doubles from 64 until two
    successive Gram matrices agree to _GRAM_TOL.  The first evaluation is
    on _FIRST_LEVEL intervals, whose even nodes at twice the weight give the
    64-interval sum; each later level evaluates only its new nodes and adds
    their sum to half the previous Gram matrix.  The nodes are offsets
    sigma_b D/2 + Delta t (+ a in f_r): no absolute coordinate enters.

    No node needs a guard: flip_angle reads it in profile widths, and one
    many widths out has a flip angle of exactly 0.  Where W << Delta, a
    weak kick or a hot point, the rule samples the profile too coarsely to
    settle and raises NonConvergenceError at its cap.
    """
    delta = basis.thermal_spread(n_bar_c)
    half_d = basis.wavenumber * basis.flip_half_separation_per_k
    cross = None if basis.commensurate else _residual_displacement(basis, n_bar_c)
    # the profile is read at s = +1 on branch 0 and branch 1 at X and, for
    # the cross block, on branch 0 at X + a; f_{b,-1} is its conjugate
    shifts = np.array([half_d, -half_d] + ([] if cross is None else [half_d]))

    def integrand(t, w, step):
        """Weights [w] and factors [f] in _GAUSSIAN_TERMS order (and the
        cross-block weight and the branch-0 f_r(X + a) off the commensurate
        trap) at the nodes t."""
        u = delta * t
        x = shifts[:, None] + (u if cross is None else np.stack([u, u, u + cross[2]]))
        p = np.exp(-1j * flip_angle(pulse, x))
        f = np.empty((2 * len(p), t.size), dtype=complex)  # each row, then its conjugate
        f[0::2], f[1::2] = p, p.conj()
        if cross is None:
            return [w], [f]
        log_damp, shift, _ = cross
        w_cross = np.exp(log_damp - 0.5 * (t - shift / delta) ** 2) * step
        return [w, w_cross], [f[:4], f[4:]]

    def gram_of(weights, factors):
        f = factors[0]
        gram = (f * weights[0]) @ f.conj().T
        if cross is not None:
            block = (factors[1] * weights[1]) @ f[2:].conj().T
            gram[:2, 2:] = block
            gram[2:, :2] = block.conj().T
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
    pulse: AddressedPulse | None,
    n_bar_c: float = 0.0,
    flip_mode: str = "gaussian",
) -> GateChannel:
    """Internal channel of the gate over the thermal motion, in any harmonic
    trap, for the addressed pulse (condition_solver's) at
    ModeBasis.flip_time, closed at ModeBasis.gate_time.

    The Gram matrix comes from _phase_space_gram, with no Fock truncation,
    so basis.dims does not enter, and the flip is instantaneous.  The
    idealized flip does not read the pulse: every f is 1 and the Gram
    matrix is [[1, damp], [damp, 1]] with damp = exp(-kappa^2 S_YY / 2) from
    _residual_displacement, all ones on the commensurate trap.
    """
    if flip_mode == "idealized":
        gram = np.ones((2, 2), dtype=complex)
        if not basis.commensurate:
            gram[0, 1] = gram[1, 0] = exp(_residual_displacement(basis, n_bar_c)[0])
        return GateChannel(gram=gram, terms=_IDEALIZED_TERMS)
    if flip_mode != "gaussian":
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    gram = _phase_space_gram(basis, pulse, n_bar_c)
    return GateChannel(gram=gram, terms=_GAUSSIAN_TERMS)


def motional_output(
    basis: ModeBasis,
    pulse: AddressedPulse | None,
    internal: np.ndarray,
    n_bar_c: float = 0.0,
    flip_mode: str = "idealized",
) -> fock_core.DensityOp:
    """Reduced motional state after the gate, for a product input
    internal (x) thermal(n_bar_c), where it has a closed form.

    rho_mot' = sum_{r,c} Tr[Q_r rho_int Q_c^dag] * M_r rho_mot M_c^dag.  The
    idealized flip on the commensurate trap (see gate_channel) makes every
    M_j equal to -1, so there the output is the full-truncation thermal
    state times Tr[U rho_int U^dag], U = sum_j Q_j = ideal_gate(), with
    nothing propagated and the pulse not read.  Any other flip or trap
    raises ValueError; the tests propagate the thermal Fock columns for
    those (tests/oracles.py).
    """
    internal = np.asarray(internal, dtype=complex)
    if internal.shape != (4, 4):
        raise ValueError("internal must be a 4x4 density matrix")
    if flip_mode != "idealized" or not basis.commensurate:
        raise ValueError("the motional output has a closed form only for the "
                         "idealized flip on the commensurate trap")
    q = ideal_gate()
    rho = thermal_motional(basis, n_bar_c)
    rho.matrix *= np.trace(q @ internal @ q.conj().T).real
    return rho
