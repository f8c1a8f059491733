"""Figures of merit: branch separation curves, channel fidelity and purity,
and the anharmonic dephasing budget.

The channel tools are deliberately small: everything is phrased through the
Choi matrix J = sum_ij |i><j| (x) Lambda(|i><j|), because the gate simulator
already produces one (gate_protocol.GateChannel) and every quantity we report
(entanglement fidelity, average fidelity, purity, trace preservation,
complete positivity) is a short contraction of J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fock_core, gate_protocol
from .trap_model import (
    AnharmonicExpansion,
    ModeBasis,
    TrapSpec,
    anharmonic_expansion,
    build_mode_basis,
    motional_energies_flat,
    motional_hamiltonian,
    relative_occupation,
    v_cor_operator,
)

# ---------------------------------------------------------------------------
# branch separation of ion 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparationCurve:
    """Sampled distance between the two kicked branches of ion 1."""

    times: np.ndarray
    analytic: np.ndarray
    numeric: np.ndarray
    dims: tuple[int, int]
    x0: float
    converged: bool

    @property
    def max_error(self) -> float:
        return float(np.abs(self.analytic - self.numeric).max())


def separation_analytic(basis: ModeBasis, times) -> np.ndarray:
    """Branch separation d(t) = 2*x0*eta*[sin(nu_c t) - sin(2 nu_c t)/2].

    Follows from the coherent displacements +-i*eta_c, -+i*eta_r of the kick
    and ion 1's position x1 = x_c + (x_r + x_e)/2; the maximum
    D = (3*sqrt(3)/2)*x0*eta sits at t0 = 2*pi/(3*nu_c).
    """
    t = np.asarray(times, dtype=float)
    w = basis.nu_c
    return 2.0 * basis.x0 * basis.eta * (np.sin(w * t) - 0.5 * np.sin(2.0 * w * t))


def _mean_x_kicked(alpha: complex, width: float, nu: float, dim: int, times):
    """<x(t)> of a single mode prepared in the coherent state |alpha>."""
    ket = fock_core.coherent_state(alpha, dim).amplitudes
    x_op = fock_core.position_operator(dim, width)
    phases = np.exp(-1j * nu * (np.arange(dim) + 0.5)[None, :] * np.asarray(times)[:, None])
    kets = phases * ket[None, :]
    return np.einsum("tj,jk,tk->t", kets.conj(), x_op, kets).real


def separation_numeric(basis: ModeBasis, times, dims: tuple[int, int] | None = None):
    """Branch separation from direct Fock-space evolution at the given dims."""
    n_c, n_r = dims if dims is not None else basis.dims
    eta_c, eta_r = basis.eta_c, basis.eta_r
    d_c = _mean_x_kicked(1j * eta_c, basis.width_c, basis.nu_c, n_c, times) \
        - _mean_x_kicked(-1j * eta_c, basis.width_c, basis.nu_c, n_c, times)
    d_r = _mean_x_kicked(-1j * eta_r, basis.width_r, basis.nu_r, n_r, times) \
        - _mean_x_kicked(1j * eta_r, basis.width_r, basis.nu_r, n_r, times)
    # x1 = x_c + (x_r + x_e)/2; the constant x_e/2 cancels in the difference
    return d_c + d_r / 2.0


def separation_scan(
    basis: ModeBasis,
    n_points: int = 64,
    dims: tuple[int, int] | None = None,
    check_tol: float = 1e-9,
) -> SeparationCurve:
    """Sample one gate period of the separation, analytic against numeric.

    The numeric route is recomputed at doubled truncation; `converged` records
    whether the two truncations agree to check_tol * x0 everywhere.
    """
    if n_points < 2:
        raise ValueError("need at least two sample points")
    times = np.linspace(0.0, basis.gate_time, n_points)
    n_c, n_r = dims if dims is not None else basis.dims
    num = separation_numeric(basis, times, (n_c, n_r))
    num2 = separation_numeric(basis, times, (2 * n_c, 2 * n_r))
    converged = bool(np.abs(num - num2).max() <= check_tol * basis.x0)
    return SeparationCurve(
        times=times, analytic=separation_analytic(basis, times), numeric=num2,
        dims=(n_c, n_r), x0=basis.x0, converged=converged,
    )


# ---------------------------------------------------------------------------
# quantum channels on the two-qubit internal space
# ---------------------------------------------------------------------------


def _col_vec(op: np.ndarray) -> np.ndarray:
    """vec with the same index convention as the Choi assembly: sum_i |i> (x) K|i>."""
    return np.ascontiguousarray(op.T).reshape(-1)


@dataclass
class QuantumChannel:
    """Completely positive map stored as its Choi matrix."""

    choi: np.ndarray

    def __post_init__(self):
        self.choi = np.asarray(self.choi, dtype=complex)
        d2 = self.choi.shape[0]
        d = int(round(math.sqrt(d2)))
        if self.choi.shape != (d2, d2) or d * d != d2:
            raise ValueError("choi matrix must be square with square dimension")
        self.dim = d

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "QuantumChannel":
        v = _col_vec(np.asarray(u, dtype=complex))
        return cls(np.outer(v, v.conj()))

    @classmethod
    def from_kraus(cls, kraus) -> "QuantumChannel":
        vs = [_col_vec(np.asarray(k, dtype=complex)) for k in kraus]
        choi = sum(np.outer(v, v.conj()) for v in vs)
        return cls(choi)

    @classmethod
    def depolarizing(cls, p: float, dim: int = 4) -> "QuantumChannel":
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        ident = cls.from_unitary(np.eye(dim, dtype=complex))
        return cls((1.0 - p) * ident.choi + (p / dim) * np.eye(dim * dim, dtype=complex))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = self.dim
        j4 = self.choi.reshape(d, d, d, d)  # [in, out, in', out']
        return np.einsum("iajb,ij->ab", j4, np.asarray(rho, dtype=complex))

    def trace_preservation_defect(self) -> float:
        d = self.dim
        tr_out = np.einsum("iaja->ij", self.choi.reshape(d, d, d, d))
        return float(np.abs(tr_out - np.eye(d)).max())

    def is_completely_positive(self, tol: float = 1e-9) -> bool:
        evals = np.linalg.eigvalsh((self.choi + self.choi.conj().T) / 2.0)
        return bool(evals.min() >= -tol)


def average_fidelity(channel: QuantumChannel, target: np.ndarray) -> float:
    """Average gate fidelity of the channel against a target unitary.

    Uses F_ent = <v_U| J |v_U> / d^2 with v_U = vec(U), then the standard
    d-dimensional conversion F_avg = (d*F_ent + 1)/(d + 1).
    """
    d = channel.dim
    target = np.asarray(target, dtype=complex)
    if target.shape != (d, d):
        raise ValueError("target unitary has the wrong dimension")
    v = _col_vec(target)
    f_ent = (v.conj() @ channel.choi @ v).real / (d * d)
    return float((d * f_ent + 1.0) / (d + 1.0))


_QUBIT_FRAME = [
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
]


def frame_states(dim: int = 4):
    """Product kets over the six single-qubit axis states, 36 in total."""
    if dim != 4:
        raise ValueError("frame states are defined for the two-qubit space")
    q = np.array(_QUBIT_FRAME)
    # ket 6a + b is kron(frame[a], frame[b])
    return list((q[:, None, :, None] * q[None, :, None, :]).reshape(36, 4))


def average_purity(channel: QuantumChannel) -> float:
    """Mean output purity Tr[Lambda(rho)^2] over the 36 axis product states.

    One contraction of the Choi tensor with all 36 kets gives every output
    Lambda(|s><s|)[a, b] = sum_ij J[i, a, j, b] s_i conj(s_j) at once.
    """
    d = channel.dim
    kets = np.array(frame_states(d))
    outs = np.einsum("iajb,si,sj->sab", channel.choi.reshape(d, d, d, d),
                     kets, kets.conj())
    return float(np.einsum("sab,sba->", outs, outs).real / len(kets))


# ---------------------------------------------------------------------------
# anharmonic dephasing
# ---------------------------------------------------------------------------


def interaction_integral(v: np.ndarray, energies: np.ndarray, length: float) -> np.ndarray:
    """integral_0^length of e^{i H0 tau} V e^{-i H0 tau} d tau for diagonal H0.

    Element (j, k) picks up integral_0^T e^{i D tau} d tau with D = E_j - E_k,
    which is T e^{i D T/2} sinc(D T / 2 pi) in numpy's normalized sinc; D = 0
    gives exactly T.  The phase e^{i D T/2} is the outer product phi phi*
    with phi = e^{i E T/2}, so only len(energies) exponentials are taken.
    In the commensurate trap every D is a whole multiple of nu_c, so over
    one gate time only the resonant part of V survives.  v may be real (as
    trap_model.v_cor_operator returns it) or complex.
    """
    energies = np.asarray(energies, dtype=float)
    half = 0.5 * length * (energies[:, None] - energies[None, :])
    phi = np.exp(0.5j * length * energies)
    return length * np.outer(phi, phi.conj()) * np.sinc(half / np.pi) * np.asarray(v)


def _branch_displacement_factors(basis: ModeBasis):
    d_c = fock_core.displacement(1j * basis.eta_c, basis.dims[0])
    d_r = fock_core.displacement(-1j * basis.eta_r, basis.dims[1])
    return d_c, d_r


def _apply_factored(a_c: np.ndarray, a_r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a_c (x) a_r) x for x of shape (a_c.shape[1] * n_r, K), without the kron."""
    n_r = a_r.shape[1]
    t = a_c @ x.reshape(a_c.shape[1], n_r * x.shape[1])
    t = a_r @ t.reshape(a_c.shape[0], n_r, x.shape[1])
    return t.reshape(a_c.shape[0] * a_r.shape[0], x.shape[1])


def _thermal_grid_probs(basis: ModeBasis, n_bar_c: float) -> np.ndarray:
    p_c = fock_core.thermal_probabilities(n_bar_c, basis.dims[0])
    p_r = fock_core.thermal_probabilities(
        relative_occupation(n_bar_c, basis.nu_r / basis.nu_c), basis.dims[1])
    return np.kron(p_c, p_r)


def _phase_variance(tilde_v: np.ndarray, probs: np.ndarray):
    mean = float(np.real(probs @ np.diag(tilde_v)))
    second = float(np.einsum("j,jk->", probs, np.abs(tilde_v) ** 2))
    return second - mean * mean, mean


@dataclass(frozen=True)
class AnharmonicReport:
    """Perturbative dephasing estimate for one operating point."""

    f_cor: float
    variance: float
    mean_phase: float
    dims: tuple[int, int]
    state_mode: str
    order: int

    @property
    def converged(self) -> bool:
        """Always True: the interaction integral is exact, nothing iterates."""
        return True

    def to_dict(self) -> dict:
        return {
            "f_cor": self.f_cor,
            "phase_variance": self.variance,
            "mean_phase": self.mean_phase,
            "converged": self.converged,
            "dims": list(self.dims),
            "state_mode": self.state_mode,
            "order": self.order,
        }


def anharmonic_fidelity(
    basis: ModeBasis,
    expansion: AnharmonicExpansion,
    n_bar_c: float = 0.0,
    state_mode: str = "pre_kick",
) -> AnharmonicReport:
    """Fidelity reduction from the anharmonic correction, to leading order.

    Integrates the correction in the interaction picture over one gate time
    (in closed form, see interaction_integral) and reports
    F_cor = 1 - Var(phase) over the thermal ensemble, where the variance is
    <W^2> - <W>^2 of the integrated phase operator W.  state_mode 'pre_kick'
    (default) evaluates over the undisplaced thermal state; 'post_kick'
    conjugates W with the opening-kick displacement first, which probes the
    branch geometry but needs kick-sized truncations.
    """
    if state_mode not in ("pre_kick", "post_kick"):
        raise ValueError(f"unknown state_mode {state_mode!r}")
    energies = motional_energies_flat(basis)
    v = v_cor_operator(expansion, basis)
    tilde = interaction_integral(v, energies, basis.gate_time)
    if state_mode == "post_kick":
        d_c, d_r = _branch_displacement_factors(basis)
        # D^dag tilde D, the right factor as (D^T (D^dag tilde)^T)^T
        tilde = _apply_factored(d_c.conj().T, d_r.conj().T, tilde)
        tilde = _apply_factored(d_c.T, d_r.T, tilde.T).T
    var, mean = _phase_variance(tilde, _thermal_grid_probs(basis, n_bar_c))
    return AnharmonicReport(
        f_cor=1.0 - var, variance=var, mean_phase=mean, dims=basis.dims,
        state_mode=state_mode, order=expansion.order,
    )


def exact_anharmonic_fidelity(
    basis: ModeBasis,
    expansion: AnharmonicExpansion,
    n_bar_c: float = 0.0,
    state_mode: str = "pre_kick",
) -> float:
    """Non-perturbative cross-check of anharmonic_fidelity.

    Propagates each thermal ensemble member through one gate period of the
    full motional hamiltonian and averages the survival overlaps
    F = sum_j p_j |amp_j|^2, amp_j = <psi_j| e^{+i H0 t_g} e^{-i (H0 + V) t_g}
    |psi_j>.  The harmonic reference factor is a global phase per member
    (every mode completes whole periods at t_g), so this is the plain return
    overlap of the perturbed evolution; it agrees with the perturbative
    estimate through second order in the correction.

    The gate unitary is never formed.  H = diag(E) + V_cor is real
    symmetric, so H = v diag(w) v^T with v real, taken block by block over
    the x_c-parity blocks of H whenever the data decouple them
    (_parity_blocks).  Then, with Phi = diag(e^{i E t_g}) and
    D = d_c (x) d_r the opening-kick displacement:

    * pre_kick, psi_j = |j>: amp_j = sum_k v_jk^2 e^{-i w_k t_g}, the
      modulus-one factor e^{i E_j t_g} dropped;
    * post_kick, psi_j = D|j>: amp_j = sum_k (D^dag Phi v)_jk e^{-i w_k t_g}
      (D^T v)_jk, with D applied to v in factored form.
    """
    if state_mode not in ("pre_kick", "post_kick"):
        raise ValueError(f"unknown state_mode {state_mode!r}")
    t_g = basis.gate_time
    energies = motional_energies_flat(basis)
    h = fock_core.hermitian_part(
        motional_hamiltonian(basis, v_cor_operator(expansion, basis)))
    if state_mode == "post_kick":
        d_c, d_r = _branch_displacement_factors(basis)
        phase = np.exp(1j * energies * t_g)
    amp = np.zeros(energies.size, dtype=complex)
    for levels, idx in _parity_blocks(h, basis.dims):
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        decay = np.exp(-1j * w * t_g)
        if state_mode == "pre_kick":
            amp[idx] = (v * v) @ decay
        else:
            left = _apply_factored(d_c.conj().T[:, levels], d_r.conj().T,
                                   phase[idx, None] * v)
            right = _apply_factored(d_c.T[:, levels], d_r.T, v)
            amp += (left * right) @ decay
    probs = _thermal_grid_probs(basis, n_bar_c)
    return float(probs @ (np.abs(amp) ** 2))


def _parity_blocks(h: np.ndarray, dims: tuple[int, int]):
    """(x_c levels, flat indices) of the blocks of h to diagonalize apart.

    Two blocks, the even and the odd x_c levels, when every element of h
    between them is exactly zero (a V_cor with only even powers of x_c);
    one block with every level otherwise.
    """
    n_c, n_r = dims
    split = [np.arange(p, n_c, 2) for p in (0, 1)]
    flat = [(lv[:, None] * n_r + np.arange(n_r)).ravel() for lv in split]
    if np.any(h[np.ix_(flat[0], flat[1])]):
        return [(np.arange(n_c), np.arange(n_c * n_r))]
    return list(zip(split, flat))


# ---------------------------------------------------------------------------
# operating-point reports and parameter scans
# ---------------------------------------------------------------------------


@dataclass
class GateReport:
    """One operating point of the gate, with its figures of merit."""

    eta: float
    n_bar_c: float
    n_bar_r: float
    fidelity: float
    purity: float
    f_cor: float | None
    dims: tuple[int, int]
    dropped_mass: float
    condition: "gate_protocol.ConditionReport"
    tp_defect: float
    flip_mode: str

    def to_dict(self) -> dict:
        out = {
            "eta": self.eta,
            "n_bar_c": self.n_bar_c,
            "n_bar_r": self.n_bar_r,
            "fidelity": self.fidelity,
            "purity": self.purity,
            "f_cor": self.f_cor,
            "dims": list(self.dims),
            "dropped_mass": self.dropped_mass,
            "tp_defect": self.tp_defect,
            "flip_mode": self.flip_mode,
        }
        out["conditions"] = self.condition.to_dict()
        return out


def anharmonic_dims(n_bar_c: float) -> tuple[int, int]:
    """Thermal-sized truncation for the pre-kick dephasing average, which
    needs no room for the kick."""
    return (fock_core.default_fock_dim(n_bar_c, 0.0),
            fock_core.default_fock_dim(relative_occupation(n_bar_c), 0.0))


def _anharmonic_point(spec, n_bar_c, order):
    """F_cor at thermal-sized truncation."""
    small = build_mode_basis(spec, eta=spec.lamb_dicke, n_bar_c=n_bar_c,
                             dims=anharmonic_dims(n_bar_c))
    expansion = anharmonic_expansion(spec, order=order)
    return anharmonic_fidelity(small, expansion, n_bar_c=n_bar_c)


def _solved_point(
    spec: TrapSpec,
    eta: float,
    n_bar_c: float,
    rabi_cycles: int = 3,
    margin: float = 3.0,
    dims: tuple[int, int] | None = None,
    omega0_scale: float = 1.0,
    frame_phase: float | None = None,
):
    """Mode basis, solved schedule and condition report of one operating
    point, with gate_report's pulse overrides applied."""
    basis = build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c, dims=dims)
    schedule, condition = gate_protocol.build_schedule(
        basis, n_bar_c=n_bar_c, rabi_cycles=rabi_cycles, margin=margin)
    if omega0_scale != 1.0:
        if omega0_scale < 0:
            raise ValueError("omega0_scale must be non-negative")
        schedule = replace(schedule, flip=replace(
            schedule.flip, omega0=schedule.flip.omega0 * omega0_scale))
    if frame_phase is not None:
        schedule = replace(schedule, frame_phase=frame_phase)
    return basis, schedule, condition


def gate_report(
    spec: TrapSpec,
    eta: float,
    n_bar_c: float,
    rabi_cycles: int = 3,
    margin: float = 3.0,
    flip_mode: str = "gaussian",
    anharmonic_order: int | None = 3,
    dims: tuple[int, int] | None = None,
    omega0_scale: float = 1.0,
    frame_phase: float | None = None,
    target: np.ndarray | None = None,
) -> GateReport:
    """Simulate one operating point and collect its figures of merit.

    omega0_scale rescales the solved pulse amplitude (0 turns the flip off),
    frame_phase overrides the schedule's closing frame rotation, and target
    replaces the conditional-flip unitary in the fidelity (for instance the
    identity, when the pulse is disabled).  anharmonic_order None skips the
    dephasing estimate; 0 reports F_cor = 1 (correction switched off).
    """
    basis, schedule, condition = _solved_point(
        spec, eta, n_bar_c, rabi_cycles, margin, dims, omega0_scale, frame_phase)
    gc = gate_protocol.gate_channel(basis, schedule, n_bar_c=n_bar_c,
                                    flip_mode=flip_mode)
    channel = QuantumChannel(gc.choi)
    if target is None:
        target = gate_protocol.ideal_gate()
    fidelity = average_fidelity(channel, target)
    purity = average_purity(channel)
    if anharmonic_order is None:
        f_cor = None
    elif anharmonic_order == 0:
        f_cor = 1.0
    else:
        f_cor = _anharmonic_point(spec, n_bar_c, anharmonic_order).f_cor
    return GateReport(
        eta=eta, n_bar_c=n_bar_c,
        n_bar_r=relative_occupation(n_bar_c, basis.nu_r / basis.nu_c),
        fidelity=fidelity, purity=purity, f_cor=f_cor,
        dims=basis.dims, dropped_mass=gc.dropped_mass,
        condition=condition, tp_defect=channel.trace_preservation_defect(),
        flip_mode=flip_mode,
    )


def fock_route_fidelity(
    spec: TrapSpec,
    eta: float,
    n_bar_c: float,
    flip_mode: str = "gaussian",
    target: np.ndarray | None = None,
    **point_kw,
) -> float:
    """Average fidelity of gate_report's operating point on the Fock oracle.

    point_kw are gate_report's rabi_cycles, margin, dims, omega0_scale and
    frame_phase.  gate_report's channel has no Fock truncation, so this
    figure at the same dims measures how far the truncated Fock space is
    from it.
    """
    basis, schedule, _ = _solved_point(spec, eta, n_bar_c, **point_kw)
    gc = gate_protocol.fock_gate_channel(basis, schedule, n_bar_c, flip_mode)
    if target is None:
        target = gate_protocol.ideal_gate()
    return average_fidelity(QuantumChannel(gc.choi), target)


def _scan_row(spec: TrapSpec, eta: float, n_bar_c: float, report_kw: dict) -> dict:
    row = {"eta": eta, "n_bar_c": n_bar_c, "fidelity": math.nan,
           "purity": math.nan, "f_cor": math.nan, "error": None}
    try:
        rep = gate_report(spec, eta, n_bar_c, **report_kw)
        row.update(fidelity=rep.fidelity, purity=rep.purity,
                   f_cor=math.nan if rep.f_cor is None else rep.f_cor)
    except Exception as exc:  # scans keep going; the row records the failure
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def scan_rows(spec: TrapSpec, points, **report_kw):
    """Yield the rows of scan one at a time, in input order."""
    for eta, n_bar_c in points:
        yield _scan_row(spec, float(eta), float(n_bar_c), report_kw)


def scan(spec: TrapSpec, points, **report_kw) -> list[dict]:
    """Evaluate gate_report on a list of (eta, n_bar_c) operating points.

    Rows come back in input order.  A failing point keeps its row, with nan
    figures and the error string attached, so partial scans stay usable.
    """
    return list(scan_rows(spec, points, **report_kw))
