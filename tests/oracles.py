"""Fock-space oracles that the tests compare the package's routes against.

No production route calls anything here.  Each function works in truncated
Fock space at basis.dims, where the package's own routes do not:

* the literal composite path: kick_unitary, free flight, addressed_flip_unitary
  or idealized_flip_unitary and frame_rotation, composed by run_gate on full
  qubit1 (x) qubit2 (x) mode_c (x) mode_r states held as plain arrays (a 1-D
  array is a ket, a 2-D array a density matrix);
* the Fock branch route: the retained thermal levels propagated through
  every branch operator (_BranchOps, _thermal_columns), contracted into the
  channel (fock_gate_channel) or into the reduced motional state
  (fock_motional_output);
* the dense M x M (M = n_c n_r) forms of V_cor, of the motional hamiltonian
  and of the interaction-picture integral of the dephasing estimate;
* reference channels and states for the metric tests: unitary, Kraus and
  depolarizing channels as QuantumChannel, the channel applied to a state,
  its complete positivity, the momentum operator and coherent kets, and the
  full two-ion potential that the Taylor coefficients are differenced from;
* the same trap in other units (rescaled_trap), by dimensional analysis
  alone, for the unit-invariance tests.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hotgate import fock_core
from hotgate.analysis import QuantumChannel, _col_vec, _phase_integral
from hotgate.gate_protocol import (
    ID2,
    PROJ_0,
    PROJ_1,
    SIGMA_X,
    _FRAME_FACTOR,
    _GAUSSIAN_TERMS,
    _IDEALIZED_TERMS,
    AddressedPulse,
    GateChannel,
    _free_phases,
    flip_angle,
    thermal_motional,
)
from hotgate.trap_model import (
    AnharmonicExpansion,
    ModeBasis,
    TrapSpec,
    mode_energies,
    v_cor_factors,
)

SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
SIGMA_MINUS = SIGMA_PLUS.conj().T

# ---------------------------------------------------------------------------
# composite-space operators (reference path)
# ---------------------------------------------------------------------------


def _kick_factors(basis: ModeBasis):
    """Mode displacement factors and constant phase of e^{+ik x2}.

    x2 = x_c - (x_r + x_e)/2, so the +k branch displaces the modes by
    basis.kick_displacements() and carries the constant phase e^{-i k x_e/2}.
    """
    d_c, d_r = basis.kick_displacements()
    return d_c, d_r, np.exp(-0.5j * basis.wavenumber * basis.x_e)


def kick_unitary(basis: ModeBasis) -> np.ndarray:
    """Full composite kick sigma+_2 e^{ik x2} + sigma-_2 e^{-ik x2}, of
    strength basis.eta."""
    d_c, d_r, phase = _kick_factors(basis)
    e_plus = phase * np.kron(d_c, d_r)
    e_minus = e_plus.conj().T
    return (np.kron(np.kron(ID2, SIGMA_PLUS), e_plus)
            + np.kron(np.kron(ID2, SIGMA_MINUS), e_minus))


def _flip_eigensystem(basis: ModeBasis):
    """Spectral data of ion 1's offset from its equilibrium, xi = x_c + x_r/2.

    The two mode contributions commute, so xi diagonalizes in the product of
    the single-mode position eigenbases; returns per-mode eigenvectors and
    the (n_c, n_r) grid of xi eigenvalues.
    """
    n_c, n_r = basis.dims
    xv_c, vec_c = np.linalg.eigh(fock_core.position_operator(n_c, basis.width_c))
    xv_r, vec_r = np.linalg.eigh(fock_core.position_operator(n_r, basis.width_r))
    return vec_c, vec_r, xv_c[:, None] + xv_r[None, :] / 2.0


def addressed_flip_unitary(basis: ModeBasis, pulse: AddressedPulse) -> np.ndarray:
    """exp[-i theta(xi) sigma^x_1] on the full composite space."""
    vec_c, vec_r, xigrid = _flip_eigensystem(basis)
    theta = flip_angle(pulse, xigrid)
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


def frame_rotation(factor: complex) -> np.ndarray:
    """Internal-only correction: the phase factor on qubit 2's |0> component."""
    r2 = np.diag([factor, 1.0]).astype(complex)
    return np.kron(ID2, r2)


# ---------------------------------------------------------------------------
# system state and the literal gate run
# ---------------------------------------------------------------------------


@dataclass
class SystemState:
    """State on qubit1 (x) qubit2 (x) mode_c (x) mode_r: data is a ket (1-D
    array) or a density matrix (2-D array) over prod(dims)."""

    dims: tuple[int, int, int, int]
    data: np.ndarray

    def __post_init__(self):
        d = int(np.prod(self.dims))
        if self.dims[0] != 2 or self.dims[1] != 2:
            raise ValueError("the first two subsystems must be qubits")
        if self.data.shape[0] != d:
            raise ValueError(f"state dimension {self.data.shape[0]} != prod(dims) {d}")

    def _blocks(self) -> np.ndarray:
        """The density matrix as a (4, M, 4, M) array, M = n_c n_r."""
        rho = self.data if self.data.ndim == 2 else np.outer(self.data, self.data.conj())
        m = rho.shape[0] // 4
        return rho.reshape(4, m, 4, m)

    def internal_density(self) -> np.ndarray:
        return np.einsum("ambm->ab", self._blocks())

    def motional_density(self) -> np.ndarray:
        return np.einsum("aman->mn", self._blocks())


def initial_state(basis: ModeBasis, internal, n_bar_c: float = 0.0) -> SystemState:
    """Product of an internal two-qubit state with the thermal motion.

    internal may be a length-4 ket or a 4x4 density matrix.  A pure internal
    state over the vacuum stays a ket; anything thermal becomes a density
    matrix.
    """
    n_c, n_r = basis.dims
    internal = np.asarray(internal, dtype=complex)
    if internal.shape == (4,):
        if n_bar_c == 0:
            mot = np.zeros(n_c * n_r, dtype=complex)
            mot[0] = 1.0
            return SystemState((2, 2, n_c, n_r), np.kron(internal, mot))
        internal = np.outer(internal, internal.conj())
    if internal.shape != (4, 4):
        raise ValueError("internal state must be a length-4 ket or 4x4 matrix")
    rho = np.kron(internal, thermal_motional(basis, n_bar_c).matrix)
    return SystemState((2, 2, n_c, n_r), rho)


def evolve(state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u applied to a ket (u psi) or to a density matrix (u rho u^dag)."""
    return u @ state if state.ndim == 1 else u @ state @ u.conj().T


def _free_segment(state: np.ndarray, basis: ModeBasis, t: float) -> np.ndarray:
    """Free flight for time t, applied as its diagonal of phases."""
    diag = np.concatenate([_free_phases(basis, t).ravel()] * 4)
    return diag * state if state.ndim == 1 else state * np.outer(diag, diag.conj())


def run_gate(
    pulse: AddressedPulse | None,
    initial: SystemState,
    basis: ModeBasis,
    flip_mode: str = "gaussian",
) -> SystemState:
    """Execute the gate on a composite state (reference path): the flip at
    basis.flip_time, the closing kick at basis.gate_time and, after the
    Gaussian flip, the frame rotation by gate_protocol._FRAME_FACTOR.

    Builds the composite pulse unitaries explicitly, so it is meant for
    moderate truncations.  The idealized flip does not read the pulse.
    """
    if flip_mode not in ("gaussian", "idealized"):
        raise ValueError(f"unknown flip_mode {flip_mode!r}")
    if flip_mode == "gaussian" and pulse is None:
        raise ValueError("no addressed pulse but flip_mode='gaussian'")
    if tuple(initial.dims[2:]) != tuple(basis.dims):
        raise ValueError("state dims do not match basis dims")
    u_kick = kick_unitary(basis)
    state = evolve(initial.data, u_kick)
    state = _free_segment(state, basis, basis.flip_time)
    if flip_mode == "gaussian":
        state = evolve(state, addressed_flip_unitary(basis, pulse))
    else:
        state = evolve(state, idealized_flip_unitary(basis))
    state = _free_segment(state, basis, basis.gate_time - basis.flip_time)
    state = evolve(state, u_kick)
    if flip_mode == "gaussian":
        u_frame = np.kron(frame_rotation(_FRAME_FACTOR),
                          np.eye(int(np.prod(basis.dims)), dtype=complex))
        state = evolve(state, u_frame)
    return SystemState(initial.dims, state)


# ---------------------------------------------------------------------------
# branch path: channel and motional output from propagated Fock columns
# ---------------------------------------------------------------------------


class _BranchOps:
    """Mode-factorized appliers for the per-branch motional operators.

    Batches are arrays of shape (n_c, n_r, k); every operation is either a
    single-mode matrix product or a diagonal grid multiply, so nothing larger
    than n_mode^2 is ever formed.
    """

    def __init__(self, basis: ModeBasis, pulse: AddressedPulse | None, flip_mode: str):
        self.basis = basis
        self.flip_mode = flip_mode
        d_c, d_r, phase = _kick_factors(basis)
        self._open = {0: (d_c, d_r, phase), 1: (d_c.conj().T, d_r.conj().T, np.conj(phase))}
        self._close = {0: self._open[1], 1: self._open[0]}
        if flip_mode == "gaussian":
            if pulse is None:
                raise ValueError("gaussian flip requested but no addressed pulse given")
            self._vec_c, self._vec_r, xigrid = _flip_eigensystem(basis)
            self._theta = flip_angle(pulse, xigrid)

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
        out = self.free(self.basis.flip_time, out)
        if self.flip_mode == "gaussian":
            out = self.flip_component(s, out)
        out = self.free(self.basis.gate_time - self.basis.flip_time, out)
        return self.kick("close", b, out)


def _retained_levels(probs: np.ndarray, tail: float) -> int:
    """Smallest level count whose dropped mass stays below tail."""
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, 1.0 - tail)) + 1
    return min(max(idx, 1), probs.size)


_MASS_CUTOFF = 1e-10  # default thermal weight the branch route may drop


def _thermal_columns(basis: ModeBasis, pulse: AddressedPulse | None, n_bar_c: float,
                     flip_mode: str, mass_cutoff: float):
    """Propagate the retained thermal levels through every branch operator.

    Keeps the K = k_c * k_r lowest product levels whose dropped thermal mass
    stays below mass_cutoff, and returns (ops, terms, outs, probs, flat,
    kept, dropped): outs[j] is the M x K array M_j E with E the K retained
    unit columns, probs their thermal weights renormalised to sum 1, and
    flat the indices of those levels in the n_c * n_r product basis.
    """
    n_c, n_r = basis.dims
    p_c, p_r = basis.thermal_weights(n_bar_c)
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
    ops = _BranchOps(basis, pulse, flip_mode)
    terms = _GAUSSIAN_TERMS if flip_mode == "gaussian" else _IDEALIZED_TERMS
    outs = [ops.branch(b, s, batch).reshape(n_c * n_r, k) for b, s, _ in terms]
    flat = rows_c * n_r + rows_r
    return ops, terms, outs, probs, flat, (k_c, k_r), dropped


@dataclass
class FockChannel(GateChannel):
    """GateChannel of fock_gate_channel: dropped_mass is the thermal weight
    left out, and kept the retained level count per mode."""

    dropped_mass: float
    kept: tuple[int, int]


def fock_gate_channel(
    basis: ModeBasis,
    pulse: AddressedPulse | None,
    n_bar_c: float = 0.0,
    flip_mode: str = "gaussian",
    mass_cutoff: float = _MASS_CUTOFF,
) -> FockChannel:
    """Reconstruct the internal channel by propagating the occupied thermal
    levels through each branch operator (the Fock oracle of gate_channel).

    Only K = (retained c-levels) x (retained r-levels) basis columns are
    ever propagated; mass_cutoff bounds the thermal weight discarded that
    way.
    """
    _, terms, outs, probs, _, kept, dropped = _thermal_columns(
        basis, pulse, n_bar_c, flip_mode, mass_cutoff)
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
    return FockChannel(gram=gram, terms=terms, dropped_mass=dropped, kept=kept)


def fock_motional_output(
    basis: ModeBasis,
    pulse: AddressedPulse | None,
    internal: np.ndarray,
    n_bar_c: float = 0.0,
    flip_mode: str = "idealized",
) -> fock_core.DensityOp:
    """Reduced motional state after the gate, for a product input
    internal (x) thermal(n_bar_c), on any trap and flip.

    rho_mot' = sum_{r,c} Tr[Q_r rho_int Q_c^dag] * M_r rho_mot M_c^dag,
    with rho_mot the retained thermal levels of fock_gate_channel (so the
    result deviates from the full-truncation one by at most the dropped
    mass).
    M_r rho_mot comes from the shared K propagated columns; the right factor
    M_c^dag is one more branch application to the conjugate transpose.
    """
    internal = np.asarray(internal, dtype=complex)
    if internal.shape != (4, 4):
        raise ValueError("internal must be a 4x4 density matrix")
    n_c, n_r = basis.dims
    m = n_c * n_r
    ops, terms, outs, probs, flat, _, _ = _thermal_columns(
        basis, pulse, n_bar_c, flip_mode, _MASS_CUTOFF)
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


# ---------------------------------------------------------------------------
# dense motional operators
# ---------------------------------------------------------------------------


def motional_energies_flat(basis: ModeBasis) -> np.ndarray:
    e_c, e_r = mode_energies(basis)
    return (e_c[:, None] + e_r[None, :]).ravel()


def v_cor_operator(expansion: AnharmonicExpansion, basis: ModeBasis) -> np.ndarray:
    """V_cor as a dense real symmetric operator on Fock(n_c) (x) Fock(n_r):
    the sum of the Kronecker products of v_cor_factors, symmetrized.  Dense
    oracle for tests of the factored routes."""
    n_c, n_r = basis.dims
    out = np.zeros((n_c * n_r, n_c * n_r))
    for _, x_pow, q in v_cor_factors(expansion, basis):
        out += np.kron(x_pow, q)
    return (out + out.T) / 2.0


def motional_hamiltonian(basis: ModeBasis, v_cor: np.ndarray | None = None) -> np.ndarray:
    """H of the two modes as a dense M x M array: diagonal harmonic part
    plus optional V_cor; real unless v_cor is complex.  Dense oracle for
    analysis.exact_anharmonic_fidelity, which assembles H per block."""
    h = np.diag(motional_energies_flat(basis))
    if v_cor is not None:
        h = h + v_cor
    return h


def interaction_integral(v: np.ndarray, energies: np.ndarray, length: float) -> np.ndarray:
    """integral_0^length of e^{i H0 tau} V e^{-i H0 tau} d tau for diagonal H0.

    Element (j, k) picks up _phase_integral(E_j - E_k, length).  In the
    commensurate trap every E_j - E_k is a whole multiple of nu_c, so over
    one gate time only the resonant part of V survives.  v may be real (as
    v_cor_operator returns it) or complex.  Dense, M x M: the oracle of
    anharmonic_fidelity's factored integral.
    """
    energies = np.asarray(energies, dtype=float)
    return _phase_integral(energies[:, None] - energies[None, :], length) * np.asarray(v)


# ---------------------------------------------------------------------------
# reference channels, states and potential
# ---------------------------------------------------------------------------


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    v = _col_vec(np.asarray(u, dtype=complex))
    return QuantumChannel(np.outer(v, v.conj()))


def kraus_channel(kraus) -> QuantumChannel:
    vs = [_col_vec(np.asarray(k, dtype=complex)) for k in kraus]
    return QuantumChannel(sum(np.outer(v, v.conj()) for v in vs))


def depolarizing_channel(p: float, dim: int = 4) -> QuantumChannel:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    ident = unitary_channel(np.eye(dim, dtype=complex))
    return QuantumChannel((1.0 - p) * ident.choi + (p / dim) * np.eye(dim * dim, dtype=complex))


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    d = channel.dim
    j4 = channel.choi.reshape(d, d, d, d)  # [in, out, in', out']
    return np.einsum("iajb,ij->ab", j4, np.asarray(rho, dtype=complex))


def is_completely_positive(channel: QuantumChannel, tol: float = 1e-9) -> bool:
    evals = np.linalg.eigvalsh((channel.choi + channel.choi.conj().T) / 2.0)
    return bool(evals.min() >= -tol)


def momentum_operator(dim: int, ground_width: float) -> np.ndarray:
    """p = i*(a^dag - a)/(2w), conjugate to fock_core.position_operator ([x, p] = i)."""
    if ground_width <= 0:
        raise ValueError("ground_width must be positive")
    a = fock_core.annihilation(dim)
    return 1j * (a.conj().T - a) / (2.0 * ground_width)


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Amplitudes of D(alpha)|0>, renormalized after truncation to dim levels."""
    ket = fock_core.displacement(alpha, dim)[:, 0]
    return ket / np.linalg.norm(ket)


def total_potential(spec: TrapSpec, x_c: float, x_r: float, x_e: float) -> float:
    """Full two-ion potential in mode coordinates (finite-difference anchor)."""
    x1 = x_c + (x_r + x_e) / 2.0
    x2 = x_c - (x_r + x_e) / 2.0
    k, p = spec.stiffness, spec.exponent
    return k * abs(x1) ** p + k * abs(x2) ** p + spec.coulomb / (x_e + x_r)


def rescaled_trap(spec: TrapSpec, nu_c: float = 1.0, mass: float = 1.0) -> TrapSpec:
    """A trap of natural units (hbar = m = nu_c = 1) restated at COM
    frequency nu_c and ion mass m, hbar = 1.  The unit of length becomes
    1/sqrt(m nu_c) and that of energy nu_c, so K [energy/length^p] and C
    [energy length] scale as below; TrapSpec.normalized's algebra is not
    reused."""
    p, scale = spec.exponent, mass * nu_c
    return replace(spec, stiffness=spec.stiffness * nu_c * scale ** (p / 2.0),
                   coulomb=spec.coulomb * nu_c * scale**-0.5, mass=mass)
