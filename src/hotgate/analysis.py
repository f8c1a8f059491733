"""Figures of merit: branch separation curves, channel fidelity and purity,
and the anharmonic dephasing budget.

gate_report reads its figures off the branch decomposition of the gate,
Lambda(rho) = sum_rc T_rc Q_r rho Q_c^dag (gate_protocol.GateChannel): the
entanglement fidelity, the mean output purity over the 36 frame states and
the trace-preservation defect are each a closed-form contraction of the 4x4
Gram matrix T with constants of the four branch operators Q_r
(_branch_figures).  QuantumChannel and average_fidelity work on the Choi
matrix J = sum_ij |i><j| (x) Lambda(|i><j|) of any channel; the tests
hold the contractions to them and to the reference purity and
trace-preservation defect of tests/oracles.py.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from . import fock_core, gate_protocol
from .errors import ConfigError
from .trap_model import (
    AnharmonicExpansion,
    ModeBasis,
    TrapSpec,
    anharmonic_expansion,
    build_mode_basis,
    mode_energies,
    v_cor_factors,
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
    converged: bool


def separation_analytic(basis: ModeBasis, times) -> np.ndarray:
    """Branch separation d(t) = 2*k*ModeBasis.half_separation_per_k(t) on any trap.

    On the commensurate trap d(t) = 2*x0*eta*[sin(nu_c t) - sin(2 nu_c t)/2],
    whose maximum D = (3*sqrt(3)/2)*x0*eta sits at t0 = 2*pi/(3*nu_c); off
    the ratio the peak moves and d(t_g) is no longer zero.
    """
    return 2.0 * (basis.wavenumber * basis.half_separation_per_k(np.asarray(times, dtype=float)))


def _mean_x(displacement: np.ndarray, width: float, nu: float, times):
    """<x(t)> of one mode prepared in displacement|0>, renormalized."""
    ket = displacement[:, 0] / np.linalg.norm(displacement[:, 0])
    dim = ket.size
    x_op = fock_core.position_operator(dim, width)
    phases = np.exp(-1j * nu * (np.arange(dim) + 0.5)[None, :] * np.asarray(times)[:, None])
    kets = phases * ket[None, :]
    return np.einsum("tj,jk,tk->t", kets.conj(), x_op, kets).real


def separation_numeric(basis: ModeBasis, times):
    """Branch separation from direct Fock-space evolution at basis.dims:
    the -k branch is the parity image of the +k one (the kets of
    ModeBasis.kick_displacements), with exactly opposite <x(t)>, so
    x1 = x_c + (x_r + x_e)/2 gives d = 2(<x_c> + <x_r>/2) of the +k branch.

    The two displacements' eigensolves peak near 144 (n_c^2 + n_r^2) bytes
    (peak RSS grew 130-148 per n_c^2 at dims (400..1200, 2)); above
    _MAX_EXACT_BYTES of that it raises ConfigError before building either."""
    n_c, n_r = basis.dims
    peak = 144 * (n_c**2 + n_r**2)
    if peak > _MAX_EXACT_BYTES:
        raise ConfigError(
            f"the numeric separation at dims ({n_c}, {n_r}) needs about {peak / 1e9:.3g} GB, "
            f"above the budget of {_MAX_EXACT_BYTES / 1e9:g} GB; lower eta or the dims")
    d_c, d_r = basis.kick_displacements()
    return 2.0 * (_mean_x(d_c, basis.width_c, basis.nu_c, times)
                  + _mean_x(d_r, basis.width_r, basis.nu_r, times) / 2.0)


_CHECK_TOL = 1e-9  # separation_scan's agreement of the two routes, in x0


def separation_scan(basis: ModeBasis, n_points: int = 64) -> SeparationCurve:
    """Sample one gate period of the separation, analytic against numeric.

    The numeric route runs once, at basis.dims; `converged` records whether
    it meets the closed form to _CHECK_TOL * x0 everywhere, which a
    truncation too tight for the kick misses.
    """
    if n_points < 2:
        raise ValueError("need at least two sample points")
    times = np.linspace(0.0, basis.gate_time, n_points)
    analytic = separation_analytic(basis, times)
    numeric = separation_numeric(basis, times)
    converged = bool(np.abs(numeric - analytic).max() <= _CHECK_TOL * basis.x0)
    return SeparationCurve(times=times, analytic=analytic, numeric=numeric,
                           dims=basis.dims, converged=converged)


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


def frame_states() -> np.ndarray:
    """Product kets over the six single-qubit axis states, (36, 4)."""
    q = np.array(_QUBIT_FRAME)
    # ket 6a + b is kron(frame[a], frame[b])
    return (q[:, None, :, None] * q[None, :, None, :]).reshape(36, 4)


@cache
def _branch_constants() -> np.ndarray:
    """[A | K | P] (16 x 33) of the Gaussian flip's branch operators Q_r
    (gate_protocol._GAUSSIAN_TERMS, frame rotation included), built on
    first use:

    * A[(r, c)] = a_r conj(a_c) / 16, a_r = Tr[U^dag Q_r] against the
      conditional flip U = gate_protocol.ideal_gate();
    * K[(r, c), (p, q)] is Tr[Q_r rho_s Q_c^dag Q_p rho_s Q_q^dag] averaged
      over the 36 frame states rho_s = |s><s|, that is G[s, c, p] G[s, q, r]
      with G[s, c, p] = <s| Q_c^dag Q_p |s>;
    * row (r, c) of P holds the 16 entries of Q_c^dag Q_r.
    """
    ops = np.array([q for _, _, q in gate_protocol._GAUSSIAN_TERMS])
    products = np.einsum("cba,rbd->rcad", ops.conj(), ops)
    kets = frame_states()
    grams = np.einsum("sa,pcad,sd->scp", kets.conj(), products, kets)
    kernel = np.einsum("scp,sqr->rcpq", grams, grams) / len(kets)
    a = ops.reshape(len(ops), 16) @ gate_protocol.ideal_gate().conj().reshape(16)
    overlaps = np.outer(a, a.conj()).reshape(16, 1) / 16.0
    return np.hstack([overlaps, kernel.reshape(16, 16), products.reshape(16, 16)])


def _branch_figures(gram: np.ndarray) -> tuple[float, float, float]:
    """Average fidelity against the conditional flip, mean frame-state
    purity and trace-preservation defect of the Gaussian flip's channel
    Lambda(rho) = sum_rc T_rc Q_r rho Q_c^dag:

    * F_ent = sum_rc T_rc A_rc = a T a^dag / 16, then F_avg = (4 F_ent + 1)/5,
      as average_fidelity on the Choi matrix;
    * purity = sum T_rc T_pq K_rcpq, as tests/oracles.py's average_purity;
    * defect = max |sum_rc T_rc Q_c^dag Q_r - 1|, the channel's trace
      Lambda^dag(1) against the identity, as trace_preservation_defect there.

    A, K and the products Q_c^dag Q_r come from _branch_constants, so one
    matmul of the flattened T gives F_ent, the purity's inner sum and
    Lambda^dag(1).
    """
    t = gram.reshape(16)
    contracted = t @ _branch_constants()
    f_ent = contracted[0].real
    purity = (contracted[1:17] @ t).real
    dual = contracted[17:]  # Lambda^dag(1), flattened
    dual[::5] -= 1.0  # its diagonal
    return float((4.0 * f_ent + 1.0) / 5.0), float(purity), float(np.abs(dual).max())


# ---------------------------------------------------------------------------
# anharmonic dephasing
# ---------------------------------------------------------------------------


def _phase_integral(detuning, length: float):
    """integral_0^length e^{i D tau} d tau = length e^{i D length/2}
    sinc(D length / 2 pi) in numpy's normalized sinc, element-wise over an
    array of detunings D; D = 0 gives exactly length."""
    half = 0.5 * length * np.asarray(detuning, dtype=float)
    return length * np.exp(1j * half) * np.sinc(half / np.pi)


@dataclass(frozen=True)
class AnharmonicReport:
    """Perturbative dephasing estimate for one operating point."""

    f_cor: float
    variance: float
    mean_phase: float

    @property
    def converged(self) -> bool:
        """Always True: the interaction integral is exact, nothing iterates."""
        return True


def _integral_factors(basis: ModeBasis, expansion: AnharmonicExpansion):
    """Kronecker factors of the interaction integral, W = sum_k A_k (x) B_k,
    stacked as A of shape (K, n_c, n_c) and B of shape (K, n_r, n_r).

    On a harmonic trap E_j - E_k = nu_c dc + nu_r dr depends only on the
    level differences, so each term X_c^a (x) Q_a of V_cor splits over the
    diagonals dc of X_c^a: A_k is that diagonal band and
    B_k = Q_a * _phase_integral(nu_c dc + nu_r (n - n')) element-wise.
    """
    n_c, n_r = basis.dims
    dc_of = np.subtract.outer(np.arange(n_c), np.arange(n_c))
    dr_of = np.subtract.outer(np.arange(n_r), np.arange(n_r))
    a_fac, b_fac = [], []
    for a, x_pow, q in v_cor_factors(expansion, basis):
        for dc in range(-a, a + 1, 2):
            a_fac.append(np.where(dc_of == dc, x_pow, 0.0))
            b_fac.append(q * _phase_integral(basis.nu_c * dc + basis.nu_r * dr_of,
                                             basis.gate_time))
    return (np.array(a_fac).reshape(-1, n_c, n_c),
            np.array(b_fac, dtype=complex).reshape(-1, n_r, n_r))


# Cap on K (n_c^2 + n_r^2), the factor entries of anharmonic_fidelity (a + 1
# pairs per power x_c^a); at 24 (pre_kick) to 45 (post_kick) bytes each, < 0.75 GB
_MAX_FACTOR_ENTRIES = 2**24


def _weighted_gram(factors: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """G_kl = sum_mq p_m F_k,mq conj(F_l,mq)."""
    k, n, _ = factors.shape
    flat = factors.reshape(k, n * n)
    return (factors * probs[:, None]).reshape(k, n * n) @ flat.conj().T


def _resonant_variance(basis: ModeBasis, expansion: AnharmonicExpansion,
                       p_c: np.ndarray, p_r: np.ndarray) -> float:
    """Var W over the undisplaced thermal state on the commensurate trap, in
    closed form over the Fock box, with its level weights p_c and p_r.

    With nu_r = 2 nu_c every level gap is a whole multiple of nu_c, so
    t_g = 2 pi/nu_c is a whole period of each and _phase_integral is t_g on
    the pairs of equal energy and 0 on all others: W = t_g V_res, the part of
    V_cor that commutes with H0.  x_r^3 always changes the energy; of
    c_21 x_c^2 x_r only V_res = g (a^dag^2 b + a^2 b^dag) is left, with
    g = c_21 w_c^2 w_r.  W has no diagonal, so <W> = 0, and a^dag^2 b takes
    |n, m> to |n + 2, m - 1> with weight (n + 1)(n + 2) m inside the box
    (n + 2 < n_c, 1 <= m < n_r), so with n < n_c - 2 and 1 <= m < n_r

        Var W = (t_g g)^2 [sum_n (n + 1)(n + 2) p_c(n) sum_m m p_r(m)
                           + sum_n (n + 1)(n + 2) p_c(n + 2) sum_m m p_r(m - 1)].

    The factored route gives the same box sums plus the sinc leakage of the
    non-resonant terms, about 4e-17 t_g each (np.sinc(2.0) and its kin).
    """
    n_c, n_r = basis.dims
    n = np.arange(max(n_c - 2, 0), dtype=float)
    pairs = (n + 1.0) * (n + 2.0)
    m = np.arange(1.0, n_r)
    t_g_g = (basis.gate_time * expansion.coefficients.get((2, 1), 0.0)
             * basis.width_c**2 * basis.width_r)
    return float(np.square(t_g_g) * ((pairs @ p_c[:n.size]) * (m @ p_r[1:])
                                     + (pairs @ p_c[2:]) * (m @ p_r[:-1])))


def anharmonic_fidelity(
    basis: ModeBasis,
    expansion: AnharmonicExpansion,
    n_bar_c: float = 0.0,
    state_mode: str = "pre_kick",
) -> AnharmonicReport:
    """Fidelity reduction from the anharmonic correction, to leading order.

    Integrates the correction in the interaction picture over one gate time
    (in closed form, see _phase_integral) and reports F_cor = 1 - Var(phase)
    over the thermal ensemble, where the variance is <W^2> - <W>^2 of the
    integrated phase operator W.  state_mode 'pre_kick' (default) evaluates
    over the undisplaced thermal state; 'post_kick' conjugates W with the
    opening-kick displacement first, which probes the branch geometry but
    needs kick-sized truncations.  pre_kick is gate_report's F_cor, the CLI's
    only one; post_kick stays for the benchmark's dephasing workload and tests.

    W is never formed.  Pre kick on the commensurate trap (basis.commensurate)
    W = t_g V_res, and its variance is a closed form of two sums over the
    Fock box (_resonant_variance), with mean exactly 0.  Elsewhere, off the
    ratio and post kick, W is the sum of K Kronecker products A_k (x) B_k
    of _integral_factors (4 at order 3), the kick conjugates
    each factor, D^dag (A (x) B) D = (d_c^dag A d_c) (x) (d_r^dag B d_r),
    and with the thermal weights p = p_c (x) p_r
    <W> = sum_k (p_c . diag A_k)(p_r . diag B_k) and
    sum_j p_j sum_l |W_jl|^2 = sum_kl G^c_kl G^r_kl, with G^c and G^r the
    weighted Gram matrices of the A_k and the B_k.  The cost is
    K (n_c^3 + n_r^3) + K^2 (n_c^2 + n_r^2) against M^2 (n_c + n_r) for the
    dense M x M integral (M = n_c n_r).  Both routes share the same
    truncation-renormalized weights, and above _MAX_FACTOR_ENTRIES both
    raise ConfigError before allocating, so no weights are sized at absurd
    dims.  The empty expansion (order 0) has K = 0,
    so F_cor is exactly 1, returned with nothing sized by the dims.  A mean
    or variance that leaves double range raises OverflowError.
    """
    if state_mode not in ("pre_kick", "post_kick"):
        raise ValueError(f"unknown state_mode {state_mode!r}")
    if not expansion.coefficients:
        return AnharmonicReport(f_cor=1.0, variance=0.0, mean_phase=0.0)
    n_c, n_r = basis.dims
    entries = sum(a + 1 for a in {a for a, _ in expansion.coefficients}) * (n_c**2 + n_r**2)
    if entries > _MAX_FACTOR_ENTRIES:
        raise ConfigError(
            f"F_cor at dims ({n_c}, {n_r}) and order {expansion.order} needs {entries:,} "
            f"factor entries, above the budget of {_MAX_FACTOR_ENTRIES:,} (about 0.75 GB); "
            f"lower n_bar_c or the dims, or set [anharmonic] order 0 to skip F_cor")
    p_c, p_r = basis.thermal_weights(n_bar_c)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        if state_mode == "pre_kick" and basis.commensurate:
            mean, var = 0.0, _resonant_variance(basis, expansion, p_c, p_r)
        else:
            a_fac, b_fac = _integral_factors(basis, expansion)
            if state_mode == "post_kick":
                d_c, d_r = basis.kick_displacements()
                a_fac = d_c.conj().T @ a_fac @ d_c
                b_fac = d_r.conj().T @ b_fac @ d_r
            diag_c = np.diagonal(a_fac, axis1=1, axis2=2) @ p_c
            diag_r = np.diagonal(b_fac, axis1=1, axis2=2) @ p_r
            mean = float(np.real(diag_c @ diag_r))
            second = float(np.real(np.sum(_weighted_gram(a_fac, p_c)
                                          * _weighted_gram(b_fac, p_r))))
            var = second - mean * mean
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise OverflowError(f"F_cor's phase mean {mean} or variance {var} is not finite")
    return AnharmonicReport(f_cor=1.0 - var, variance=var, mean_phase=mean)


def exact_anharmonic_fidelity(
    basis: ModeBasis,
    expansion: AnharmonicExpansion,
    n_bar_c: float = 0.0,
    state_mode: str = "pre_kick",
) -> float:
    """Non-perturbative cross-check of anharmonic_fidelity (see there for post_kick).

    Propagates each thermal ensemble member through one gate period of the
    full motional hamiltonian and averages the survival overlaps
    F = sum_j p_j |amp_j|^2, amp_j = <psi_j| e^{+i H0 t_g} e^{-i (H0 + V) t_g}
    |psi_j>, which agrees with the perturbative estimate through second
    order in the correction.  The harmonic reference factor
    Phi = e^{+i H0 t_g} = diag(e^{i E t_g}) is one phase per Fock level, so
    pre_kick drops it as a phase per member on any trap.  At t_g = 2 pi/nu_c
    the COM mode completes whole periods on every trap, and on the
    commensurate trap the stretch mode too, so that Phi = -1 there.
    post_kick runs on that trap alone, the one point the benchmark's
    dephasing workload runs it at; off the ratio it raises ValueError.

    Neither the gate unitary nor any M x M array (M = n_c n_r) is formed.
    V_cor = sum_a X_c^a (x) Q_a (trap_model.v_cor_factors, whose factors are
    checked there and exactly symmetric) has only even powers a of x_c, so
    it couples no two x_c levels of opposite parity.  H = diag(E) + V_cor
    is therefore summed from the factors in two exactly symmetric real
    blocks (_hamiltonian_blocks: the even and the odd x_c levels), each
    diagonalized as H_b = v diag(w) v^T with v real.
    Then, with D = d_c (x) d_r the opening-kick displacement:

    * pre_kick, psi_j = |j>: amp_j = sum_k v_jk^2 e^{-i w_k t_g}, one real
      product of v^2 with the (Re, Im) columns of the decay vector;
    * post_kick, psi_j = D|j>: amp_j = sum_k (D^dag Phi v)_jk e^{-i w_k t_g}
      (D^T v)_jk, taken in the real gauge of the kick over _OVERLAP_CHUNK
      eigenvector columns at a time (_overlap_sum).  The kick is a rotated
      real displacement: with R = e^{i (pi/2) n} = diag(i^n),
      D(+-i eta) = R D(+-eta) R^dag
      (Cahill and Glauber, Phys. Rev. 177, 1857 (1969)), so
      M = R^dag D R = M_c (x) M_r is real, M[m, n] = Re(i^{n-m} D[m, n])
      (_real_gauge).  In one x_c-parity block R v is i^p (v+ + i v-),
      with v+ and v- the rows of even and of odd n_r, each signed by
      sigma_m = (-1)^floor(m/2) per mode, so D^T v = R^dag M^T R v gives
      |(D^T v)_j| = |(M^T v+)_j + i (M^T v-)_j| from two real Kronecker
      products (_kron_apply).  With Phi = -1 and v real,
      D^dag Phi v = -conj(D^T v), so
      amp_j = -sum_k ((M^T v+)_jk^2 + (M^T v-)_jk^2) e^{-i w_k t_g} and no
      complex overlap is formed.

    Each block's H and v are dropped before the next block is assembled,
    so the peak is the largest block's eigensolve.
    The empty expansion (order 0) leaves H = H0: every member returns with
    unit modulus, so F = 1 with nothing diagonalized.  Above
    _MAX_EXACT_BYTES of estimated peak (_exact_peak_bytes) it raises
    ConfigError before any block is assembled.
    """
    if state_mode not in ("pre_kick", "post_kick"):
        raise ValueError(f"unknown state_mode {state_mode!r}")
    if state_mode == "post_kick" and not basis.commensurate:
        raise ValueError("the exact post_kick check runs on the commensurate trap only")
    if not expansion.coefficients:
        return 1.0
    peak = _exact_peak_bytes(basis, state_mode)
    if peak > _MAX_EXACT_BYTES:
        n_c, n_r = basis.dims
        raise ConfigError(
            f"the exact F_cor check at dims ({n_c}, {n_r}), {state_mode}, needs about "
            f"{peak / 1e9:.3g} GB for its largest block, above the budget of "
            f"{_MAX_EXACT_BYTES / 1e9:g} GB; lower n_bar_c or the dims, or set "
            f"[anharmonic] order 0")
    t_g = basis.gate_time
    p_c, p_r = basis.thermal_weights(n_bar_c)
    if state_mode == "post_kick":
        g_c, g_r = (_real_gauge(d).T for d in basis.kick_displacements())
    amp = np.zeros((p_c.size, p_r.size), dtype=complex)
    for lv, h in _hamiltonian_blocks(basis, expansion):
        w, v = np.linalg.eigh(h)
        del h
        decay = np.exp(-1j * w * t_g)
        if state_mode == "pre_kick":
            v *= v
            amp[lv] = (v @ decay.view(float).reshape(-1, 2)).view(complex).reshape(lv.size, -1)
        else:
            g_lv = g_c[:, lv]
            for k in range(0, v.shape[1], _OVERLAP_CHUNK):
                cols = slice(k, k + _OVERLAP_CHUNK)
                amp += _overlap_sum(g_lv, g_r, v[:, cols], decay[cols]).reshape(amp.shape)
        del v
    return float(p_c @ (np.abs(amp) ** 2) @ p_r)


# Eigenvector columns per post_kick overlap: the overlaps then stay far below
# the eigensolve, and at dims (28, 22) and (115, 66) they took no longer
# than with 32 to 256 columns (within 1 ms of whole blocks at (28, 22)).
_OVERLAP_CHUNK = 64

# Cap on _exact_peak_bytes and separation_numeric's estimate.  It admits the
# post_kick default up to n_bar_c 2, dims (185, 97), estimated at 3.3 GB;
# n_bar_c 3, dims (204, 107), is 4.9 GB.
_MAX_EXACT_BYTES = 4 * 10**9


def _exact_peak_bytes(basis: ModeBasis, state_mode: str) -> int:
    """Estimated peak memory of exact_anharmonic_fidelity, from the dims
    alone.  The even x_c levels' eigensolve sets it at large dims: for
    s = ceil(n_c/2) n_r rows, eigh holds the real H, numpy's working copy,
    dsyevd's workspace (2 s^2 + 6 s doubles and 5 s ints) and the
    eigenvectors, 5 s^2 doubles, where assembling H takes s^2 and one x_c
    row (n_r s doubles).
    post_kick adds its overlaps (_overlap_sum), bounded by four complex
    M x chunk arrays (M = n_c n_r): they are real, the halves M^T v+ and
    M^T v- (M x chunk each) and their r-stage products, which hold less.
    The fixed allocations are added as if all were live at once:
    amp (16 M bytes), 8 n x n doubles per mode for building V_cor's factors,
    16 more for post_kick's kick and its real gauge, 16 doubles per level,
    and 2**14 bytes of Python objects (tracemalloc counts 8-12 KB at dims
    (2, 2) and (3, 2))."""
    n_c, n_r = basis.dims
    size = (n_c + 1) // 2 * n_r
    peak = (8 * (5 * size + 16) * size + 16 * n_c * n_r + 64 * (n_c**2 + n_r**2)
            + 128 * (n_c + n_r) + 2**14)
    if state_mode == "post_kick":
        peak += 4 * 16 * n_c * n_r * min(_OVERLAP_CHUNK, size) + 128 * (n_c**2 + n_r**2)
    return peak


def _hamiltonian_blocks(basis: ModeBasis, expansion: AnharmonicExpansion):
    """(x_c levels lv, H[lv (x) all, lv (x) all]) for the even, then the
    odd x_c levels lv, the two blocks of H = diag(E) + V_cor, each
    diag(E_lv) + sum_a X_c^a[lv, lv] (x) Q_a from v_cor_factors: the first
    Kronecker term is written into the block, the others are added in place
    one x_c row at a time, then E on the diagonal, so from exactly symmetric
    factors the block is exactly symmetric.  A block is released before the
    next is assembled, once the caller has dropped it.
    """
    n_c, n_r = basis.dims
    e_c, e_r = mode_energies(basis)
    (_, x_first, q_first), *rest = v_cor_factors(expansion, basis)
    for lv in (np.arange(0, n_c, 2), np.arange(1, n_c, 2)):
        h = np.empty((lv.size, n_r, lv.size, n_r))
        np.multiply(x_first[np.ix_(lv, lv)][:, None, :, None], q_first[None, :, None, :], out=h)
        for _, x_pow, q in rest:
            for row, x_row in zip(h, x_pow[np.ix_(lv, lv)]):
                row += x_row[None, :, None] * q[:, None, :]
        h = h.reshape(lv.size * n_r, -1)
        h.flat[::h.shape[0] + 1] += (e_c[lv, None] + e_r).ravel()
        yield lv, h
        del h


def _overlap_sum(g_c: np.ndarray, g_r: np.ndarray, v: np.ndarray,
                 decay: np.ndarray) -> np.ndarray:
    """sum_k (D^dag Phi v)_jk (D^T v)_jk decay_k over one chunk of a block's
    eigenvector columns v, per member j, in the real gauge of the kick
    (exact_anharmonic_fidelity): g_c and g_r are the signed real factors of
    the kick on the block's x_c levels and on all r levels, and Phi = -1,
    so the left overlap is -conj(right)."""
    x = v.reshape(g_c.shape[1], g_r.shape[1], -1)
    # M^T v+ and M^T v-, over the even and the odd n_r rows
    even, odd = (_kron_apply(g_c, g_r[:, half], x[:, half])
                 for half in (slice(0, None, 2), slice(1, None, 2)))
    # |right|^2 is real: one real product with decay's (Re, Im) columns
    even *= even
    odd *= odd
    even += odd
    return -(even @ decay.view(float).reshape(-1, 2)).view(complex)


def _real_gauge(d: np.ndarray) -> np.ndarray:
    """sigma_m M[m, n] for a kick d = D(+-i eta): M = R^dag d R, R = diag(i^n),
    is the real D(+-eta), read off d as M[m, n] = Re(i^{n-m} d[m, n]) with
    exact phase multiplications, and sigma_m = (-1)^floor(m/2) signs it so
    that i^m = i^(m mod 2) sigma_m."""
    n = np.arange(len(d))
    i_pow = np.array([1, 1j, -1, -1j])  # i^k for k mod 4, exactly
    m = (d * i_pow[(n - n[:, None]) % 4]).real
    return m * np.where(n % 4 < 2, 1.0, -1.0)[:, None]


def _kron_apply(a_c: np.ndarray, a_r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a_c (x) a_r) x for real a_c, a_r and real x with its rows split as
    (a_c.shape[1], a_r.shape[1], K), without the kron: the r-stage, then
    the c-stage, as two real matmuls."""
    t = a_r @ x
    t = a_c @ t.reshape(a_c.shape[1], -1)
    return t.reshape(a_c.shape[0] * a_r.shape[0], -1)


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
    condition: "gate_protocol.ConditionReport"
    tp_defect: float

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["conditions"] = out.pop("condition").to_dict()
        return out


def _anharmonic_point(spec, n_bar_c, order, dims_factor=1):
    """Pre-kick F_cor on the trap's zero-kick basis, whose dims the thermal
    occupations alone size, times dims_factor (2 checks gate's F_cor): the
    closed form over the box on the commensurate trap, the factored
    integral off it (anharmonic_fidelity)."""
    basis = build_mode_basis(spec, eta=0.0, n_bar_c=n_bar_c)
    basis = basis.with_dims((dims_factor * basis.dims[0], dims_factor * basis.dims[1]))
    expansion = anharmonic_expansion(spec, order=order)
    return anharmonic_fidelity(basis, expansion, n_bar_c=n_bar_c)


_SCAN_CHUNK = 64  # points per batched Gram quadrature: about 1 MB of first-level factors


def _channel_figures(spec: TrapSpec, points, rabi_cycles: int = 3,
                     dims: tuple[int, int] | None = None) -> list:
    """(condition, fidelity, purity, tp_defect) of the Gaussian flip's
    channel at each (eta, n_bar_c) of points on the trap spec, in input
    order, or the exception that point raised.

    Each point's basis and schedule are solved alone, so a refused point
    fails only its own entry; the Gram matrices of the rest come from one
    batched quadrature (gate_protocol._phase_space_grams), and the figures
    are contractions of each (_branch_figures).
    """
    out, batch = [], []
    for eta, n_bar_c in points:
        try:
            basis = build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c, dims=dims)
            pulse, condition = gate_protocol.build_schedule(
                basis, n_bar_c=n_bar_c, rabi_cycles=rabi_cycles)
        except Exception as exc:  # the caller raises or records it
            out.append(exc)
            continue
        batch.append((len(out), (basis, pulse, n_bar_c)))
        out.append(condition)
    grams = gate_protocol._phase_space_grams([point for _, point in batch]) if batch else []
    for (i, _), gram in zip(batch, grams):
        out[i] = gram if isinstance(gram, Exception) else (out[i], *_branch_figures(gram))
    return out


def gate_report(
    spec: TrapSpec,
    eta: float,
    n_bar_c: float,
    rabi_cycles: int = 3,
    anharmonic_order: int | None = 3,
    dims: tuple[int, int] | None = None,
) -> GateReport:
    """Simulate one operating point and collect its figures of merit.

    The flip is the solved addressed Gaussian pulse, and fidelity is taken
    against the conditional flip, gate_protocol.ideal_gate.
    Fidelity, purity and tp_defect are contractions of the channel's 4x4
    Gram matrix (_branch_figures), from _channel_figures on a batch of one
    point, the route of every scan row; no Choi matrix is built.
    anharmonic_order None skips the dephasing estimate; at order 0, the
    empty expansion, F_cor is 1.
    dims sets the truncation of the gate's mode basis, which no figure
    reads: the channel is truncation-free and F_cor sizes its own basis.
    """
    (figures,) = _channel_figures(spec, [(eta, n_bar_c)], rabi_cycles, dims)
    if isinstance(figures, Exception):
        raise figures
    condition, fidelity, purity, tp_defect = figures
    f_cor = (None if anharmonic_order is None
             else _anharmonic_point(spec, n_bar_c, anharmonic_order).f_cor)
    return GateReport(
        eta=eta, n_bar_c=n_bar_c,
        n_bar_r=condition.n_bar_r,
        fidelity=fidelity, purity=purity, f_cor=f_cor,
        condition=condition, tp_defect=tp_defect,
    )


def scan_rows(spec: TrapSpec, points, anharmonic_order: int | None = 3, **report_kw):
    """Yield the rows of scan one at a time, in input order.

    The channel figures of each _SCAN_CHUNK points come from one
    _channel_figures call, bit for bit gate_report's, so an interrupt loses
    at most one chunk of rows.  F_cor reads n_bar_c but not eta
    (_anharmonic_point), so each distinct n_bar_c computes it once per
    call: f_cors lives only as long as this generator.  A failing F_cor is
    not stored, so every row it fails raises, and records, its own error;
    such a row keeps the channel's fidelity and purity, with F_cor nan.
    """
    f_cors = {}
    points = iter(points)
    while chunk := [(float(eta), float(n_bar_c))
                    for eta, n_bar_c in itertools.islice(points, _SCAN_CHUNK)]:
        for (eta, n_bar_c), figures in zip(chunk, _channel_figures(spec, chunk, **report_kw)):
            row = {"eta": eta, "n_bar_c": n_bar_c, "fidelity": math.nan,
                   "purity": math.nan, "f_cor": math.nan, "error": None}
            try:
                if isinstance(figures, Exception):
                    raise figures
                _, row["fidelity"], row["purity"], _ = figures  # kept if F_cor fails
                if n_bar_c not in f_cors:
                    f_cors[n_bar_c] = (math.nan if anharmonic_order is None
                                       else _anharmonic_point(spec, n_bar_c,
                                                              anharmonic_order).f_cor)
                row["f_cor"] = f_cors[n_bar_c]
            except OverflowError as exc:  # a point beyond double range is a bad grid, not a row
                raise OverflowError(f"scan point eta={eta:g}, n_bar_c={n_bar_c:g}: {exc}") from exc
            except Exception as exc:  # scans keep going; the row records the failure
                row["error"] = f"{type(exc).__name__}: {exc}"
            yield row


def scan(spec: TrapSpec, points, **report_kw) -> list[dict]:
    """Evaluate gate_report on a list of (eta, n_bar_c) operating points.

    Rows come back in input order.  A failing point keeps its row, with nan
    for each figure it did not reach and the error string attached, so partial scans stay usable; a
    point too large for double arithmetic (OverflowError) stops the scan.
    """
    return list(scan_rows(spec, points, **report_kw))
