"""Truncated Fock-space linear algebra for the two-mode ion-pair simulator.

Everything is dense complex numpy with hbar = 1.  A Fock space of dimension d
holds levels 0..d-1; operators are plain (d, d) arrays, while density
operators and pure states get thin wrapper types that enforce the numerical
contracts (hermiticity, unit trace/norm, positivity) at the API boundary.

Tolerances below are the package-wide contract: drifts under 10x the
tolerance are silently repaired (re-hermitized / renormalized), anything
larger raises, so numerical rot cannot accumulate quietly.
"""

from __future__ import annotations

from math import ceil, sqrt

import numpy as np

from .errors import InvalidOperatorError, KindMismatchError

TOL_HERM = 1e-9
TOL_UNIT = 1e-9
TOL_TRACE = 1e-10
TOL_PSD = 1e-8

# Above this dimension, constructors skip the O(d^3) positivity check; call
# DensityOp.validate_psd() explicitly where it matters.
PSD_AUTO_DIM = 512


def _check_dim(dim: int) -> int:
    if int(dim) != dim or dim < 2:
        raise ValueError(f"Fock dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def annihilation(dim: int) -> np.ndarray:
    """Lowering operator a with a|n> = sqrt(n)|n-1> on a dim-level space."""
    dim = _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def creation(dim: int) -> np.ndarray:
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    dim = _check_dim(dim)
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def position_operator(dim: int, ground_width: float) -> np.ndarray:
    """x = w*(a + a^dag) where w = 1/sqrt(2*M*nu) is the ground-state width."""
    if ground_width <= 0:
        raise ValueError("ground_width must be positive")
    a = annihilation(dim)
    return ground_width * (a + a.conj().T)


def momentum_operator(dim: int, ground_width: float) -> np.ndarray:
    """p = i*(a^dag - a)/(2w), conjugate to position_operator ([x, p] = i)."""
    if ground_width <= 0:
        raise ValueError("ground_width must be positive")
    a = annihilation(dim)
    return 1j * (a.conj().T - a) / (2.0 * ground_width)


def hermitian_part(h: np.ndarray) -> np.ndarray:
    """(h + h^dag)/2, after checking that h is hermitian to 10*TOL_HERM
    relative to max(|h|, 1); keeps the dtype, so a real symmetric h stays
    real."""
    h = np.asarray(h)
    defect = np.abs(h - h.conj().T).max()
    scale = max(np.abs(h).max(), 1.0)
    if defect > 10 * TOL_HERM * scale:
        raise InvalidOperatorError(f"operator is not hermitian (defect {defect:.3e})")
    return (h + h.conj().T) / 2.0


def hermitian_expm(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i*h*t) for hermitian h, by eigendecomposition.

    Stays exactly unitary (up to roundoff in the eigenbasis change) even on
    truncated spaces, which matters for displacement operators near the
    truncation boundary.
    """
    w, v = np.linalg.eigh(hermitian_part(h))
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha*a^dag - alpha^conj*a) on a dim-level space."""
    a = annihilation(dim)
    gen = alpha * a.conj().T - np.conj(alpha) * a  # anti-hermitian
    return hermitian_expm(1j * gen, t=1.0)


def thermal_probabilities(n_bar: float, dim: int) -> np.ndarray:
    """Geometric level populations for mean occupation n_bar, renormalized
    after truncation to dim levels."""
    dim = _check_dim(dim)
    if n_bar < 0:
        raise ValueError("n_bar must be non-negative")
    if n_bar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
        return p
    # work in log space; the tail underflows fast for small n_bar
    q = n_bar / (n_bar + 1.0)
    logp = np.arange(dim) * np.log(q) - np.log(n_bar + 1.0)
    p = np.exp(logp)
    return p / p.sum()


def tensor(factors):
    """Kronecker product of operators, or of states, in the given order.

    All factors must be of one kind: bare arrays (operators), or states
    (PureState/DensityOp).  A mix of pure and density states is allowed and
    promotes to a DensityOp.  Mixing operators with states raises.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    is_state = [isinstance(f, (PureState, DensityOp)) for f in factors]
    if any(is_state) and not all(is_state):
        raise KindMismatchError("cannot tensor operators with states")
    if not any(is_state):
        out = np.asarray(factors[0], dtype=complex)
        for f in factors[1:]:
            out = np.kron(out, np.asarray(f, dtype=complex))
        return out
    if all(isinstance(f, PureState) for f in factors):
        amp = factors[0].amplitudes
        for f in factors[1:]:
            amp = np.kron(amp, f.amplitudes)
        return PureState(amp)
    mats = [f.to_density().matrix for f in factors]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return DensityOp(out)


def partial_trace(rho, dims, keep):
    """Trace out all subsystems not listed in keep.

    rho may be a DensityOp or a raw square array over prod(dims); keep is an
    iterable of subsystem indices (order preserved as given in dims).
    """
    wrapped = isinstance(rho, DensityOp)
    mat = rho.matrix if wrapped else np.asarray(rho)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    total = int(np.prod(dims))
    if mat.shape != (total, total):
        raise ValueError(f"shape {mat.shape} does not match dims {dims}")
    t = mat.reshape(dims + dims)
    # trace out dropped axes from the back so axis numbering stays valid
    traced = 0
    for ax in reversed(range(n)):
        if ax in keep:
            continue
        t = np.trace(t, axis1=ax, axis2=ax + n - traced)
        traced += 1
    kept = int(np.prod([dims[k] for k in keep]))
    out = t.reshape(kept, kept)
    return DensityOp(out) if wrapped else out


def unitary_evolve(state, u: np.ndarray):
    """Apply u to a PureState, DensityOp, or raw array (u @ rho @ u^dag).

    For moderate dimensions the unitarity of u is checked; above that the
    caller is trusted (all in-package constructions are exactly unitary by
    construction).
    """
    u = np.asarray(u)
    d = u.shape[0]
    if d <= 1024:
        defect = np.abs(u.conj().T @ u - np.eye(d)).max()
        if defect > 10 * TOL_UNIT:
            raise InvalidOperatorError(f"operator is not unitary (defect {defect:.3e})")
    if isinstance(state, PureState):
        return PureState(u @ state.amplitudes)
    if isinstance(state, DensityOp):
        return DensityOp(u @ state.matrix @ u.conj().T)
    return u @ np.asarray(state) @ u.conj().T


def trace_distance(a, b) -> float:
    """(1/2)*||a - b||_1 for density operators (or raw hermitian arrays)."""
    ma = a.matrix if isinstance(a, DensityOp) else np.asarray(a)
    mb = b.matrix if isinstance(b, DensityOp) else np.asarray(b)
    diff = ma - mb
    diff = (diff + diff.conj().T) / 2.0
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def default_fock_dim(n_bar: float, eta_mode: float) -> int:
    """Truncation heuristic per mode: thermal occupation, thermal spread, and
    the worst-case double-displacement reach of the kick, plus headroom."""
    if n_bar < 0:
        raise ValueError("n_bar must be non-negative")
    return ceil(n_bar + 6.0 * sqrt(n_bar + 1.0) + 4.0 * (abs(eta_mode) + sqrt(n_bar)) ** 2 + 10.0)


class PureState:
    """Normalized state vector on a truncated space."""

    def __init__(self, amplitudes, check: bool = True):
        amp = np.asarray(amplitudes, dtype=complex).ravel()
        if amp.size < 2:
            raise ValueError("state needs at least two levels")
        if check:
            norm = np.linalg.norm(amp)
            if abs(norm - 1.0) > 10 * TOL_TRACE:
                if abs(norm - 1.0) > 1e-6:
                    raise InvalidOperatorError(f"state norm {norm:.12f} too far from 1")
                amp = amp / norm
            elif norm != 1.0:
                amp = amp / norm
        self.amplitudes = amp

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> "DensityOp":
        return DensityOp(np.outer(self.amplitudes, self.amplitudes.conj()))

    def expectation(self, op: np.ndarray) -> complex:
        return complex(self.amplitudes.conj() @ np.asarray(op) @ self.amplitudes)

    def overlap(self, other: "PureState") -> complex:
        return complex(self.amplitudes.conj() @ other.amplitudes)


class DensityOp:
    """Density operator with hermiticity/trace repair and positivity checks."""

    def __init__(self, matrix, check: bool = True):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if check:
            defect = np.abs(m - m.conj().T).max()
            if defect > 10 * TOL_HERM:
                raise InvalidOperatorError(f"density operator not hermitian (defect {defect:.3e})")
            m = (m + m.conj().T) / 2.0
            tr = float(m.trace().real)
            if abs(tr - 1.0) > 1e-6:
                raise InvalidOperatorError(f"trace {tr:.12f} too far from 1")
            if tr != 1.0:
                m = m / tr
            if m.shape[0] <= PSD_AUTO_DIM:
                self._check_psd(m)
        self.matrix = m

    @staticmethod
    def _check_psd(m: np.ndarray) -> None:
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -TOL_PSD:
            raise InvalidOperatorError(f"density operator not positive (min eig {lo:.3e})")

    def validate_psd(self) -> None:
        self._check_psd(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_density(self) -> "DensityOp":
        return self

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.matrix @ np.asarray(op)))


def thermal_state(n_bar: float, dim: int) -> DensityOp:
    return DensityOp(np.diag(thermal_probabilities(n_bar, dim)).astype(complex))


def fock_state(dim: int, n: int) -> PureState:
    dim = _check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside 0..{dim - 1}")
    amp = np.zeros(dim, dtype=complex)
    amp[n] = 1.0
    return PureState(amp)


def coherent_state(alpha: complex, dim: int) -> PureState:
    return PureState(displacement(alpha, dim)[:, 0])


def mean_occupation(state) -> float:
    """Tr[rho n] for a single-mode state."""
    op = number_operator(state.dim)
    return float(np.real(state.expectation(op)))
