"""Truncated Fock-space linear algebra for the two-mode ion-pair simulator.

Everything is dense complex numpy with hbar = 1.  A Fock space of dimension d
holds levels 0..d-1; operators are plain (d, d) arrays and kets plain (d,)
arrays, while density operators get a thin wrapper type (DensityOp) that
enforces the numerical contracts (hermiticity, unit trace, positivity) at
the API boundary.

Tolerances below are the package-wide contract: drifts under 10x the
tolerance are silently repaired (re-hermitized / renormalized), anything
larger raises, so numerical rot cannot accumulate quietly.
"""

from __future__ import annotations

from math import ceil, sqrt

import numpy as np

from .errors import InvalidOperatorError

TOL_HERM = 1e-9
TOL_PSD = 1e-8


def _check_dim(dim: int) -> int:
    if int(dim) != dim or dim < 2:
        raise ValueError(f"Fock dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


def annihilation(dim: int) -> np.ndarray:
    """Lowering operator a with a|n> = sqrt(n)|n-1> on a dim-level space."""
    dim = _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def position_operator(dim: int, ground_width: float) -> np.ndarray:
    """x = w*(a + a^dag) where w = 1/sqrt(2*M*nu) is the ground-state width."""
    if ground_width <= 0:
        raise ValueError("ground_width must be positive")
    a = annihilation(dim)
    return ground_width * (a + a.conj().T)


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


class DensityOp:
    """Density operator; check=True repairs hermiticity and trace and
    checks positivity, at every dimension."""

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
            lo = float(np.linalg.eigvalsh(m).min())
            if lo < -TOL_PSD:
                raise InvalidOperatorError(f"density operator not positive (min eig {lo:.3e})")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def thermal_state(n_bar: float, dim: int) -> DensityOp:
    return DensityOp(np.diag(thermal_probabilities(n_bar, dim)).astype(complex))


def mean_occupation(state: DensityOp) -> float:
    """Tr[rho n] = sum_n n rho_nn for a single-mode density operator."""
    return float(np.arange(state.dim) @ state.matrix.diagonal().real)
