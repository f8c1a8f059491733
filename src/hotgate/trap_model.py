"""Statics and normal modes of two ions in a symmetric power-law well.

Two ions of mass m sit in V(x) = K*|x|^p and repel through the Coulomb term
C/|x1 - x2|.  About the symmetric equilibrium (ions at +-x_e/2) the motion
separates into a center-of-mass mode (coordinate x_c, mass 2m, frequency
nu_c) and a stretch mode (x_r, mass m/2, frequency nu_r), with

    x1 = x_c + (x_r + x_e)/2,   x2 = x_c - (x_r + x_e)/2.

The frequency ratio nu_r/nu_c depends only on the exponent p, which is what
makes the commensurate choice (ratio exactly 2, p = 5/3) possible.  The
residual cubic-and-up Taylor terms of the full potential around equilibrium
("V_cor") are what the anharmonic error analysis consumes.

Units: hbar = 1; the reference length is the single-ion ground-state width
x0 = 1/sqrt(2*m*nu_c).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import exp, factorial, log, sqrt

import numpy as np
from scipy.optimize import brentq

from . import fock_core
from .errors import InfeasibleRatioError, NoEquilibriumError

_BRENTQ_RTOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class TrapSpec:
    """Static trap parameters.

    lamb_dicke is the single-pulse kick strength eta = k*x0 for the driving
    laser; pulse trains scale it (see gate_protocol.pulse_train).
    """

    exponent: float
    stiffness: float = 1.0
    coulomb: float = 1.0
    mass: float = 1.0
    lamb_dicke: float = 0.0

    def __post_init__(self):
        if self.exponent <= 1.0:
            raise ValueError("exponent must exceed 1 (finite mode-frequency ratio)")
        for name in ("stiffness", "coulomb", "mass"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lamb_dicke < 0:
            raise ValueError("lamb_dicke must be non-negative")

    @classmethod
    def normalized(
        cls,
        exponent: float = 5.0 / 3.0,
        lamb_dicke: float = 0.0,
        nu_c: float = 1.0,
        mass: float = 1.0,
        separation_in_x0: float = 820.0,
    ) -> "TrapSpec":
        """Solve (K, C) so the center-of-mass frequency equals nu_c and the
        equilibrium separation equals separation_in_x0 ground-state widths.

        The default separation matches a light ion in a weak trap (tens of
        kHz): roughly 8e2 widths, which keeps the anharmonic corrections in
        the perturbative regime.  C = K = 1 would park the ions about one
        width apart and is not a meaningful operating point.
        """
        if exponent <= 1.0:
            raise ValueError("exponent must exceed 1")
        if nu_c <= 0 or mass <= 0 or separation_in_x0 <= 0:
            raise ValueError("nu_c, mass and separation_in_x0 must be positive")
        x0 = 1.0 / sqrt(2.0 * mass * nu_c)
        u = separation_in_x0 * x0 / 2.0  # half separation
        p = exponent
        stiffness = mass * nu_c**2 * u ** (2.0 - p) / (p * (p - 1.0))
        coulomb = 4.0 * mass * nu_c**2 * u**3 / (p - 1.0)
        return cls(exponent=p, stiffness=stiffness, coulomb=coulomb, mass=mass,
                   lamb_dicke=lamb_dicke)


def potential_derivative(spec: TrapSpec, x: float, order: int = 0) -> float:
    """d^order/dx^order of K*|x|^p, evaluated at x > 0."""
    if x <= 0:
        raise ValueError("evaluate trap derivatives at x > 0 and use symmetry")
    p, k = spec.exponent, spec.stiffness
    coeff = k
    for i in range(order):
        coeff *= p - i
    return coeff * x ** (p - order)


def total_potential(spec: TrapSpec, x_c: float, x_r: float, x_e: float) -> float:
    """Full two-ion potential in mode coordinates (finite-difference anchor)."""
    x1 = x_c + (x_r + x_e) / 2.0
    x2 = x_c - (x_r + x_e) / 2.0
    k, p = spec.stiffness, spec.exponent
    return k * abs(x1) ** p + k * abs(x2) ** p + spec.coulomb / (x_e + x_r)


def equilibrium_separation(spec: TrapSpec) -> float:
    """Separation x_e where the trap force balances the Coulomb repulsion,
    found by bracketed root finding (relative tolerance ~1e-14)."""

    def imbalance(s: float) -> float:
        return potential_derivative(spec, s / 2.0, 1) - spec.coulomb / s**2

    p = spec.exponent
    # analytic solution of k*p*(s/2)^(p-1) = C/s^2, taken in log space so
    # steep walls (large p) cannot overflow
    guess = exp(((p - 1.0) * log(2.0) + log(spec.coulomb / (p * spec.stiffness)))
                / (p + 1.0))
    lo, hi = guess / 2.0, guess * 2.0
    for _ in range(200):
        if imbalance(lo) < 0 < imbalance(hi):
            return brentq(imbalance, lo, hi, rtol=_BRENTQ_RTOL, maxiter=200)
        lo /= 2.0
        hi *= 2.0
    raise NoEquilibriumError("could not bracket the force balance")


def mode_frequencies(spec: TrapSpec, x_e: float | None = None) -> tuple[float, float]:
    """(nu_c, nu_r) from the curvature of the full potential at equilibrium.

    Returns the raw computed values; any commensurability snapping happens in
    build_mode_basis, not here.
    """
    if x_e is None:
        x_e = equilibrium_separation(spec)
    curvature = potential_derivative(spec, x_e / 2.0, 2)
    nu_c_sq = curvature / spec.mass
    nu_r_sq = nu_c_sq + 4.0 * spec.coulomb / (spec.mass * x_e**3)
    return sqrt(nu_c_sq), sqrt(nu_r_sq)


def frequency_ratio(spec: TrapSpec) -> float:
    nu_c, nu_r = mode_frequencies(spec)
    return nu_r / nu_c


def solve_exponent_for_ratio(target_ratio: float, p_max: float = 400.0) -> float:
    """Exponent p whose stretch/COM frequency ratio equals target_ratio.

    The ratio is monotonically decreasing in p and independent of stiffness
    and of x_e for the power-law family; both facts are spot-checked at run
    time.  Unreachable ratios raise InfeasibleRatioError.  p_max stays modest
    because (x/2)^p overflows IEEE doubles near p ~ 1000; at the default cap
    the attainable ratios already span (1.0025, ~4.5e4).
    """
    p_min = 1.0 + 1e-9

    def ratio_at(p: float) -> float:
        return frequency_ratio(TrapSpec(exponent=p))

    r_hi, r_lo = ratio_at(p_min), ratio_at(p_max)
    if not r_lo < target_ratio < r_hi:
        raise InfeasibleRatioError(
            f"ratio {target_ratio} outside attainable range ({r_lo:.6f}, {r_hi:.1f})")
    samples = [ratio_at(p) for p in (1.2, 2.0, 4.0, 20.0)]
    if not all(a > b for a, b in zip(samples, samples[1:])):
        raise AssertionError("frequency ratio is expected to decrease with p")
    p_star = brentq(lambda p: ratio_at(p) - target_ratio, p_min, p_max,
                    xtol=1e-12, rtol=_BRENTQ_RTOL, maxiter=200)
    stiff = frequency_ratio(TrapSpec(exponent=p_star, stiffness=3.0))
    if abs(stiff - target_ratio) > 1e-9:
        raise AssertionError("frequency ratio unexpectedly depends on stiffness")
    return p_star


def relative_occupation(n_bar_c: float, ratio: float = 2.0) -> float:
    """Thermal occupation of the stretch mode when both modes share the
    temperature that gives the COM mode n_bar_c, for nu_r = ratio * nu_c:
    1/((1 + 1/n_bar_c)^ratio - 1).  The commensurate ratio 2 takes the
    equal closed form n_bar_c^2/(2 n_bar_c + 1)."""
    if n_bar_c < 0:
        raise ValueError("n_bar_c must be non-negative")
    if ratio == 2.0:
        return n_bar_c**2 / (2.0 * n_bar_c + 1.0)
    if n_bar_c == 0:
        return 0.0
    return 1.0 / ((1.0 + 1.0 / n_bar_c) ** ratio - 1.0)


@dataclass(frozen=True)
class ModeBasis:
    """Quantized mode data for one operating point of the trap.

    eta_c and eta_r are the per-mode kick strengths of a momentum kick k on
    ion 2: exp(i*k*x2) = D_c(+i*eta_c) (x) D_r(-i*eta_r) up to a constant
    phase, with eta_c = k*width_c and eta_r = (k/2)*width_r.  dims are the
    Fock truncations (n_c, n_r).
    """

    nu_c: float
    nu_r: float
    m_c: float
    m_r: float
    x_e: float
    width_c: float
    width_r: float
    x0: float
    eta: float
    eta_c: float
    eta_r: float
    dims: tuple[int, int]
    commensurate: bool

    @property
    def gate_time(self) -> float:
        return 2.0 * np.pi / self.nu_c

    @property
    def flip_time(self) -> float:
        """First maximum of the branch separation, 2*pi/(3*nu_c)."""
        return 2.0 * np.pi / (3.0 * self.nu_c)

    @property
    def wavenumber(self) -> float:
        return self.eta / self.x0

    def with_dims(self, dims: tuple[int, int]) -> "ModeBasis":
        return replace(self, dims=(int(dims[0]), int(dims[1])))


def build_mode_basis(
    spec: TrapSpec,
    eta: float | None = None,
    n_bar_c: float = 0.0,
    dims: tuple[int, int] | None = None,
    snap_tol: float = 1e-8,
) -> ModeBasis:
    """Quantize the two modes for a given effective kick strength.

    eta defaults to spec.lamb_dicke.  When the computed frequency ratio is
    within snap_tol of 2, nu_r is snapped to exactly 2*nu_c so that the
    root-finder's ~1e-12 residue cannot masquerade as gate dephasing.
    Default dims follow fock_core.default_fock_dim per mode, sized by the
    thermal occupations (n_bar_c and its same-temperature stretch partner).
    """
    if eta is None:
        eta = spec.lamb_dicke
    if eta < 0:
        raise ValueError("eta must be non-negative")
    x_e = equilibrium_separation(spec)
    nu_c, nu_r = mode_frequencies(spec, x_e)
    commensurate = abs(nu_r / nu_c - 2.0) < snap_tol
    if commensurate:
        nu_r = 2.0 * nu_c
    m = spec.mass
    m_c, m_r = 2.0 * m, m / 2.0
    x0 = 1.0 / sqrt(2.0 * m * nu_c)
    width_c = 1.0 / sqrt(2.0 * m_c * nu_c)
    width_r = 1.0 / sqrt(2.0 * m_r * nu_r)
    k = eta / x0
    eta_c = k * width_c
    eta_r = (k / 2.0) * width_r
    assert abs(eta_c - eta / sqrt(2.0)) <= 1e-12 * max(eta, 1.0)
    if commensurate:
        assert abs(eta_r - eta / 2.0) <= 1e-12 * max(eta, 1.0)
    if dims is None:
        n_bar_r = relative_occupation(n_bar_c, nu_r / nu_c)
        dims = (fock_core.default_fock_dim(n_bar_c, eta_c),
                fock_core.default_fock_dim(n_bar_r, eta_r))
    return ModeBasis(nu_c=nu_c, nu_r=nu_r, m_c=m_c, m_r=m_r, x_e=x_e,
                     width_c=width_c, width_r=width_r, x0=x0, eta=eta,
                     eta_c=eta_c, eta_r=eta_r,
                     dims=(int(dims[0]), int(dims[1])), commensurate=commensurate)


def mode_energies(basis: ModeBasis) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic level energies nu*(n + 1/2) for each mode at its truncation."""
    n_c, n_r = basis.dims
    e_c = basis.nu_c * (np.arange(n_c) + 0.5)
    e_r = basis.nu_r * (np.arange(n_r) + 0.5)
    return e_c, e_r


def motional_energies_flat(basis: ModeBasis) -> np.ndarray:
    e_c, e_r = mode_energies(basis)
    return (e_c[:, None] + e_r[None, :]).ravel()


@dataclass(frozen=True)
class AnharmonicExpansion:
    """Taylor remainder of the two-ion potential beyond quadratic order.

    coefficients maps (a, b) -> real coefficient of x_c^a * x_r^b; only
    monomials of total degree 3..order appear, and mirror symmetry of the
    trap (x_c -> -x_c at fixed x_r) removes every odd power of x_c.
    """

    order: int
    coefficients: dict
    x_e: float

    def scaled(self, factor: float) -> "AnharmonicExpansion":
        return AnharmonicExpansion(
            order=self.order,
            coefficients={k: factor * v for k, v in self.coefficients.items()},
            x_e=self.x_e,
        )


def anharmonic_expansion(spec: TrapSpec, order: int = 3,
                         x_e: float | None = None) -> AnharmonicExpansion:
    """Analytic Taylor coefficients of V_cor around equilibrium.

    The trap wells contribute V^(n)(x_e/2)*(1/2)^b * 2/(a! b!) for even a
    with a + b = n (the odd-a terms cancel between the two mirrored ions);
    the Coulomb term contributes C*(-1)^n / x_e^(n+1) to the pure-x_r
    monomials.  Cross-checked against finite differences in the tests.
    """
    if not 3 <= order <= 6:
        raise ValueError("order must be between 3 and 6")
    if x_e is None:
        x_e = equilibrium_separation(spec)
    u = x_e / 2.0
    coeffs: dict = {}
    for n in range(3, order + 1):
        v_n = potential_derivative(spec, u, n)
        for a in range(0, n + 1, 2):
            b = n - a
            c = v_n * 0.5**b * 2.0 / (factorial(a) * factorial(b))
            if c != 0.0:
                coeffs[(a, b)] = coeffs.get((a, b), 0.0) + c
        coeffs[(0, n)] = coeffs.get((0, n), 0.0) + spec.coulomb * (-1.0) ** n / x_e ** (n + 1)
    return AnharmonicExpansion(order=order, coefficients=coeffs, x_e=x_e)


def v_cor_operator(expansion: AnharmonicExpansion, basis: ModeBasis) -> np.ndarray:
    """V_cor as a dense real symmetric operator on Fock(n_c) (x) Fock(n_r).

    x_c and x_r are real in the Fock basis, and so are the coefficients, so
    the operator is real.  Each power x_c^a connects levels of equal parity
    when a is even; with the mirror-symmetric expansion every x_c block
    between levels of opposite parity is exactly zero, which
    analysis.exact_anharmonic_fidelity uses.
    """
    n_c, n_r = basis.dims
    x_c = fock_core.position_operator(n_c, basis.width_c).real
    x_r = fock_core.position_operator(n_r, basis.width_r).real
    max_a = max((a for a, _ in expansion.coefficients), default=0)
    max_b = max((b for _, b in expansion.coefficients), default=0)
    pow_c = [np.eye(n_c)]
    for _ in range(max_a):
        pow_c.append(pow_c[-1] @ x_c)
    pow_r = [np.eye(n_r)]
    for _ in range(max_b):
        pow_r.append(pow_r[-1] @ x_r)
    out = np.zeros((n_c * n_r, n_c * n_r))
    for (a, b), c in sorted(expansion.coefficients.items()):
        out += c * np.kron(pow_c[a], pow_r[b])
    return (out + out.T) / 2.0


def motional_hamiltonian(basis: ModeBasis, v_cor: np.ndarray | None = None) -> np.ndarray:
    """H of the two modes: diagonal harmonic part plus optional V_cor; real
    unless v_cor is complex."""
    h = np.diag(motional_energies_flat(basis))
    if v_cor is not None:
        h = h + v_cor
    return h
