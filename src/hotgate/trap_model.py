"""Statics and normal modes of two ions in a symmetric power-law well.

Two ions of mass m sit in V(x) = K*|x|^p and repel through the Coulomb term
C/|x1 - x2|.  About the symmetric equilibrium (ions at +-x_e/2) the motion
separates into a center-of-mass mode (coordinate x_c, mass 2m, frequency
nu_c) and a stretch mode (x_r, mass m/2, frequency nu_r), with

    x1 = x_c + (x_r + x_e)/2,   x2 = x_c - (x_r + x_e)/2.

The frequency ratio nu_r/nu_c = sqrt((p+1)/(p-1)) depends only on the
exponent p, which is what makes the commensurate choice (ratio exactly 2,
p = 5/3) possible; it inverts in closed form, as the force balance does.
The residual cubic Taylor terms of the full potential around equilibrium
("V_cor") are what the anharmonic error analysis consumes.

Units: hbar = 1; the reference length is the single-ion ground-state width
x0 = 1/sqrt(2*m*nu_c).  TrapSpec.normalized states its trap in m = nu_c = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import exp, expm1, inf, isfinite, log, log1p, sqrt
from sys import float_info

import numpy as np

from . import fock_core
from .errors import InfeasibleRatioError, NoEquilibriumError

_P_MAX = 400.0  # largest exponent solve_exponent_for_ratio tries
_SNAP_TOL = 1e-8  # build_mode_basis snaps a ratio this close to 2 to exactly 2


@dataclass(frozen=True)
class TrapSpec:
    """Static trap parameters.

    lamb_dicke is the single-pulse kick strength eta = k*x0 for the driving
    laser; pulse trains scale it (see gate_protocol.pulse_train).  No route
    reads it: build_mode_basis takes the gate's eta explicitly.
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
        separation_in_x0: float = 820.0,
    ) -> "TrapSpec":
        """Solve (K, C) in natural units, hbar = m = nu_c = 1 (x0 = 1/sqrt(2)),
        so the equilibrium separation is separation_in_x0 ground-state widths;
        other units are an explicit TrapSpec(exponent, stiffness, coulomb, mass).

        The default separation matches a light ion in a weak trap (tens of
        kHz): roughly 8e2 widths, which keeps the anharmonic corrections in
        the perturbative regime.  C = K = 1 would park the ions about one
        width apart and is not a meaningful operating point.

        A separation at which C, or the cube u^3 of the half separation that
        C is built from, falls below the smallest normal double (under about
        8e-103 x0 at the default exponent) raises ValueError: in the
        subnormal range C loses the digits the force balance needs to
        return the targets.  So does one at which 4C or x_e^3 overflows (past
        about 5.5e102 x0), and an exponent at which K leaves double range or
        C/(p*K) = 4u^(p+1) does (past 123.947 by default, where it
        overflows; below 2 sqrt(2) widths, u < 1, it underflows instead).
        """
        if exponent <= 1.0:
            raise ValueError("exponent must exceed 1")
        if separation_in_x0 <= 0:
            raise ValueError("separation_in_x0 must be positive")
        x0 = 1.0 / sqrt(2.0)
        u = separation_in_x0 * x0 / 2.0  # half separation
        p = exponent
        # the largest u at which x_e^3 = 8u^3 and 4C = 16u^3/(p-1), which the mode
        # frequencies take, are finite, less a rounding margin
        most = (1.0 - 1e-12) * (min(1.0, (p - 1.0) / 2.0) * float_info.max / 8.0) ** (1.0 / 3.0)
        if u > most:
            raise ValueError(
                f"separation_in_x0 {separation_in_x0:g} takes 4C or x_e^3 out of double "
                f"range; at this exponent it must be at most about {2.0 * most / x0:.2g}")
        try:
            stiffness = u ** (2.0 - p) / (p * (p - 1.0))
        except OverflowError:  # u < 1 and a steep wall: K is past double range
            stiffness = inf
        u_cubed = u**3
        coulomb = 4.0 * u_cubed / (p - 1.0)
        if min(u_cubed, coulomb) < float_info.min:
            least = float_info.min * max(1.0, (p - 1.0) / 4.0)
            raise ValueError(
                f"separation_in_x0 {separation_in_x0:g} makes the Coulomb coefficient "
                f"subnormal, so the trap would miss its targets; at this exponent it "
                f"must be at least about {2.0 * least ** (1.0 / 3.0) / x0:.2g}")
        if not (float_info.min <= stiffness < inf
                and float_info.min <= coulomb / (p * stiffness) < inf):
            raise ValueError(f"exponent {p:g} takes C/(p*K) = 4u^(p+1) or K out of double "
                             f"range; at separation_in_x0 {separation_in_x0:g} it must be at "
                             f"most about {_largest_exponent(u):.6g}")
        return cls(exponent=p, stiffness=stiffness, coulomb=coulomb, lamb_dicke=lamb_dicke)


def _largest_exponent(u: float) -> float:
    """The largest exponent at which K = u^(2-p)/(p(p-1)) and C/(p*K) =
    4u^(p+1) stay finite and normal.  Above u = 1 that is the ratio's
    overflow bound, or K's underflow root of ln(min p(p-1)) = (2-p) ln u,
    which each fixed-point step from 2 nears about 350-fold.  Below it, the
    ratio's underflow bound ln(min/4)/ln u - 1: K overflows only past
    2 + ln(max)/|ln u|, which is larger, as 4/min > max."""
    if u == 1.0:  # only p(p-1) can take K below min
        return float_info.min**-0.5
    if u < 1.0:
        return log(float_info.min / 4.0) / log(u) - 1.0
    p = 2.0
    for _ in range(4):
        p = 2.0 - log(float_info.min * p * (p - 1.0)) / log(u)
    return min(p, log(float_info.max / 4.0) / log(u) - 1.0)


def potential_derivative(spec: TrapSpec, x: float, order: int = 0) -> float:
    """d^order/dx^order of K*|x|^p, evaluated at x > 0."""
    if x <= 0:
        raise ValueError("evaluate trap derivatives at x > 0 and use symmetry")
    p, k = spec.exponent, spec.stiffness
    coeff = k
    for i in range(order):
        coeff *= p - i
    return coeff * x ** (p - order)


def equilibrium_separation(spec: TrapSpec) -> float:
    """Separation x_e where the trap force balances the Coulomb repulsion.

    The balance K*p*(x_e/2)^(p-1) = C/x_e^2 has the closed-form solution
    x_e = (2^(p-1) * C/(p*K))^(1/(p+1)), taken in log space so steep walls
    (large p) cannot overflow; there is nothing to bracket or iterate.  A
    spec whose C/(p*K) over- or underflows a double raises
    NoEquilibriumError.
    """
    p = spec.exponent
    force_ratio = spec.coulomb / (p * spec.stiffness)
    if not 0.0 < force_ratio < inf:
        raise NoEquilibriumError(f"C/(p*K) = {force_ratio} is out of double range")
    return exp(((p - 1.0) * log(2.0) + log(force_ratio)) / (p + 1.0))


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


def solve_exponent_for_ratio(target_ratio: float) -> float:
    """Exponent p whose stretch/COM frequency ratio equals target_ratio:
    r = sqrt((p+1)/(p-1)) inverts to p = (r^2+1)/(r^2-1).

    The attainable ratios are that closed form's over (p_min, _P_MAX), about
    (1.0025, 200); unreachable ratios raise InfeasibleRatioError.  _P_MAX
    stays modest because (x/2)^p overflows doubles near p ~ 1000; near
    p = 1 a double p resolves the ratio only to about eps*r^3/4, so
    p_min = 1 + 5e-5 keeps the curvature route (mode_frequencies) within
    1e-9 of the target, as the tests check across the range.
    """
    p_min = 1.0 + 5e-5
    r_hi = sqrt((p_min + 1.0) / (p_min - 1.0))
    r_lo = sqrt((_P_MAX + 1.0) / (_P_MAX - 1.0))
    if not r_lo < target_ratio < r_hi:
        raise InfeasibleRatioError(
            f"ratio {target_ratio} outside attainable range ({r_lo:.6f}, {r_hi:.1f}); "
            "closer to p = 1 a double exponent cannot resolve the ratio to 1e-9")
    r_sq = target_ratio * target_ratio
    return (r_sq + 1.0) / (r_sq - 1.0)


def relative_occupation(n_bar_c: float, ratio: float = 2.0) -> float:
    """Thermal occupation of the stretch mode when both modes share the
    temperature that gives the COM mode n_bar_c, for nu_r = ratio * nu_c:
    1/((1 + 1/n_bar_c)^ratio - 1) = e^-x/-expm1(-x), x = ratio log1p(1/n_bar_c),
    accurate where 1 + 1/n_bar_c rounds to 1 and 0 where e^x would overflow.
    The commensurate ratio 2 takes the closed form n_bar_c^2/(2 n_bar_c + 1)."""
    if n_bar_c < 0:
        raise ValueError("n_bar_c must be non-negative")
    if ratio == 2.0:
        return n_bar_c**2 / (2.0 * n_bar_c + 1.0)
    if n_bar_c == 0:
        return 0.0
    x = ratio * log1p(1.0 / n_bar_c)
    return exp(-x) / -expm1(-x)


@dataclass(frozen=True)
class ModeBasis:
    """Quantized mode data for one operating point of the trap.

    eta_c and eta_r are the per-mode kick strengths of a momentum kick k on
    ion 2: exp(i*k*x2) = D_c(+i*eta_c) (x) D_r(-i*eta_r) up to a constant
    phase, with eta_c = k*width_c and eta_r = (k/2)*width_r.  dims are the
    Fock truncations (n_c, n_r).  The methods below are the one definition
    of the thermal and kick geometry on any trap, which the condition
    solver, the gate channel, the separation curve and the dephasing
    weights all read.  flip_half_separation_per_k and the kick
    displacements are computed once per basis: one operating point reads the
    lever from both the condition solver and the gate channel, and the kick
    from both dephasing routes.
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
        """Flip time of the schedule, 2*pi/(3*nu_c): the first maximum of
        the branch separation on the commensurate trap only."""
        return 2.0 * np.pi / (3.0 * self.nu_c)

    @property
    def wavenumber(self) -> float:
        return self.eta / self.x0

    def with_dims(self, dims: tuple[int, int]) -> "ModeBasis":
        return replace(self, dims=(int(dims[0]), int(dims[1])))

    def stretch_occupation(self, n_bar_c: float) -> float:
        """n_bar_r at the temperature that gives the COM mode n_bar_c."""
        return relative_occupation(n_bar_c, self.nu_r / self.nu_c)

    def thermal_weights(self, n_bar_c: float) -> tuple[np.ndarray, np.ndarray]:
        """Truncation-renormalized thermal level weights (p_c, p_r) at dims."""
        n_c, n_r = self.dims
        return (fock_core.thermal_probabilities(n_bar_c, n_c),
                fock_core.thermal_probabilities(self.stretch_occupation(n_bar_c), n_r))

    def thermal_variances(self, n_bar_c: float) -> np.ndarray:
        """Thermal variances of R = (x_c, p_c, x_r, p_r), whose covariance is
        diagonal: width^2 (2n+1) and (2n+1)/(4 width^2) per mode."""
        c, r = 2.0 * n_bar_c + 1.0, 2.0 * self.stretch_occupation(n_bar_c) + 1.0
        w_c, w_r = self.width_c, self.width_r
        return np.array([w_c**2 * c, c / (4.0 * w_c**2), w_r**2 * r, r / (4.0 * w_r**2)])

    def position_form(self, t, r: float) -> np.ndarray:
        """x_c(t) + r x_r(t) as a linear form on R (t a float or an array),
        with x_m(t) = cos(nu_m t) x_m + sin(nu_m t)/(m_m nu_m) p_m."""
        return np.array([np.cos(self.nu_c * t), np.sin(self.nu_c * t) / (self.m_c * self.nu_c),
                         r * np.cos(self.nu_r * t),
                         r * np.sin(self.nu_r * t) / (self.m_r * self.nu_r)])

    def thermal_spread(self, n_bar_c: float) -> float:
        """Thermal spread Delta of x1(t), sqrt(Var x_c + Var x_r / 4) at any t,
        with the variances of thermal_variances."""
        c, r = 2.0 * n_bar_c + 1.0, 2.0 * self.stretch_occupation(n_bar_c) + 1.0
        return sqrt(self.width_c**2 * c + self.width_r**2 * r / 4.0)

    def half_separation_per_k(self, t):
        """Half the distance between the kicked branches of x1 at time t, per
        unit wavenumber k (so defined at eta = 0 too): the kick moves p_c by
        +k and p_r by -k/2, which shifts the +k branch of x1(t) by
        k (sin(nu_c t)/(m_c nu_c) - sin(nu_r t)/(4 m_r nu_r))."""
        form = self.position_form(t, 0.5)
        return form[1] - form[3] / 2.0

    @cached_property
    def flip_half_separation_per_k(self) -> float:
        """half_separation_per_k at flip_time, computed once per basis."""
        return float(self.half_separation_per_k(self.flip_time))

    def eta_bound(self, n_bar_c: float) -> float:
        """The eta at which the branch separation at flip_time equals the
        thermal spread on this trap; gate_protocol.eta_lower_bound, the
        paper's closed form, on the commensurate one.  Reads no self.eta."""
        return self.thermal_spread(n_bar_c) * self.x0 / (2.0 * self.flip_half_separation_per_k)

    def kick_displacements(self) -> tuple[np.ndarray, np.ndarray]:
        """Fock displacements (D_c(+i eta_c), D_r(-i eta_r)) of the +k kick,
        read-only and built once per basis."""
        return self._kick_displacements

    @cached_property
    def _kick_displacements(self) -> tuple[np.ndarray, np.ndarray]:
        kick = (fock_core.displacement(1j * self.eta_c, self.dims[0]),
                fock_core.displacement(-1j * self.eta_r, self.dims[1]))
        for d in kick:
            d.flags.writeable = False
        return kick


def build_mode_basis(
    spec: TrapSpec,
    eta: float,
    n_bar_c: float = 0.0,
    dims: tuple[int, int] | None = None,
) -> ModeBasis:
    """Quantize the two modes for a given effective kick strength.

    When the computed frequency ratio is within _SNAP_TOL of 2, nu_r is snapped to exactly 2*nu_c so that the
    curvature route's roundoff cannot masquerade as gate dephasing.
    Default dims follow fock_core.default_fock_dim per mode, sized by the
    thermal occupations (n_bar_c and its same-temperature stretch partner).
    """
    if eta < 0:
        raise ValueError("eta must be non-negative")
    x_e = equilibrium_separation(spec)
    nu_c, nu_r = mode_frequencies(spec, x_e)
    commensurate = abs(nu_r / nu_c - 2.0) < _SNAP_TOL
    if commensurate:
        nu_r = 2.0 * nu_c
    m = spec.mass
    m_c, m_r = 2.0 * m, m / 2.0
    x0 = 1.0 / sqrt(2.0 * m * nu_c)
    width_c = 1.0 / sqrt(2.0 * m_c * nu_c)
    width_r = 1.0 / sqrt(2.0 * m_r * nu_r)
    k = eta / x0
    if not isfinite(k):
        raise OverflowError(f"kick wavenumber eta/x0 = {eta:g}/{x0:g}")
    eta_c = k * width_c
    eta_r = (k / 2.0) * width_r
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


_CUBIC_MONOMIALS = ((0, 3), (2, 1))  # x_r^3 and x_c^2 x_r, as (a, b) of x_c^a x_r^b


@dataclass(frozen=True)
class AnharmonicExpansion:
    """Taylor remainder of the two-ion potential beyond quadratic order.

    coefficients maps (a, b) -> real coefficient of x_c^a * x_r^b.  Mirror
    symmetry of the trap (x_c -> -x_c at fixed x_r) removes every odd power
    of x_c, and an expansion with one raises ValueError: the exact route
    diagonalizes the even and the odd x_c levels apart on that symmetry.
    The keys are the cubic's two monomials, x_r^3 and x_c^2 x_r, and any
    other raises ValueError: the pre-kick F_cor of the commensurate trap
    reads c_21 alone (analysis._resonant_variance).
    """

    order: int
    coefficients: dict

    def __post_init__(self):
        if any(a % 2 for a, _ in self.coefficients):
            raise ValueError(f"odd powers of x_c break the mirror symmetry: {self.coefficients}")
        for key in self.coefficients:
            if key not in _CUBIC_MONOMIALS:
                raise ValueError(f"monomial {key} is not one of the cubic's {_CUBIC_MONOMIALS}")

    def scaled(self, factor: float) -> "AnharmonicExpansion":
        return AnharmonicExpansion(
            order=self.order,
            coefficients={k: factor * v for k, v in self.coefficients.items()},
        )


def anharmonic_expansion(spec: TrapSpec, order: int = 3) -> AnharmonicExpansion:
    """Analytic Taylor coefficients of V_cor around equilibrium: the cubic at
    order 3, none at order 0 (which every route reads as V_cor = 0).

    The wells contribute V'''(x_e/2) (x_c^2 x_r / 2 + x_r^3 / 24), their odd
    x_c powers cancelling between the mirrored ions, and the Coulomb term
    -C x_r^3 / x_e^4, taken as C/x_e^2/x_e^2 so that a trap whose x_e^4
    underflows a double (x_e below about 1e-77) keeps its finite
    coefficient; the tests check both by finite differences.  No higher
    order: the quartic's first-order level shifts, without the cubic's
    second-order ones of the same size, move F_cor away from the exact check.
    """
    if order not in (0, 3):
        raise ValueError("order must be 0 or 3")
    if order == 0:
        return AnharmonicExpansion(order=0, coefficients={})
    x_e = equilibrium_separation(spec)
    v_3 = potential_derivative(spec, x_e / 2.0, 3)
    coeffs = {(0, 3): v_3 / 24.0 - spec.coulomb / x_e**2 / x_e**2}
    if v_3 != 0.0:  # a harmonic wall (p = 2) has no x_c^2 x_r term
        coeffs[(2, 1)] = v_3 / 2.0
    return AnharmonicExpansion(order=3, coefficients=coeffs)


def _position_powers(dim: int, width: float, max_power: int) -> list[np.ndarray]:
    """[x^0, ..., x^max_power] of the real truncated position matrix."""
    x = fock_core.position_operator(dim, width).real
    powers = [np.eye(dim)]
    for _ in range(max_power):
        powers.append(powers[-1] @ x)
    return powers


def v_cor_factors(expansion: AnharmonicExpansion,
                  basis: ModeBasis) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """V_cor = sum_a X_c^a (x) Q_a as (a, X_c^a, Q_a), one term per power of x_c.

    X_c^a is the a-th power of the truncated x_c matrix and
    Q_a = sum_b c_ab X_r^b, both real and returned by fock_core.hermitian_part,
    which checks them and makes them exactly symmetric, so every sum of their
    Kronecker products, each block of H included, is exactly symmetric too.
    X_c^a is nonzero only on the diagonals n - n' in {-a, -a+2, ..., a}, so
    with every a even (AnharmonicExpansion admits no other) every x_c block
    between levels of opposite parity is exactly zero.  This is the one
    definition of V_cor's Fock matrices: analysis.anharmonic_fidelity
    integrates the factors off the commensurate ratio and post kick, and
    analysis.exact_anharmonic_fidelity assembles H block by block from them,
    neither forming the dense operator.  Pre kick on the commensurate trap
    anharmonic_fidelity reads only V_cor's resonant part, c_21 w_c^2 w_r
    from the same expansion and widths, in closed form; the tests hold it to
    the factored integral of these factors.
    """
    coeffs = sorted(expansion.coefficients.items())
    if not coeffs:
        return []
    n_c, n_r = basis.dims
    pow_c = _position_powers(n_c, basis.width_c, max(a for (a, _), _ in coeffs))
    pow_r = _position_powers(n_r, basis.width_r, max(b for (_, b), _ in coeffs))
    q: dict[int, np.ndarray] = {}
    for (a, b), c in coeffs:
        q[a] = q.get(a, 0.0) + c * pow_r[b]
    return [(a, fock_core.hermitian_part(pow_c[a]), fock_core.hermitian_part(q_a))
            for a, q_a in sorted(q.items())]
