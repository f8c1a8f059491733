"""Trap statics, normal modes, and the anharmonic Taylor remainder.

The analytic expansion coefficients and mode frequencies are checked against
finite differences of oracles.total_potential, which knows nothing about the Taylor
bookkeeping: it just evaluates K|x1|^p + K|x2|^p + C/(x1-x2) in mode
coordinates.
"""

import math
import sys

import numpy as np
import pytest

import oracles
from hotgate import fock_core, trap_model as tm
from hotgate.errors import InfeasibleRatioError, NoEquilibriumError


# --- finite-difference helpers ---------------------------------------------

_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
    4: ((2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)),
}


def _mixed_partial(f, a: int, b: int, h: float) -> float:
    """Central-difference d^a/dx_c^a d^b/dx_r^b f at the origin, O(h^2)."""
    sc = _STENCILS[a] if a else ((0, 1.0),)
    sr = _STENCILS[b] if b else ((0, 1.0),)
    total = 0.0
    for ic, wc in sc:
        for ir, wr in sr:
            total += wc * wr * f(ic * h, ir * h)
    return total / h ** (a + b)


@pytest.fixture(scope="module")
def spec():
    return tm.TrapSpec.normalized(lamb_dicke=0.45)


# --- statics ----------------------------------------------------------------


def test_equilibrium_harmonic_closed_form():
    # p=2, K=1/2, C=1, m=1: balance gives s^3 = 2
    s = tm.TrapSpec(exponent=2.0, stiffness=0.5, coulomb=1.0)
    assert tm.equilibrium_separation(s) == pytest.approx(2.0 ** (1 / 3), rel=1e-12)


def test_equilibrium_coulomb_scaling():
    # x_e scales as C^(1/(p+1)) for the power-law well
    p = 5.0 / 3.0
    s1 = tm.TrapSpec(exponent=p, stiffness=0.8, coulomb=1.0)
    s2 = tm.TrapSpec(exponent=p, stiffness=0.8, coulomb=2.0)
    ratio = tm.equilibrium_separation(s2) / tm.equilibrium_separation(s1)
    assert ratio == pytest.approx(2.0 ** (1.0 / (p + 1.0)), rel=1e-10)


def test_equilibrium_zeroes_the_gradient(spec):
    x_e = tm.equilibrium_separation(spec)

    def f(xc, xr):
        return oracles.total_potential(spec, xc, xr, x_e)

    scale = abs(f(0.0, 0.0))
    h = 1e-3 * x_e
    assert abs(_mixed_partial(f, 0, 1, h)) * h < 1e-9 * scale
    assert abs(_mixed_partial(f, 1, 0, h)) * h < 1e-9 * scale


@pytest.mark.parametrize("s", [
    *(tm.TrapSpec(exponent=p, stiffness=0.8, coulomb=1.3)
      for p in (1.05, 5.0 / 3.0, 2.0, 3.0, 20.0, 400.0)),
    tm.TrapSpec.normalized(),
], ids=lambda s: f"p={s.exponent:g},K={s.stiffness:.3g}")
def test_equilibrium_balances_forces_to_roundoff(s):
    # the closed form leaves K*p*(x_e/2)^(p-1) - C/x_e^2 at roundoff: within
    # 8*p*eps of the Coulomb force, relative (measured at most 3.9*p*eps)
    x_e = tm.equilibrium_separation(s)
    coulomb_force = s.coulomb / x_e**2
    trap_force = tm.potential_derivative(s, x_e / 2.0, 1)
    eps = np.finfo(float).eps
    assert abs(trap_force - coulomb_force) <= 8.0 * s.exponent * eps * coulomb_force


def test_equilibrium_out_of_double_range_raises():
    with pytest.raises(NoEquilibriumError):
        tm.equilibrium_separation(tm.TrapSpec(exponent=2.0, stiffness=1e-300, coulomb=1e300))
    with pytest.raises(NoEquilibriumError):
        tm.equilibrium_separation(tm.TrapSpec(exponent=2.0, stiffness=1e300, coulomb=1e-300))


def test_spec_validation():
    with pytest.raises(ValueError):
        tm.TrapSpec(exponent=1.0)
    with pytest.raises(ValueError):
        tm.TrapSpec(exponent=2.0, stiffness=-1.0)
    with pytest.raises(ValueError):
        tm.TrapSpec(exponent=2.0, lamb_dicke=-0.1)


def test_normalized_spec_hits_targets(spec):
    nu_c, _ = tm.mode_frequencies(spec)
    assert nu_c == pytest.approx(1.0, rel=1e-10)
    x0 = 1.0 / math.sqrt(2.0 * spec.mass * nu_c)
    assert tm.equilibrium_separation(spec) / x0 == pytest.approx(820.0, rel=1e-9)


# --- normal modes -----------------------------------------------------------


@pytest.mark.parametrize("p", [1.2, 5.0 / 3.0, 2.0, 3.0])
def test_mode_frequencies_match_fd_hessian(p):
    s = tm.TrapSpec(exponent=p, stiffness=0.8, coulomb=1.3, mass=1.7)
    x_e = tm.equilibrium_separation(s)

    def f(xc, xr):
        return oracles.total_potential(s, xc, xr, x_e)

    h = 1e-4 * x_e
    m_c, m_r = 2.0 * s.mass, s.mass / 2.0
    nu_c_fd = math.sqrt(_mixed_partial(f, 2, 0, h) / m_c)
    nu_r_fd = math.sqrt(_mixed_partial(f, 0, 2, h) / m_r)
    nu_c, nu_r = tm.mode_frequencies(s)
    assert nu_c == pytest.approx(nu_c_fd, rel=1e-6)
    assert nu_r == pytest.approx(nu_r_fd, rel=1e-6)
    # the two modes decouple at quadratic order
    cross = _mixed_partial(f, 1, 1, h)
    assert abs(cross) < 1e-6 * m_c * nu_c**2


@pytest.mark.parametrize("p,expected", [
    (5.0 / 3.0, 2.0),
    (2.0, math.sqrt(3.0)),
    (3.0, math.sqrt(2.0)),
])
def test_frequency_ratio_formula(p, expected):
    # ratio sqrt((p+1)/(p-1)), independent of K, C, m
    s = tm.TrapSpec(exponent=p, stiffness=0.37, coulomb=2.1, mass=0.9)
    assert tm.frequency_ratio(s) == pytest.approx(expected, rel=1e-9)


def test_solve_exponent_round_trips():
    assert tm.solve_exponent_for_ratio(2.0) == 5.0 / 3.0
    assert tm.solve_exponent_for_ratio(1.7) == 2.0582010582010586
    assert tm.solve_exponent_for_ratio(math.sqrt(3.0)) == pytest.approx(2.0, abs=1e-9)


def test_solve_exponent_round_trips_across_the_attainable_range():
    # r -> p -> frequency_ratio through the curvature route, up to just
    # inside the limit where a double exponent still resolves r to 1e-9
    for r in np.geomspace(1.003, 199.99, 60):
        p = tm.solve_exponent_for_ratio(r)
        assert abs(tm.frequency_ratio(tm.TrapSpec(exponent=p)) - r) <= 1e-9, r


def test_solve_exponent_rejects_unreachable_ratio():
    for r in (1.0001, 200.01, 1e3, 1e6):
        with pytest.raises(InfeasibleRatioError):
            tm.solve_exponent_for_ratio(r)


def test_relative_occupation_is_bose_at_double_frequency():
    # same temperature, stretch mode at twice the COM frequency
    beta = 0.7
    n_c = 1.0 / math.expm1(beta)
    n_r = 1.0 / math.expm1(2.0 * beta)
    assert tm.relative_occupation(n_c) == pytest.approx(n_r, rel=1e-12)


def test_relative_occupation_rational_points():
    assert tm.relative_occupation(0.0) == 0.0
    assert tm.relative_occupation(1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert tm.relative_occupation(3.0) == pytest.approx(9.0 / 7.0, rel=1e-15)


def test_relative_occupation_at_any_ratio():
    # nu_r / nu_c = sqrt(3), the exponent-2 trap: 1/(2^sqrt(3) - 1)
    assert tm.relative_occupation(1.0, 3**0.5) == pytest.approx(0.430663761919, abs=1e-12)
    beta = 0.7
    n_c = 1.0 / math.expm1(beta)
    for ratio in (1.5, 3**0.5, 2.5):
        assert tm.relative_occupation(n_c, ratio) == pytest.approx(
            1.0 / math.expm1(ratio * beta), rel=1e-12)
    assert tm.relative_occupation(0.0, 3**0.5) == 0.0


def test_relative_occupation_off_ratio_far_above_one():
    """Where 1 + 1/n_bar_c rounds to 1 (n_bar_c 1e17) the off-ratio
    occupation is still finite, and at 1e9 it keeps full precision, against
    60-digit decimal arithmetic."""
    from decimal import Decimal, localcontext

    ratio = 3**0.5
    for n_c in (1e3, 1e9, 1e17):
        with localcontext() as ctx:
            ctx.prec = 60
            one = Decimal(1)
            ref = one / ((one + one / Decimal(n_c)) ** Decimal(ratio) - one)
        assert tm.relative_occupation(n_c, ratio) == pytest.approx(float(ref), rel=1e-14)


def test_relative_occupation_ratio_two_keeps_the_commensurate_formula():
    for n in (0.0, 0.5, 1.0, 3.0):
        assert tm.relative_occupation(n, 2.0) == n**2 / (2.0 * n + 1.0)
        assert tm.relative_occupation(n) == n**2 / (2.0 * n + 1.0)


# --- quantized basis --------------------------------------------------------


def test_mode_basis_geometry(spec):
    basis = tm.build_mode_basis(spec, eta=0.45)
    assert basis.commensurate
    assert basis.nu_r == 2.0 * basis.nu_c  # snapped, not approximately
    assert basis.width_c == pytest.approx(basis.x0 / math.sqrt(2.0), rel=1e-14)
    assert basis.width_r == pytest.approx(basis.x0, rel=1e-12)
    assert basis.eta_c == pytest.approx(0.45 / math.sqrt(2.0), rel=1e-12)
    assert basis.eta_r == pytest.approx(0.45 / 2.0, rel=1e-12)
    assert basis.gate_time * basis.nu_c == pytest.approx(2.0 * math.pi)
    assert basis.flip_time * 3.0 == pytest.approx(basis.gate_time)
    assert basis.wavenumber == pytest.approx(0.45 / basis.x0, rel=1e-14)


def test_mode_basis_noncommensurate_not_snapped():
    s = tm.TrapSpec(exponent=2.0, stiffness=0.5, coulomb=1.0)
    basis = tm.build_mode_basis(s, eta=0.3)
    assert not basis.commensurate
    assert basis.nu_r / basis.nu_c == pytest.approx(math.sqrt(3.0), rel=1e-9)


def test_mode_basis_default_dims_track_occupation(spec):
    cold = tm.build_mode_basis(spec, eta=2.0, n_bar_c=0.0)
    hot = tm.build_mode_basis(spec, eta=2.0, n_bar_c=3.0)
    assert tm.build_mode_basis(spec, eta=2.0).dims == cold.dims  # n_bar_c defaults to 0
    assert hot.dims[0] > cold.dims[0]
    assert hot.dims[1] > cold.dims[1]
    resized = cold.with_dims((12, 7))
    assert resized.dims == (12, 7)
    assert resized.nu_c == cold.nu_c


def test_mode_energies_ladder(spec):
    basis = tm.build_mode_basis(spec, eta=0.1, dims=(4, 3))
    e_c, e_r = tm.mode_energies(basis)
    np.testing.assert_allclose(e_c, basis.nu_c * np.array([0.5, 1.5, 2.5, 3.5]))
    np.testing.assert_allclose(e_r, basis.nu_r * np.array([0.5, 1.5, 2.5]))
    flat = oracles.motional_energies_flat(basis)
    assert flat.shape == (12,)
    assert flat[0] == pytest.approx(0.5 * basis.nu_c + 0.5 * basis.nu_r)


# --- anharmonic expansion ---------------------------------------------------


def test_expansion_against_finite_differences(spec):
    """Every cubic coefficient against FD mixed partials."""
    x_e = tm.equilibrium_separation(spec)
    exp3 = tm.anharmonic_expansion(spec, order=3)

    def f(xc, xr):
        return oracles.total_potential(spec, xc, xr, x_e)

    h = 2.0  # x_e ~ 5.8e2 here, so this sits well inside the convergence zone
    for (a, b), coeff in exp3.coefficients.items():
        fd = _mixed_partial(f, a, b, h) / (math.factorial(a) * math.factorial(b))
        assert coeff == pytest.approx(fd, rel=2e-4), (a, b)


def test_coulomb_coefficient_survives_an_underflowing_x_e_fourth():
    """At 1e-100 widths x_e^4 underflows a double, while C/x_e^4 is finite."""
    spec = tm.TrapSpec.normalized(separation_in_x0=1e-100)
    x_e = tm.equilibrium_separation(spec)
    assert x_e**4 == 0.0
    v_3 = tm.potential_derivative(spec, x_e / 2.0, 3)
    coulomb = math.exp(math.log(spec.coulomb) - 4.0 * math.log(x_e))
    coeff = tm.anharmonic_expansion(spec, order=3).coefficients[(0, 3)]
    assert coeff == pytest.approx(v_3 / 24.0 - coulomb, rel=1e-12)


def test_normalized_refuses_a_subnormal_coulomb_coefficient():
    """Below about 8e-103 widths u^3 is subnormal: at 1e-107 the trap would
    come back off its ratio (2.00057), so it is refused with the bound
    named; 1e-100 still hits the commensurate ratio."""
    with pytest.raises(ValueError, match="subnormal.*at least about 8e-103"):
        tm.TrapSpec.normalized(separation_in_x0=1e-107)
    assert tm.build_mode_basis(tm.TrapSpec.normalized(separation_in_x0=1e-100),
                               eta=7.0).commensurate


def test_normalized_refuses_a_separation_past_double_range():
    """Past about 5.5e102 widths at the default exponent 4C = 16u^3/(p-1),
    which the mode frequencies take, overflows (x_e^3 = 8u^3 binds from
    exponent 3): ValueError names the largest separation that fits, and
    3e102 and just below the bound still give the commensurate basis and
    hit the separation, with no warning."""
    largest = 2.0 * math.sqrt(2.0) * (sys.float_info.max / 24.0) ** (1.0 / 3.0)
    for separation in (largest * (1.0 + 1e-9), 1e103, 1e104, 1e300):
        with pytest.raises(ValueError, match=r"separation_in_x0 .* at most about 5.5e\+102$"):
            tm.TrapSpec.normalized(separation_in_x0=separation)
    for separation in (3e102, largest * (1.0 - 1e-9)):
        trap = tm.TrapSpec.normalized(separation_in_x0=separation)
        basis = tm.build_mode_basis(trap, eta=7.0)
        assert basis.commensurate and math.isfinite(basis.x_e)
        assert tm.equilibrium_separation(trap) * math.sqrt(2.0) == pytest.approx(
            separation, rel=1e-12)


@pytest.mark.parametrize("kwargs, message", [
    ({"separation_in_x0": 0.0}, "separation_in_x0 must be positive"),
    ({"separation_in_x0": -1.0}, "separation_in_x0 must be positive"),
    ({"exponent": 1.0}, "exponent must exceed 1"),
])
def test_normalized_refuses_outside_its_domain(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tm.TrapSpec.normalized(**kwargs)


@pytest.mark.parametrize("exponent, edge", [(2.0, 6.334954781276947e+102),
                                            (5.0 / 3.0, 5.534092741911354e+102)])
def test_normalized_separation_edge_is_one_double_wide(exponent, edge):
    """The largest separation that fits and the smallest refused are adjacent
    doubles.  At exponent 2 the half separation u of the edge equals the
    bound itself, so the bound is inclusive there."""
    tm.TrapSpec.normalized(exponent=exponent, separation_in_x0=edge)
    with pytest.raises(ValueError, match="out of double range"):
        tm.TrapSpec.normalized(exponent=exponent, separation_in_x0=np.nextafter(edge, np.inf))


@pytest.mark.parametrize("separation, largest", [(820.0, "123.947"), (20.0, "358.152"),
                                                 (1.0, "681.667")])
def test_normalized_refuses_an_exponent_past_double_range(separation, largest):
    """Past the overflow of C/(p*K) = 4u^(p+1), the bound at the default
    separation, the underflow of K, the bound at 20 widths, or, at 1 width
    where u < 1, the underflow of C/(p*K) (K = u^(2-p)/(p(p-1)) overflows
    only later, an OverflowError in u^(2-p) at 1e300), no equilibrium can
    be solved: the refusal names the largest exponent that fits, to 1e-9
    relative, and just below it the trap hits its targets."""
    u = separation / math.sqrt(2.0) / 2.0
    bound = tm._largest_exponent(u)
    assert f"{bound:.6g}" == largest
    for p in (bound * (1.0 + 1e-9), 2.0 * bound, 1e300):
        with pytest.raises(ValueError, match=f"exponent .* at most about {largest}$"):
            tm.TrapSpec.normalized(exponent=p, separation_in_x0=separation)
    trap = tm.TrapSpec.normalized(exponent=bound * (1.0 - 1e-9), separation_in_x0=separation)
    assert trap.stiffness >= sys.float_info.min
    assert tm.equilibrium_separation(trap) * math.sqrt(2.0) == pytest.approx(separation,
                                                                              rel=1e-12)


def test_mode_basis_refuses_a_kick_whose_wavenumber_overflows(spec):
    """k = eta/x0 overflows past eta = x0 * max, about 1.27e308: OverflowError,
    which the CLI reports as a config error; just below it the basis is
    built."""
    with pytest.raises(OverflowError, match="kick wavenumber"):
        tm.build_mode_basis(spec, eta=sys.float_info.max, dims=(4, 4))
    basis = tm.build_mode_basis(spec, eta=1.2e308, dims=(4, 4))
    assert math.isfinite(basis.wavenumber) and math.isfinite(basis.eta_r)


def test_mode_basis_memo_matches_the_array_route(spec):
    """thermal_spread is sqrt(Var x_c + Var x_r / 4) off thermal_variances
    bit for bit, on and off the ratio, with nothing stored per n_bar_c; the
    flip-time lever D/(2k) is computed once per basis, its float and array
    routes agree, and a basis copied by with_dims starts without it, which
    does not enter eq."""
    for trap in (spec, tm.TrapSpec.normalized(exponent=2.0)):
        basis = tm.build_mode_basis(trap, eta=7.0, n_bar_c=1.0)
        for n_bar in (0.0, 0.5, 1.0, 10.0, 1e4):
            var = basis.thermal_variances(n_bar)
            assert basis.thermal_spread(n_bar) == math.sqrt(var[0] + var[2] / 4.0)
        assert not hasattr(basis, "_memo")
        t = basis.flip_time
        lever = basis.flip_half_separation_per_k
        assert "flip_half_separation_per_k" in vars(basis)
        assert basis.flip_half_separation_per_k is lever
        assert lever == basis.half_separation_per_k(t) == basis.half_separation_per_k(np.array([t]))[0]
        copy = basis.with_dims(basis.dims)
        assert "flip_half_separation_per_k" not in vars(copy)
        assert copy == basis  # the cached lever does not enter eq


def test_kick_displacements_are_built_once_per_basis(spec):
    """kick_displacements returns the same two read-only arrays on every
    call, D_c(+i eta_c) and D_r(-i eta_r) at the basis dims; a with_dims
    copy builds its own at its own dims, and the cached kick does not enter
    eq."""
    basis = tm.build_mode_basis(spec, eta=7.0, n_bar_c=1.0, dims=(14, 11))
    d_c, d_r = basis.kick_displacements()
    again = basis.kick_displacements()
    assert again[0] is d_c and again[1] is d_r
    np.testing.assert_array_equal(d_c, fock_core.displacement(1j * basis.eta_c, 14))
    np.testing.assert_array_equal(d_r, fock_core.displacement(-1j * basis.eta_r, 11))
    for d in (d_c, d_r):
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 0] = 0.0
    same = basis.with_dims(basis.dims)
    assert "_kick_displacements" not in vars(same)
    assert same == basis  # the cached kick does not enter eq
    resized = basis.with_dims((9, 6))
    r_c, r_r = resized.kick_displacements()
    assert (r_c.shape, r_r.shape) == ((9, 9), (6, 6))
    np.testing.assert_array_equal(r_c, fock_core.displacement(1j * basis.eta_c, 9))
    np.testing.assert_array_equal(r_r, fock_core.displacement(-1j * basis.eta_r, 6))
    assert basis.kick_displacements()[0] is d_c


@pytest.mark.parametrize("eta, dims", [(0.5, (12, 10)), (3.0, (24, 16)), (7.0, (60, 40))])
def test_kick_is_a_rotated_real_displacement(spec, eta, dims):
    """With R = diag(i^n), R^dag D(+-i eta) R = D(+-eta) (Cahill and
    Glauber 1969): on both kicked modes, +i eta_c and -i eta_r, the rotated
    kick is real to 1e-14 and equals the real displacement to 1e-13."""
    basis = tm.build_mode_basis(spec, eta=eta, n_bar_c=1.0, dims=dims)
    for d, alpha in zip(basis.kick_displacements(), (basis.eta_c, -basis.eta_r)):
        r = np.array([1, 1j, -1, -1j])[np.arange(len(d)) % 4]
        m = r.conj()[:, None] * d * r
        assert np.abs(m.imag).max() <= 1e-14
        np.testing.assert_allclose(m.real, fock_core.displacement(alpha, len(d)),
                                   rtol=0, atol=1e-13)


def test_expansion_structure(spec):
    # mirror symmetry of the two wells kills x_c^3 and x_c x_r^2
    assert set(tm.anharmonic_expansion(spec, order=3).coefficients) == {(0, 3), (2, 1)}
    # the harmonic wall has no cubic term of its own: only the Coulomb x_r^3
    harmonic = tm.TrapSpec.normalized(exponent=2.0)
    assert set(tm.anharmonic_expansion(harmonic, order=3).coefficients) == {(0, 3)}
    for order in (1, 2, 4, 5, 6, 7):
        with pytest.raises(ValueError, match="0 or 3"):
            tm.anharmonic_expansion(spec, order=order)
    # order 0 switches the correction off: no monomials at all
    assert tm.anharmonic_expansion(spec, order=0).coefficients == {}


def test_expansion_rejects_odd_xc_powers(spec):
    """An odd power of x_c breaks the mirror symmetry that the exact route's
    two parity blocks rest on: the type refuses it, even at coefficient 0."""
    cubic = tm.anharmonic_expansion(spec, order=3).coefficients
    for odd in ((1, 2), (3, 0), (1, 0)):
        for coeff in (0.1, 0.0):
            with pytest.raises(ValueError, match="mirror symmetry"):
                tm.AnharmonicExpansion(order=3, coefficients={**cubic, odd: coeff})


def test_expansion_accepts_only_the_cubics_monomials(spec):
    """Any key but x_r^3 and x_c^2 x_r is refused, naming it, even at
    coefficient 0: the paper's pre-kick F_cor reads c_21 alone, so an even
    (2, 2) or (0, 4) term would otherwise drop out of it unseen.  An odd
    x_c power keeps the mirror-symmetry message."""
    cubic = tm.anharmonic_expansion(spec, order=3).coefficients
    for extra in ((2, 2), (0, 4), (4, 0), (0, 2), (2, 0), (0, 0)):
        for coeff in (0.1, 0.0):
            with pytest.raises(ValueError, match=rf"monomial \({extra[0]}, {extra[1]}\)"):
                tm.AnharmonicExpansion(order=3, coefficients={**cubic, extra: coeff})
    with pytest.raises(ValueError, match="mirror symmetry"):
        tm.AnharmonicExpansion(order=3, coefficients={(2, 2): 0.1, (1, 2): 0.1})
    for keys in ({(0, 3)}, {(2, 1)}, set(cubic)):
        tm.AnharmonicExpansion(order=3, coefficients={k: cubic[k] for k in keys})


def test_expansion_scaling(spec):
    exp3 = tm.anharmonic_expansion(spec, order=3)
    doubled = exp3.scaled(2.0)
    for key, val in exp3.coefficients.items():
        assert doubled.coefficients[key] == 2.0 * val


def test_v_cor_operator_matches_manual_kron(spec):
    basis = tm.build_mode_basis(spec, eta=0.45, dims=(6, 5))
    expansion = tm.AnharmonicExpansion(
        order=3, coefficients={(0, 3): 2.0, (2, 1): -0.5})
    v = oracles.v_cor_operator(expansion, basis)
    x_c = fock_core.position_operator(6, basis.width_c)
    x_r = fock_core.position_operator(5, basis.width_r)
    manual = 2.0 * np.kron(np.eye(6), np.linalg.matrix_power(x_r, 3)) \
        - 0.5 * np.kron(x_c @ x_c, x_r)
    manual = (manual + manual.conj().T) / 2.0
    np.testing.assert_allclose(v, manual, atol=1e-12)
    np.testing.assert_allclose(v, v.conj().T, atol=0)


def test_motional_hamiltonian_diagonal_harmonic(spec):
    basis = tm.build_mode_basis(spec, eta=0.1, dims=(3, 2))
    h = oracles.motional_hamiltonian(basis)
    np.testing.assert_allclose(h, np.diag(oracles.motional_energies_flat(basis)), atol=0)


def test_v_cor_and_hamiltonian_are_real(spec):
    basis = tm.build_mode_basis(spec, eta=0.45, dims=(6, 5))
    v = oracles.v_cor_operator(tm.anharmonic_expansion(spec, order=3), basis)
    assert v.dtype == np.float64
    np.testing.assert_array_equal(v, v.T)
    assert oracles.motional_hamiltonian(basis).dtype == np.float64
    assert oracles.motional_hamiltonian(basis, v).dtype == np.float64
