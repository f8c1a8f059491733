"""Pulse solver, the gate channel, and the Fock-space oracles it is checked
against.

The oracles live in tests/oracles.py, outside the package.  The heavyweight
check is dual-route within them: the internal channel assembled from
factorized branch operators (oracles.fock_gate_channel) must reproduce,
matrix element by matrix element, the channel reconstructed by literally
evolving composite density matrices through oracles.run_gate.  The two code
paths share no plumbing beyond the elementary operator constructors.  The
package's truncation-free gate_channel is in turn checked against the Fock
branch route, on refocusing and non-refocusing gates alike, and its
closed-form motional_output against the propagated Fock columns.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from hotgate import analysis as an, fock_core as fc, gate_protocol as gp, trap_model as tm


@pytest.fixture(scope="module")
def spec():
    return tm.TrapSpec.normalized()


def make_basis(spec, eta, dims=None, n_bar_c=0.0):
    return tm.build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c, dims=dims)


# --- solved geometry --------------------------------------------------------


def test_condition_solver_algebra(spec):
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    pulse, rep = gp.condition_solver(basis, n_bar_c=0.0, rabi_cycles=3)
    assert rep.w_over_d == pytest.approx(12.5, abs=1e-12)
    assert rep.pulse_area == (2.0 * 3 + 0.25) * math.pi
    assert rep.big_d == pytest.approx(1.5 * math.sqrt(3.0) * basis.x0 * 7.0, rel=1e-14)
    assert rep.delta == pytest.approx(math.sqrt(0.75) * basis.x0, rel=1e-14)
    assert rep.center == pytest.approx(basis.x_e / 2.0 + rep.big_w, rel=1e-14)
    assert rep.t1 == pytest.approx(0.01 * basis.gate_time, rel=1e-14)
    # omega0 backs off by exp(1/2) so the commanded area lands at x_e/2
    assert rep.omega0 * math.exp(-0.5) * rep.t1 / 2.0 == pytest.approx(
        rep.pulse_area, rel=1e-12)
    # the pulse holds only the flip-angle profile in ion 1's frame: its
    # centre sits exactly W out, and the report's Omega0 t1 and l derive from it
    assert pulse == gp.AddressedPulse(theta0=rep.omega0_t1 / 2.0, offset=rep.big_w,
                                      width=rep.big_w)
    assert rep.center == basis.x_e / 2.0 + pulse.offset
    assert float(gp.flip_angle(pulse, 0.0)) == pytest.approx(rep.pulse_area, rel=1e-14)
    # D/Delta and eta/eta_bound are the same number by construction, on any
    # trap; on the commensurate one eta_bound is the paper's closed form
    off_ratio = make_basis(tm.TrapSpec.normalized(exponent=2.0), eta=7.0, dims=(8, 8))
    for r in (rep, gp.condition_solver(off_ratio, n_bar_c=1.0)[1]):
        assert r.big_d / r.delta == pytest.approx(r.eta_bound_ratio, rel=1e-12)
    assert rep.eta_bound == pytest.approx(gp.eta_lower_bound(0.0), rel=1e-12)
    # the bound reads only the geometry per unit kick, so eta = 0 has it too
    at_rest = make_basis(spec, eta=0.0, dims=(8, 8))
    t0 = basis.flip_time
    assert at_rest.half_separation_per_k(t0) == basis.half_separation_per_k(t0)
    assert rep.well_conditioned
    d = rep.to_dict()
    assert d["well_conditioned"] is True
    assert all(k in d for k in
               ("ok_separation_hierarchy", "ok_profile_linearity", "ok_eta_above_bound"))


def test_condition_solver_flags_weak_kick(spec):
    basis = make_basis(spec, eta=0.5, dims=(8, 8))
    _, rep = gp.condition_solver(basis, n_bar_c=0.0)
    assert not rep.satisfied["eta_above_bound"]
    assert not rep.satisfied["separation_hierarchy"]
    assert not rep.well_conditioned


def test_validity_flags_hold_by_the_fixed_factor_3(spec):
    """eta_above_bound asks eta >= 3 eta_bound: it trips just below 3."""
    bound = make_basis(spec, eta=1.0, dims=(8, 8)).eta_bound(1.0)
    for ratio, ok in ((3.0 * (1 + 1e-9), True), (3.0 * (1 - 1e-9), False)):
        _, rep = gp.condition_solver(make_basis(spec, eta=ratio * bound, dims=(8, 8)), 1.0)
        assert rep.satisfied["eta_above_bound"] is ok, ratio


def test_condition_solver_rejects_bad_inputs(spec):
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    with pytest.raises(ValueError):
        gp.condition_solver(basis, rabi_cycles=0)
    with pytest.raises(ValueError):
        gp.condition_solver(basis, n_bar_c=-0.1)


def test_condition_solver_accepts_one_rabi_cycle(spec):
    """N = 1, the fewest cycles, is solved: W/D = 4N + 1/2 = 4.5, with the
    rabi_cycles_large flag (N >= 3) off."""
    _, rep = gp.condition_solver(make_basis(spec, eta=7.0, dims=(8, 8)), rabi_cycles=1)
    assert rep.rabi_cycles == 1
    assert rep.w_over_d == pytest.approx(4.5, rel=1e-15)
    assert rep.satisfied["rabi_cycles_large"] is False


def test_condition_solver_defaults_to_the_cold_occupation(spec):
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    solved = gp.condition_solver(basis)
    assert solved == gp.condition_solver(basis, 0.0)
    assert solved != gp.condition_solver(basis, 1.0)


def test_condition_solver_refuses_rabi_cycles_from_2_to_the_50(spec):
    """2N + 1/4 is exact below N = 2**50 and rounds to 2N from there."""
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    assert 2.0 * (2**50 - 1) + 0.25 != 2.0 * (2**50 - 1)
    assert 2.0 * 2**50 + 0.25 == 2.0 * 2**50
    with pytest.raises(ValueError, match="below 2\\*\\*50"):
        gp.condition_solver(basis, rabi_cycles=2**50)
    _, rep = gp.condition_solver(basis, rabi_cycles=2**50 - 1)
    assert rep.pulse_area == (2.0 * (2**50 - 1) + 0.25) * math.pi


def test_condition_solver_rejects_unkicked_basis(spec):
    # eta 0 leaves D = 0, and W = (4N + 1/2) D with it
    basis = make_basis(spec, eta=0.0, dims=(10, 8))
    with pytest.raises(ValueError, match="D = 0"):
        gp.condition_solver(basis)


@pytest.mark.parametrize("width", [5e-324, 1e-200, 1.0, 1e200])
def test_flip_angle_stays_in_range_at_any_width(width):
    """The profile is read in widths, z = (xi - offset)/W, so no W^2 is
    formed: at a subnormal or huge W every angle is finite, in [0, theta0],
    theta0 exactly at the centre, and 0 where z^2 overflows, with no
    warning (the suite turns any into a failure)."""
    pulse = gp.AddressedPulse(theta0=6.5 * math.pi, offset=width, width=width)
    xi = np.array([0.0, width, 10.0 * width, 1.0])
    theta = gp.flip_angle(pulse, xi)
    assert np.all(np.isfinite(theta))
    assert np.all((theta >= 0.0) & (theta <= pulse.theta0))
    assert theta[1] == pulse.theta0
    assert float(gp.flip_angle(pulse, width)) == pulse.theta0
    if width <= 1e-200:  # xi = 1 lies 1e200 widths out or more: z^2 overflows
        assert theta[3] == 0.0


def test_linearized_branch_areas_are_half_cycle_apart(spec):
    """theta0*(1 +- D/(2W)) must land on (2N+1/2)pi and 2N*pi exactly."""
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    for n in (3, 5):
        _, rep = gp.condition_solver(basis, rabi_cycles=n)
        shift = rep.pulse_area * rep.big_d / (2.0 * rep.big_w)
        assert shift == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert rep.pulse_area + shift == pytest.approx((2 * n + 0.5) * math.pi, rel=1e-12)
        assert rep.pulse_area - shift == pytest.approx(2 * n * math.pi, rel=1e-12)


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_exact_gaussian_branch_areas_close_to_linearized(exponent):
    """The branches at the flip sit where the Fock route puts them; the
    quadratic remainder of the profile shifts their areas by O((D/2W)^2)."""
    basis = make_basis(tm.TrapSpec.normalized(exponent=exponent), eta=7.0)
    pulse, rep = gp.condition_solver(basis, rabi_cycles=3)
    half_d = float(an.separation_numeric(basis, [basis.flip_time])[0]) / 2.0
    theta = lambda xi: float(gp.flip_angle(pulse, xi))
    assert theta(0.0) == pytest.approx(rep.pulse_area, rel=1e-12)
    assert theta(half_d) == pytest.approx(6.5 * math.pi, rel=1e-4)
    assert theta(-half_d) == pytest.approx(6.0 * math.pi, rel=1e-4)


@pytest.mark.parametrize("exponent", [2.0, 1.7])
def test_condition_geometry_matches_fock_routes_off_ratio(exponent):
    """D against the coherent-state branch separation at t0, and Delta^2
    against <x1^2> - <x1>^2 of the Fock thermal state at ample dims."""
    basis = make_basis(tm.TrapSpec.normalized(exponent=exponent), eta=3.0,
                       dims=(48, 32), n_bar_c=1.0)
    assert not basis.commensurate
    _, rep = gp.condition_solver(basis, n_bar_c=1.0)
    d_fock = float(an.separation_numeric(basis, [basis.flip_time])[0])
    assert rep.big_d == pytest.approx(d_fock, rel=0, abs=1e-9 * basis.x0)
    n_c, n_r = basis.dims
    x1 = (np.kron(fc.position_operator(n_c, basis.width_c).real, np.eye(n_r))
          + np.kron(np.eye(n_c), fc.position_operator(n_r, basis.width_r).real) / 2.0
          + basis.x_e / 2.0 * np.eye(n_c * n_r))
    p = np.diag(gp.thermal_motional(basis, 1.0).matrix).real
    mean = p @ np.diag(x1)
    var = p @ np.diag(x1 @ x1) - mean**2
    # <x1>^2 ~ (x_e/2)^2 cancels here, which costs about 1e-10 relative
    assert rep.delta**2 == pytest.approx(var, rel=1e-9)
    assert rep.delta == basis.thermal_spread(1.0)


def test_eta_lower_bound_values():
    assert abs(gp.eta_lower_bound(0.0) - 1.0 / 3.0) < 1e-12
    # grows with temperature
    bounds = [gp.eta_lower_bound(n) for n in (0.0, 0.5, 1.0, 3.0)]
    assert all(b > a for a, b in zip(bounds, bounds[1:]))


def test_pulse_train():
    assert gp.pulse_train(0.45, 15) == pytest.approx(6.75, abs=1e-12)
    with pytest.raises(ValueError):
        gp.pulse_train(0.45, 0)
    with pytest.raises(ValueError):
        gp.pulse_train(0.45, 1.5)
    with pytest.raises(ValueError):
        gp.pulse_train(0.0, 3)


# --- elementary unitaries ---------------------------------------------------


def test_kick_unitary_is_unitary(spec):
    """Every composite unitary run_gate applies: the kick, both flips and
    the frame rotation (x) 1.  run_gate itself does not check them."""
    basis = make_basis(spec, eta=1.0, dims=(10, 8))
    pulse, _ = gp.build_schedule(basis)
    eye_m = np.eye(int(np.prod(basis.dims)))
    unitaries = {
        "kick": oracles.kick_unitary(basis),
        "addressed flip": oracles.addressed_flip_unitary(basis, pulse),
        "idealized flip": oracles.idealized_flip_unitary(basis),
        "frame rotation": np.kron(oracles.frame_rotation(gp._FRAME_FACTOR), eye_m),
    }
    for name, u in unitaries.items():
        np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12,
                                   err_msg=name)


def test_kick_imparts_opposite_mode_momenta(spec):
    """+k on the COM mode and -k/2 on the stretch mode, per branch."""
    basis = make_basis(spec, eta=1.0, dims=(12, 9))
    k = basis.eta / basis.x0
    u = oracles.kick_unitary(basis)
    n_c, n_r = basis.dims
    p_c = np.kron(oracles.momentum_operator(n_c, basis.width_c), np.eye(n_r))
    p_r = np.kron(np.eye(n_c), oracles.momentum_operator(n_r, basis.width_r))
    for q2, sign in ((0, +1.0), (1, -1.0)):
        ket = np.zeros(4)
        ket[q2] = 1.0  # internal |0, q2>
        state = oracles.initial_state(basis, ket)
        out = oracles.SystemState(state.dims, oracles.evolve(state.data, u))
        rho_m = out.motional_density()
        assert np.trace(rho_m @ p_c).real == pytest.approx(sign * k, abs=1e-9)
        assert np.trace(rho_m @ p_r).real == pytest.approx(-sign * k / 2.0, abs=1e-9)
        # the kick also toggles qubit 2
        rho_q = out.internal_density()
        assert rho_q[1 - q2, 1 - q2].real == pytest.approx(1.0, abs=1e-12)


def test_free_propagator_closes_at_gate_time(spec):
    basis = make_basis(spec, eta=0.3, dims=(6, 5))
    u = gp.free_propagator(basis, basis.gate_time)
    off = u - np.diag(np.diagonal(u))
    assert np.count_nonzero(off) == 0
    phase = u[0, 0]
    assert abs(phase + 1.0) < 1e-12  # global phase is -1 for half-integer zero point
    np.testing.assert_allclose(np.diagonal(u) / phase, 1.0, atol=1e-12)


def test_addressed_flip_against_dense_expm(spec):
    basis = make_basis(spec, eta=0.5, dims=(8, 6))
    pulse = gp.AddressedPulse(theta0=0.25, offset=basis.x0, width=3.0 * basis.x0)
    n_c, n_r = basis.dims
    xi = (np.kron(fc.position_operator(n_c, basis.width_c), np.eye(n_r))
          + np.kron(np.eye(n_c), fc.position_operator(n_r, basis.width_r)) / 2.0)
    vals, vecs = np.linalg.eigh(xi)
    theta = (vecs * gp.flip_angle(pulse, vals)) @ vecs.conj().T
    oracle = scipy.linalg.expm(-1j * np.kron(np.kron(gp.SIGMA_X, gp.ID2), theta))
    got = oracles.addressed_flip_unitary(basis, pulse)
    np.testing.assert_allclose(got, oracle, atol=1e-10)


def test_flat_profile_limit_is_global_rotation(spec):
    # width >> wavepacket: every motional component sees the same angle
    basis = make_basis(spec, eta=0.5, dims=(6, 5))
    theta = 0.4
    pulse = gp.AddressedPulse(theta0=theta, offset=0.0, width=1e8)
    got = oracles.addressed_flip_unitary(basis, pulse)
    rot = scipy.linalg.expm(-1j * theta * gp.SIGMA_X)
    oracle = np.kron(np.kron(rot, gp.ID2), np.eye(int(np.prod(basis.dims))))
    np.testing.assert_allclose(got, oracle, atol=1e-6)


def test_ideal_gate_truth_table():
    u = gp.ideal_gate()
    # basis order |q1 q2>: flip q1 when q2 = |0>
    expect = {0: 2, 1: 1, 2: 0, 3: 3}
    for src, dst in expect.items():
        col = u[:, src]
        assert col[dst] == 1.0 and np.count_nonzero(col) == 1
    np.testing.assert_allclose(u @ u, np.eye(4), atol=0)


def test_frame_rotation_acts_on_qubit2_zero():
    r = oracles.frame_rotation(gp._FRAME_FACTOR)
    expect = np.diag([1j, 1.0, 1j, 1.0])
    np.testing.assert_allclose(r, expect, atol=1e-15)


# --- full runs --------------------------------------------------------------


def test_idealized_run_restores_motion_and_flips(spec):
    basis = make_basis(spec, eta=1.2, dims=(14, 10))
    pulse, _ = gp.build_schedule(basis)
    internal = np.ones(4) / 2.0
    init = oracles.initial_state(basis, internal)
    out = oracles.run_gate(pulse, init, basis, flip_mode="idealized")
    u = gp.ideal_gate()
    target = u @ np.outer(internal, internal) @ u.conj().T
    assert fc.trace_distance(out.internal_density(), target) < 1e-12
    vac = np.zeros(int(np.prod(basis.dims)))
    vac[0] = 1.0
    assert fc.trace_distance(out.motional_density(), np.outer(vac, vac)) < 1e-12


def test_run_gate_rejects_bad_modes(spec):
    basis = make_basis(spec, eta=1.0, dims=(6, 5))
    pulse, _ = gp.build_schedule(basis)
    init = oracles.initial_state(basis, np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        oracles.run_gate(pulse, init, basis, flip_mode="sinc")
    with pytest.raises(ValueError):
        oracles.run_gate(None, init, basis, flip_mode="gaussian")


def _channel_choi_by_state_runs(basis, pulse, n_bar_c):
    """Choi matrix of the run_gate path, via pure-state polarization."""

    def lam(ket):
        init = oracles.initial_state(basis, np.asarray(ket, dtype=complex), n_bar_c)
        out = oracles.run_gate(pulse, init, basis, flip_mode="gaussian")
        return out.internal_density()

    eye = np.eye(4)
    diag = [lam(eye[i]) for i in range(4)]
    choi = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            if i == j:
                block = diag[i]
            elif i < j:
                plus = lam((eye[i] + eye[j]) / math.sqrt(2.0))
                imag = lam((eye[i] + 1j * eye[j]) / math.sqrt(2.0))
                block = plus + 1j * imag - (1.0 + 1j) / 2.0 * (diag[i] + diag[j])
                choi[4 * j:4 * j + 4, 4 * i:4 * i + 4] = block.conj().T
            else:
                continue
            choi[4 * i:4 * i + 4, 4 * j:4 * j + 4] = block
    return choi


def test_gate_channel_matches_composite_evolution(spec):
    """Dual route: factorized branch channel vs literal density evolution."""
    basis = make_basis(spec, eta=1.2, dims=(16, 10))
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.4)
    ch = oracles.fock_gate_channel(basis, pulse, n_bar_c=0.4, mass_cutoff=0.0)
    assert ch.kept == basis.dims  # cutoff 0 keeps the whole rectangle
    choi_ref = _channel_choi_by_state_runs(basis, pulse, 0.4)
    np.testing.assert_allclose(ch.choi, choi_ref, atol=1e-10)
    # off the commensurate ratio (nu_r/nu_c = sqrt(3)) the branch operators
    # do not refocus; the Fock oracle still follows the literal evolution
    odd = tm.TrapSpec.normalized(exponent=2.0)
    basis = make_basis(odd, eta=1.2, dims=(8, 6))
    assert not basis.commensurate
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.4)
    ch = oracles.fock_gate_channel(basis, pulse, n_bar_c=0.4, mass_cutoff=0.0)
    assert ch.kept == basis.dims
    choi_ref = _channel_choi_by_state_runs(basis, pulse, 0.4)
    np.testing.assert_allclose(ch.choi, choi_ref, atol=1e-10)


def _cross_route(basis, pulse, n_bar_c, flip_mode="gaussian"):
    ps = gp.gate_channel(basis, pulse, n_bar_c=n_bar_c, flip_mode=flip_mode)
    fock = oracles.fock_gate_channel(basis, pulse, n_bar_c=n_bar_c, flip_mode=flip_mode)
    return ps, fock


def test_phase_space_channel_matches_fock_route(spec):
    """At well-conditioned commensurate points and default dims the Fock
    route reproduces the truncation-free Gram matrix."""
    from dataclasses import replace

    for n_bar_c in (0.0, 0.5, 1.0):
        basis = make_basis(spec, eta=3.0, n_bar_c=n_bar_c)
        pulse, rep = gp.build_schedule(basis, n_bar_c=n_bar_c)
        assert rep.well_conditioned
        ps, fock = _cross_route(basis, pulse, n_bar_c)
        np.testing.assert_allclose(ps.gram, fock.gram, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ps.choi, fock.choi, rtol=0, atol=1e-9)
    basis = make_basis(spec, eta=3.0, n_bar_c=0.5)
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.5)
    dark = replace(pulse, theta0=0.0)
    for flip, flip_mode in ((dark, "gaussian"), (pulse, "idealized")):
        ps, fock = _cross_route(basis, flip, 0.5, flip_mode)
        np.testing.assert_allclose(ps.gram, fock.gram, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ps.choi, fock.choi, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(ps.gram, np.ones((2, 2)))


# (exponent, eta, n_bar_c): three traps off the commensurate ratio
_UNFOCUSED = [(2.0, 1.5, 0.5), (1.7, 2.0, 0.5), (2.0, 3.0, 0.5)]


def _unfocused_id(point):
    """The point and t_g in COM periods, always 1, as the test ids name it."""
    return str(point + (1.0,))


def _unfocused_point(exponent, eta, n_bar_c):
    """Solved pulse at default dims + 8, where the Fock oracle with
    mass_cutoff 1e-15 is converged to about 1e-13."""
    basis = make_basis(tm.TrapSpec.normalized(exponent=exponent), eta=eta,
                       n_bar_c=n_bar_c)
    basis = basis.with_dims(tuple(d + 8 for d in basis.dims))
    pulse, _ = gp.build_schedule(basis, n_bar_c=n_bar_c)
    assert not basis.commensurate
    return basis, pulse


@pytest.mark.parametrize("point", _UNFOCUSED, ids=_unfocused_id)
def test_gate_channel_matches_fock_oracle_without_refocusing(point):
    """The residual displacement left by imperfect refocusing enters the
    cross-branch blocks as a complex Gaussian weight; the Fock oracle has
    none of that algebra."""
    basis, pulse = _unfocused_point(*point)
    n_bar_c = point[2]
    ch = gp.gate_channel(basis, pulse, n_bar_c=n_bar_c)
    fock = oracles.fock_gate_channel(basis, pulse, n_bar_c=n_bar_c, mass_cutoff=1e-15)
    np.testing.assert_allclose(ch.gram, fock.gram, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ch.choi, fock.choi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("point", _UNFOCUSED, ids=_unfocused_id)
def test_idealized_flip_off_ratio_closed_form(point):
    """Gram [[1, d], [d, 1]], d = exp(-kappa^2 Var(Y)/2), with
    Var(x_m - x_m(t)) = 2 w_m^2 (2 n_m + 1)(1 - cos nu_m t) per mode."""
    basis, pulse = _unfocused_point(*point)
    n_bar_c = point[2]
    n_bar_r = tm.relative_occupation(n_bar_c, basis.nu_r / basis.nu_c)
    t_g = basis.gate_time
    var_y = (2.0 * basis.width_c**2 * (2.0 * n_bar_c + 1.0) * (1.0 - math.cos(basis.nu_c * t_g))
             + 0.5 * basis.width_r**2 * (2.0 * n_bar_r + 1.0)
             * (1.0 - math.cos(basis.nu_r * t_g)))
    d = math.exp(-0.5 * (2.0 * basis.wavenumber) ** 2 * var_y)
    assert d < 0.99  # far from the all-ones Gram matrix of a refocusing gate
    ch = gp.gate_channel(basis, pulse, n_bar_c=n_bar_c, flip_mode="idealized")
    np.testing.assert_allclose(ch.gram, [[1.0, d], [d, 1.0]], rtol=0, atol=1e-15)
    fock = oracles.fock_gate_channel(basis, pulse, n_bar_c=n_bar_c, flip_mode="idealized",
                                mass_cutoff=1e-15)
    np.testing.assert_allclose(ch.gram, fock.gram, rtol=0, atol=1e-13)


def test_phase_space_golden_point(spec):
    from hotgate.analysis import gate_report

    rep = gate_report(spec, 7.0, 0.0, anharmonic_order=None)
    assert rep.fidelity == pytest.approx(0.995563065904545, abs=1e-12)


def _trapezoid_setup(basis, pulse, n_bar_c, terms, intervals):
    """Nodes t, trapezoid weights w, ion 1's offset X at the nodes, and
    f(u, sign) = f_{b,s}(u) for every term (fbar for sign +1), with the
    profile read at the branch's offset from ion 1's equilibrium."""
    t = np.linspace(-gp._SPAN, gp._SPAN, intervals + 1)
    step = 2.0 * gp._SPAN / intervals / math.sqrt(2.0 * math.pi)
    w = np.exp(-0.5 * t * t) * step
    half_d = basis.wavenumber * basis.half_separation_per_k(basis.flip_time)
    shifts = np.array([half_d if b == 0 else -half_d for b, _, _ in terms])
    signs = np.array([s for _, s, _ in terms])

    def f(u, sign):
        theta = gp.flip_angle(pulse, shifts[:, None] + u[None, :])
        return np.exp(sign * 1j * signs[:, None] * theta)

    return t, step, w, basis.thermal_spread(n_bar_c) * t, f


def _one_gram(basis, pulse, n_bar_c):
    """The Gram matrix of _phase_space_grams on a batch of one point."""
    (gram,) = gp._phase_space_grams([(basis, pulse, n_bar_c)])
    return gram


def _with_cross_block(gram, rows, block):
    gram[np.ix_(rows, ~rows)] = block
    gram[np.ix_(~rows, rows)] = block.conj().T
    return gram


def _plain_trapezoid_gram(basis, pulse, n_bar_c, terms, intervals):
    """The Gram matrix of _phase_space_grams' docstring on one plain
    trapezoid grid of `intervals` intervals over +-_SPAN thermal widths:
    the cross-branch blocks on the real axis, f_r(x + a) conj(f_c(x))
    against the complex weight e^{log_damp} N(x; z, Delta^2)."""
    t, step, w, u, f = _trapezoid_setup(basis, pulse, n_bar_c, terms, intervals)
    f0 = f(u, -1)
    gram = (f0 * w) @ f0.conj().T
    if basis.commensurate:
        return gram
    log_damp, shift, a = gp._residual_displacement(basis, n_bar_c)
    w_cross = np.exp(log_damp - 0.5 * (t - shift / basis.thermal_spread(n_bar_c)) ** 2) * step
    rows = np.array([b == 0 for b, _, _ in terms])
    block = (f(u + a, -1)[rows] * w_cross) @ f0[~rows].conj().T
    return _with_cross_block(gram, rows, block)


def _complex_offset_gram(basis, pulse, n_bar_c, terms, intervals):
    """The same Gram matrix with the cross-branch blocks at the complex
    shift itself, damp E_X[f_r(X + z + a) fbar_c(X + z)], the analytic
    continuation of the profile, on the real Gaussian weights: an oracle
    with its own arithmetic, usable where the shifted factors stay well
    inside double range."""
    t, step, w, u, f = _trapezoid_setup(basis, pulse, n_bar_c, terms, intervals)
    f0 = f(u, -1)
    gram = (f0 * w) @ f0.conj().T
    if basis.commensurate:
        return gram
    log_damp, shift, a = gp._residual_displacement(basis, n_bar_c)
    rows = np.array([b == 0 for b, _, _ in terms])
    block = math.exp(log_damp) * ((f(u + shift + a, -1)[rows] * w) @ f(u + shift, 1)[~rows].T)
    return _with_cross_block(gram, rows, block)


@pytest.mark.parametrize("point", _UNFOCUSED, ids=_unfocused_id)
def test_real_axis_gram_matches_the_complex_shift_form(point):
    """Moving the cross-branch contour back to the real axis changes the
    arithmetic, not the integral: wherever the gate does not refocus
    the Gram matrix matches the complex-shift form on 1024 intervals."""
    basis, pulse = _unfocused_point(*point)
    terms = gp._GAUSSIAN_TERMS
    gram = _one_gram(basis, pulse, point[2])
    reference = _complex_offset_gram(basis, pulse, point[2], terms, 1024)
    np.testing.assert_allclose(gram, reference, rtol=0, atol=1e-14)


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_phase_space_gram_is_the_128_interval_trapezoid(exponent):
    """The first level reuses the 128-interval nodes for the 64-interval
    sum; at the golden point and off the ratio the loop stops at 128, and
    the real-axis cross blocks agree with the complex-shift form."""
    spec = tm.TrapSpec.normalized(exponent=exponent)
    basis = make_basis(spec, eta=7.0)
    pulse, _ = gp.build_schedule(basis)
    terms = gp._GAUSSIAN_TERMS
    gram = _one_gram(basis, pulse, 0.0)
    coarse, fine = (_plain_trapezoid_gram(basis, pulse, 0.0, terms, n) for n in (64, 128))
    assert np.array_equal(gram, fine)
    assert np.max(np.abs(fine - coarse)) <= gp._GRAM_TOL
    np.testing.assert_allclose(
        gram, _complex_offset_gram(basis, pulse, 0.0, terms, 128), rtol=0, atol=1e-14)


def test_phase_space_gram_settles_at_its_tolerance_off_ratio(monkeypatch):
    """Off the ratio at low kick and high temperature the complex-shift
    cross-block terms sum in magnitude to about 2.6e4 and cancel down to
    entries <= 1, so rounding held successive levels of that form about
    1e-11 apart.  On the real axis every term is bounded and the sum of
    their magnitudes is at most 1: the loop settles at _GRAM_TOL within
    256 intervals, agrees with a 4096-interval real-axis trapezoid to
    _GRAM_TOL, and with the complex-shift form on 2**14 intervals within
    that form's rounding allowance, 16 * eps * 2.6e4 = 9.2e-11."""
    monkeypatch.setattr(gp, "_MAX_INTERVALS", 256)
    basis = make_basis(tm.TrapSpec.normalized(exponent=2.0), eta=0.5, n_bar_c=10.0)
    pulse, _ = gp.build_schedule(basis, n_bar_c=10.0)
    terms = gp._GAUSSIAN_TERMS
    gram = _one_gram(basis, pulse, 10.0)
    np.testing.assert_allclose(gram, _plain_trapezoid_gram(basis, pulse, 10.0, terms, 2**12),
                               rtol=0, atol=gp._GRAM_TOL)
    np.testing.assert_allclose(gram, _complex_offset_gram(basis, pulse, 10.0, terms, 2**14),
                               rtol=0, atol=9.2e-11)


def test_phase_space_gram_nodes_are_centre_relative(monkeypatch):
    """Off the ratio at low kick and n_bar_c 0 the Gram matrix settles within
    256 intervals.  Nodes formed as x_e/2 + Delta z (~410 x0) and then
    differenced against the centre l each carried their own rounding,
    ~ulp(410 x0), and the doubling ran on that noise to 1,024 intervals;
    ion 1's offsets from its equilibrium carry no such rounding."""
    monkeypatch.setattr(gp, "_MAX_INTERVALS", 256)
    basis = make_basis(tm.TrapSpec.normalized(exponent=2.0), eta=0.5)
    pulse, _ = gp.build_schedule(basis)
    terms = gp._GAUSSIAN_TERMS
    gram = _one_gram(basis, pulse, 0.0)
    reference = _plain_trapezoid_gram(basis, pulse, 0.0, terms, 2**12)
    np.testing.assert_allclose(gram, reference, rtol=0, atol=1e-13)


@pytest.mark.parametrize("eta, n_bar_c, intervals", [(0.5, 10.0, 256), (7.0, 1e4, 512)])
def test_phase_space_gram_evaluates_each_node_once(monkeypatch, eta, n_bar_c, intervals):
    """Past the first level each doubling reads the profile at its new (odd)
    nodes only.  Off the ratio, where the loop stops at `intervals`, that is
    intervals + 1 nodes in all (257 and 513, where evaluating every node of
    every level took 129 + 257 and 129 + 257 + 513), and the Gram matrix is
    the plain trapezoid on the last grid to _GRAM_TOL."""
    nodes = []

    def counting_angle(pulse, xi, angle=gp.flip_angle):
        nodes.append(np.shape(xi)[-1])
        return angle(pulse, xi)

    basis = make_basis(tm.TrapSpec.normalized(exponent=2.0), eta=eta, n_bar_c=n_bar_c)
    pulse, _ = gp.build_schedule(basis, n_bar_c=n_bar_c)
    terms = gp._GAUSSIAN_TERMS
    monkeypatch.setattr(gp, "flip_angle", counting_angle)
    gram = _one_gram(basis, pulse, n_bar_c)
    assert sum(nodes) == intervals + 1
    monkeypatch.undo()
    np.testing.assert_allclose(
        gram, _plain_trapezoid_gram(basis, pulse, n_bar_c, terms, intervals),
        rtol=0, atol=gp._GRAM_TOL)


def test_gate_channel_choi_is_assembled_from_the_gram(spec):
    """GateChannel.choi, built on first read, is
    sum_rc T_rc vec(Q_r) vec(Q_c)^dag with vec(Q) = sum_i |i> (x) Q|i>."""
    basis = make_basis(spec, eta=7.0, n_bar_c=1.0)
    pulse, _ = gp.build_schedule(basis, n_bar_c=1.0)
    ch = gp.gate_channel(basis, pulse, n_bar_c=1.0)
    assert "choi" not in vars(ch)
    vq = np.stack([q.T.reshape(16) for _, _, q in ch.terms], axis=1)
    assert np.array_equal(ch.choi, vq @ ch.gram @ vq.conj().T)


@pytest.mark.parametrize("flip_mode", ["gaussian", "idealized"])
def test_gate_channel_terms_are_read_only(spec, flip_mode):
    """Every channel shares the module's branch terms, which refuse writes."""
    basis = make_basis(spec, eta=2.0)
    pulse, _ = gp.build_schedule(basis)
    ch = gp.gate_channel(basis, pulse, flip_mode=flip_mode)
    assert ch.terms is gp.gate_channel(basis, pulse, flip_mode=flip_mode).terms
    for _, _, q in ch.terms:
        with pytest.raises(ValueError, match="read-only"):
            q[...] = 7.0


def test_fock_route_gap_closes_as_dims_grow(spec):
    """Ill-conditioned point: the Fock route approaches the phase-space
    Gram matrix only as the truncation grows (default dims are (27, 20))."""
    gaps = []
    for dims in ((16, 12), (24, 16), (32, 20)):
        basis = make_basis(spec, eta=0.5, n_bar_c=1.0, dims=dims)
        pulse, rep = gp.build_schedule(basis, n_bar_c=1.0)
        assert not rep.well_conditioned
        ps, fock = _cross_route(basis, pulse, 1.0)
        gaps.append(np.max(np.abs(ps.gram - fock.gram)))
    assert gaps[0] > 1e-4
    assert gaps[0] > 10 * gaps[1] > 100 * gaps[2]
    assert gaps[2] < 1e-6


def test_phase_space_quadrature_raises_at_its_cap(spec):
    from dataclasses import replace

    from hotgate.errors import NonConvergenceError

    basis = make_basis(spec, eta=3.0, dims=(8, 8))
    pulse, _ = gp.build_schedule(basis)
    wild = replace(pulse, theta0=pulse.theta0 * 1e6)
    with pytest.raises(NonConvergenceError):
        gp.gate_channel(basis, wild)


def test_gate_channel_gram_diagonal_is_unit(spec):
    basis = make_basis(spec, eta=2.0, dims=(24, 14))
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.5)
    ch = gp.gate_channel(basis, pulse, n_bar_c=0.5)
    # every branch operator is exactly unitary, so Tr[M rho M^dag] = 1
    np.testing.assert_allclose(ch.gram.diagonal().real, 1.0, atol=1e-12)
    assert ch.choi.shape == (16, 16)
    np.testing.assert_allclose(ch.choi, ch.choi.conj().T, atol=1e-12)


def test_channel_apply_matches_choi_contraction(spec):
    """The Choi assembly against the branch sum
    Lambda(rho) = sum_rc gram[r, c] Q_r rho Q_c^dag."""
    from hotgate.analysis import QuantumChannel

    basis = make_basis(spec, eta=1.5, dims=(18, 11))
    pulse, _ = gp.build_schedule(basis)
    ch = gp.gate_channel(basis, pulse)
    rho = np.full((4, 4), 0.25, dtype=complex)
    branch_sum = sum(ch.gram[r, c] * (q_r @ rho @ q_c.conj().T)
                     for r, (_, _, q_r) in enumerate(ch.terms)
                     for c, (_, _, q_c) in enumerate(ch.terms))
    out = oracles.apply_channel(QuantumChannel(ch.choi), rho)
    np.testing.assert_allclose(out, branch_sum, atol=1e-12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


def test_thermal_motional_shares_one_temperature_off_ratio():
    basis = make_basis(tm.TrapSpec.normalized(exponent=2.0), eta=1.0, dims=(6, 5))
    assert not basis.commensurate
    p = np.diag(gp.thermal_motional(basis, 0.8).matrix).real.reshape(basis.dims)
    boltzmann_c = p[1, 0] / p[0, 0]
    assert p[0, 1] / p[0, 0] == pytest.approx(
        boltzmann_c ** (basis.nu_r / basis.nu_c), abs=1e-12)


def test_motional_output_idealized_returns_thermal(spec):
    basis = make_basis(spec, eta=1.5, dims=(14, 9))
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.7)
    rho = gp.motional_output(basis, pulse, np.eye(4) / 4.0, n_bar_c=0.7,
                             flip_mode="idealized")
    ref = gp.thermal_motional(basis, 0.7)
    assert fc.trace_distance(rho, ref) < 1e-12


def test_motional_output_rejects_inputs_without_closed_form(spec):
    """The package gives the motional output only where it is the thermal
    state; the Gaussian flip and a trap off the commensurate ratio raise."""
    basis = make_basis(spec, eta=1.5, dims=(14, 9))
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.3)
    internal = np.full((4, 4), 0.25, dtype=complex)
    with pytest.raises(ValueError, match="closed form"):
        gp.motional_output(basis, pulse, internal, n_bar_c=0.3, flip_mode="gaussian")
    odd = make_basis(tm.TrapSpec.normalized(exponent=2.0), eta=1.2, dims=(8, 6))
    pulse, _ = gp.build_schedule(odd, n_bar_c=0.2)
    with pytest.raises(ValueError, match="closed form"):
        gp.motional_output(odd, pulse, internal, n_bar_c=0.2, flip_mode="idealized")


def test_motional_output_idealized_off_ratio_matches_composite_route():
    # nu_r / nu_c = sqrt(3): the idealized flip does not refocus, so the
    # output comes from the propagated Fock columns
    odd = tm.TrapSpec.normalized(exponent=2.0)
    basis = make_basis(odd, eta=1.2, dims=(8, 6))
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.2)
    assert not basis.commensurate
    internal = np.full((4, 4), 0.25, dtype=complex)
    got = oracles.fock_motional_output(basis, pulse, internal, n_bar_c=0.2,
                                       flip_mode="idealized")
    init = oracles.initial_state(basis, internal, n_bar_c=0.2)
    ref = oracles.run_gate(pulse, init, basis, flip_mode="idealized")
    assert fc.trace_distance(got, gp.thermal_motional(basis, 0.2)) > 1e-3
    assert fc.trace_distance(got, ref.motional_density()) <= 1e-10


def test_motional_output_matches_composite_route(spec):
    basis = make_basis(spec, eta=1.5, dims=(14, 9))
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.3)
    internal = np.full((4, 4), 0.25, dtype=complex)
    got = oracles.fock_motional_output(basis, pulse, internal, n_bar_c=0.3,
                                       flip_mode="gaussian")
    init = oracles.initial_state(basis, internal, n_bar_c=0.3)
    ref = oracles.run_gate(pulse, init, basis, flip_mode="gaussian")
    assert fc.trace_distance(got, ref.motional_density()) < 1e-10
    # a truncation that drops thermal levels: the deviation from the full
    # literal route stays within the dropped thermal mass
    basis = make_basis(spec, eta=1.5, dims=(20, 12))
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.3)
    ch = oracles.fock_gate_channel(basis, pulse, n_bar_c=0.3)
    assert ch.kept[0] < basis.dims[0] and ch.kept[1] < basis.dims[1]
    got = oracles.fock_motional_output(basis, pulse, internal, n_bar_c=0.3,
                                       flip_mode="gaussian")
    init = oracles.initial_state(basis, internal, n_bar_c=0.3)
    ref = oracles.run_gate(pulse, init, basis, flip_mode="gaussian")
    assert fc.trace_distance(got, ref.motional_density()) <= ch.dropped_mass + 1e-12


def test_frame_phase_tag_is_load_bearing(spec):
    """Without the pi/2 frame correction the realized gate dephases hard:
    the same Gram matrix with phase-free terms scores far lower."""
    from hotgate.analysis import QuantumChannel, average_fidelity

    basis = make_basis(spec, eta=4.0)
    pulse, _ = gp.build_schedule(basis)
    ch = gp.gate_channel(basis, pulse)
    f_tagged = average_fidelity(QuantumChannel(ch.choi), gp.ideal_gate())
    bare = [(b, s, q / gp._FRAME_FACTOR if b == 0 else q) for b, s, q in ch.terms]
    assert np.allclose(sum(q for _, _, q in bare), np.eye(4), rtol=0, atol=1e-15)
    f_bare = average_fidelity(QuantumChannel(gp._choi(bare, ch.gram)), gp.ideal_gate())
    assert f_tagged > 0.98
    assert f_bare < f_tagged - 0.2
