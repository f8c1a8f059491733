"""Pulse solver, composite-space reference evolution, and the branch channel.

The heavyweight check here is dual-route: the internal channel assembled from
factorized branch operators (fock_gate_channel) must reproduce, matrix element
by matrix element, the channel reconstructed by literally evolving composite
density matrices through run_gate.  The two code paths share no plumbing
beyond the elementary operator constructors.  The truncation-free channel of
gate_channel is in turn checked against the Fock route, on refocusing and
non-refocusing gates alike.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from hotgate import fock_core as fc, gate_protocol as gp, trap_model as tm


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
    assert pulse.omega0 == rep.omega0
    assert pulse.width == rep.big_w
    # D/Delta and eta/eta_bound are the same number by construction
    assert rep.big_d / rep.delta == pytest.approx(rep.eta_bound_ratio, rel=1e-12)
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


def test_condition_solver_rejects_bad_inputs(spec):
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    with pytest.raises(ValueError):
        gp.condition_solver(basis, rabi_cycles=0)
    with pytest.raises(ValueError):
        gp.condition_solver(basis, margin=0.5)
    with pytest.raises(ValueError):
        gp.condition_solver(basis, n_bar_c=-0.1)


def test_linearized_branch_areas_are_half_cycle_apart(spec):
    """theta0*(1 +- D/(2W)) must land on (2N+1/2)pi and 2N*pi exactly."""
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    for n in (3, 5):
        _, rep = gp.condition_solver(basis, rabi_cycles=n)
        shift = rep.pulse_area * rep.big_d / (2.0 * rep.big_w)
        assert shift == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert rep.pulse_area + shift == pytest.approx((2 * n + 0.5) * math.pi, rel=1e-12)
        assert rep.pulse_area - shift == pytest.approx(2 * n * math.pi, rel=1e-12)


def test_exact_gaussian_branch_areas_close_to_linearized(spec):
    # the quadratic remainder of the profile shifts the areas by O((D/2W)^2)
    basis = make_basis(spec, eta=7.0, dims=(8, 8))
    pulse, rep = gp.condition_solver(basis, rabi_cycles=3)
    edge = basis.x_e / 2.0
    theta = lambda x: 0.5 * pulse.duration * float(gp.gaussian_rabi(pulse, x))
    assert theta(edge) == pytest.approx(rep.pulse_area, rel=1e-12)
    assert theta(edge + rep.big_d / 2) == pytest.approx(6.5 * math.pi, rel=1e-4)
    assert theta(edge - rep.big_d / 2) == pytest.approx(6.0 * math.pi, rel=1e-4)


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


def test_schedule_validation(spec):
    kick = gp.KickPulse(1.0)
    with pytest.raises(ValueError):
        gp.GateSchedule(t0=2.0, t_g=1.0, kick=kick)
    slow = gp.AddressedPulse(omega0=1.0, center=0.0, width=1.0, duration=1.0)
    with pytest.warns(UserWarning):
        gp.GateSchedule(t0=1.0, t_g=6.0, kick=kick, flip=slow)


# --- elementary unitaries ---------------------------------------------------


def test_kick_unitary_is_unitary(spec):
    basis = make_basis(spec, eta=1.0, dims=(10, 8))
    u = gp.kick_unitary(basis, gp.KickPulse(1.0))
    d = u.shape[0]
    np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


def test_kick_imparts_opposite_mode_momenta(spec):
    """+k on the COM mode and -k/2 on the stretch mode, per branch."""
    basis = make_basis(spec, eta=1.0, dims=(12, 9))
    k = basis.eta / basis.x0
    u = gp.kick_unitary(basis, gp.KickPulse(basis.eta))
    n_c, n_r = basis.dims
    p_c = np.kron(fc.momentum_operator(n_c, basis.width_c), np.eye(n_r))
    p_r = np.kron(np.eye(n_c), fc.momentum_operator(n_r, basis.width_r))
    for q2, sign in ((0, +1.0), (1, -1.0)):
        ket = np.zeros(4)
        ket[q2] = 1.0  # internal |0, q2>
        state = gp.initial_state(basis, ket)
        out = gp.SystemState(state.dims, fc.unitary_evolve(state.data, u))
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
    pulse = gp.AddressedPulse(
        omega0=2.0, center=basis.x_e / 2.0 + basis.x0,
        width=3.0 * basis.x0, duration=0.25)
    n_c, n_r = basis.dims
    x1 = np.kron(fc.position_operator(n_c, basis.width_c), np.eye(n_r)) \
        + (np.kron(np.eye(n_c), fc.position_operator(n_r, basis.width_r))
           + basis.x_e * np.eye(n_c * n_r)) / 2.0
    vals, vecs = np.linalg.eigh(x1)
    omega = (vecs * gp.gaussian_rabi(pulse, vals)) @ vecs.conj().T
    h = np.kron(np.kron(gp.SIGMA_X, gp.ID2), omega)
    oracle = scipy.linalg.expm(-0.5j * pulse.duration * h)
    got = gp.addressed_flip_unitary(basis, pulse)
    np.testing.assert_allclose(got, oracle, atol=1e-10)


def test_flat_profile_limit_is_global_rotation(spec):
    # width >> wavepacket: every motional component sees the same angle
    basis = make_basis(spec, eta=0.5, dims=(6, 5))
    theta = 0.4
    pulse = gp.AddressedPulse(
        omega0=2.0 * theta / 0.25, center=basis.x_e / 2.0, width=1e8, duration=0.25)
    got = gp.addressed_flip_unitary(basis, pulse)
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
    r = gp.frame_rotation(math.pi / 2.0)
    expect = np.diag([1j, 1.0, 1j, 1.0])
    np.testing.assert_allclose(r, expect, atol=1e-15)


# --- full runs --------------------------------------------------------------


def test_idealized_run_restores_motion_and_flips(spec):
    basis = make_basis(spec, eta=1.2, dims=(14, 10))
    schedule, _ = gp.build_schedule(basis)
    internal = np.ones(4) / 2.0
    init = gp.initial_state(basis, internal)
    out = gp.run_gate(schedule, init, basis, flip_mode="idealized")
    u = gp.ideal_gate()
    target = u @ np.outer(internal, internal) @ u.conj().T
    assert fc.trace_distance(out.internal_density(), target) < 1e-12
    vac = np.zeros(int(np.prod(basis.dims)))
    vac[0] = 1.0
    assert fc.trace_distance(out.motional_density(), np.outer(vac, vac)) < 1e-12


def test_run_gate_rejects_bad_modes(spec):
    basis = make_basis(spec, eta=1.0, dims=(6, 5))
    schedule, _ = gp.build_schedule(basis)
    init = gp.initial_state(basis, np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        gp.run_gate(schedule, init, basis, flip_mode="sinc")
    bare = gp.GateSchedule(t0=schedule.t0, t_g=schedule.t_g, kick=schedule.kick)
    with pytest.raises(ValueError):
        gp.run_gate(bare, init, basis, flip_mode="gaussian")


def _channel_choi_by_state_runs(basis, schedule, n_bar_c):
    """Choi matrix of the run_gate path, via pure-state polarization."""

    def lam(ket):
        init = gp.initial_state(basis, np.asarray(ket, dtype=complex), n_bar_c)
        out = gp.run_gate(schedule, init, basis, flip_mode="gaussian")
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
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.4)
    ch = gp.fock_gate_channel(basis, schedule, n_bar_c=0.4, mass_cutoff=0.0)
    assert ch.kept == basis.dims  # cutoff 0 keeps the whole rectangle
    choi_ref = _channel_choi_by_state_runs(basis, schedule, 0.4)
    np.testing.assert_allclose(ch.choi, choi_ref, atol=1e-10)
    # off the commensurate ratio (nu_r/nu_c = sqrt(3)) the branch operators
    # do not refocus; the Fock oracle still follows the literal evolution
    odd = tm.TrapSpec.normalized(exponent=2.0)
    basis = make_basis(odd, eta=1.2, dims=(8, 6))
    assert not basis.commensurate
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.4)
    ch = gp.fock_gate_channel(basis, schedule, n_bar_c=0.4, mass_cutoff=0.0)
    assert ch.kept == basis.dims
    choi_ref = _channel_choi_by_state_runs(basis, schedule, 0.4)
    np.testing.assert_allclose(ch.choi, choi_ref, atol=1e-10)


def _cross_route(basis, schedule, n_bar_c, flip_mode="gaussian"):
    ps = gp.gate_channel(basis, schedule, n_bar_c=n_bar_c, flip_mode=flip_mode)
    fock = gp.fock_gate_channel(basis, schedule, n_bar_c=n_bar_c, flip_mode=flip_mode)
    return ps, fock


def test_phase_space_channel_matches_fock_route(spec):
    """At well-conditioned commensurate points and default dims the Fock
    route reproduces the truncation-free Gram matrix."""
    from dataclasses import replace

    for n_bar_c in (0.0, 0.5, 1.0):
        basis = make_basis(spec, eta=3.0, n_bar_c=n_bar_c)
        schedule, rep = gp.build_schedule(basis, n_bar_c=n_bar_c)
        assert rep.well_conditioned
        ps, fock = _cross_route(basis, schedule, n_bar_c)
        assert ps.kept is None and ps.dropped_mass < 1e-40
        np.testing.assert_allclose(ps.gram, fock.gram, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ps.choi, fock.choi, rtol=0, atol=1e-9)
    basis = make_basis(spec, eta=3.0, n_bar_c=0.5)
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.5)
    dark = replace(schedule, flip=replace(schedule.flip, omega0=0.0))
    retuned = replace(schedule, frame_phase=0.3)
    for sched, flip_mode in ((dark, "gaussian"), (retuned, "gaussian"),
                             (schedule, "idealized")):
        ps, fock = _cross_route(basis, sched, 0.5, flip_mode)
        np.testing.assert_allclose(ps.gram, fock.gram, rtol=0, atol=1e-9)
        np.testing.assert_allclose(ps.choi, fock.choi, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(ps.gram, np.ones((2, 2)))
    # a schedule that does not close after one COM period does not refocus,
    # and its cross-branch blocks still follow the Fock route
    late = replace(schedule, t_g=1.5 * schedule.t_g)
    assert not gp._refocuses(basis, late)
    ps, fock = _cross_route(basis, late, 0.5)
    np.testing.assert_allclose(ps.gram, fock.gram, rtol=0, atol=1e-9)
    np.testing.assert_allclose(ps.choi, fock.choi, rtol=0, atol=1e-9)


# (exponent, eta, n_bar_c, t_g in COM periods): three traps off the
# commensurate ratio, and the commensurate trap closed after 1.5 periods
_UNFOCUSED = [(2.0, 1.5, 0.5, 1.0), (1.7, 2.0, 0.5, 1.0), (2.0, 3.0, 0.5, 1.0),
              (5.0 / 3.0, 3.0, 0.5, 1.5)]


def _unfocused_point(exponent, eta, n_bar_c, periods):
    """Solved schedule at default dims + 8, where the Fock oracle with
    mass_cutoff 1e-15 is converged to about 1e-13."""
    from dataclasses import replace

    basis = make_basis(tm.TrapSpec.normalized(exponent=exponent), eta=eta,
                       n_bar_c=n_bar_c)
    basis = basis.with_dims(tuple(d + 8 for d in basis.dims))
    schedule, _ = gp.build_schedule(basis, n_bar_c=n_bar_c)
    schedule = replace(schedule, t_g=periods * schedule.t_g)
    assert not gp._refocuses(basis, schedule)
    return basis, schedule


@pytest.mark.parametrize("point", _UNFOCUSED, ids=str)
def test_gate_channel_matches_fock_oracle_without_refocusing(point):
    """The residual displacement left by imperfect refocusing enters the
    cross-branch blocks at a complex shift; the Fock oracle has none of
    that algebra."""
    basis, schedule = _unfocused_point(*point)
    n_bar_c = point[2]
    ch = gp.gate_channel(basis, schedule, n_bar_c=n_bar_c)
    fock = gp.fock_gate_channel(basis, schedule, n_bar_c=n_bar_c, mass_cutoff=1e-15)
    np.testing.assert_allclose(ch.gram, fock.gram, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ch.choi, fock.choi, rtol=0, atol=1e-12)


@pytest.mark.parametrize("point", _UNFOCUSED[:3], ids=str)
def test_idealized_flip_off_ratio_closed_form(point):
    """Gram [[1, d], [d, 1]], d = exp(-kappa^2 Var(Y)/2), with
    Var(x_m - x_m(t)) = 2 w_m^2 (2 n_m + 1)(1 - cos nu_m t) per mode."""
    basis, schedule = _unfocused_point(*point)
    n_bar_c = point[2]
    n_bar_r = tm.relative_occupation(n_bar_c, basis.nu_r / basis.nu_c)
    t_g = schedule.t_g
    var_y = (2.0 * basis.width_c**2 * (2.0 * n_bar_c + 1.0) * (1.0 - math.cos(basis.nu_c * t_g))
             + 0.5 * basis.width_r**2 * (2.0 * n_bar_r + 1.0)
             * (1.0 - math.cos(basis.nu_r * t_g)))
    d = math.exp(-0.5 * (2.0 * basis.wavenumber) ** 2 * var_y)
    assert d < 0.99  # far from the all-ones Gram matrix of a refocusing gate
    ch = gp.gate_channel(basis, schedule, n_bar_c=n_bar_c, flip_mode="idealized")
    np.testing.assert_allclose(ch.gram, [[1.0, d], [d, 1.0]], rtol=0, atol=1e-15)
    fock = gp.fock_gate_channel(basis, schedule, n_bar_c=n_bar_c, flip_mode="idealized",
                                mass_cutoff=1e-15)
    np.testing.assert_allclose(ch.gram, fock.gram, rtol=0, atol=1e-13)


def test_phase_space_golden_point(spec):
    from hotgate.analysis import gate_report

    rep = gate_report(spec, 7.0, 0.0, anharmonic_order=None)
    assert rep.fidelity == pytest.approx(0.995563065904545, abs=1e-12)


def test_fock_route_gap_closes_as_dims_grow(spec):
    """Ill-conditioned point: the Fock route approaches the phase-space
    Gram matrix only as the truncation grows (default dims are (27, 20))."""
    gaps = []
    for dims in ((16, 12), (24, 16), (32, 20)):
        basis = make_basis(spec, eta=0.5, n_bar_c=1.0, dims=dims)
        schedule, rep = gp.build_schedule(basis, n_bar_c=1.0)
        assert not rep.well_conditioned
        ps, fock = _cross_route(basis, schedule, 1.0)
        gaps.append(np.max(np.abs(ps.gram - fock.gram)))
    assert gaps[0] > 1e-4
    assert gaps[0] > 10 * gaps[1] > 100 * gaps[2]
    assert gaps[2] < 1e-6


def test_phase_space_quadrature_raises_at_its_cap(spec):
    from dataclasses import replace

    from hotgate.errors import NonConvergenceError

    basis = make_basis(spec, eta=3.0, dims=(8, 8))
    schedule, _ = gp.build_schedule(basis)
    wild = replace(schedule, flip=replace(schedule.flip, omega0=schedule.flip.omega0 * 1e6))
    with pytest.raises(NonConvergenceError):
        gp.gate_channel(basis, wild)


def test_gate_channel_gram_diagonal_is_unit(spec):
    basis = make_basis(spec, eta=2.0, dims=(24, 14))
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.5)
    ch = gp.gate_channel(basis, schedule, n_bar_c=0.5)
    # every branch operator is exactly unitary, so Tr[M rho M^dag] = 1
    np.testing.assert_allclose(ch.gram.diagonal().real, 1.0, atol=1e-12)
    assert ch.dropped_mass < 1e-10
    assert ch.choi.shape == (16, 16)
    np.testing.assert_allclose(ch.choi, ch.choi.conj().T, atol=1e-12)


def test_channel_apply_matches_choi_contraction(spec):
    basis = make_basis(spec, eta=1.5, dims=(18, 11))
    schedule, _ = gp.build_schedule(basis)
    ch = gp.gate_channel(basis, schedule)
    rho = np.full((4, 4), 0.25, dtype=complex)
    out = ch.apply(rho)
    contracted = np.einsum("iajb,ij->ab", ch.choi.reshape(4, 4, 4, 4), rho)
    np.testing.assert_allclose(out, contracted, atol=1e-12)
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
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.7)
    rho = gp.motional_output(basis, schedule, np.eye(4) / 4.0, n_bar_c=0.7,
                             flip_mode="idealized")
    ref = gp.thermal_motional(basis, 0.7)
    assert fc.trace_distance(rho, ref) < 1e-12


def test_motional_output_idealized_off_ratio_matches_composite_route():
    # nu_r / nu_c = sqrt(3): the idealized flip does not refocus, so the
    # output comes from the propagated Fock columns
    odd = tm.TrapSpec.normalized(exponent=2.0)
    basis = make_basis(odd, eta=1.2, dims=(8, 6))
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.2)
    assert not gp._refocuses(basis, schedule)
    internal = np.full((4, 4), 0.25, dtype=complex)
    got = gp.motional_output(basis, schedule, internal, n_bar_c=0.2,
                             flip_mode="idealized")
    init = gp.initial_state(basis, internal, n_bar_c=0.2)
    ref = gp.run_gate(schedule, init, basis, flip_mode="idealized")
    assert fc.trace_distance(got, gp.thermal_motional(basis, 0.2)) > 1e-3
    assert fc.trace_distance(got, ref.motional_density()) <= 1e-10


def test_motional_output_matches_composite_route(spec):
    basis = make_basis(spec, eta=1.5, dims=(14, 9))
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.3)
    internal = np.full((4, 4), 0.25, dtype=complex)
    got = gp.motional_output(basis, schedule, internal, n_bar_c=0.3,
                             flip_mode="gaussian")
    init = gp.initial_state(basis, internal, n_bar_c=0.3)
    ref = gp.run_gate(schedule, init, basis, flip_mode="gaussian")
    assert fc.trace_distance(got, ref.motional_density()) < 1e-10
    # a truncation that drops thermal levels: the deviation from the full
    # literal route stays within the dropped thermal mass
    basis = make_basis(spec, eta=1.5, dims=(20, 12))
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.3)
    ch = gp.fock_gate_channel(basis, schedule, n_bar_c=0.3)
    assert ch.kept[0] < basis.dims[0] and ch.kept[1] < basis.dims[1]
    got = gp.motional_output(basis, schedule, internal, n_bar_c=0.3,
                             flip_mode="gaussian")
    init = gp.initial_state(basis, internal, n_bar_c=0.3)
    ref = gp.run_gate(schedule, init, basis, flip_mode="gaussian")
    assert fc.trace_distance(got, ref.motional_density()) <= ch.dropped_mass + 1e-12


def test_frame_phase_tag_is_load_bearing(spec):
    """Without the pi/2 frame correction the realized gate dephases hard."""
    from dataclasses import replace

    from hotgate.analysis import QuantumChannel, average_fidelity

    basis = make_basis(spec, eta=4.0)
    schedule, _ = gp.build_schedule(basis)
    f_tagged = average_fidelity(
        QuantumChannel(gp.gate_channel(basis, schedule).choi), gp.ideal_gate())
    bare = replace(schedule, frame_phase=0.0)
    f_bare = average_fidelity(
        QuantumChannel(gp.gate_channel(basis, bare).choi), gp.ideal_gate())
    assert f_tagged > 0.98
    assert f_bare < f_tagged - 0.2
