"""Channel metrics, branch-separation curves, and the dephasing estimates."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from hotgate import analysis as an, fock_core as fc, gate_protocol as gp, trap_model as tm


@pytest.fixture(scope="module")
def spec():
    return tm.TrapSpec.normalized(lamb_dicke=0.45)


# --- channels and figures of merit ------------------------------------------


def test_average_fidelity_of_the_target_itself():
    u = gp.ideal_gate()
    assert an.average_fidelity(an.QuantumChannel.from_unitary(u), u) == pytest.approx(1.0, abs=1e-14)


def test_average_fidelity_identity_vs_conditional_flip():
    # Tr[U_ideal] = 2, so F_ent = |2|^2/16 and F_avg = (4/4 + 1)/5... worked out: 0.4
    ident = an.QuantumChannel.from_unitary(np.eye(4))
    assert an.average_fidelity(ident, gp.ideal_gate()) == pytest.approx(0.4, abs=1e-14)


def test_average_fidelity_orthogonal_error():
    # a stray flip on qubit 1 after the perfect gate: Tr[sigma_x (x) I] = 0
    u = gp.ideal_gate()
    err = np.kron(gp.SIGMA_X, gp.ID2) @ u
    ch = an.QuantumChannel.from_unitary(err)
    assert an.average_fidelity(ch, u) == pytest.approx(0.2, abs=1e-14)


def test_fully_depolarizing_figures():
    ch = an.QuantumChannel.depolarizing(1.0)
    assert an.average_fidelity(ch, gp.ideal_gate()) == pytest.approx(0.25, abs=1e-12)
    assert an.average_purity(ch) == pytest.approx(0.25, abs=1e-12)


def test_unitary_channel_purity_is_one():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = scipy.linalg.expm(-1j * (h + h.conj().T))
    ch = an.QuantumChannel.from_unitary(u)
    assert an.average_purity(ch) == pytest.approx(1.0, abs=1e-12)


def _purity_by_frame_loop(channel):
    """The 36-state average, one apply per kron product of axis states."""
    total = 0.0
    for ket in (np.kron(a, b) for a in an._QUBIT_FRAME for b in an._QUBIT_FRAME):
        out = channel.apply(np.outer(ket, ket.conj()))
        total += np.einsum("ab,ba->", out, out).real
    return total / 36.0


def test_average_purity_matches_frame_state_loop(spec):
    basis = tm.build_mode_basis(spec, eta=4.0, n_bar_c=0.5)
    schedule, _ = gp.build_schedule(basis, n_bar_c=0.5)
    gate = an.QuantumChannel(gp.gate_channel(basis, schedule, n_bar_c=0.5).choi)
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    # Kraus operators K_j = M_j S^{-1/2} with S = sum_j M_j^dag M_j
    w, v = np.linalg.eigh(np.einsum("jba,jbc->ac", mats.conj(), mats))
    kraus = an.QuantumChannel.from_kraus(mats @ (v / np.sqrt(w)) @ v.conj().T)
    assert kraus.trace_preservation_defect() < 1e-12
    for channel in (gate, kraus):
        purity = an.average_purity(channel)
        assert purity < 1.0 - 1e-3
        assert abs(purity - _purity_by_frame_loop(channel)) <= 1e-14


def test_depolarizing_apply_formula():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    p = 0.3
    out = an.QuantumChannel.depolarizing(p).apply(rho)
    np.testing.assert_allclose(out, (1 - p) * rho + p * np.eye(4) / 4.0, atol=1e-12)


def test_from_kraus_phase_damping():
    p = 0.2
    kraus = [math.sqrt(1 - p) * np.eye(4),
             math.sqrt(p) * np.kron(np.diag([1.0, -1.0]), np.eye(2))]
    ch = an.QuantumChannel.from_kraus(kraus)
    assert ch.trace_preservation_defect() < 1e-12
    assert ch.is_completely_positive(1e-12)
    rho = np.full((4, 4), 0.25, dtype=complex)
    direct = sum(k @ rho @ k.conj().T for k in kraus)
    np.testing.assert_allclose(ch.apply(rho), direct, atol=1e-12)


def test_lossy_kraus_has_tp_defect():
    ch = an.QuantumChannel.from_kraus([0.5 * np.eye(4)])
    assert ch.trace_preservation_defect() == pytest.approx(0.75, abs=1e-12)


def test_frame_states_are_36_unit_kets():
    states = an.frame_states()
    assert len(states) == 36
    for ket in states:
        assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-14)


def test_channel_rejects_bad_choi_shape():
    with pytest.raises(ValueError):
        an.QuantumChannel(np.eye(5))
    with pytest.raises(ValueError):
        an.QuantumChannel.depolarizing(1.5)


# --- branch separation ------------------------------------------------------


def test_separation_analytic_endpoints_and_peak(spec):
    basis = tm.build_mode_basis(spec, eta=2.0, dims=(8, 8))
    t = np.array([0.0, basis.flip_time, basis.gate_time])
    d = an.separation_analytic(basis, t)
    assert d[0] == 0.0
    assert abs(d[2]) < 1e-12 * basis.x0
    assert d[1] == pytest.approx(1.5 * math.sqrt(3.0) * basis.x0 * 2.0, rel=1e-12)


def test_separation_numeric_tracks_analytic(spec):
    basis = tm.build_mode_basis(spec, eta=2.0)
    curve = an.separation_scan(basis, n_points=64)
    assert curve.converged
    assert curve.max_error < 1e-9 * basis.x0


def test_separation_peak_dominates_curve(spec):
    basis = tm.build_mode_basis(spec, eta=1.0, dims=(16, 12))
    times = np.linspace(0.0, basis.gate_time, 401)
    d = np.abs(an.separation_analytic(basis, times))
    peak = 1.5 * math.sqrt(3.0) * basis.x0
    assert d.max() <= peak * (1 + 1e-9)
    assert d.max() == pytest.approx(peak, rel=1e-4)  # grid lands near t0


def test_separation_scan_input_validation(spec):
    basis = tm.build_mode_basis(spec, eta=1.0, dims=(8, 8))
    with pytest.raises(ValueError):
        an.separation_scan(basis, n_points=1)


# --- interaction-picture integral -------------------------------------------


def test_interaction_integral_two_level_closed_form():
    delta, length = 1.7, 2.3
    energies = np.array([0.0, delta])
    v = np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]])
    got = an.interaction_integral(v, energies, length)
    phase = (np.exp(-1j * delta * length) - 1.0) / (-1j * delta)
    expect = np.array([
        [v[0, 0] * length, v[0, 1] * phase],
        [v[1, 0] * np.conj(phase), v[1, 1] * length],
    ])
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_interaction_integral_matches_adaptive_quadrature():
    """Closed form against scipy's adaptive quadrature on an incommensurate trap."""
    spec = tm.TrapSpec.normalized(exponent=2.0)  # nu_r / nu_c = sqrt(3)
    basis = tm.build_mode_basis(spec, eta=1.0, dims=(6, 5))
    assert not basis.commensurate
    v = tm.v_cor_operator(tm.anharmonic_expansion(spec, order=3), basis)
    energies = tm.motional_energies_flat(basis)
    delta = energies[:, None] - energies[None, :]
    length = basis.gate_time
    expect, _ = scipy.integrate.quad_vec(
        lambda tau: np.exp(1j * delta * tau) * v, 0.0, length, epsrel=1e-13)
    got = an.interaction_integral(v, energies, length)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_interaction_integral_near_degenerate_pair():
    v = np.array([[0.0, 0.5 + 0.25j], [0.5 - 0.25j, 0.0]])
    got = an.interaction_integral(v, np.array([1.0, 1.0 + 1e-13]), 2.0)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, 2.0 * v, rtol=1e-12)


# --- anharmonic dephasing ---------------------------------------------------


@pytest.fixture(scope="module")
def anharmonic_setup(spec):
    expansion = tm.anharmonic_expansion(spec, order=3)
    basis = tm.build_mode_basis(spec, eta=spec.lamb_dicke, n_bar_c=1.0, dims=(24, 19))
    return basis, expansion


def test_zero_correction_means_unit_fidelity(anharmonic_setup):
    basis, expansion = anharmonic_setup
    rep = an.anharmonic_fidelity(basis, expansion.scaled(0.0), n_bar_c=1.0)
    assert rep.f_cor == 1.0
    assert rep.variance == 0.0


def test_variance_scales_quadratically(anharmonic_setup):
    basis, expansion = anharmonic_setup
    base = an.anharmonic_fidelity(basis, expansion, n_bar_c=1.0)
    doubled = an.anharmonic_fidelity(basis, expansion.scaled(2.0), n_bar_c=1.0)
    assert base.converged and doubled.converged
    assert doubled.variance / base.variance == pytest.approx(4.0, rel=1e-10)


def test_perturbative_agrees_with_exact_overlap(anharmonic_setup):
    """1 - F from the variance vs the full propagated return overlap."""
    basis, expansion = anharmonic_setup
    scaled = expansion.scaled(8.0)
    rep = an.anharmonic_fidelity(basis, scaled, n_bar_c=1.0)
    exact = an.exact_anharmonic_fidelity(basis, scaled, n_bar_c=1.0)
    loss = 1.0 - rep.f_cor
    assert loss > 1e-5  # the operating point is inside the measurable window
    assert abs(rep.f_cor - exact) <= 5.0 * loss**1.5


def test_pre_and_post_kick_pictures_agree_when_small(spec):
    expansion = tm.anharmonic_expansion(spec, order=3)
    basis = tm.build_mode_basis(spec, eta=0.45, n_bar_c=1.0, dims=(28, 22))
    pre = an.anharmonic_fidelity(basis, expansion, n_bar_c=1.0, state_mode="pre_kick")
    post = an.anharmonic_fidelity(basis, expansion, n_bar_c=1.0, state_mode="post_kick")
    assert pre.f_cor > 0.999995
    assert post.f_cor > 0.999995
    assert abs(pre.f_cor - post.f_cor) < 1e-6
    assert pre.to_dict()["state_mode"] == "pre_kick"
    assert post.to_dict()["state_mode"] == "post_kick"


def _dense_exact_fidelity(basis, expansion, n_bar_c, state_mode):
    """The exact overlap from the dense gate unitary: echo = e^{i H0 t_g}
    e^{-i H t_g}, conjugated with the kick displacement from both sides in
    the post-kick picture."""
    energies = tm.motional_energies_flat(basis)
    h = tm.motional_hamiltonian(basis, tm.v_cor_operator(expansion, basis))
    echo = np.exp(1j * energies * basis.gate_time)[:, None] \
        * fc.hermitian_expm(h, basis.gate_time)
    if state_mode == "post_kick":
        d = np.kron(fc.displacement(1j * basis.eta_c, basis.dims[0]),
                    fc.displacement(-1j * basis.eta_r, basis.dims[1]))
        echo = d.conj().T @ echo @ d
    n_bar_r = tm.relative_occupation(n_bar_c, basis.nu_r / basis.nu_c)
    p = np.kron(fc.thermal_probabilities(n_bar_c, basis.dims[0]),
                fc.thermal_probabilities(n_bar_r, basis.dims[1]))
    return float(p @ np.abs(np.diag(echo)) ** 2)


@pytest.mark.parametrize("state_mode", ["pre_kick", "post_kick"])
@pytest.mark.parametrize("scale", [1.0, 32.0])
@pytest.mark.parametrize("order", [3, 6])
@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_exact_fidelity_matches_dense_echo(exponent, order, scale, state_mode):
    spec = tm.TrapSpec.normalized(exponent=exponent, lamb_dicke=0.45)
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    expansion = tm.anharmonic_expansion(spec, order=order).scaled(scale)
    h = tm.motional_hamiltonian(basis, tm.v_cor_operator(expansion, basis))
    assert len(an._parity_blocks(h, basis.dims)) == 2
    got = an.exact_anharmonic_fidelity(basis, expansion, 1.0, state_mode)
    assert got < 1.0 - 1e-7
    assert abs(got - _dense_exact_fidelity(basis, expansion, 1.0, state_mode)) <= 1e-14


@pytest.mark.parametrize("state_mode", ["pre_kick", "post_kick"])
def test_exact_fidelity_odd_xc_power_takes_one_block(spec, state_mode):
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    # x_c x_r^2 couples x_c levels of opposite parity
    expansion = tm.AnharmonicExpansion(order=3, coefficients={(1, 2): 0.1},
                                       x_e=basis.x_e)
    h = tm.motional_hamiltonian(basis, tm.v_cor_operator(expansion, basis))
    assert len(an._parity_blocks(h, basis.dims)) == 1
    got = an.exact_anharmonic_fidelity(basis, expansion, 1.0, state_mode)
    assert got < 1.0 - 1e-7
    assert abs(got - _dense_exact_fidelity(basis, expansion, 1.0, state_mode)) <= 1e-14


def test_anharmonic_state_mode_validation(anharmonic_setup):
    basis, expansion = anharmonic_setup
    with pytest.raises(ValueError):
        an.anharmonic_fidelity(basis, expansion, state_mode="mid_kick")
    with pytest.raises(ValueError):
        an.exact_anharmonic_fidelity(basis, expansion, state_mode="mid_kick")


# --- operating-point reports ------------------------------------------------


def test_gate_report_cold_moderate_kick(spec):
    rep = an.gate_report(spec, eta=2.0, n_bar_c=0.0, anharmonic_order=None)
    assert rep.fidelity == pytest.approx(0.948928927325, abs=1e-6)
    assert rep.purity < rep.fidelity
    assert rep.f_cor is None
    assert rep.tp_defect < 1e-10
    assert rep.condition.well_conditioned
    d = rep.to_dict()
    assert d["flip_mode"] == "gaussian"
    assert d["conditions"]["well_conditioned"] is True


def test_gate_report_linearity_flag_trips_when_hot(spec):
    # at eta=2, n_bar_c=0.5 the profile-linearity margin is just violated
    rep = an.gate_report(spec, eta=2.0, n_bar_c=0.5, anharmonic_order=None,
                         dims=(28, 16))
    assert not rep.condition.satisfied["profile_linearity"]
    assert not rep.condition.well_conditioned


def test_gate_report_disabled_pulse_identity_target(spec):
    # no flip, no frame tag: branch phases cancel and the gate is the identity
    rep = an.gate_report(spec, eta=2.0, n_bar_c=0.0, anharmonic_order=0,
                         omega0_scale=0.0, frame_phase=0.0, target=np.eye(4))
    assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.purity == pytest.approx(1.0, abs=1e-9)
    assert rep.f_cor == 1.0


def test_scan_keeps_order_and_records_failures(spec):
    points = [(1.2, 0.0), (-1.0, 0.0), (1.0, 0.0)]
    rows = an.scan(spec, points, anharmonic_order=None, dims=(10, 8),
                   flip_mode="idealized")
    assert [(r["eta"], r["n_bar_c"]) for r in rows] == [(1.2, 0.0), (-1.0, 0.0), (1.0, 0.0)]
    assert rows[0]["error"] is None
    assert rows[0]["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert rows[1]["error"] is not None and "ValueError" in rows[1]["error"]
    assert math.isnan(rows[1]["fidelity"])
    assert rows[2]["error"] is None
