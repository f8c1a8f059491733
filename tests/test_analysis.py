"""Channel metrics, branch-separation curves, and the dephasing estimates."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import oracles
from hotgate import analysis as an, fock_core as fc, gate_protocol as gp, trap_model as tm
from hotgate.errors import ConfigError, InvalidOperatorError, NonConvergenceError


@pytest.fixture(scope="module")
def spec():
    return tm.TrapSpec.normalized(lamb_dicke=0.45)


# --- channels and figures of merit ------------------------------------------


def test_average_fidelity_of_the_target_itself():
    u = gp.ideal_gate()
    assert an.average_fidelity(oracles.unitary_channel(u), u) == pytest.approx(1.0, abs=1e-14)


def test_average_fidelity_identity_vs_conditional_flip():
    # Tr[U_ideal] = 2, so F_ent = |2|^2/16 and F_avg = (4/4 + 1)/5... worked out: 0.4
    ident = oracles.unitary_channel(np.eye(4))
    assert an.average_fidelity(ident, gp.ideal_gate()) == pytest.approx(0.4, abs=1e-14)


def test_average_fidelity_orthogonal_error():
    # a stray flip on qubit 1 after the perfect gate: Tr[sigma_x (x) I] = 0
    u = gp.ideal_gate()
    err = np.kron(gp.SIGMA_X, gp.ID2) @ u
    ch = oracles.unitary_channel(err)
    assert an.average_fidelity(ch, u) == pytest.approx(0.2, abs=1e-14)


def test_fully_depolarizing_figures():
    ch = oracles.depolarizing_channel(1.0)
    assert an.average_fidelity(ch, gp.ideal_gate()) == pytest.approx(0.25, abs=1e-12)
    assert an.average_purity(ch) == pytest.approx(0.25, abs=1e-12)


def test_unitary_channel_purity_is_one():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = scipy.linalg.expm(-1j * (h + h.conj().T))
    ch = oracles.unitary_channel(u)
    assert an.average_purity(ch) == pytest.approx(1.0, abs=1e-12)


def _purity_by_frame_loop(channel):
    """The 36-state average, one apply per kron product of axis states."""
    total = 0.0
    for ket in (np.kron(a, b) for a in an._QUBIT_FRAME for b in an._QUBIT_FRAME):
        out = oracles.apply_channel(channel, np.outer(ket, ket.conj()))
        total += np.einsum("ab,ba->", out, out).real
    return total / 36.0


def test_average_purity_matches_frame_state_loop(spec):
    basis = tm.build_mode_basis(spec, eta=4.0, n_bar_c=0.5)
    pulse, _ = gp.build_schedule(basis, n_bar_c=0.5)
    gate = an.QuantumChannel(gp.gate_channel(basis, pulse, n_bar_c=0.5).choi)
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    # Kraus operators K_j = M_j S^{-1/2} with S = sum_j M_j^dag M_j
    w, v = np.linalg.eigh(np.einsum("jba,jbc->ac", mats.conj(), mats))
    kraus = oracles.kraus_channel(mats @ (v / np.sqrt(w)) @ v.conj().T)
    assert kraus.trace_preservation_defect() < 1e-12
    for channel in (gate, kraus):
        purity = an.average_purity(channel)
        assert purity < 1.0 - 1e-3
        assert abs(purity - _purity_by_frame_loop(channel)) <= 1e-14


def test_average_purity_rejects_other_dimensions():
    with pytest.raises(ValueError):
        an.average_purity(oracles.depolarizing_channel(0.5, dim=3))


def _choi_route(spec, eta, n_bar_c):
    """The QuantumChannel of the solved pulse's Choi matrix."""
    basis = tm.build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c)
    pulse, _ = gp.build_schedule(basis, n_bar_c=n_bar_c)
    return an.QuantumChannel(gp.gate_channel(basis, pulse, n_bar_c=n_bar_c).choi)


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_gate_report_figures_match_the_choi_route(exponent):
    """gate_report's fidelity, purity and TP defect, contracted from the
    Gram matrix, equal average_fidelity, average_purity and
    trace_preservation_defect on the Choi matrix to 1e-14."""
    spec = tm.TrapSpec.normalized(exponent=exponent, lamb_dicke=0.45)
    for eta in (0.5, 2.0, 7.0):
        for n_bar_c in (0.0, 1.0, 10.0):
            rep = an.gate_report(spec, eta, n_bar_c, anharmonic_order=None)
            channel = _choi_route(spec, eta, n_bar_c)
            assert abs(rep.fidelity - an.average_fidelity(channel, gp.ideal_gate())) <= 1e-14
            assert abs(rep.purity - an.average_purity(channel)) <= 1e-14
            assert abs(rep.tp_defect - channel.trace_preservation_defect()) <= 1e-14


def test_gate_report_and_scan_build_no_choi_matrix(spec, monkeypatch):
    """With the Choi assembly, the Choi-matrix tools and fock_core's Fock
    constructors patched to raise, gate_report, scan_rows and
    condition_solver still run and give the same figures, on the paper's
    trap and off the ratio: the gate path reads no Fock truncation."""
    traps = (spec, tm.TrapSpec.normalized(exponent=2.0))
    want = [an.gate_report(trap, 7.0, 1.0, anharmonic_order=None) for trap in traps]
    solved = [gp.condition_solver(tm.build_mode_basis(trap, eta=7.0, n_bar_c=1.0), 1.0)
              for trap in traps]

    def refuse(*args, **kwargs):
        raise AssertionError("the Choi route or a Fock constructor ran")

    for name in ("QuantumChannel", "average_fidelity", "average_purity"):
        monkeypatch.setattr(an, name, refuse)
    monkeypatch.setattr(gp, "_choi", refuse)
    for name in ("displacement", "position_operator", "annihilation", "thermal_probabilities",
                 "hermitian_part", "hermitian_expm"):
        monkeypatch.setattr(fc, name, refuse)
    for trap, want_rep, want_solved in zip(traps, want, solved):
        rep = an.gate_report(trap, 7.0, 1.0, anharmonic_order=None)
        assert (rep.fidelity, rep.purity, rep.tp_defect) == (want_rep.fidelity, want_rep.purity,
                                                             want_rep.tp_defect)
        rows = list(an.scan_rows(trap, [(7.0, 1.0), (2.0, 0.0)], anharmonic_order=None))
        assert [row["error"] for row in rows] == [None, None]
        assert (rows[0]["fidelity"], rows[0]["purity"]) == (want_rep.fidelity, want_rep.purity)
        basis = tm.build_mode_basis(trap, eta=7.0, n_bar_c=1.0)
        assert gp.condition_solver(basis, 1.0) == want_solved


def test_depolarizing_apply_formula():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    p = 0.3
    out = oracles.apply_channel(oracles.depolarizing_channel(p), rho)
    np.testing.assert_allclose(out, (1 - p) * rho + p * np.eye(4) / 4.0, atol=1e-12)


def test_from_kraus_phase_damping():
    p = 0.2
    kraus = [math.sqrt(1 - p) * np.eye(4),
             math.sqrt(p) * np.kron(np.diag([1.0, -1.0]), np.eye(2))]
    ch = oracles.kraus_channel(kraus)
    assert ch.trace_preservation_defect() < 1e-12
    assert oracles.is_completely_positive(ch, 1e-12)
    rho = np.full((4, 4), 0.25, dtype=complex)
    direct = sum(k @ rho @ k.conj().T for k in kraus)
    np.testing.assert_allclose(oracles.apply_channel(ch, rho), direct, atol=1e-12)


def test_lossy_kraus_has_tp_defect():
    ch = oracles.kraus_channel([0.5 * np.eye(4)])
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
        oracles.depolarizing_channel(1.5)


# --- branch separation ------------------------------------------------------


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_separation_analytic_endpoints_and_peak(exponent):
    """Closed form against the coherent-state Fock route at 0, t0 and t_g;
    on the commensurate trap t0 is the peak and the branches close at t_g."""
    basis = tm.build_mode_basis(tm.TrapSpec.normalized(exponent=exponent), eta=2.0)
    t = np.array([0.0, basis.flip_time, basis.gate_time])
    d = an.separation_analytic(basis, t)
    assert d[0] == 0.0
    np.testing.assert_allclose(d, an.separation_numeric(basis, t), rtol=0,
                               atol=1e-9 * basis.x0)
    if basis.commensurate:
        assert abs(d[2]) < 1e-12 * basis.x0
        assert d[1] == pytest.approx(1.5 * math.sqrt(3.0) * basis.x0 * 2.0, rel=1e-12)
    else:
        assert abs(d[2]) > 0.1 * basis.x0


def test_separation_numeric_tracks_analytic(spec):
    basis = tm.build_mode_basis(spec, eta=2.0)
    curve = an.separation_scan(basis, n_points=64)
    assert curve.converged and curve.dims == basis.dims
    assert np.abs(curve.analytic - curve.numeric).max() < 1e-9 * basis.x0


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 1.7, 2.0, 3.0])
@pytest.mark.parametrize("eta", [0.1, 2.0, 7.0])
def test_separation_scan_checks_its_one_column_against_the_closed_form(exponent, eta):
    """The Fock column is computed once, at the basis dims: at the default
    dims it meets the closed form far inside _CHECK_TOL, and a truncation
    too tight for the kick misses it and reports not converged."""
    basis = tm.build_mode_basis(tm.TrapSpec.normalized(exponent=exponent), eta=eta)
    curve = an.separation_scan(basis, n_points=32)
    assert curve.converged
    assert np.abs(curve.numeric - curve.analytic).max() <= 1e-12 * basis.x0
    assert not an.separation_scan(basis.with_dims((3, 3)), n_points=32).converged


def _four_ket_separation(basis, times, dims):
    """The separation from four coherent kets, one per mode and kick sign:
    the +k kick displaces x_c by +i eta_c and x_r by -i eta_r, the -k kick
    the other way."""
    def mean_x(alpha, width, nu, dim):
        ket = oracles.coherent_state(alpha, dim)
        phases = np.exp(-1j * nu * (np.arange(dim) + 0.5)[None, :] * times[:, None])
        kets = phases * ket[None, :]
        return np.einsum("tj,jk,tk->t", kets.conj(), fc.position_operator(dim, width),
                         kets).real

    n_c, n_r = dims
    d_c = (mean_x(1j * basis.eta_c, basis.width_c, basis.nu_c, n_c)
           - mean_x(-1j * basis.eta_c, basis.width_c, basis.nu_c, n_c))
    d_r = (mean_x(-1j * basis.eta_r, basis.width_r, basis.nu_r, n_r)
           - mean_x(1j * basis.eta_r, basis.width_r, basis.nu_r, n_r))
    return d_c + d_r / 2.0


@pytest.mark.parametrize("eta", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0, 1.7])
def test_separation_numeric_is_the_four_ket_route(exponent, eta):
    """One ket per mode from ModeBasis.kick_displacements, the -k branch
    taken as its parity image, gives the four-ket separation bit for bit,
    at the default dims separation_scan uses and at doubled ones."""
    basis = tm.build_mode_basis(tm.TrapSpec.normalized(exponent=exponent), eta=eta)
    times = np.linspace(0.0, basis.gate_time, 64)
    n_c, n_r = basis.dims
    for dims in ((n_c, n_r), (2 * n_c, 2 * n_r)):
        np.testing.assert_array_equal(an.separation_numeric(basis.with_dims(dims), times),
                                      _four_ket_separation(basis, times, dims))


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
    got = oracles.interaction_integral(v, energies, length)
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
    v = oracles.v_cor_operator(tm.anharmonic_expansion(spec, order=3), basis)
    energies = oracles.motional_energies_flat(basis)
    delta = energies[:, None] - energies[None, :]
    length = basis.gate_time
    expect, _ = scipy.integrate.quad_vec(
        lambda tau: np.exp(1j * delta * tau) * v, 0.0, length, epsrel=1e-13)
    got = oracles.interaction_integral(v, energies, length)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_interaction_integral_near_degenerate_pair():
    v = np.array([[0.0, 0.5 + 0.25j], [0.5 - 0.25j, 0.0]])
    got = oracles.interaction_integral(v, np.array([1.0, 1.0 + 1e-13]), 2.0)
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


@pytest.fixture(scope="module")
def kicked_basis(spec):
    """The kick-sized default basis at eta 7, n_bar_c 1: dims (162, 84)."""
    basis = tm.build_mode_basis(spec, eta=7.0, n_bar_c=1.0)
    assert basis.dims == (162, 84)
    return basis


@pytest.mark.parametrize("state_mode", ["pre_kick", "post_kick"])
def test_order_zero_gives_exactly_unit_fidelity(spec, kicked_basis, state_mode):
    """The empty expansion has K = 0 factors: mean and variance are 0."""
    rep = an.anharmonic_fidelity(kicked_basis, tm.anharmonic_expansion(spec, order=0),
                                 n_bar_c=1.0, state_mode=state_mode)
    assert (rep.f_cor, rep.variance, rep.mean_phase) == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("state_mode", ["pre_kick", "post_kick"])
def test_exact_order_zero_diagonalizes_nothing(spec, kicked_basis, state_mode, monkeypatch):
    """H = H0 returns every member with unit modulus; the two parity blocks
    here would have 6,804 rows each."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called for the empty expansion")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert an.exact_anharmonic_fidelity(
        kicked_basis, tm.anharmonic_expansion(spec, order=0), n_bar_c=1.0,
        state_mode=state_mode) == 1.0


@pytest.mark.parametrize("order", [3])
def test_memory_budget_counts_the_factor_entries(spec, monkeypatch, order):
    """The budget is checked against K (n_c^2 + n_r^2) before any factor is
    built; that count is the size of the stacks _integral_factors builds."""
    basis = tm.build_mode_basis(spec, eta=0.0, n_bar_c=1.0)
    expansion = tm.anharmonic_expansion(spec, order=order)
    a_fac, b_fac = an._integral_factors(basis, expansion)
    monkeypatch.setattr(an, "_MAX_FACTOR_ENTRIES", a_fac.size + b_fac.size)
    an.anharmonic_fidelity(basis, expansion)
    monkeypatch.setattr(an, "_MAX_FACTOR_ENTRIES", a_fac.size + b_fac.size - 1)
    with pytest.raises(ConfigError, match="budget"):
        an.anharmonic_fidelity(basis, expansion)


def test_hot_dims_refuse_or_skip_without_allocating(spec):
    """At dims (10**5, 10**5) the factor stacks would need terabytes: order 3
    raises ConfigError before allocating them, and order 0 returns F_cor 1
    in either picture with nothing sized by the dims."""
    import tracemalloc

    huge = tm.build_mode_basis(spec, eta=7.0, n_bar_c=0.0).with_dims((10**5, 10**5))
    order3, order0 = (tm.anharmonic_expansion(spec, order=k) for k in (3, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="order 0"):
            an.anharmonic_fidelity(huge, order3)
        reps = [an.anharmonic_fidelity(huge, order0, n_bar_c=1e4, state_mode=mode)
                for mode in ("pre_kick", "post_kick")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [rep.f_cor for rep in reps] == [1.0, 1.0]
    assert peak < 1e6


def _refuse_blocks(*args, **kwargs):
    raise AssertionError("called where the exact check must have refused")


@pytest.mark.parametrize("state_mode", ["pre_kick", "post_kick"])
def test_exact_memory_budget_counts_the_largest_block(spec, monkeypatch, state_mode):
    """The estimate is the largest block's eigensolve, five real s x s arrays
    plus O(s), post_kick's four complex M x chunk overlaps, and the fixed
    allocations: amp, 8 (pre_kick) or 24 (post_kick) n x n doubles per
    mode, 16 doubles per level and 2**14 bytes of small objects; a budget
    equal to it passes, and one less raises before any block is assembled."""
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(17, 12))
    expansion = tm.anharmonic_expansion(spec, order=3)
    largest = max((h for _, h in an._hamiltonian_blocks(basis, expansion)), key=len)
    assert largest.shape == (9 * 12, 9 * 12)  # the even levels 0, 2, ..., 16
    chunk = min(an._OVERLAP_CHUNK, len(largest))
    overlaps = 4 * 16 * (17 * 12) * chunk if state_mode == "post_kick" else 0
    squares = 24 if state_mode == "post_kick" else 8
    fixed = 16 * (17 * 12) + 8 * squares * (17**2 + 12**2) + 16 * 8 * (17 + 12) + 2**14
    peak = an._exact_peak_bytes(basis, state_mode)
    assert peak == 5 * largest.nbytes + 16 * 8 * len(largest) + overlaps + fixed
    monkeypatch.setattr(an, "_MAX_EXACT_BYTES", peak)
    assert an.exact_anharmonic_fidelity(basis, expansion, 1.0, state_mode) < 1.0
    monkeypatch.setattr(an, "_MAX_EXACT_BYTES", peak - 1)
    monkeypatch.setattr(an, "_hamiltonian_blocks", _refuse_blocks)
    with pytest.raises(ConfigError, match="budget"):
        an.exact_anharmonic_fidelity(basis, expansion, 1.0, state_mode)


def test_exact_memory_budget_admits_the_post_kick_default(spec, kicked_basis, monkeypatch):
    """Estimated here, never run: the n_bar_c 1 post_kick default (1.9 GB
    measured) and n_bar_c 2 are under the budget, n_bar_c 3 post_kick is
    above it; the check at dims (907, 474), 1.9 TB, raises with nothing
    allocated."""
    import tracemalloc

    assert an._exact_peak_bytes(kicked_basis, "post_kick") <= an._MAX_EXACT_BYTES
    warm = tm.build_mode_basis(spec, eta=7.0, n_bar_c=2.0)
    assert an._exact_peak_bytes(warm, "post_kick") <= an._MAX_EXACT_BYTES
    hot = tm.build_mode_basis(spec, eta=7.0, n_bar_c=3.0)
    assert an._exact_peak_bytes(hot, "post_kick") > an._MAX_EXACT_BYTES
    huge = tm.build_mode_basis(spec, eta=0.0, n_bar_c=164.0, dims=(907, 474))
    monkeypatch.setattr(an, "_hamiltonian_blocks", _refuse_blocks)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"dims \(907, 474\).*budget"):
            an.exact_anharmonic_fidelity(huge, tm.anharmonic_expansion(spec, order=3), 164.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("exponent, eta, dims, state_mode", [
    pytest.param(exponent, eta, dims, mode, id=f"{name}-{mode}")
    for name, exponent, eta, dims in [
        ("3.0-dims0", 5.0 / 3.0, 3.0, (17, 12)),
        ("7.0-dims1", 5.0 / 3.0, 7.0, (24, 19)),
        ("3.0-dims2", 5.0 / 3.0, 3.0, (3, 2)),
        ("3.0-dims3", 5.0 / 3.0, 3.0, (6, 4)),
        ("exponent2-3.0-dims2", 2.0, 3.0, (3, 2)),
        ("exponent2-3.0-dims3", 2.0, 3.0, (6, 4)),
    ]
    for mode in ("pre_kick", "post_kick") if exponent != 2.0 or mode == "pre_kick"])
def test_exact_traced_peak_is_within_the_estimate(exponent, eta, dims, state_mode):
    """All that one call allocates through numpy and Python, at its peak,
    fits the estimate, on both trap kinds (post_kick on the commensurate
    one, the only trap it runs on).  eigh's working copy and
    dsyevd's workspace, which the estimate also counts, are malloc'ed out
    of tracemalloc's sight; at small dims the fixed allocations and the
    small-object allowance carry the bound."""
    import tracemalloc

    spec = tm.TrapSpec.normalized(exponent=exponent)
    basis = tm.build_mode_basis(spec, eta=eta, n_bar_c=1.0, dims=dims)
    expansion = tm.anharmonic_expansion(spec, order=3)
    tracemalloc.start()
    try:
        an.exact_anharmonic_fidelity(basis, expansion, 1.0, state_mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= an._exact_peak_bytes(basis, state_mode)


def _whole_block_exact(basis, expansion, n_bar_c, state_mode):
    """The exact overlap with each block summed as the dense
    diag(E) + sum_a kron(X_c^a[lv, lv], Q_a) and each overlap contracted
    over all of a block's eigenvector columns at once: pre_kick as one real
    product of v^2 with the (Re, Im) columns of the decay vector, the
    contraction the route makes, and both post_kick overlaps,
    (D^dag Phi)^T and D^T on the block's levels, as dense complex np.kron
    products, shared with no production helper."""
    n_c, n_r = basis.dims
    t_g = basis.gate_time
    e_c, e_r = tm.mode_energies(basis)
    d_c, d_r = basis.kick_displacements()
    left_c = d_c.conj().T * np.exp(1j * e_c * t_g)
    left_r = d_r.conj().T * np.exp(1j * e_r * t_g)
    p_c, p_r = basis.thermal_weights(n_bar_c)
    amp = np.zeros((n_c, n_r), dtype=complex)
    for lv in (np.arange(0, n_c, 2), np.arange(1, n_c, 2)):
        v_cor = np.zeros((lv.size * n_r, lv.size * n_r))
        for _, x_pow, q in tm.v_cor_factors(expansion, basis):
            v_cor += np.kron(x_pow[np.ix_(lv, lv)], q)
        h = fc.hermitian_part(np.diag((e_c[lv, None] + e_r).ravel()) + v_cor)
        w, v = np.linalg.eigh(h)
        decay = np.exp(-1j * w * t_g)
        if state_mode == "pre_kick":
            squares = (v * v) @ decay.view(float).reshape(-1, 2)
            amp[lv] = squares.view(complex).reshape(lv.size, -1)
        else:
            left = np.kron(left_c[:, lv], left_r) @ v
            right = np.kron(d_c.T[:, lv], d_r.T) @ v
            amp += ((left * right) @ decay).reshape(amp.shape)
    return float(p_c @ (np.abs(amp) ** 2) @ p_r)


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
@pytest.mark.parametrize("eta, n_bar_c, dims, scale", [
    pytest.param(3.0, 1.0, (16, 12), 32.0, id="3.0-dims0-32.0"),
    pytest.param(7.0, 1.0, (24, 19), 1.0, id="7.0-dims1-1.0"),
    pytest.param(3.0, 0.0, (16, 12), 32.0, id="nbar0-3.0-dims0-32.0"),
])
def test_exact_post_kick_chunks_move_only_summation_order(
        spec, monkeypatch, eta, n_bar_c, dims, scale, chunk):
    """Contracting the one-sided real-gauge post_kick overlaps over chunks
    of 1, 7 (which divides no block's 96 or 228 rows) or all eigenvector
    columns gives the two-sided whole-block figure to summation order, at
    n_bar_c 1 and at n_bar_c 0, where one member has weight and every
    member is still overlapped.  Every point has 1 - F above 1e-3, where one
    ulp of F is well inside 1e-12 of 1 - F."""
    basis = tm.build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c, dims=dims)
    assert basis.commensurate
    expansion = tm.anharmonic_expansion(spec, order=3).scaled(scale)
    monkeypatch.setattr(an, "_OVERLAP_CHUNK", chunk)
    ref = 1.0 - _whole_block_exact(basis, expansion, n_bar_c, "post_kick")
    got = 1.0 - an.exact_anharmonic_fidelity(basis, expansion, n_bar_c, "post_kick")
    assert ref > 1e-3
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("order", [3, 0])
def test_exact_post_kick_off_the_ratio_raises_before_any_block(monkeypatch, order):
    """post_kick runs on the commensurate trap alone: off the ratio it
    raises ValueError before the budget is estimated or any block is
    assembled, at order 0 too."""
    spec = tm.TrapSpec.normalized(exponent=2.0, lamb_dicke=0.45)
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    assert not basis.commensurate
    monkeypatch.setattr(an, "_exact_peak_bytes", _refuse_blocks)
    monkeypatch.setattr(an, "_hamiltonian_blocks", _refuse_blocks)
    with pytest.raises(ValueError, match="commensurate trap only"):
        an.exact_anharmonic_fidelity(basis, tm.anharmonic_expansion(spec, order=order),
                                     1.0, "post_kick")


@pytest.mark.parametrize("exponent, dims, scale", [
    pytest.param(exponent, dims, scale, id=f"{name}-{dims[0]},{dims[1]}-{scale:g}")
    for name, exponent in (("paper", 5.0 / 3.0), ("exponent2", 2.0))
    for dims, scale in (((3, 2), 1.0), ((6, 4), 1.0), ((16, 12), 1.0), ((16, 12), 32.0),
                        ((17, 12), 1.0), ((24, 19), 1.0), ((24, 19), 8.0), ((24, 19), 32.0))
    if exponent != 2.0 or dims[0] <= 16])
def test_exact_pre_kick_equals_the_whole_block_route_bit_for_bit(exponent, dims, scale):
    """pre_kick takes no chunks, its blocks, summed in place, are the dense
    sums bit for bit, and the oracle contracts v^2 with decay as the route
    does, so the two figures agree to the last bit at every pre_kick point
    of the exact tests (n_bar_c 1; the kick does not enter pre kick)."""
    spec = tm.TrapSpec.normalized(exponent=exponent, lamb_dicke=0.45)
    expansion = tm.anharmonic_expansion(spec, order=3).scaled(scale)
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=dims)
    got = an.exact_anharmonic_fidelity(basis, expansion, 1.0, "pre_kick")
    assert got < 1.0
    assert got == _whole_block_exact(basis, expansion, 1.0, "pre_kick")


def test_variance_beyond_double_range_raises_overflow(anharmonic_setup):
    """A coupling so large that the phase variance leaves double range
    raises OverflowError, which the CLI reports as a config error."""
    basis, expansion = anharmonic_setup
    with pytest.raises(OverflowError, match="not finite"):
        an.anharmonic_fidelity(basis.with_dims((8, 6)), expansion.scaled(1e300), n_bar_c=1.0)


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


def _factored_pre_kick_variance(basis, expansion, n_bar_c):
    """Var W over the undisplaced thermal state from the Kronecker factors
    of the interaction integral, on any trap: the factored route, run
    directly through _integral_factors and _weighted_gram."""
    a_fac, b_fac = an._integral_factors(basis, expansion)
    p_c, p_r = basis.thermal_weights(n_bar_c)
    mean = np.real((np.diagonal(a_fac, axis1=1, axis2=2) @ p_c)
                   @ (np.diagonal(b_fac, axis1=1, axis2=2) @ p_r))
    second = np.real(np.sum(an._weighted_gram(a_fac, p_c) * an._weighted_gram(b_fac, p_r)))
    return float(second - mean * mean)


@pytest.mark.parametrize("n_bar_c", [0.5, 1.0, 3.0])
def test_pre_kick_variance_is_the_resonant_closed_form(n_bar_c):
    """On the paper's trap t_g = T is a whole period of every level gap, so
    W = T V_res, the part of V_cor that commutes with H0:
    V_res = g (a^dag^2 b + a^2 b^dag), g = c_21 w_c^2 w_r, and pre kick
    1 - F_cor = Var W = 4 g^2 T^2 n^2 (n + 1)^2/(2n + 1) at n = n_bar_c.
    The Fock route (the factored integral) at 3x the zero-kick default dims
    holds it to 1e-9, and so does the box sum F_cor reports."""
    spec = tm.TrapSpec.normalized()
    expansion = tm.anharmonic_expansion(spec)
    basis = tm.build_mode_basis(spec, eta=0.0, n_bar_c=n_bar_c)
    basis = basis.with_dims((3 * basis.dims[0], 3 * basis.dims[1]))
    gt_sq = (expansion.coefficients[(2, 1)] * basis.width_c**2 * basis.width_r
             * basis.gate_time)**2
    assert 4.0 * gt_sq == pytest.approx(1.63091e-6, rel=1e-5)
    closed = 4.0 * gt_sq * n_bar_c**2 * (n_bar_c + 1.0)**2 / (2.0 * n_bar_c + 1.0)
    assert _factored_pre_kick_variance(basis, expansion, n_bar_c) == pytest.approx(
        closed, rel=1e-9)
    rep = an.anharmonic_fidelity(basis, expansion, n_bar_c=n_bar_c)
    assert rep.variance == pytest.approx(closed, rel=1e-9)
    assert rep.f_cor == 1.0 - rep.variance


@pytest.mark.parametrize("scale", [1.0, 2.0, 32.0])
def test_box_closed_form_is_the_factored_pre_kick_sum(scale):
    """On the paper's trap the pre-kick F_cor is the closed form over the
    truncated box, and the factored integral of V_cor's Fock factors is the
    same sum plus sinc leakage: within 1e-14 relative wherever the factored
    variance has resonant weight, and exactly 0.0 where it reads leakage
    alone (n_bar_c 0, where only |0, 0> is occupied, or n_c <= 2, where no
    a^dag^2 fits in the box), with mean_phase exactly 0.0 everywhere."""
    spec = tm.TrapSpec.normalized(lamb_dicke=0.45)
    expansion = tm.anharmonic_expansion(spec).scaled(scale)
    for n_bar_c, dims in itertools.product(
            (0.0, 0.1, 0.5, 1.0, 3.0, 30.0),
            ((2, 2), (2, 7), (3, 2), (5, 4), (16, 12), (24, 19), (40, 7), (7, 40))):
        basis = tm.build_mode_basis(spec, eta=0.0, n_bar_c=n_bar_c, dims=dims)
        assert basis.commensurate
        factored = _factored_pre_kick_variance(basis, expansion, n_bar_c)
        rep = an.anharmonic_fidelity(basis, expansion, n_bar_c)
        assert rep.mean_phase == 0.0
        if n_bar_c == 0.0 or dims[0] <= 2:
            assert rep.variance == 0.0 and rep.f_cor == 1.0
            assert abs(factored) <= 1e-30, (n_bar_c, dims)
        else:
            assert factored > 1e-30, (n_bar_c, dims)
            assert abs(rep.variance - factored) <= 1e-14 * factored, (n_bar_c, dims)


@pytest.mark.parametrize("exponent, state_mode, factored", [
    (5.0 / 3.0, "pre_kick", False), (5.0 / 3.0, "post_kick", True), (2.0, "pre_kick", True)])
def test_only_the_paper_trap_pre_kick_skips_the_factors(monkeypatch, exponent, state_mode,
                                                         factored):
    """basis.commensurate picks the route: pre kick on the paper's trap
    neither builds V_cor's factors nor integrates them, and post kick or at
    exponent 2 both happen, once each."""
    spec = tm.TrapSpec.normalized(exponent=exponent, lamb_dicke=0.45)
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    expansion = tm.anharmonic_expansion(spec)
    calls = []

    def spying(name, real):
        def spy(*args):
            calls.append(name)
            return real(*args)
        return spy

    v_cor = spying("v_cor_factors", tm.v_cor_factors)
    monkeypatch.setattr(tm, "v_cor_factors", v_cor)
    monkeypatch.setattr(an, "v_cor_factors", v_cor)
    monkeypatch.setattr(an, "_integral_factors",
                        spying("_integral_factors", an._integral_factors))
    assert an.anharmonic_fidelity(basis, expansion, 1.0, state_mode).variance > 0.0
    assert calls == (["_integral_factors", "v_cor_factors"] if factored else [])


@pytest.mark.parametrize("n_bar_c", [0.0, 1.0])
@pytest.mark.parametrize("eta", [2.0, 7.0])
def test_post_kick_variance_is_the_resonant_closed_form(eta, n_bar_c):
    """post_kick conjugates W = T V_res with the kick of the +k branch,
    alpha = i eta_c and beta = -i eta_r per mode:
    Var W+ = Var W + g^2 T^2 [4 |alpha|^2 A + 2 |beta|^2 B]
             + g^2 T^2 [|alpha|^4 (2 n_r + 1) + 4 |alpha|^2 |beta|^2 (2n + 1)],
    A = (n + 1) n_r + n (n_r + 1), B = (n + 1)^2 + n^2, n = n_bar_c and
    n_r = n^2/(2n + 1).  The Fock route at 1.5x the kick default dims
    holds it to 1e-9 (2.008362e-3 at eta 7, n_bar_c 1)."""
    spec = tm.TrapSpec.normalized()
    expansion = tm.anharmonic_expansion(spec)
    basis = tm.build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c)
    basis = basis.with_dims((3 * basis.dims[0] // 2, 3 * basis.dims[1] // 2))
    gt_sq = (expansion.coefficients[(2, 1)] * basis.width_c**2 * basis.width_r
             * basis.gate_time)**2
    n, n_r = n_bar_c, tm.relative_occupation(n_bar_c)
    a_sq, b_sq = basis.eta_c**2, basis.eta_r**2
    closed = gt_sq * (4.0 * n**2 * (n + 1.0)**2 / (2.0 * n + 1.0)
                      + 4.0 * a_sq * ((n + 1.0) * n_r + n * (n_r + 1.0))
                      + 2.0 * b_sq * ((n + 1.0)**2 + n**2)
                      + a_sq**2 * (2.0 * n_r + 1.0) + 4.0 * a_sq * b_sq * (2.0 * n + 1.0))
    if (eta, n_bar_c) == (7.0, 1.0):
        assert closed == pytest.approx(2.008362e-3, rel=1e-6)
    rep = an.anharmonic_fidelity(basis, expansion, n_bar_c, "post_kick")
    assert rep.variance == pytest.approx(closed, rel=1e-9)


def test_both_routes_build_the_kick_once(spec, monkeypatch):
    """Both routes of a post_kick evaluation read the kick of one basis,
    which builds it once: one Fock displacement per mode, not one per mode
    and route, as in the dephasing benchmark, which runs both on one basis."""
    real, dims = fc.displacement, []

    def counting(alpha, dim):
        dims.append(dim)
        return real(alpha, dim)

    monkeypatch.setattr(fc, "displacement", counting)
    basis = tm.build_mode_basis(spec, eta=7.0, n_bar_c=1.0, dims=(12, 10))
    expansion = tm.anharmonic_expansion(spec)
    assert an.exact_anharmonic_fidelity(basis, expansion, 1.0, "post_kick") < 1.0
    assert an.anharmonic_fidelity(basis, expansion, 1.0, "post_kick").f_cor < 1.0
    assert dims == [12, 10]


def test_pre_and_post_kick_pictures_agree_when_small(spec):
    expansion = tm.anharmonic_expansion(spec, order=3)
    basis = tm.build_mode_basis(spec, eta=0.45, n_bar_c=1.0, dims=(28, 22))
    pre = an.anharmonic_fidelity(basis, expansion, n_bar_c=1.0, state_mode="pre_kick")
    post = an.anharmonic_fidelity(basis, expansion, n_bar_c=1.0, state_mode="post_kick")
    assert pre.f_cor > 0.999995
    assert post.f_cor > 0.999995
    assert abs(pre.f_cor - post.f_cor) < 1e-6


def _dense_dephasing(basis, expansion, n_bar_c, state_mode):
    """(<W>, Var W) from the dense M x M interaction integral of the dense
    V_cor, conjugated with the kron of the kick displacements post kick."""
    tilde = oracles.interaction_integral(oracles.v_cor_operator(expansion, basis),
                                    oracles.motional_energies_flat(basis), basis.gate_time)
    if state_mode == "post_kick":
        d = np.kron(*basis.kick_displacements())
        tilde = d.conj().T @ tilde @ d
    p = np.kron(*basis.thermal_weights(n_bar_c))
    mean = float(np.real(p @ np.diag(tilde)))
    return mean, float(p @ (np.abs(tilde) ** 2).sum(axis=1)) - mean * mean


@pytest.mark.parametrize("state_mode", ["pre_kick", "post_kick"])
@pytest.mark.parametrize("exponent, order", [(5.0 / 3.0, 3), (2.0, 3)])
def test_factored_dephasing_matches_dense_integral(exponent, order, state_mode):
    spec = tm.TrapSpec.normalized(exponent=exponent, lamb_dicke=0.45)
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    expansion = tm.anharmonic_expansion(spec, order=order)
    rep = an.anharmonic_fidelity(basis, expansion, 1.0, state_mode)
    mean, var = _dense_dephasing(basis, expansion, 1.0, state_mode)
    assert var > 1e-7
    assert abs(rep.variance - var) <= 1e-12 * var
    assert abs(rep.mean_phase - mean) <= 1e-14


def test_post_kick_dephasing_converged_at_kick_sized_dims(spec):
    """At the default (kick-sized) dims of (eta 7, n_bar_c 1) the factored
    route is cheap, and 16 more levels per mode leave the variance alone."""
    expansion = tm.anharmonic_expansion(spec, order=3)
    basis = tm.build_mode_basis(spec, eta=7.0, n_bar_c=1.0)
    assert basis.dims == (162, 84)
    bigger = basis.with_dims((basis.dims[0] + 16, basis.dims[1] + 16))
    var = an.anharmonic_fidelity(basis, expansion, 1.0, "post_kick").variance
    ref = an.anharmonic_fidelity(bigger, expansion, 1.0, "post_kick").variance
    assert var > 1e-3
    assert abs(var - ref) <= 1e-12 * ref


def _dense_exact_fidelity(basis, expansion, n_bar_c, state_mode):
    """The exact overlap from the dense gate unitary: echo = e^{i H0 t_g}
    e^{-i H t_g}, conjugated with the kick displacement from both sides in
    the post-kick picture."""
    energies = oracles.motional_energies_flat(basis)
    h = oracles.motional_hamiltonian(basis, oracles.v_cor_operator(expansion, basis))
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


@pytest.mark.parametrize("exponent, scale, state_mode", [
    pytest.param(exponent, scale, mode, id=f"{exponent}-3-{scale}-{mode}")
    for exponent in (5.0 / 3.0, 2.0) for scale in (1.0, 32.0)
    for mode in ("pre_kick", "post_kick") if exponent != 2.0 or mode == "pre_kick"])
def test_exact_fidelity_matches_dense_echo(exponent, scale, state_mode):
    """Order 3 on both trap kinds, post_kick on the commensurate one."""
    spec = tm.TrapSpec.normalized(exponent=exponent, lamb_dicke=0.45)
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    expansion = tm.anharmonic_expansion(spec, order=3).scaled(scale)
    assert len(list(an._hamiltonian_blocks(basis, expansion))) == 2
    got = an.exact_anharmonic_fidelity(basis, expansion, 1.0, state_mode)
    assert got < 1.0 - 1e-7
    assert abs(got - _dense_exact_fidelity(basis, expansion, 1.0, state_mode)) <= 1e-14


@pytest.mark.parametrize("state_mode, dims, reference", [
    ("pre_kick", (24, 19), 0.9999978254882697),
    ("post_kick", (28, 22), 0.9981852007170257),
])
def test_exact_fidelity_never_builds_the_dense_hamiltonian(
        spec, state_mode, dims, reference):
    """The exact route runs with no dense V_cor or H in the package (the
    dense forms are test oracles) and still gives the benchmark's
    f_cor_exact figures (eta 7, n_bar_c 1, order 3)."""
    for module in (tm, an):
        assert not hasattr(module, "v_cor_operator")
        assert not hasattr(module, "motional_hamiltonian")
    basis = tm.build_mode_basis(spec, eta=7.0, n_bar_c=1.0, dims=dims)
    got = an.exact_anharmonic_fidelity(basis, tm.anharmonic_expansion(spec, order=3),
                                       1.0, state_mode)
    assert abs(got - reference) <= 1e-9 * (1.0 - reference)


@pytest.mark.parametrize("order", [3])
def test_hamiltonian_blocks_match_dense_hamiltonian(spec, order):
    """A mirror-symmetric expansion leaves the even/odd x_c cross block of
    the dense H exactly zero, and each block assembled from v_cor_factors is
    the matching block of the dense H."""
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    expansion = tm.anharmonic_expansion(spec, order=order)
    h = oracles.motional_hamiltonian(basis, oracles.v_cor_operator(expansion, basis))
    n_c, n_r = basis.dims
    flat = [(np.arange(p, n_c, 2)[:, None] * n_r + np.arange(n_r)).ravel() for p in (0, 1)]
    assert not np.any(h[np.ix_(flat[0], flat[1])])
    blocks = list(an._hamiltonian_blocks(basis, expansion))
    assert [lv.tolist() for lv, _ in blocks] == [list(range(0, n_c, 2)),
                                                 list(range(1, n_c, 2))]
    for (_, block), idx in zip(blocks, flat):
        ref = h[np.ix_(idx, idx)]
        assert np.abs(block - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_exact_check_symmetrizes_the_factors_not_the_blocks(monkeypatch, exponent):
    """V_cor's symmetry is settled once, in v_cor_factors: while the exact
    check runs, in both modes where the trap admits them, hermitian_part
    sees no array with more rows than one mode has, and every factor and
    every block of H is exactly symmetric, on the paper's trap and at
    exponent 2, which has no x_c^2 x_r term."""
    spec = tm.TrapSpec.normalized(exponent=exponent, lamb_dicke=0.45)
    basis = tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12))
    expansion = tm.anharmonic_expansion(spec, order=3)
    hermitian_part, rows = fc.hermitian_part, []

    def spy(h):
        rows.append(len(h))
        return hermitian_part(h)

    monkeypatch.setattr(fc, "hermitian_part", spy)
    for mode in ("pre_kick", "post_kick") if basis.commensurate else ("pre_kick",):
        assert an.exact_anharmonic_fidelity(basis, expansion, 1.0, mode) < 1.0
    assert rows and max(rows) <= max(basis.dims)
    for _, x_pow, q in tm.v_cor_factors(expansion, basis):
        assert np.array_equal(x_pow, x_pow.T) and np.array_equal(q, q.T)
    for _, h in an._hamiltonian_blocks(basis, expansion):
        assert np.array_equal(h, h.T)


@pytest.mark.parametrize("width", ["width_c", "width_r"])
def test_asymmetric_v_cor_factor_raises_before_any_block(monkeypatch, width):
    """Skewing the top x_c or x_r power by 1e-3 leaves its factor asymmetric
    far beyond 10*TOL_HERM (Q_0 = c X_r^3 by about 1e-6): v_cor_factors
    raises InvalidOperatorError, and every route that forms the factors
    with it, before a Gram matrix or a block of H is formed: the exact
    check in both modes and post_kick on the paper's trap, both routes at
    exponent 2.  The paper's pre-kick closed form forms no factor."""
    specs = [tm.TrapSpec.normalized(exponent=p, lamb_dicke=0.45) for p in (5.0 / 3.0, 2.0)]
    (paper, paper_cubic), (off_ratio, off_cubic) = [
        (tm.build_mode_basis(spec, eta=3.0, n_bar_c=1.0, dims=(16, 12)),
         tm.anharmonic_expansion(spec, order=3)) for spec in specs]
    skew = {getattr(paper, width), getattr(off_ratio, width)}
    position_powers, hamiltonian_blocks = tm._position_powers, an._hamiltonian_blocks
    blocks = []

    def skewed(dim, w, max_power):
        powers = position_powers(dim, w, max_power)
        if w in skew:
            powers[-1][0, -1] += 1e-3
        return powers

    def recorded_blocks(*args):
        for block in hamiltonian_blocks(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(tm, "_position_powers", skewed)
    monkeypatch.setattr(an, "_weighted_gram", _refuse_blocks)
    monkeypatch.setattr(an, "_hamiltonian_blocks", recorded_blocks)
    for basis, expansion in ((paper, paper_cubic), (off_ratio, off_cubic)):
        with pytest.raises(InvalidOperatorError, match="not hermitian"):
            tm.v_cor_factors(expansion, basis)
    for route, basis, expansion, mode in (
            (an.anharmonic_fidelity, paper, paper_cubic, "post_kick"),
            (an.exact_anharmonic_fidelity, paper, paper_cubic, "pre_kick"),
            (an.exact_anharmonic_fidelity, paper, paper_cubic, "post_kick"),
            (an.anharmonic_fidelity, off_ratio, off_cubic, "pre_kick"),
            (an.exact_anharmonic_fidelity, off_ratio, off_cubic, "pre_kick")):
        with pytest.raises(InvalidOperatorError, match="not hermitian"):
            route(basis, expansion, 1.0, mode)
    assert blocks == []
    assert an.anharmonic_fidelity(paper, paper_cubic, 1.0).f_cor < 1.0


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
    assert "flip_mode" not in d and "margin" not in d["conditions"]
    assert d["conditions"]["well_conditioned"] is True


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_gate_report_matches_the_two_dephasing_factor_model(exponent):
    """The harmonic gate in closed form (README): near the profile's
    inflection point the flip angle is linear in ion 1's thermal offset,
    with slope pi/(2D), so qubit 1 dephases in the sigma_x basis with
    lambda_1 = exp(-pi^2 Delta^2/(2 D^2)); off the ratio the residual
    displacement dephases qubit 2 with lambda_2 = exp(log_damp).  Then
    F = ((1 + lambda_1)(1 + lambda_2) + 1)/5 and, on the commensurate trap,
    1 - P = (1 - lambda_1^2)/3.  The model drops the slope's variation
    across the branch separation: on the commensurate trap the relative
    error in 1 - F and in 1 - P stays within 0.6/(4N + 1/2)^2 (measured up
    to 0.516 and 0.501 over that), off it within 2.5e-3 (measured 1.8e-3)."""
    spec = tm.TrapSpec.normalized(exponent=exponent)
    for n, eta, n_bar in itertools.product((3, 5, 10), (2.0, 7.0, 28.0), (0.0, 1.0, 10.0)):
        rep = an.gate_report(spec, eta, n_bar, rabi_cycles=n, anharmonic_order=None)
        basis = tm.build_mode_basis(spec, eta=eta, n_bar_c=n_bar)
        assert basis.commensurate == (exponent != 2.0)
        lam_1 = math.exp(-((math.pi * rep.condition.delta / rep.condition.big_d) ** 2) / 2.0)
        lam_2 = 1.0 if basis.commensurate else math.exp(gp._residual_displacement(basis, n_bar)[0])
        loss = 1.0 - ((1.0 + lam_1) * (1.0 + lam_2) + 1.0) / 5.0
        tol = 0.6 / (4 * n + 0.5) ** 2 if basis.commensurate else 2.5e-3
        assert abs(loss / (1.0 - rep.fidelity) - 1.0) <= tol
        if basis.commensurate:
            assert abs((1.0 - lam_1**2) / 3.0 / (1.0 - rep.purity) - 1.0) <= tol


def test_gate_report_linearity_flag_trips_when_hot(spec):
    # at eta=2, n_bar_c=0.5 the profile-linearity margin is just violated
    rep = an.gate_report(spec, eta=2.0, n_bar_c=0.5, anharmonic_order=None,
                         dims=(28, 16))
    assert not rep.condition.satisfied["profile_linearity"]
    assert not rep.condition.well_conditioned


@pytest.mark.parametrize("eta", [1e-5, 1e-12, 7e-156, 1e-200, 1e-300, 5e-324])
@pytest.mark.parametrize("exponent, nu_c", [(5.0 / 3.0, 1.0), (2.0, 1.0), (5.0 / 3.0, 1e20)],
                         ids=["paper", "exponent_2", "nu_c_1e20"])
def test_gate_report_weak_kick_does_not_converge(eta, exponent, nu_c):
    """A kick too weak for the profile to be resolved: W is far below Delta,
    the flip angle is exactly 0 at most nodes, and the Gram quadrature
    raises NonConvergenceError at its cap, with no warning (the suite turns
    any into a failure), down to the least double.  Where D itself
    underflows (5e-324 at nu_c 1e20) the solver refuses the kick."""
    spec = oracles.rescaled_trap(tm.TrapSpec.normalized(exponent=exponent), nu_c=nu_c)
    if (eta, nu_c) == (5e-324, 1e20):
        with pytest.raises(ConfigError, match="D that underflows to 0"):
            an.gate_report(spec, eta, 0.0, anharmonic_order=None)
    else:
        with pytest.raises(NonConvergenceError, match="did not settle"):
            an.gate_report(spec, eta, 0.0, anharmonic_order=None)


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0])
def test_figures_do_not_depend_on_the_units(exponent):
    """nu_c and m only choose units: the same trap restated at other nu_c and
    m, by dimensional analysis alone, keeps its ratio x_e/x0 and moves no
    figure.  Measured: nu_c 4.4e-16 and x_e/x0 2.7e-15 relative, the gate's
    figures 3.3e-16, the exact F_cor 6.7e-16."""
    natural = tm.TrapSpec.normalized(exponent=exponent)
    expansion = tm.anharmonic_expansion(natural, order=3)
    ref = an.gate_report(natural, 7.0, 1.0, anharmonic_order=3)
    ref_exact = an.exact_anharmonic_fidelity(
        tm.build_mode_basis(natural, eta=7.0, n_bar_c=1.0, dims=(16, 12)), expansion, 1.0)
    for nu_c, mass in itertools.product((1e-6, 1e6, 1e20), (1e-6, 1.0, 1e6)):
        spec = oracles.rescaled_trap(natural, nu_c=nu_c, mass=mass)
        basis = tm.build_mode_basis(spec, eta=7.0, n_bar_c=1.0, dims=(16, 12))
        assert basis.nu_c == pytest.approx(nu_c, rel=2e-15)
        assert basis.x_e / basis.x0 == pytest.approx(820.0, rel=1e-14)
        rep = an.gate_report(spec, 7.0, 1.0, anharmonic_order=3)
        for got, want in ((rep.fidelity, ref.fidelity), (rep.purity, ref.purity),
                          (rep.f_cor, ref.f_cor)):
            assert abs(got - want) <= 4.4e-16, (nu_c, mass)
        exact = an.exact_anharmonic_fidelity(basis, tm.anharmonic_expansion(spec, order=3), 1.0)
        assert abs(exact - ref_exact) <= 2e-15, (nu_c, mass)


def test_gate_report_disabled_pulse_identity_target(spec):
    """No flip: refocusing cancels the branch phases and the channel is the
    frame rotation alone, cold or hot.  gate_report scores only against
    the conditional flip, so the dark pulse is run through gate_channel."""
    frame = oracles.frame_rotation(gp._FRAME_FACTOR)
    for n_bar_c in (0.0, 1.0):
        basis = tm.build_mode_basis(spec, eta=2.0, n_bar_c=n_bar_c)
        pulse, _ = gp.build_schedule(basis, n_bar_c=n_bar_c)
        dark = replace(pulse, theta0=0.0)
        channel = an.QuantumChannel(gp.gate_channel(basis, dark, n_bar_c=n_bar_c).choi)
        assert an.average_fidelity(channel, frame) == pytest.approx(1.0, abs=1e-9)
        assert an.average_purity(channel) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("ratio", [3.0, 21.0])
def test_harmonic_gate_depends_only_on_d_over_delta(spec, ratio):
    """On the commensurate trap W = (4N + 1/2) D, the profile centre sits W
    from ion 1's equilibrium and the pulse area is fixed, so the flip angle
    at ion 1's offset Delta z reads only z and D/Delta = eta/eta_bound(n_bar_c):
    fidelity and purity are one curve of that ratio, however hot the motion
    (21 is the golden point)."""
    basis = tm.build_mode_basis(spec, eta=1.0, dims=(2, 2))  # eta_bound reads no eta
    figures = []
    for n_bar_c in (0.0, 0.5, 1.0, 3.0, 10.0, 30.0):
        rep = an.gate_report(spec, ratio * basis.eta_bound(n_bar_c), n_bar_c,
                             anharmonic_order=None)
        assert rep.condition.eta_bound_ratio == pytest.approx(ratio, rel=1e-14)
        figures.append((rep.fidelity, rep.purity))
    for fidelity, purity in figures[1:]:
        assert abs(fidelity - figures[0][0]) <= 1e-13
        assert abs(purity - figures[0][1]) <= 1e-13


@pytest.mark.parametrize("exponent, eta, n_bar_c", [(5.0 / 3.0, 7.0, 0.0), (2.0, 4.0, 1.0),
                                                    (1.7, 4.0, 1.0)])
def test_harmonic_gate_does_not_depend_on_the_separation(exponent, eta, n_bar_c):
    """The flip reads ion 1's offset from its equilibrium, never where the
    trap puts the ion, and at a fixed exponent the mode geometry in units of
    x0 does not change with the separation.  So fidelity and purity hold to
    1e-12 from 820 x0 to 1e14 x0, where ulp(x_e/2) is about 0.008 x0 (a
    profile centre stored as x_e/2 + W moved them by up to 1.8e-7 there)."""
    def figures(separation_in_x0):
        spec = tm.TrapSpec.normalized(exponent=exponent, separation_in_x0=separation_in_x0)
        rep = an.gate_report(spec, eta, n_bar_c, anharmonic_order=None)
        return rep.fidelity, rep.purity

    fidelity, purity = figures(820.0)
    for separation_in_x0 in (1e6, 1e9, 1e12, 1e14):
        moved = figures(separation_in_x0)
        assert abs(moved[0] - fidelity) <= 1e-12, separation_in_x0
        assert abs(moved[1] - purity) <= 1e-12, separation_in_x0


def test_scan_keeps_order_and_records_failures(spec):
    points = [(1.2, 0.0), (-1.0, 0.0), (1.0, 0.0)]
    rows = an.scan(spec, points, anharmonic_order=None, dims=(10, 8))
    assert [(r["eta"], r["n_bar_c"]) for r in rows] == [(1.2, 0.0), (-1.0, 0.0), (1.0, 0.0)]
    assert rows[0]["error"] is None
    assert rows[0]["fidelity"] == an.gate_report(spec, 1.2, 0.0, anharmonic_order=None).fidelity
    assert rows[1]["error"] is not None and "ValueError" in rows[1]["error"]
    assert math.isnan(rows[1]["fidelity"])
    assert rows[2]["error"] is None


def test_scan_stops_on_a_point_beyond_double_range(spec):
    """An OverflowError is a bad grid, not a failed row: it leaves the scan."""
    with pytest.raises(OverflowError):
        an.scan(spec, [(1.2, 0.0), (1e300, 0.0)], anharmonic_order=None)


def _counting_anharmonic_point(monkeypatch, fail_at=None):
    """Wrap analysis._anharmonic_point to count its calls, raising
    NonConvergenceError at n_bar_c == fail_at."""
    calls = []
    real = an._anharmonic_point

    def counted(spec, n_bar_c, order, dims_factor=1):
        calls.append(n_bar_c)
        if n_bar_c == fail_at:
            raise NonConvergenceError(f"no F_cor at n_bar_c {n_bar_c}")
        return real(spec, n_bar_c, order, dims_factor)

    monkeypatch.setattr(an, "_anharmonic_point", counted)
    return calls


_SCAN_POINTS = [(eta, nb) for eta in (2.0, 4.0, 7.0) for nb in (0.0, 0.5)]


def test_scan_computes_f_cor_once_per_n_bar_c(spec, monkeypatch):
    calls = _counting_anharmonic_point(monkeypatch)
    first = an.scan(spec, _SCAN_POINTS, anharmonic_order=3)
    assert sorted(calls) == [0.0, 0.5]
    # a second scan in the same process starts from nothing
    second = an.scan(spec, _SCAN_POINTS, anharmonic_order=3)
    assert sorted(calls) == [0.0, 0.0, 0.5, 0.5]
    for rows in (first, second):
        for row in rows:
            assert row["error"] is None
            rep = an.gate_report(spec, row["eta"], row["n_bar_c"], anharmonic_order=3)
            assert row["f_cor"] == rep.f_cor
            assert (row["fidelity"], row["purity"]) == (rep.fidelity, rep.purity)


def test_scan_row_keeps_its_own_f_cor_error(spec, monkeypatch):
    calls = _counting_anharmonic_point(monkeypatch, fail_at=0.5)
    rows = an.scan(spec, _SCAN_POINTS, anharmonic_order=3)
    # a failure is not memoized: each row at 0.5 raises it anew
    assert sorted(calls) == [0.0, 0.5, 0.5, 0.5]
    for row in rows:
        if row["n_bar_c"] == 0.5:
            assert row["error"] == "NonConvergenceError: no F_cor at n_bar_c 0.5"
            # the channel was done before F_cor failed: its figures stay
            rep = an.gate_report(spec, row["eta"], 0.5, anharmonic_order=None)
            assert (row["fidelity"], row["purity"]) == (rep.fidelity, rep.purity)
            assert math.isnan(row["f_cor"])
        else:
            assert row["error"] is None and row["f_cor"] == 1.0
