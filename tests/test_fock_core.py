"""Oscillator-algebra layer: operators, states, tensor plumbing."""

import math

import numpy as np
import pytest
import scipy.linalg

from hotgate import fock_core as fc
from hotgate.errors import InvalidOperatorError, KindMismatchError


def test_ladder_commutator_inner_block():
    d = 12
    a = fc.annihilation(d)
    comm = a @ fc.creation(d) - fc.creation(d) @ a
    # truncation corrupts only the last diagonal entry
    np.testing.assert_allclose(comm[: d - 1, : d - 1], np.eye(d - 1), atol=1e-14)
    assert comm[d - 1, d - 1] == pytest.approx(1 - d)


def test_number_operator_is_adag_a():
    d = 9
    np.testing.assert_allclose(
        fc.number_operator(d), fc.creation(d) @ fc.annihilation(d), atol=0)


def test_position_momentum_commutator():
    d, w = 14, 0.37
    x = fc.position_operator(d, w)
    p = fc.momentum_operator(d, w)
    comm = x @ p - p @ x
    np.testing.assert_allclose(comm[: d - 1, : d - 1], 1j * np.eye(d - 1), atol=1e-13)


def test_displacement_vacuum_column_power_series():
    """Matrix elements <n|D(a)|0> against the closed-form coherent amplitudes."""
    alpha, d = 0.7 + 0.3j, 40
    col = fc.displacement(alpha, d)[:, 0]
    expect = np.array([
        math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
        for n in range(d)
    ])
    np.testing.assert_allclose(col, expect, atol=1e-12)


def test_displacement_exactly_unitary():
    d = 25
    dm = fc.displacement(1.3 - 0.4j, d)
    np.testing.assert_allclose(dm @ dm.conj().T, np.eye(d), atol=1e-12)


def test_displacement_composition_phase():
    # D(a)D(b) = exp(i Im(a conj(b))) D(a+b), far from the truncation edge
    a, b, d = 0.5 + 0.2j, -0.3 + 0.4j, 60
    left = fc.displacement(a, d) @ fc.displacement(b, d)
    right = np.exp(1j * np.imag(a * np.conj(b))) * fc.displacement(a + b, d)
    np.testing.assert_allclose(left[:30, :30], right[:30, :30], atol=1e-9)


def test_hermitian_expm_matches_scipy():
    rng = np.random.default_rng(42)
    h = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = (h + h.conj().T) / 2
    t = 0.83
    np.testing.assert_allclose(
        fc.hermitian_expm(h, t), scipy.linalg.expm(-1j * t * h), atol=1e-12)


def test_hermitian_part_keeps_real_dtype_and_checks_symmetry():
    h = np.array([[1.0, 2.0], [2.0 + 1e-12, -3.0]])
    part = fc.hermitian_part(h)
    assert part.dtype == np.float64
    np.testing.assert_array_equal(part, part.T)
    with pytest.raises(InvalidOperatorError):
        fc.hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_expm_rejects_nonhermitian():
    with pytest.raises(InvalidOperatorError):
        fc.hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_thermal_probabilities_geometric():
    n_bar, d = 0.8, 50
    p = fc.thermal_probabilities(n_bar, d)
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    ratios = p[1:] / p[:-1]
    np.testing.assert_allclose(ratios, n_bar / (n_bar + 1.0), rtol=1e-12)


def test_thermal_probabilities_vacuum():
    p = fc.thermal_probabilities(0.0, 8)
    np.testing.assert_allclose(p, np.eye(8)[0], atol=0)


def test_thermal_state_purity():
    # Tr[rho^2] = 1/(2 n_bar + 1) for the untruncated state
    n_bar = 0.5
    rho = fc.thermal_state(n_bar, 80)
    assert rho.purity() == pytest.approx(1.0 / (2 * n_bar + 1), abs=1e-12)


def test_thermal_state_mean_occupation():
    for n_bar in (0.0, 0.5, 2.0):
        rho = fc.thermal_state(n_bar, 120)
        assert fc.mean_occupation(rho) == pytest.approx(n_bar, abs=1e-9)


def test_coherent_state_poisson_mean():
    alpha = 1.1 - 0.6j
    ket = fc.coherent_state(alpha, 60)
    assert fc.mean_occupation(ket) == pytest.approx(abs(alpha) ** 2, abs=1e-10)


def test_fock_state():
    ket = fc.fock_state(8, 3)
    assert ket.amplitudes[3] == 1.0
    assert fc.mean_occupation(ket) == pytest.approx(3.0)


def test_pure_state_norm_repair_and_reject():
    amp = np.array([1.0, 1e-8])
    st = fc.PureState(amp)
    assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(InvalidOperatorError):
        fc.PureState(np.array([1.0, 0.5]))


def test_density_validation():
    ok = fc.DensityOp(np.diag([0.5, 0.5]).astype(complex))
    assert ok.purity() == pytest.approx(0.5)
    with pytest.raises(InvalidOperatorError):
        fc.DensityOp(np.diag([1.5, -0.5]).astype(complex))


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------


def test_tensor_operators_matches_kron():
    a = fc.annihilation(3)
    b = fc.number_operator(4)
    np.testing.assert_allclose(fc.tensor([a, b]), np.kron(a, b), atol=0)


def test_tensor_pure_states():
    k1 = fc.fock_state(3, 1)
    k2 = fc.fock_state(2, 0)
    joint = fc.tensor([k1, k2])
    expect = np.zeros(6)
    expect[2] = 1.0
    np.testing.assert_allclose(joint.amplitudes, expect, atol=0)


def test_tensor_promotes_mixed_purity():
    pure = fc.fock_state(2, 0)
    mixed = fc.thermal_state(0.5, 3)
    joint = fc.tensor([pure, mixed])
    assert isinstance(joint, fc.DensityOp)
    assert joint.dim == 6


def test_tensor_rejects_operator_state_mix():
    with pytest.raises(KindMismatchError):
        fc.tensor([fc.annihilation(3), fc.fock_state(3, 0)])


def test_partial_trace_product_state():
    rho_a = fc.thermal_state(0.7, 5).matrix
    rho_b = fc.thermal_state(0.2, 4).matrix
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(
        fc.partial_trace(joint, (5, 4), keep=(0,)), rho_a, atol=1e-14)
    np.testing.assert_allclose(
        fc.partial_trace(joint, (5, 4), keep=(1,)), rho_b, atol=1e-14)


def test_partial_trace_bell_pair():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    red = fc.partial_trace(rho, (2, 2), keep=(0,))
    np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_against_einsum_oracle():
    rng = np.random.default_rng(3)
    dims = (2, 3, 4)
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    t = rho.reshape(*dims, *dims)
    # keep subsystems 0 and 2, trace out 1
    oracle = np.einsum("ajkbjc->akbc", t.reshape(2, 3, 4, 2, 3, 4)).reshape(8, 8)
    got = fc.partial_trace(rho, dims, keep=(0, 2))
    np.testing.assert_allclose(got, oracle, atol=1e-13)
    assert np.trace(got) == pytest.approx(1.0, abs=1e-12)


def test_unitary_evolve_density_conjugation():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(6, 6))
    h = h + h.T
    u = scipy.linalg.expm(-1j * h)
    rho = fc.thermal_state(0.4, 6)
    out = fc.unitary_evolve(rho, u)
    np.testing.assert_allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)


def test_unitary_evolve_rejects_nonunitary():
    with pytest.raises(InvalidOperatorError):
        fc.unitary_evolve(fc.fock_state(3, 0), np.diag([1.0, 1.0, 2.0]))


def test_trace_distance_extremes():
    k0 = fc.fock_state(4, 0)
    k1 = fc.fock_state(4, 1)
    assert fc.trace_distance(k0.to_density(), k1.to_density()) == pytest.approx(1.0)
    assert fc.trace_distance(k0.to_density(), k0.to_density()) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# truncation policy
# ---------------------------------------------------------------------------


def test_default_fock_dim_monotone():
    base = fc.default_fock_dim(0.0, 0.0)
    assert base >= 10
    assert fc.default_fock_dim(2.0, 0.0) > base
    assert fc.default_fock_dim(0.0, 3.0) > base
