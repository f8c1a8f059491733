"""Oscillator-algebra layer: operators and states, and the reduced states
the oracles take of composite-space arrays."""

import math

import numpy as np
import pytest
import scipy.linalg

import oracles
from hotgate import fock_core as fc
from hotgate.errors import InvalidOperatorError


def test_ladder_commutator_inner_block():
    d = 12
    a = fc.annihilation(d)
    comm = a @ a.conj().T - a.conj().T @ a
    # truncation corrupts only the last diagonal entry
    np.testing.assert_allclose(comm[: d - 1, : d - 1], np.eye(d - 1), atol=1e-14)
    assert comm[d - 1, d - 1] == pytest.approx(1 - d)


def test_mean_occupation_is_adag_a():
    """sum_n n rho_nn is Tr[rho a^dag a], off-diagonal entries and all."""
    d = 9
    a = fc.annihilation(d)
    ket = np.random.default_rng(3).normal(size=(d, 2)) @ [1.0, 1j]
    rho = fc.DensityOp(np.outer(ket, ket.conj()) / np.vdot(ket, ket))
    expected = np.trace(rho.matrix @ a.conj().T @ a).real
    assert fc.mean_occupation(rho) == pytest.approx(expected, rel=1e-14)


def test_position_momentum_commutator():
    d, w = 14, 0.37
    x = fc.position_operator(d, w)
    p = oracles.momentum_operator(d, w)
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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermitian_part_is_the_symmetrized_input_bit_for_bit(dtype):
    """The check and symmetrization return (h + h^dag)/2 to the last bit,
    in h's dtype, for near-hermitian h of either kind."""
    rng = np.random.default_rng(7)
    for size in (1, 2, 9, 40):
        h = rng.normal(size=(size, size)).astype(dtype)
        if dtype is np.complex128:
            h += 1j * rng.normal(size=(size, size))
        h = h + h.conj().T + 1e-12 * rng.normal(size=(size, size))
        part = fc.hermitian_part(h)
        assert part.dtype == dtype
        np.testing.assert_array_equal(part, (h + h.conj().T) / 2.0)


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
    ket = oracles.coherent_state(alpha, 60)
    rho = fc.DensityOp(np.outer(ket, ket.conj()))
    assert fc.mean_occupation(rho) == pytest.approx(abs(alpha) ** 2, abs=1e-10)


def test_density_validation():
    ok = fc.DensityOp(np.diag([0.5, 0.5]).astype(complex))
    assert ok.purity() == pytest.approx(0.5)
    with pytest.raises(InvalidOperatorError):
        fc.DensityOp(np.diag([1.5, -0.5]).astype(complex))


def test_validate_psd_checks_what_the_constructor_skips():
    # above PSD_AUTO_DIM levels the constructor leaves positivity unchecked
    dim = fc.PSD_AUTO_DIM + 1
    probs = np.full(dim, (1.0 + 1e-6) / (dim - 1))
    probs[-1] = -1e-6
    rho = fc.DensityOp(np.diag(probs))
    with pytest.raises(InvalidOperatorError, match="not positive"):
        rho.validate_psd()


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------


def test_partial_trace_against_einsum_oracle():
    """oracles.SystemState's reduced states against an index-by-index
    einsum, on a random non-product density matrix and on a random ket."""
    rng = np.random.default_rng(3)
    dims = (2, 2, 3, 4)
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    ket = rng.normal(size=d) + 1j * rng.normal(size=d)
    ket /= np.linalg.norm(ket)
    t = rho.reshape(dims + dims)
    psi = ket.reshape(dims)
    cases = [
        (rho, np.einsum("abcdefcd->abef", t), np.einsum("abcdabgh->cdgh", t)),
        (ket, np.einsum("abcd,efcd->abef", psi, psi.conj()),
         np.einsum("abcd,abgh->cdgh", psi, psi.conj())),
    ]
    for data, internal, motional in cases:
        state = oracles.SystemState(dims, data)
        got_q, got_m = state.internal_density(), state.motional_density()
        np.testing.assert_allclose(got_q, internal.reshape(4, 4), atol=1e-13)
        np.testing.assert_allclose(got_m, motional.reshape(12, 12), atol=1e-13)
        assert np.trace(got_q) == pytest.approx(1.0, abs=1e-12)
        assert np.trace(got_m) == pytest.approx(1.0, abs=1e-12)


def test_trace_distance_extremes():
    p0, p1 = np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0])
    assert fc.trace_distance(p0, p1) == pytest.approx(1.0)
    assert fc.trace_distance(p0, p0) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# truncation policy
# ---------------------------------------------------------------------------


def test_default_fock_dim_monotone():
    base = fc.default_fock_dim(0.0, 0.0)
    assert base >= 10
    assert fc.default_fock_dim(2.0, 0.0) > base
    assert fc.default_fock_dim(0.0, 3.0) > base
