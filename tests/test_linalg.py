"""Tests for the Hermitian linear-algebra layer.

The eigensolver is cross-checked against an independent characteristic
polynomial computed with the Faddeev-LeVerrier recursion, which never
calls an eigenvalue routine.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bineg.errors import NotHermitian, NotPSD, WrongDimension
from bineg.linalg import (
    HERMITICITY_TOL,
    dagger,
    frobenius_distance,
    frobenius_norm,
    hermitian_eig,
    kron,
    negative_part,
    partial_transpose,
    psd_sqrt,
    trace,
    transpose_factors,
    zero_threshold,
)


def random_hermitian(rng, dim=4, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + dagger(g)) / 2


def char_poly_coeffs(m):
    """Coefficients of det(xI - m) via Faddeev-LeVerrier, highest degree first."""
    n = m.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(mk) / k)
    return np.array(coeffs)


BELL_PHI_PLUS = np.zeros((4, 4), dtype=complex)
BELL_PHI_PLUS[np.ix_([0, 3], [0, 3])] = 0.5


class TestBasics:
    def test_dagger_conjugate_transposes(self):
        m = np.array([[1.0, 2j], [3.0, 4.0 - 1j]])
        assert_allclose(dagger(m), np.array([[1.0, 3.0], [-2j, 4.0 + 1j]]))

    def test_trace_is_real_for_hermitian(self):
        m = random_hermitian(np.random.default_rng(0))
        t = trace(m)
        assert t.imag == 0.0
        assert_allclose(t.real, np.trace(m).real, atol=1e-15)

    def test_frobenius_norm_of_identity(self):
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0, abs=1e-15)

    def test_frobenius_distance_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = random_hermitian(rng), random_hermitian(rng)
        assert frobenius_distance(a, b) == pytest.approx(frobenius_distance(b, a), abs=0)

    def test_kron_matches_reference(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert_allclose(kron(a, b), np.kron(a, b), atol=1e-15)

    def test_kron_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 2, 2))
        b = rng.normal(size=(5, 2, 2))
        got = kron(a, b)
        for i in range(5):
            assert_allclose(got[i], np.kron(a[i], b[i]), atol=1e-15)

    def test_yy_flips_basis_state(self):
        y = np.array([[0.0, -1j], [1j, 0.0]])
        yy = kron(y, y)
        e00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        e11 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        assert_allclose(yy @ e00, -e11, atol=0)

    def test_zero_threshold_scales_with_norm(self):
        small = zero_threshold(np.eye(4))
        large = zero_threshold(100.0 * np.eye(4))
        assert large > small
        assert small == pytest.approx(2e-11, rel=1e-12)


class TestHermitianEig:
    def test_diagonal_matrix(self):
        es = hermitian_eig(np.diag([3.0, 1.0]).astype(complex))
        assert_allclose(es.eigenvalues, [1.0, 3.0], atol=0)

    def test_pauli_x_spectrum(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        es = hermitian_eig(x)
        assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_matches_characteristic_polynomial(self):
        # independent oracle: Faddeev-LeVerrier coefficients vs the
        # polynomial whose roots are the returned eigenvalues
        rng = np.random.default_rng(100)
        for _ in range(200):
            m = random_hermitian(rng, scale=rng.uniform(0.1, 5.0))
            es = hermitian_eig(m)
            got = np.poly(es.eigenvalues)
            want = char_poly_coeffs(m)
            assert_allclose(got, want, atol=1e-9 * max(1.0, abs(want).max()))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            m = random_hermitian(rng, scale=rng.uniform(0.1, 10.0))
            es = hermitian_eig(m)
            v, w = es.eigenvectors, es.eigenvalues
            bound = 1e-12 * max(1.0, float(frobenius_norm(m)))
            assert frobenius_distance((v * w) @ dagger(v), m) <= bound
            assert frobenius_distance(dagger(v) @ v, np.eye(4)) <= 1e-12

    def test_eigenvalues_ascending(self):
        m = random_hermitian(np.random.default_rng(102))
        es = hermitian_eig(m)
        assert np.all(np.diff(es.eigenvalues) >= 0)

    def test_batched_agrees_with_single(self):
        rng = np.random.default_rng(103)
        ms = np.stack([random_hermitian(rng) for _ in range(7)])
        es = hermitian_eig(ms)
        for i in range(7):
            assert_allclose(es.eigenvalues[i], hermitian_eig(ms[i]).eigenvalues, atol=1e-14)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            hermitian_eig(m)

    def test_check_false_skips_validation(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        hermitian_eig(m, check=False)  # must not raise


class TestPositiveNegativeParts:
    def test_diagonal_split(self):
        m = np.diag([2.0, -3.0, 0.0, 1.0]).astype(complex)
        assert_allclose(negative_part(-m), np.diag([2.0, 0.0, 0.0, 1.0]), atol=1e-12)
        assert_allclose(negative_part(m), np.diag([0.0, 3.0, 0.0, 0.0]), atol=1e-12)

    def test_negative_part_of_psd_is_zero(self):
        rng = np.random.default_rng(104)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = g @ dagger(g)
        assert frobenius_norm(negative_part(p)) <= 1e-10

    def test_split_reconstructs_matrix(self):
        rng = np.random.default_rng(105)
        for _ in range(50):
            m = random_hermitian(rng)
            diff = negative_part(-m) - negative_part(m) - m
            assert frobenius_norm(diff) <= 1e-11

    def test_bell_partial_transpose_negative_part(self):
        # spectrum of the transposed Bell projector is (-1/2, 1/2, 1/2, 1/2)
        pt = partial_transpose(BELL_PHI_PLUS)
        es = hermitian_eig(pt)
        assert_allclose(es.eigenvalues, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)
        assert trace(negative_part(pt)).real == pytest.approx(0.5, abs=1e-14)


class TestPartialTranspose:
    def test_product_state_invariant_up_to_local_transpose(self):
        rng = np.random.default_rng(106)
        a = random_hermitian(rng, dim=2)
        b = random_hermitian(rng, dim=2)
        assert_allclose(partial_transpose(np.kron(a, b)), np.kron(a, b.T), atol=1e-14)

    def test_explicit_corner_swap(self):
        # two-parameter diagonal-plus-corners matrix: transposing the second
        # factor moves the (0,3) corner pair to (1,2) and vice versa
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = 0.1, 0.2, 0.3, 0.4
        m[0, 3] = m[3, 0] = 0.05
        m[1, 2] = m[2, 1] = -0.07
        pt = partial_transpose(m)
        want = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        want[1, 2] = want[2, 1] = 0.05
        want[0, 3] = want[3, 0] = -0.07
        assert_allclose(pt, want, atol=0)

    def test_involution_and_trace(self):
        rng = np.random.default_rng(107)
        m = random_hermitian(rng)
        assert_allclose(partial_transpose(partial_transpose(m)), m, atol=0)
        assert trace(partial_transpose(m)).real == pytest.approx(trace(m).real, abs=1e-15)

    def test_other_factor_gives_full_transpose(self):
        # transposing factor A instead of B is the full transpose of the
        # B-sided result, so both share one spectrum
        rng = np.random.default_rng(108)
        m = random_hermitian(rng)
        pt_a = transpose_factors(m, (2, 2), (0,))
        assert_allclose(pt_a, partial_transpose(m).T, atol=0)
        wa = hermitian_eig(pt_a).eigenvalues
        wb = hermitian_eig(partial_transpose(m)).eigenvalues
        assert_allclose(wa, wb, atol=1e-13)

    def test_transpose_factors_all_is_full_transpose(self):
        rng = np.random.default_rng(109)
        m = rng.normal(size=(16, 16))
        got = transpose_factors(m, (4, 4), (0, 1))
        assert_allclose(got, m.T, atol=0)

    def test_batched(self):
        rng = np.random.default_rng(110)
        ms = rng.normal(size=(6, 4, 4))
        got = partial_transpose(ms)
        for i in range(6):
            assert_allclose(got[i], partial_transpose(ms[i]), atol=0)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            partial_transpose(np.eye(3))


class TestPsdSqrt:
    def test_diagonal(self):
        assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_projector_is_own_sqrt(self):
        assert_allclose(psd_sqrt(BELL_PHI_PLUS), BELL_PHI_PLUS, atol=1e-14)

    def test_squares_back(self):
        rng = np.random.default_rng(111)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            p = g @ dagger(g)
            r = psd_sqrt(p)
            assert frobenius_distance(r @ r, p) <= 1e-11 * max(1.0, float(frobenius_norm(p)))

    def test_tolerates_tiny_negative_eigenvalues(self):
        m = np.diag([1.0, -1e-13])
        r = psd_sqrt(m)
        assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))
