"""Tests for state constructors, the boundary family, and random sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bineg.errors import InfeasibleRegion, InvalidState, OutOfRange
from bineg.linalg import dagger, frobenius_distance, partial_transpose
from bineg.measures import negativity, nu_of_c
from bineg.states import (
    as_generator,
    boundary_family,
    is_ppt,
    phi_plus,
    phi_q,
    projector,
    psi_r,
    random_mixed,
    random_pure,
    schmidt,
    sigma_mems,
    sigma_pqr,
    validate_density_matrix,
)

SQ2 = np.sqrt(0.5)


class TestVectors:
    def test_phi_q_amplitudes(self):
        v = phi_q(0.36)
        assert_allclose(v, [0.6, 0.0, 0.0, 0.8], atol=1e-15)

    def test_psi_r_amplitudes(self):
        # minus sign on |10> so the off-diagonal of the mixture is negative
        v = psi_r(0.25)
        assert_allclose(v, [0.0, 0.5, -np.sqrt(0.75), 0.0], atol=1e-15)

    def test_phi_plus_is_balanced(self):
        assert_allclose(phi_plus(), [SQ2, 0.0, 0.0, SQ2], atol=1e-15)
        assert_allclose(phi_plus(), phi_q(0.5), atol=0)

    def test_projector_of_unit_vector(self):
        p = projector(phi_plus())
        assert_allclose(p, p @ p, atol=1e-15)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-15)

    def test_out_of_range_weight(self):
        with pytest.raises(OutOfRange):
            phi_q(1.5)
        with pytest.raises(OutOfRange):
            psi_r(-0.1)


class TestSigmaPqr:
    def test_explicit_entries(self):
        p, q, r = 0.3, 0.7, 0.2
        s = sigma_pqr(p, q, r)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = p * q
        want[1, 1] = (1 - p) * r
        want[2, 2] = (1 - p) * (1 - r)
        want[3, 3] = p * (1 - q)
        want[0, 3] = want[3, 0] = p * np.sqrt(q * (1 - q))
        want[1, 2] = want[2, 1] = -(1 - p) * np.sqrt(r * (1 - r))
        assert_allclose(s, want, atol=1e-15)

    def test_rank_one_limits_are_projectors(self):
        assert_allclose(sigma_pqr(1.0, 0.36, 0.9), projector(phi_q(0.36)), atol=1e-15)
        assert_allclose(sigma_pqr(0.0, 0.1, 0.25), projector(psi_r(0.25)), atol=1e-15)

    def test_balanced_mixture_is_separable(self):
        s = sigma_pqr(0.5, 0.5, 0.5)
        assert is_ppt(s)
        assert negativity(s) == 0.0

    def test_valid_density_matrix_on_grid(self):
        for p in (0.0, 0.3, 1.0):
            for q in (0.0, 0.6, 1.0):
                for r in (0.0, 0.2, 1.0):
                    validate_density_matrix(sigma_pqr(p, q, r))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sigma_pqr(1.2, 0.5, 0.5)

    def test_arrays_give_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(31)
        p, q, r = rng.uniform(size=(3, 40))
        p[:2], q[:2], r[:2] = (0.0, 1.0), (1.0, 0.0), (0.0, 1.0)
        stack = sigma_pqr(p, q, r)
        assert stack.shape == (40, 4, 4)
        for i in range(40):
            assert np.array_equal(stack[i], sigma_pqr(p[i], q[i], r[i]))
        # scalars broadcast against arrays
        assert np.array_equal(sigma_pqr(0.3, q[:5], 0.2)[4], sigma_pqr(0.3, q[4], 0.2))

    @pytest.mark.parametrize(
        "args",
        [
            (np.array([0.5, 1.2]), 0.5, 0.5),
            (0.5, np.array([[0.1], [-0.1]]), 0.5),
            (0.5, 0.5, np.array([0.2, np.nan])),
        ],
    )
    def test_array_out_of_range(self, args):
        with pytest.raises(OutOfRange):
            sigma_pqr(*args)


class TestSigmaMems:
    def test_is_special_case_of_sigma_pqr(self):
        for c in (0.0, 0.3, 0.8, 1.0):
            assert_allclose(sigma_mems(c), sigma_pqr(c, 0.5, 0.0), atol=0)

    def test_half_mixture_entries(self):
        s = sigma_mems(0.5)
        assert s[0, 0].real == pytest.approx(0.25, abs=1e-15)
        assert s[0, 3].real == pytest.approx(0.25, abs=1e-15)
        assert s[2, 2].real == pytest.approx(0.5, abs=1e-15)

    def test_negativity_matches_closed_form(self):
        # this family realizes the smallest negativity at fixed concurrence
        for c in np.linspace(0.05, 0.95, 19):
            assert negativity(sigma_mems(c)) == pytest.approx(nu_of_c(c), abs=1e-12)

    def test_endpoints(self):
        assert_allclose(sigma_mems(1.0), projector(phi_plus()), atol=1e-15)
        assert negativity(sigma_mems(0.0)) == 0.0


class TestBoundaryFamily:
    def test_reproduces_minimal_p_parameters(self):
        # at the left end of the feasible p interval the family coincides
        # with sigma(7/48, 1, 1/2 + sqrt(1105)/82)
        rho = boundary_family(0.5, 0.375, 7.0 / 48.0)
        want = sigma_pqr(7.0 / 48.0, 1.0, 0.5 + np.sqrt(1105.0) / 82.0)
        assert frobenius_distance(rho, want) <= 1e-12

    def test_reproduces_maximal_p_parameters(self):
        rho = boundary_family(0.5, 0.375, 39.0 / 112.0)
        want = sigma_pqr(39.0 / 112.0, 0.5 + 2.0 * np.sqrt(77.0) / 39.0, 0.5)
        assert frobenius_distance(rho, want) <= 1e-12

    def test_members_are_valid_states(self):
        for c in (0.3, 0.6, 0.9):
            nu = 0.5 * (nu_of_c(c) + c)
            from bineg.measures import boundary_p_range

            lo, hi = boundary_p_range(c, nu)
            for p in np.linspace(lo, hi, 9):
                validate_density_matrix(boundary_family(c, nu, p))

    def test_infeasible_when_nu_equals_c(self):
        with pytest.raises(InfeasibleRegion):
            boundary_family(0.5, 0.5, 0.2)

    def test_infeasible_below_minimal_negativity(self):
        with pytest.raises(InfeasibleRegion):
            boundary_family(0.5, 0.2, 0.2)

    def test_p_outside_interval(self):
        with pytest.raises(OutOfRange):
            boundary_family(0.5, 0.375, 0.9)


class TestSchmidt:
    def test_product_state(self):
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        assert schmidt(v).mu == pytest.approx(1.0, abs=1e-15)

    def test_bell_state(self):
        assert schmidt(phi_plus()).mu == pytest.approx(0.5, abs=1e-15)

    def test_known_weights(self):
        v = np.zeros(4, dtype=complex)
        v[1], v[2] = np.sqrt(0.7), -np.sqrt(0.3)
        assert schmidt(v).mu == pytest.approx(0.7, abs=1e-14)

    def test_mu_is_larger_weight(self):
        rng = np.random.default_rng(200)
        for v in random_pure(rng, size=50):
            assert schmidt(v).mu >= 0.5 - 1e-12

    def test_reconstruct_round_trip(self):
        rng = np.random.default_rng(201)
        for v in random_pure(rng, size=100):
            form = schmidt(v)
            w = form.reconstruct()
            # global phase is fixed by the decomposition, so vectors match
            assert np.linalg.norm(w - v) <= 1e-10


class TestRandomSampling:
    def test_pure_state_norm_and_determinism(self):
        a = random_pure(7, size=16)
        b = random_pure(7, size=16)
        assert np.array_equal(a, b)
        assert_allclose(np.linalg.norm(a, axis=-1), 1.0, atol=1e-12)

    def test_generator_passthrough_advances(self):
        rng = as_generator(9)
        a = random_pure(rng)
        b = random_pure(rng)
        assert np.linalg.norm(a - b) > 1e-3

    def test_mixed_rank_one_is_pure(self):
        rho = random_mixed(1, 11, size=20)
        w = np.linalg.eigvalsh(rho)
        assert_allclose(w[:, -1], 1.0, atol=1e-10)
        assert_allclose(w[:, :-1], 0.0, atol=1e-10)

    def test_mixed_states_are_valid(self):
        for rank in (1, 2, 3, 4):
            for rho in random_mixed(rank, 13 + rank, size=25):
                validate_density_matrix(rho)

    def test_rank_two_entangled_with_probability_one(self):
        # separable rank-2 states form a measure-zero set, so a continuous
        # sampler should essentially never produce one
        nu = negativity(random_mixed(2, 17, size=10_000))
        assert np.mean(nu > 0) >= 0.99

    def test_rank_four_entangled_fraction_strictly_interior(self):
        nu = negativity(random_mixed(4, 19, size=10_000))
        frac = np.mean(nu > 0)
        assert 0.0 < frac < 1.0

    def test_rank_out_of_range(self):
        with pytest.raises(OutOfRange):
            random_mixed(5, 1)
        with pytest.raises(OutOfRange):
            random_mixed(0, 1)


class TestValidation:
    def test_is_ppt_on_known_states(self):
        assert is_ppt(np.eye(4) / 4)
        assert not is_ppt(projector(phi_plus()))

    def test_is_ppt_batched(self):
        rho = random_mixed(2, 23, size=32)
        got = is_ppt(rho)
        want = np.array([np.linalg.eigvalsh(partial_transpose(r))[0] >= -1e-11 for r in rho])
        assert np.array_equal(got, want)

    def test_rejects_wrong_shape(self):
        with pytest.raises(InvalidState, match="4x4"):
            validate_density_matrix(np.eye(3) / 3)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.2
        with pytest.raises(InvalidState, match="hermiticity"):
            validate_density_matrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidState, match="[Tt]race"):
            validate_density_matrix(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        with pytest.raises(InvalidState, match="positivity"):
            validate_density_matrix(m)

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.nan
        with pytest.raises(InvalidState, match="[Ff]inite"):
            validate_density_matrix(m)
