"""Tests for the entanglement measures and their closed forms.

Numeric reference values are either exact rationals worked out by hand or
recomputed here through independent routes (trace norm for the negativity,
a non-symmetric eigensolve for the concurrence, reduced-density spectra
for the Schmidt weight).  ``TestOracleAccuracy`` compares all three measures
with the 40-digit mpmath oracle of ``mp_oracle.py`` on adversarial families.
"""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bineg.errors import BinegError, InfeasibleRegion, MultipleNegativeEigenvalues, OutOfRange, WrongDimension
from bineg.linalg import ZERO_EIG_TOL, kron, negative_part, partial_transpose, trace
from bineg.measures import (
    _RANK_CUT,
    _SCREEN_BOUND,
    MeasureTriple,
    _negative_branch,
    _nu_n2,
    _nu_n2_screen,
    _region_bounds,
    _uhlmann,
    bineg_lower_given_nu,
    bineg_mems,
    binegativity,
    boundary_bineg,
    boundary_p_range,
    c_of_nu,
    closed_form_pqr,
    concurrence,
    measure_triple,
    negative_eigvec_mu,
    negativity,
    nu_of_c,
    region_bounds,
)
from bineg.serialize import complex_matrix_to_json
from bineg.states import (
    boundary_family,
    is_ppt,
    phi_plus,
    projector,
    random_mixed,
    random_pure,
    schmidt,
    sigma_mems,
    sigma_pqr,
)

import mp_oracle

RHO1 = sigma_pqr(7.0 / 48.0, 1.0, 0.5 + np.sqrt(1105.0) / 82.0)
RHO2 = sigma_pqr(39.0 / 112.0, 0.5 + 2.0 * np.sqrt(77.0) / 39.0, 0.5)

_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_Y, _Y)
# the real matrix of Y x Y that the kernel multiplied by before it permuted rows
_YY_REAL = _YY.real


def concurrence_oracle(rho):
    """Concurrence through the non-symmetric spectrum of rho @ spin-flip(rho),
    avoiding the eigensolve of rho and the singular values used by the
    implementation."""
    lam = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY)
    lam = np.sqrt(np.clip(lam.real, 0.0, None))
    lam.sort()
    return max(0.0, 2.0 * lam[-1] - lam.sum())


def negativity_oracle(rho):
    """Negativity as trace norm minus one of the partially transposed state."""
    return float(np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum() - 1.0)


def mu_oracle(rho):
    """Schmidt weight of the negative eigenvector via its reduced density
    matrix on the first qubit."""
    w, v = np.linalg.eigh(partial_transpose(rho))
    assert w[0] < 0
    m = v[:, 0].reshape(2, 2)
    return float(np.linalg.eigvalsh(m @ m.conj().T)[-1])


class TestReferenceStates:
    """Two states realizing the extreme binegativities at c = 1/2, nu = 3/8."""

    def test_first_state_triple(self):
        t = measure_triple(RHO1)
        assert t.c == pytest.approx(0.5, abs=1e-10)
        assert t.nu == pytest.approx(0.375, abs=1e-10)
        assert t.n2 == pytest.approx(147.0 / 400.0, abs=1e-10)

    def test_second_state_triple(self):
        t = measure_triple(RHO2)
        assert t.c == pytest.approx(0.5, abs=1e-10)
        assert t.nu == pytest.approx(0.375, abs=1e-10)
        assert t.n2 == pytest.approx(77.0 / 216.0, abs=1e-10)

    def test_first_state_schmidt_weight(self):
        assert negative_eigvec_mu(RHO1) == pytest.approx(16.0 / 25.0, abs=1e-12)

    def test_triples_match_closed_form(self):
        got = measure_triple(RHO1)
        want, _ = closed_form_pqr(7.0 / 48.0, 1.0, 0.5 + np.sqrt(1105.0) / 82.0)
        assert got.c == pytest.approx(want.c, abs=1e-12)
        assert got.nu == pytest.approx(want.nu, abs=1e-12)
        assert got.n2 == pytest.approx(want.n2, abs=1e-12)


class TestNegativity:
    def test_bell_state(self):
        assert negativity(projector(phi_plus())) == pytest.approx(1.0, abs=1e-12)

    def test_separable_is_exact_zero(self):
        assert negativity(np.eye(4) / 4) == 0.0
        assert negativity(sigma_pqr(0.5, 0.5, 0.5)) == 0.0

    def test_matches_trace_norm_oracle(self):
        rng = np.random.default_rng(300)
        for rank in (2, 3, 4):
            for rho in random_mixed(rank, rng, size=60):
                assert negativity(rho) == pytest.approx(
                    max(0.0, negativity_oracle(rho)), abs=2e-11
                )

    def test_batched_matches_single(self):
        rho = random_mixed(2, 301, size=40)
        nu = negativity(rho)
        for i in range(40):
            assert nu[i] == pytest.approx(negativity(rho[i]), abs=0)


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(projector(phi_plus())) == pytest.approx(1.0, abs=1e-12)

    def test_separable_is_zero(self):
        assert concurrence(np.eye(4) / 4) == 0.0

    def test_matches_nonsymmetric_eig_oracle(self):
        rng = np.random.default_rng(302)
        for rank in (2, 4):
            for rho in random_mixed(rank, rng, size=100):
                assert concurrence(rho) == pytest.approx(concurrence_oracle(rho), abs=1e-7)

    def test_pure_state_closed_form(self):
        for v in random_pure(303, size=200):
            mu = schmidt(v)
            want = 2.0 * np.sqrt(mu * (1.0 - mu))
            assert concurrence(projector(v)) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 2), (8, 8), (5, 3, 3), (16,)])
    def test_a_matrix_that_is_not_4x4_is_a_wrong_dimension(self, shape):
        # 3x3 and 2x2 input raised IndexError, 8x8 a ValueError; the other
        # measures raise WrongDimension for the same input
        rho = np.zeros(shape)
        message = f"expected a 4x4 state or a stack of them, got shape {shape}"
        with pytest.raises(WrongDimension, match=f"^{re.escape(message)}$"):
            concurrence(rho)
        with pytest.raises(WrongDimension):
            measure_triple(rho)


class TestBinegativity:
    def test_bell_state(self):
        assert binegativity(projector(phi_plus())) == pytest.approx(1.0, abs=1e-12)

    def test_separable_is_exact_zero(self):
        assert binegativity(sigma_pqr(0.5, 0.5, 0.5)) == 0.0

    def test_pure_states_collapse_to_negativity(self):
        rho = np.array([projector(v) for v in random_pure(304, size=300)])
        assert_allclose(binegativity(rho), negativity(rho), atol=1e-10)

    def test_structure_identity(self):
        # the doubly transposed negative part traces to sqrt(mu(1-mu)) times
        # the singly transposed one
        rng = np.random.default_rng(305)
        checked = 0
        for rho in random_mixed(2, rng, size=200):
            if negativity(rho) == 0.0:
                continue
            first = negative_part(partial_transpose(rho))
            second = negative_part(partial_transpose(first))
            mu = negative_eigvec_mu(rho)
            lhs = trace(second).real
            rhs = np.sqrt(mu * (1.0 - mu)) * trace(first).real
            assert lhs == pytest.approx(rhs, abs=1e-10)
            checked += 1
        assert checked > 150

    def test_recombination_identity(self):
        rng = np.random.default_rng(306)
        for rho in random_mixed(3, rng, size=100):
            nu = negativity(rho)
            if nu == 0.0:
                assert binegativity(rho) == 0.0
                continue
            mu = negative_eigvec_mu(rho)
            want = nu * (0.5 + np.sqrt(mu * (1.0 - mu)))
            assert binegativity(rho) == pytest.approx(want, abs=1e-10)


class TestNegativeEigvecMu:
    def test_bell_state(self):
        assert negative_eigvec_mu(projector(phi_plus())) == pytest.approx(0.5, abs=1e-12)
        assert negative_eigvec_mu(sigma_mems(1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_separable_returns_none(self):
        assert negative_eigvec_mu(np.eye(4) / 4) is None

    def test_batch_uses_nan_for_ppt(self):
        batch = np.stack([projector(phi_plus()), np.eye(4) / 4])
        mu = negative_eigvec_mu(batch)
        assert mu[0] == pytest.approx(0.5, abs=1e-12)
        assert np.isnan(mu[1])

    def test_matches_reduced_density_oracle(self):
        rng = np.random.default_rng(307)
        for rho in random_mixed(2, rng, size=150):
            if negativity(rho) == 0.0:
                continue
            assert negative_eigvec_mu(rho) == pytest.approx(mu_oracle(rho), abs=1e-10)

    def test_rejects_two_negative_eigenvalues(self):
        # not a state; its partial transpose is itself with two negatives
        m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        with pytest.raises(MultipleNegativeEigenvalues):
            negative_eigvec_mu(m)


class TestClosedFormPqr:
    def test_matches_numeric_on_grid(self):
        g = np.linspace(0.0, 1.0, 10)
        p, q, r = np.meshgrid(g, g, g, indexing="ij")
        p, q, r = p.ravel(), q.ravel(), r.ravel()
        want, _ = closed_form_pqr(p, q, r)
        rho = np.array([sigma_pqr(*t) for t in zip(p, q, r)])
        assert_allclose(concurrence(rho), want.c, atol=1e-10)
        assert_allclose(negativity(rho), want.nu, atol=1e-10)
        assert_allclose(binegativity(rho), want.n2, atol=1e-10)

    def test_mu_matches_numeric(self):
        rng = np.random.default_rng(308)
        for _ in range(100):
            p, q, r = rng.uniform(size=3)
            triple, derived = closed_form_pqr(p, q, r)
            if triple.nu <= 1e-9:
                continue
            got = negative_eigvec_mu(sigma_pqr(p, q, r))
            assert derived.mu == pytest.approx(got, abs=1e-9)

    def test_pure_limit(self):
        triple, derived = closed_form_pqr(1.0, 0.5, 0.3)
        assert (triple.c, triple.nu, triple.n2) == (1.0, 1.0, 1.0)
        assert derived.mu == pytest.approx(0.5, abs=0)

    def test_balanced_branch_point_is_zero(self):
        triple, _ = closed_form_pqr(0.5, 0.5, 0.5)
        assert triple.c == 0.0
        assert triple.nu == 0.0
        assert triple.n2 == 0.0

    def test_both_branches_exercised(self):
        # alpha > beta on the first input, alpha < beta on the second
        t_hi, d_hi = closed_form_pqr(0.9, 0.5, 0.5)
        t_lo, d_lo = closed_form_pqr(0.1, 0.5, 0.5)
        assert d_hi.alpha > d_hi.beta
        assert d_lo.alpha < d_lo.beta
        assert t_hi.c == pytest.approx(t_lo.c, abs=1e-15)
        assert t_hi.nu == pytest.approx(t_lo.nu, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            closed_form_pqr(-0.1, 0.5, 0.5)


class TestMemsBounds:
    def test_nu_of_c_exact_points(self):
        assert nu_of_c(0.0) == 0.0
        assert nu_of_c(1.0) == pytest.approx(1.0, abs=1e-15)
        assert nu_of_c(0.5) == pytest.approx(np.sqrt(0.5) - 0.5, abs=1e-15)

    def test_c_of_nu_exact_points(self):
        assert c_of_nu(0.0) == 0.0
        assert c_of_nu(1.0) == pytest.approx(1.0, abs=1e-15)
        assert c_of_nu(0.375) == pytest.approx((np.sqrt(66.0) - 3.0) / 8.0, abs=1e-15)

    def test_inverse_pair(self):
        x = np.linspace(0.0, 1.0, 1000)
        assert_allclose(c_of_nu(nu_of_c(x)), x, atol=1e-12)
        assert_allclose(nu_of_c(c_of_nu(x)), x, atol=1e-12)

    def test_nu_of_c_lower_bounds_negativity(self):
        rho = random_mixed(2, 309, size=2000)
        c, nu = concurrence(rho), negativity(rho)
        assert np.all(nu >= nu_of_c(np.clip(c, 0.0, 1.0)) - 1e-9)

    def test_bineg_mems_exact_points(self):
        assert bineg_mems(0.0) == 0.0
        assert bineg_mems(1.0) == pytest.approx(1.0, abs=1e-15)
        assert bineg_mems(0.5) == pytest.approx(np.sqrt(2.0) / 8.0, abs=1e-15)

    def test_bineg_mems_matches_numeric(self):
        for c in np.linspace(0.05, 0.95, 19):
            assert binegativity(sigma_mems(c)) == pytest.approx(bineg_mems(c), abs=1e-12)

    def test_lower_given_nu_composes_mems_curve(self):
        nu = np.linspace(0.0, 1.0, 50)
        assert_allclose(bineg_lower_given_nu(nu), bineg_mems(c_of_nu(nu)), atol=1e-14)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            nu_of_c(1.1)
        with pytest.raises(OutOfRange):
            c_of_nu(-0.2)


# One input of each public measure and bound function, and a (3, 2) stack of
# them: six rank-2 states with the maximally mixed (PPT) one among them, and
# feasible (c, nu, p) points of the boundary family.
_STACK_STATES = random_mixed(2, 331, size=6)
_STACK_STATES[1] = np.eye(4) / 4.0
_STACK_STATES = _STACK_STATES.reshape(3, 2, 4, 4)
_STACK_C = np.linspace(0.2, 0.9, 6).reshape(3, 2)
_STACK_NU = nu_of_c(_STACK_C) + 0.4 * (_STACK_C - nu_of_c(_STACK_C))
_STACK_P = 0.5 * np.add(*boundary_p_range(_STACK_C, _STACK_NU))
_STACK_PQR = tuple(np.random.default_rng(332).uniform(size=(3, 3, 2)))
_STATE_MEASURES = {
    "negativity": negativity,
    "binegativity": binegativity,
    "concurrence": concurrence,
    "negative_eigvec_mu": negative_eigvec_mu,
    "measure_triple": measure_triple,
    "is_ppt": is_ppt,
}
_BOUND_FUNCTIONS = {
    "closed_form_pqr": (closed_form_pqr, _STACK_PQR),
    "nu_of_c": (nu_of_c, (_STACK_C,)),
    "c_of_nu": (c_of_nu, (_STACK_NU,)),
    "bineg_mems": (bineg_mems, (_STACK_C,)),
    "bineg_lower_given_nu": (bineg_lower_given_nu, (_STACK_NU,)),
    "region_bounds": (region_bounds, (_STACK_C, _STACK_NU)),
    "boundary_p_range": (boundary_p_range, (_STACK_C, _STACK_NU)),
    "boundary_bineg": (boundary_bineg, (_STACK_C, _STACK_NU, _STACK_P)),
}


def _leaves(result):
    """The values of a result: the items of a tuple, the fields of a
    dataclass, or the result itself."""
    if isinstance(result, tuple):
        return [leaf for item in result for leaf in _leaves(item)]
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [result]


@pytest.mark.parametrize("name", list(_STATE_MEASURES) + list(_BOUND_FUNCTIONS))
def test_one_input_gives_a_scalar_and_a_stack_an_array(name):
    # a float for one input (a bool from is_ppt, None from negative_eigvec_mu
    # on a PPT state); a stack gives the array of the one-input values, bit
    # for bit for the state measures.  numpy's scalar path rounds some bound
    # curves differently in the last bit, so those compare to 1e-15.
    if name in _STATE_MEASURES:
        fn, args = _STATE_MEASURES[name], (_STACK_STATES,)
    else:
        fn, args = _BOUND_FUNCTIONS[name]
    stacked = _leaves(fn(*args))
    for leaf in stacked:
        assert isinstance(leaf, np.ndarray) and leaf.shape == (3, 2)
    nones = 0
    for idx in np.ndindex(3, 2):
        single = _leaves(fn(*(a[idx] for a in args)))
        assert len(single) == len(stacked)
        for got, leaf in zip(single, stacked):
            if name == "is_ppt":
                assert type(got) is bool and got == leaf[idx]
            elif got is None:
                assert name == "negative_eigvec_mu" and np.isnan(leaf[idx])
                nones += 1
            elif name in _STATE_MEASURES:
                assert type(got) is float and got == leaf[idx]
            else:
                assert type(got) is float and got == pytest.approx(leaf[idx], rel=1e-15, abs=0.0)
    assert nones == (1 if name == "negative_eigvec_mu" else 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: region_bounds(math.nan, 0.3),
        lambda: closed_form_pqr(math.nan, 0.5, 0.5),
        lambda: nu_of_c(math.nan),
        lambda: c_of_nu(math.nan),
        lambda: bineg_mems(math.nan),
        lambda: bineg_lower_given_nu(math.nan),
        lambda: boundary_p_range(0.5, math.nan),
        lambda: boundary_bineg(0.5, 0.375, math.nan),
    ],
    ids=[
        "region_bounds", "closed_form_pqr", "nu_of_c", "c_of_nu", "bineg_mems",
        "bineg_lower_given_nu", "boundary_p_range", "boundary_bineg",
    ],
)
def test_nan_argument_is_rejected(call):
    # NaN fails every comparison, so a range test written as "x < 0 or x > 1"
    # let it through and these returned NaN or a plausible number
    with pytest.raises(BinegError):
        call()


class TestRegionBounds:
    def test_reference_pair(self):
        lo, hi = region_bounds(0.5, 0.375)
        assert lo == pytest.approx(77.0 / 216.0, abs=1e-15)
        assert hi == pytest.approx(147.0 / 400.0, abs=1e-15)

    def test_collapses_on_pure_edge(self):
        lo, hi = region_bounds(0.7, 0.7)
        assert lo == pytest.approx(0.7, abs=1e-12)
        assert hi == pytest.approx(0.7, abs=1e-12)

    def test_collapses_on_mems_edge(self):
        c = 0.6
        lo, hi = region_bounds(c, nu_of_c(c))
        assert lo == pytest.approx(bineg_mems(c), abs=1e-12)
        assert hi == pytest.approx(bineg_mems(c), abs=1e-12)

    def test_rejects_infeasible_pair(self):
        with pytest.raises(InfeasibleRegion):
            region_bounds(0.5, 0.19)
        with pytest.raises(InfeasibleRegion):
            region_bounds(0.5, 0.55)

    def test_validate_false_skips_feasibility(self):
        _region_bounds(0.5, 0.55)  # must not raise

    def test_measured_states_respect_lower_surface(self):
        rho = random_mixed(2, 310, size=3000)
        c, nu, n2 = concurrence(rho), negativity(rho), binegativity(rho)
        c, nu = np.clip(c, 0.0, 1.0), np.clip(nu, 0.0, 1.0)
        lo = nu * (c + nu) * (nu + 1.0) / ((c + nu) ** 2 + 2.0 * c * (1.0 - c))
        assert np.all(n2 >= lo - 1e-9)

    def test_upper_surface_is_genuinely_violated_by_some_states(self):
        # the conjectured upper surface does not actually hold for every
        # state: about half a percent of rank-2 samples sit above it, by up
        # to a few times 1e-3.  This is a real property of the measures
        # (confirmed at 40-digit precision), frozen here as a regression so
        # the sweep's nonzero finding count stays explainable.
        rho = random_mixed(2, 310, size=3000)
        c, nu, n2 = concurrence(rho), negativity(rho), binegativity(rho)
        c, nu = np.clip(c, 0.0, 1.0), np.clip(nu, 0.0, 1.0)
        hi = nu / 2.0 * (c + nu) ** 2 / (c**2 + nu**2)
        excess = n2 - hi
        above = excess > 1e-9
        assert np.count_nonzero(above) == 15
        assert excess[above].max() == pytest.approx(2.899e-3, abs=1e-5)
        # the exceeding states still obey the proven ordering bound
        assert np.all(n2[above] <= nu[above] + 1e-10)


class TestBoundaryBineg:
    def test_matches_numeric_family(self):
        for c, frac in ((0.3, 0.25), (0.5, 0.5), (0.8, 0.75)):
            nu = nu_of_c(c) + frac * (c - nu_of_c(c))
            lo, hi = boundary_p_range(c, nu)
            for p in np.linspace(lo, hi, 7):
                got = binegativity(boundary_family(c, nu, p))
                assert got == pytest.approx(boundary_bineg(c, nu, p), abs=1e-9)

    def test_endpoints_hit_region_bounds(self):
        c, nu = 0.5, 0.375
        p_lo, p_hi = boundary_p_range(c, nu)
        lo, hi = region_bounds(c, nu)
        assert boundary_bineg(c, nu, p_lo) == pytest.approx(hi, abs=1e-12)
        assert boundary_bineg(c, nu, p_hi) == pytest.approx(lo, abs=1e-12)

    def test_strictly_decreasing_in_p(self):
        for c in (0.25, 0.5, 0.9):
            for frac in (0.2, 0.5, 0.8):
                nu = nu_of_c(c) + frac * (c - nu_of_c(c))
                lo, hi = boundary_p_range(c, nu)
                vals = [boundary_bineg(c, nu, p) for p in np.linspace(lo, hi, 40)]
                assert np.all(np.diff(vals) < 0)

    def test_infeasible_pair(self):
        with pytest.raises(InfeasibleRegion):
            boundary_bineg(0.5, 0.5, 0.3)

    def test_p_out_of_range(self):
        with pytest.raises(OutOfRange):
            boundary_bineg(0.5, 0.375, 0.99)


class TestOrderingAndInvariance:
    def test_measure_ordering_on_samples(self):
        rho = random_mixed(2, 311, size=3000)
        c, nu, n2 = concurrence(rho), negativity(rho), binegativity(rho)
        assert np.all(n2 <= nu + 1e-10)
        assert np.all(nu <= c + 1e-10)

    def test_faithfulness_of_binegativity(self):
        # vanishing binegativity picks out exactly the unentangled states
        rho = random_mixed(3, 312, size=2000)
        nu, n2 = negativity(rho), binegativity(rho)
        assert np.array_equal(n2 == 0.0, nu == 0.0)
        assert 0 < np.count_nonzero(nu == 0.0) < 2000

    def test_local_unitary_invariance(self):
        from bineg.channels import haar_unitary

        rho = random_mixed(2, 313, size=200)
        u = haar_unitary(2, 314, size=200)
        v = haar_unitary(2, 315, size=200)
        w = kron(u, v)
        rotated = w @ rho @ np.conjugate(np.swapaxes(w, -2, -1))
        assert_allclose(concurrence(rotated), concurrence(rho), atol=1e-10)
        assert_allclose(negativity(rotated), negativity(rho), atol=1e-10)
        assert_allclose(binegativity(rotated), binegativity(rho), atol=1e-10)


class TestEqualityChain:
    """The three measures coincide exactly on the maximally entangled states."""

    BAND_MEASURE = 1e-9
    BAND_MU = 1e-6

    def flags(self, rho):
        c, nu, n2 = concurrence(rho), negativity(rho), binegativity(rho)
        mu = negative_eigvec_mu(rho)
        f1 = np.abs(n2 - nu) <= self.BAND_MEASURE
        f2 = np.abs(nu - c) <= self.BAND_MEASURE
        f3 = np.abs(mu - 0.5) <= self.BAND_MU
        return f1, f2, f3

    def test_generic_entangled_states_fail_all_three(self):
        rho = random_mixed(2, 424242, size=4000)
        keep = negativity(rho) > 0
        f1, f2, f3 = self.flags(rho[keep])
        assert not f1.any() and not f2.any() and not f3.any()

    def test_rotated_bell_states_pass_all_three(self):
        from bineg.channels import haar_unitary

        u = haar_unitary(2, 77, size=64)
        v = haar_unitary(2, 78, size=64)
        psi = np.einsum("nij,j->ni", kron(u, v), phi_plus())
        rho = psi[:, :, None] * psi.conj()[:, None, :]
        f1, f2, f3 = self.flags(rho)
        assert f1.all() and f2.all() and f3.all()

    def test_flags_agree_elementwise(self):
        rho = np.concatenate(
            [
                random_mixed(2, 316, size=500),
                [projector(phi_plus()) for _ in range(4)],
            ]
        )
        keep = negativity(rho) > 0
        f1, f2, f3 = self.flags(rho[keep])
        assert np.array_equal(f1, f2)
        assert np.array_equal(f2, f3)
        assert f1.any() and not f1.all()


class TestMeasureTriple:
    def test_json_dict_uses_plain_floats(self):
        t = MeasureTriple(0.5, 0.375, 0.3675)
        d = t.to_json_dict()
        assert d == {"c": 0.5, "nu": 0.375, "n2": 0.3675}
        assert all(type(x) is float for x in d.values())

    def test_measure_triple_batches(self):
        rho = random_mixed(2, 317, size=8)
        t = measure_triple(rho)
        assert t.c.shape == (8,)
        assert_allclose(t.nu, negativity(rho), atol=0)


# Accuracy against the 40-digit oracle.  Each state is built in mpmath from
# its parameters, rounded once to double precision, and refereed on that
# rounded matrix.  Full-rank families keep every positive eigenvalue
# (rank_cut=0), so the reference is the exact measure of the very input the
# kernel sees.  Rank-deficient families are refereed as states of their own
# rank: the oracle drops eigenvalues below RESIDUE_CUT, the rounding residue
# of the null space (about 1e-17, at most ~4e-16 for entries below 1).  Kept,
# that residue moves the exact concurrence of the rounded matrix by up to
# ~1e-9 wherever the spin-flipped support is rank-deficient (sigma_mems(0.5)
# under local unitaries reads 0.4999999991), a sensitivity of the input that
# no double-precision method resolves.  The cut sits below the oracle's own
# RANK_CUT (1e-12) because sigma_pqr with p ~ 1e-12 has a genuine eigenvalue
# of that size, worth 1e-12 of concurrence.
RESIDUE_CUT = 1e-15
ORACLE_ACCURACY = 1e-12
ORACLE_PROFILE = settings(derandomize=True, max_examples=30, deadline=None, database=None)

_unit = st.floats(-1.0, 1.0)
_PAULI = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))


def _mp_projector(amps):
    v = mpmath.matrix([mpmath.mpc(a) for a in amps])
    v /= mpmath.norm(v)
    return v * v.H


def _gram_factor(entries, rank):
    """4 x rank complex matrix from 8 * rank reals."""
    raw = np.asarray(entries[: 8 * rank], dtype=float)
    return (raw[0::2] + 1j * raw[1::2]).reshape(4, rank)


def _well_conditioned(entries, rank):
    s = np.linalg.svd(_gram_factor(entries, rank), compute_uv=False)
    return s[-1] > 1e-3 * s[0]


def _mp_gram(entries, rank):
    """``G G^dagger / Tr`` for a 4 x rank complex G from 8 * rank reals."""
    g = mpmath.matrix(_gram_factor(entries, rank).tolist())
    m = g * g.H
    return m / sum(m[i, i] for i in range(4))


def _mp_local_unitary(params):
    """``U_A x U_B``, each ``cos t I + i sin t (n . sigma)``: unitary to
    working precision for any nonzero axis ``n``."""
    factors = []
    for t, *axis in (params[:4], params[4:]):
        n = [mpmath.mpf(x) for x in axis]
        norm = mpmath.sqrt(sum(x * x for x in n))
        u = mpmath.cos(t) * mpmath.eye(2)
        for x, s in zip(n, _PAULI):
            u += 1j * mpmath.sin(t) * x / norm * mpmath.matrix(s)
        factors.append(u)
    a, b = factors
    out = mpmath.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            out[i, j] = a[i // 2, j // 2] * b[i % 2, j % 2]
    return out


_local = st.lists(st.floats(0.1, 1.0), min_size=8, max_size=8).filter(
    lambda p: sum(x * x for x in p[1:4]) > 0.01 and sum(x * x for x in p[5:]) > 0.01
)


def _rotate(m, params):
    u = _mp_local_unitary(params)
    return u * m * u.H


def _rounded(m):
    return np.array([[complex(m[i, j]) for j in range(4)] for i in range(4)])


def _assert_matches_oracle(rho, rank_cut=0):
    with mpmath.workdps(mp_oracle.DPS):
        c, nu, n2 = mp_oracle.measures(complex_matrix_to_json(rho), rank_cut=rank_cut)
        lam, t2 = nu / 2, (n2 - nu / 2) / 2
        # the zero cut is part of the definition: a negative eigenvalue
        # within ZERO_EIG_TOL of zero (||rho^G||_F <= 1 for a state) counts
        # as zero, in rho^G and in the partial transpose of its negative part
        if lam <= ZERO_EIG_TOL:
            lam = t2 = 0
        elif t2 <= ZERO_EIG_TOL:
            t2 = 0
        want = (c, 2 * lam, lam + 2 * t2)
    got = measure_triple(rho)
    for name, g, w in zip(("c", "nu", "n2"), (got.c, got.nu, got.n2), want):
        assert abs(g - float(w)) <= ORACLE_ACCURACY, f"{name}: {g!r} vs {mpmath.nstr(w, 20)}"


class TestOracleAccuracy:
    @ORACLE_PROFILE
    @given(
        psi=st.lists(_unit, min_size=8, max_size=8).filter(
            lambda v: sum(x * x for x in v) > 0.1
        ),
        sigma=st.lists(_unit, min_size=32, max_size=32).filter(
            lambda v: sum(x * x for x in v) > 0.1
        ),
        log_eps=st.floats(-16.0, -8.0),
    )
    def test_near_pure(self, psi, sigma, log_eps):
        # (1 - eps)|psi><psi| + eps sigma with sigma of full rank (mixed with
        # I/4, so no eigenvalue below 1/8); C used to err by about eps here
        with mpmath.workdps(mp_oracle.DPS):
            eps = mpmath.mpf(10) ** log_eps
            amps = [mpmath.mpc(psi[2 * k], psi[2 * k + 1]) for k in range(4)]
            full = (_mp_gram(sigma, 4) + mpmath.eye(4) / 4) / 2
            rho = _rounded((1 - eps) * _mp_projector(amps) + eps * full)
        _assert_matches_oracle(rho)

    @ORACLE_PROFILE
    @given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), r=st.floats(0.0, 1.0))
    def test_rank_deficient_sigma_pqr(self, p, q, r):
        with mpmath.workdps(mp_oracle.DPS):
            phi = _mp_projector([mpmath.sqrt(q), 0, 0, mpmath.sqrt(1 - mpmath.mpf(q))])
            psi = _mp_projector([0, mpmath.sqrt(r), -mpmath.sqrt(1 - mpmath.mpf(r)), 0])
            rho = _rounded(p * phi + (1 - mpmath.mpf(p)) * psi)
        _assert_matches_oracle(rho, RESIDUE_CUT)

    @ORACLE_PROFILE
    @given(entries=st.lists(_unit, min_size=24, max_size=24), rank=st.sampled_from([2, 3]))
    def test_rank_deficient_gram(self, entries, rank):
        # a nonzero spectrum within a factor 1e6, so that every eigenvalue
        # the oracle drops is rounding residue
        assume(_well_conditioned(entries, rank))
        with mpmath.workdps(mp_oracle.DPS):
            rho = _rounded(_mp_gram(entries, rank))
        _assert_matches_oracle(rho, RESIDUE_CUT)

    @ORACLE_PROFILE
    @given(
        q=st.floats(0.05, 0.5),
        side=st.sampled_from([-1, 1]),
        log_offset=st.floats(-9.0, -2.0),
        local=_local,
    )
    def test_near_ppt_werner_type(self, q, side, log_offset, local):
        # p |phi_q><phi_q| + (1-p) I/4 at p = p*(1 + offset), p* the PPT
        # boundary, under local unitaries; the negative eigenvalue is
        # offset/4, so offsets of 1e-9 and up keep it 25x above the zero cut
        # (1e-11), below which N and N2 read 0 by definition
        with mpmath.workdps(mp_oracle.DPS):
            q = mpmath.mpf(q)
            p_star = 1 / (1 + 4 * mpmath.sqrt(q * (1 - q)))
            p = p_star * (1 + side * mpmath.mpf(10) ** log_offset)
            phi = _mp_projector([mpmath.sqrt(q), 0, 0, mpmath.sqrt(1 - q)])
            rho = _rounded(_rotate(p * phi + (1 - p) * mpmath.eye(4) / 4, local))
        assert (negativity(rho) > 0.0) == (side > 0)
        _assert_matches_oracle(rho)

    @ORACLE_PROFILE
    @given(x=st.floats(0.0, 1.0), munro=st.booleans(), local=_local)
    def test_mems_edges(self, x, munro, local):
        # sigma_mems(x), the least-negativity edge, or the Munro MEMS with
        # concurrence x (g = 1/3 below x = 2/3, x/2 above), both rank
        # deficient and rotated out of the X form by local unitaries
        with mpmath.workdps(mp_oracle.DPS):
            x = mpmath.mpf(x)
            m = mpmath.matrix(4, 4)
            if munro:
                g = mpmath.mpf(1) / 3 if x < mpmath.mpf(2) / 3 else x / 2
                m[0, 0] = m[3, 3] = g
                m[1, 1] = 1 - 2 * g
                m[0, 3] = m[3, 0] = x / 2
            else:
                m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = x / 2
                m[2, 2] = 1 - x
            rho = _rounded(_rotate(m, local))
        _assert_matches_oracle(rho, RESIDUE_CUT)

    def test_rank_four_gaussian_regression(self):
        # a Gaussian rank-4 sample on which the squared-root concurrence
        # erred by 1.8e-7
        _assert_matches_oracle(random_mixed(4, 42, size=100_000)[825])


def _assert_screen_within_bound(rho):
    """The screen declines a state, with NaN in all three results, or
    settles it: the reference's PPT cut and exact zeros on the PPT side,
    and ``nu`` and ``n2`` within the certified bound, which is at most
    ``_SCREEN_BOUND``.  Returns the settled mask."""
    nu, n2, bound = map(np.atleast_1d, _nu_n2_screen(rho))
    want_nu, want_n2 = map(np.atleast_1d, _nu_n2(*_negative_branch(rho)))
    settled = np.isfinite(nu)
    assert np.array_equal(np.isfinite(n2), settled) and np.array_equal(np.isfinite(bound), settled)
    assert np.all(np.isnan(nu[~settled])) and np.all(np.isnan(bound[~settled]))
    assert np.all(bound[settled] <= _SCREEN_BOUND)
    assert np.array_equal((nu == 0.0)[settled], (want_nu == 0.0)[settled])
    ppt = settled & (want_nu == 0.0)
    assert np.all(n2[ppt] == 0.0) and np.all(bound[ppt] == 0.0)
    assert np.all(np.abs(nu - want_nu)[settled] <= bound[settled])
    assert np.all(np.abs(n2 - want_n2)[settled] <= bound[settled])
    return settled


def _bell_diagonal(weights):
    """``sum_k w_k |B_k><B_k|`` over the four Bell states."""
    s = 1.0 / np.sqrt(2.0)
    bell = np.array([[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]], dtype=complex)
    return sum(w * np.outer(b, b.conj()) for w, b in zip(weights, bell))


def _qubit(x, y, z):
    """The qubit state with Bloch vector ``(x, y, z)`` shrunk into the ball."""
    r = max(1.0, math.sqrt(x * x + y * y + z * z))
    return 0.5 * np.array([[1 + z / r, (x - 1j * y) / r], [(x + 1j * y) / r, 1 - z / r]])


_SCREEN_PROFILE = settings(derandomize=True, max_examples=60, deadline=None, database=None)


class TestNuN2Screen:
    """``_nu_n2_screen`` against ``_nu_n2(*_negative_branch(rho))``: it may
    decline any state, but a state it settles is within its bound."""

    @pytest.mark.parametrize(
        "name, rho",
        [
            ("maximally mixed", np.eye(4, dtype=complex) / 4),
            ("phi_plus", projector(phi_plus())),
            ("werner 0.7", _bell_diagonal([0.7, 0.1, 0.1, 0.1])),
            ("werner at the PPT edge", _bell_diagonal([0.5, 0.5 / 3, 0.5 / 3, 0.5 / 3])),
            ("bell-diagonal", _bell_diagonal([0.4, 0.3, 0.2, 0.1])),
            ("two bell states", _bell_diagonal([0.5, 0.5, 0.0, 0.0])),
            ("product |00>", np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)),
            ("mixed product", np.kron(_qubit(0.3, -0.2, 0.5), _qubit(-0.6, 0.1, 0.2))),
            ("rho1", RHO1),
            ("rho2", RHO2),
            ("sigma_mems(0.5)", sigma_mems(0.5)),
            ("sigma_mems(1e-6)", sigma_mems(1e-6)),
        ],
    )
    def test_fixed_states(self, name, rho):
        _assert_screen_within_bound(rho)

    def test_fixed_states_that_it_settles(self):
        # a clear gap below the rest of rho^G: entangled, PPT, and degenerate
        # above the negative eigenvalue
        for rho in (RHO1, _bell_diagonal([0.7, 0.1, 0.1, 0.1]), np.kron(_qubit(0.3, -0.2, 0.5), _qubit(-0.6, 0.1, 0.2))):
            assert _assert_screen_within_bound(rho).all()
        nu, n2, bound = _nu_n2_screen(projector(phi_plus()))
        assert type(nu) is float and nu == pytest.approx(1.0, abs=1e-12) and n2 == pytest.approx(1.0, abs=1e-12)

    def test_a_root_that_is_not_the_least_is_declined(self):
        # rho^G is diag(1e-6, ., ., 1 - 5e-6) with the block [[2e-6, 4e-6],
        # [4e-6, 2e-6]] on |01>, |10>: eigenvalues -2e-6, 1e-6 and 6e-6, so
        # close together beside 1 that 6 Laguerre steps from Samuelson's bound
        # stop near -4.6e-4.  There the adjugate's largest diagonal entry is
        # that of |00>, an exact eigenvector of 1e-6: its residual is rounding
        # and delta > 4 r holds.  Only theta - e < delta tells that 1e-6 is
        # not the least eigenvalue; without it the state settles as PPT.
        rho = np.diag([1e-6, 2e-6, 2e-6, 1.0 - 5e-6]).astype(complex)
        rho[0, 3] = rho[3, 0] = 4e-6
        assert np.isnan(_nu_n2_screen(rho)).all()
        assert negativity(rho) == pytest.approx(4e-6, rel=1e-9)

    def test_sigma_pqr_grid(self):
        axis = np.linspace(0.0, 1.0, 11)
        p, q, r = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
        _assert_screen_within_bound(sigma_pqr(p, q, r))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_states(self, rank):
        # it settles nearly every sampled state of rank 2 and up
        settled = _assert_screen_within_bound(random_mixed(rank, 20 + rank, size=4096))
        if rank > 1:
            assert settled.mean() > 0.995

    @_SCREEN_PROFILE
    @given(
        psi=st.lists(_unit, min_size=8, max_size=8).filter(lambda v: sum(x * x for x in v) > 0.1),
        sigma=st.lists(_unit, min_size=32, max_size=32),
        log_eps=st.floats(-16.0, -8.0),
    )
    def test_near_pure(self, psi, sigma, log_eps):
        v = _gram_factor(psi, 1)[:, 0]
        g = _gram_factor(sigma, 4)
        full = g @ g.conj().T + np.eye(4)
        eps = 10.0**log_eps
        _assert_screen_within_bound((1 - eps) * np.outer(v, v.conj()) / np.vdot(v, v).real + eps * full / np.trace(full).real)

    @_SCREEN_PROFILE
    @given(q=st.floats(0.05, 0.5), side=st.sampled_from([-1, 1]), log_offset=st.floats(-13.0, -2.0), local=_local)
    def test_near_ppt_werner_type(self, q, side, log_offset, local):
        # the negative eigenvalue is offset/4, so the smallest offsets put it
        # at the zero cut (1e-11), where the screen must decline or agree
        with mpmath.workdps(mp_oracle.DPS):
            q = mpmath.mpf(q)
            p_star = 1 / (1 + 4 * mpmath.sqrt(q * (1 - q)))
            p = p_star * (1 + side * mpmath.mpf(10) ** log_offset)
            phi = _mp_projector([mpmath.sqrt(q), 0, 0, mpmath.sqrt(1 - q)])
            rho = _rounded(_rotate(p * phi + (1 - p) * mpmath.eye(4) / 4, local))
        _assert_screen_within_bound(rho)

    @pytest.mark.parametrize(
        "offset", [3.6e-11, 3.99999e-11, 4e-11, 4.00001e-11, 4.4e-11, 7.6e-11, 8e-11, 8.00001e-11, 8.4e-11, 4e-9]
    )
    def test_at_the_zero_cut(self, offset):
        # a Werner state whose negative eigenvalue, offset / 4, lies at or
        # near the zero cut 1e-11 of _negative_branch, or whose t2, half of
        # it, lies at or near the same cut of _nu_n2
        with mpmath.workdps(mp_oracle.DPS):
            p = (1 + mpmath.mpf(offset)) / 3
            rho = _rounded(p * _mp_projector([1, 0, 0, 1]) + (1 - p) * mpmath.eye(4) / 4)
        settled = _assert_screen_within_bound(rho)
        if offset == 4e-9:
            assert settled.all() and _nu_n2_screen(rho)[0] > 0.0

    @pytest.mark.parametrize("cut", [1e-11, 2e-11])
    def test_straddling_the_cut(self, cut):
        # Werner states p |phi+><phi+| + (1 - p) I / 4, each under its own
        # local unitary, with lam = (3p - 1) / 4 at the cut (1e-11) of
        # _negative_branch or t2 = lam / 2 at that of _nu_n2: 400 within 3e-16
        # of it, where rounding puts the reference's value on one side and
        # the screen's on the other, and 100 within 3e-14, beyond the
        # screen's allowance of 1e-14
        lam = cut + np.concatenate([np.linspace(-3e-16, 3e-16, 400), np.linspace(-3e-14, 3e-14, 100)])
        p = ((4.0 * lam + 1.0) / 3.0)[:, None, None]
        rng = np.random.default_rng(5)
        u = [np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0] for _ in range(2 * len(lam))]
        u = np.stack([np.kron(a, b) for a, b in zip(u[::2], u[1::2])])
        rho = u @ (p * projector(phi_plus()) + (1.0 - p) * np.eye(4) / 4.0) @ u.conj().transpose(0, 2, 1)
        settled = _assert_screen_within_bound(rho)
        assert not settled[:400].any() and settled[400:].sum() > 50

    @_SCREEN_PROFILE
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1), local=_local)
    def test_bell_diagonal(self, weights, local):
        # rho^G of a Bell-diagonal state is diagonal in the magic basis, and
        # equal weights make its spectrum degenerate
        w = np.asarray(weights) / sum(weights)
        with mpmath.workdps(mp_oracle.DPS):
            m = mpmath.matrix(_bell_diagonal(w).tolist())
            rho = _rounded(_rotate(m, local))
        _assert_screen_within_bound(rho)

    @_SCREEN_PROFILE
    @given(a=st.lists(_unit, min_size=3, max_size=3), b=st.lists(_unit, min_size=3, max_size=3))
    def test_product_states(self, a, b):
        _assert_screen_within_bound(np.kron(_qubit(*a), _qubit(*b)))

    @_SCREEN_PROFILE
    @given(entries=st.lists(_unit, min_size=24, max_size=24), rank=st.sampled_from([1, 2, 3]))
    def test_rank_deficient(self, entries, rank):
        g = _gram_factor(entries, rank)
        assume(np.abs(g).max() > 1e-3)
        m = g @ g.conj().T
        _assert_screen_within_bound(m / np.trace(m).real)

    @_SCREEN_PROFILE
    @given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), r=st.floats(0.0, 1.0))
    def test_sigma_pqr(self, p, q, r):
        _assert_screen_within_bound(sigma_pqr(p, q, r))


class TestUhlmannClosedForm:
    """``_uhlmann`` of a 4 x 2 factor is ``s1 - s2`` without an SVD."""

    @staticmethod
    def svd_form(f):
        sv = np.linalg.svd(np.swapaxes(f, -1, -2) @ (_YY_REAL @ f), compute_uv=False)
        return 2.0 * sv[..., 0] - sv.sum(axis=-1)

    def test_random_factors_match_the_svd(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((4096, 4, 2)) + 1j * rng.standard_normal((4096, 4, 2))
        # the closed form rounds (s1 - s2)^2 to a few eps |A|_F^2 <= eps Tr^2,
        # which moves s1 - s2 more where it is small
        tr = np.square(np.abs(f)).sum(axis=(-2, -1))
        assert np.max(np.abs(_uhlmann(f) ** 2 - self.svd_form(f) ** 2) / tr**2) < 1e-14

    @pytest.mark.parametrize("t", [0.0, 1e-16, 1e-12, 1e-8, 1e-4, 0.1])
    def test_near_equal_singular_values(self, t):
        # f = [phi_plus, sqrt(1 - t) psi_plus] has f^T (Y x Y) f = diag(-1, 1 - t);
        # local unitaries and a unitary mix of the columns keep s1 - s2 = t
        s = 1.0 / np.sqrt(2.0)
        f = np.array([[s, 0.0], [0.0, s], [0.0, s], [s, 0.0]], dtype=complex)
        f[:, 1] *= np.sqrt(1.0 - t)
        rng = np.random.default_rng(11)
        u = [np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0] for n in (2, 2, 2)]
        f = np.kron(u[0], u[1]) @ f @ u[2]
        got = _uhlmann(f)
        assert abs(got - t) <= 4.0 * np.sqrt(np.finfo(float).eps)
        assert abs(got - self.svd_form(f)) <= 4.0 * np.sqrt(np.finfo(float).eps)

    def test_a_zero_factor(self):
        assert _uhlmann(np.zeros((4, 2), dtype=complex)) == 0.0
        assert np.array_equal(_uhlmann(np.zeros((3, 4, 2), dtype=complex)), np.zeros(3))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_concurrence_keeps_the_bits_of_the_matmul_form(self, rank):
        # (Y x Y) f is a signed permutation of the rows of f, with the bits
        # of the matmul by the real matrix, the zero columns of the null
        # space included
        rho = random_mixed(rank, 40 + rank, size=2048)
        w, v = np.linalg.eigh(rho)
        f = v * np.sqrt(np.where(w > _RANK_CUT, w, 0.0))[..., None, :]
        want = np.maximum(self.svd_form(f), 0.0)
        assert np.array_equal(concurrence(rho), want)
        assert all(concurrence(rho[j]) == want[j] for j in range(8))

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_other_widths_take_the_singular_values(self, k):
        # concurrence passes k = 4; its bits stay those of the SVD form
        rng = np.random.default_rng(k)
        f = rng.standard_normal((64, 4, k)) + 1j * rng.standard_normal((64, 4, k))
        assert np.array_equal(_uhlmann(f), self.svd_form(f))
