"""Tests for channel construction, Choi conversion, and the PPT sampler."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bineg.channels import (
    COMPLETENESS_TOL,
    ChoiMatrix,
    KrausChannel,
    apply,
    choi_from_kraus,
    haar_isometry,
    haar_unitary,
    is_ppt_channel,
    kraus_from_choi,
    one_way_locc_channel,
    project_to_ppt_channel,
    random_local_channel,
    random_local_unitary_pair,
    random_ppt_channel,
)
from bineg.errors import DimensionMismatch, NoConvergence, NotTracePreserving, OutOfRange
from bineg.linalg import dagger, frobenius_distance, kron, partial_transpose, transpose_factors
from bineg.measures import binegativity, concurrence, negativity
from bineg.states import is_ppt, random_mixed, sigma_pqr

IDENTITY = KrausChannel((np.eye(4, dtype=complex),), 4, 4)

# sixteen basis-transfer operators |i><j| / 2: sends every input to the
# maximally mixed state
DEPOLARIZING = KrausChannel(
    tuple(np.outer(e, f).astype(complex) / 2.0 for e in np.eye(4) for f in np.eye(4)),
    4,
    4,
)


def completeness_defect(ch):
    comp = sum(dagger(k) @ k for k in ch.kraus_ops)
    return float(frobenius_distance(comp, np.eye(ch.dim_in)))


def random_product_mixture(rng, terms=3):
    """A manifestly separable state: convex mix of product pure states."""
    w = rng.dirichlet(np.ones(terms))
    out = np.zeros((4, 4), dtype=complex)
    for t in range(terms):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        out += w[t] * np.outer(v, v.conj())
    return out


class TestKrausChannel:
    def test_identity_acts_trivially(self):
        rho = random_mixed(3, 500)
        assert_allclose(apply(IDENTITY, rho), rho, atol=1e-15)

    def test_depolarizing_maps_to_maximally_mixed(self):
        rho = random_mixed(2, 501)
        out = apply(DEPOLARIZING, rho)
        assert_allclose(out, np.eye(4) / 4, atol=1e-12)
        assert binegativity(out) == 0.0

    def test_rejects_incomplete_kraus_set(self):
        with pytest.raises(NotTracePreserving):
            KrausChannel((np.eye(4, dtype=complex) * 0.5,), 4, 4)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(3, dtype=complex),), 4, 4)

    def test_rejects_empty_family(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((), 4, 4)

    def test_json_round_trip(self):
        ch = one_way_locc_channel(3, 502)
        back = KrausChannel.from_json_dict(ch.to_json_dict())
        assert len(back.kraus_ops) == len(ch.kraus_ops)
        for a, b in zip(back.kraus_ops, ch.kraus_ops):
            assert np.array_equal(a, b)

    def test_apply_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(503)
        kinds = [
            lambda: random_local_unitary_pair(rng),
            lambda: random_local_channel(
                "A" if rng.uniform() < 0.5 else "B", int(rng.integers(1, 5)), rng
            ),
            lambda: one_way_locc_channel(int(rng.integers(1, 5)), rng),
        ]
        for i in range(600):
            out = apply(kinds[i % 3](), random_mixed(int(rng.integers(1, 5)), rng))
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out)[0] >= -1e-11


class TestHaarSampling:
    def test_unitary_is_unitary(self):
        u = haar_unitary(4, 504, size=50)
        assert_allclose(u @ dagger(u), np.broadcast_to(np.eye(4), (50, 4, 4)), atol=1e-12)

    def test_same_seed_same_draw(self):
        assert np.array_equal(haar_unitary(2, 505, size=3), haar_unitary(2, 505, size=3))
        assert haar_unitary(2, 505).shape == (2, 2)

    def test_trace_moment_vanishes(self):
        # mean trace of Haar unitaries is 0; the sample mean of 1e4 draws
        # concentrates within a few standard errors of that
        u = haar_unitary(2, 506, size=10_000)
        m = np.einsum("nii->n", u).mean()
        assert abs(m) <= 3.0 / np.sqrt(10_000)

    def test_isometry_columns_orthonormal(self):
        v = haar_isometry(2, 6, 507)
        assert v.shape == (6, 2)
        assert_allclose(dagger(v) @ v, np.eye(2), atol=1e-12)


class TestLocalChannels:
    def test_unitary_pair_preserves_measures(self):
        rho = random_mixed(2, 508, size=100)
        for i in range(0, 100, 10):
            ch = random_local_unitary_pair(600 + i)
            assert len(ch.kraus_ops) == 1
            out = apply(ch, rho[i])
            assert concurrence(out) == pytest.approx(concurrence(rho[i]), abs=1e-10)
            assert negativity(out) == pytest.approx(negativity(rho[i]), abs=1e-10)
            assert binegativity(out) == pytest.approx(binegativity(rho[i]), abs=1e-10)

    def test_trivial_environment_gives_single_unitary(self):
        ch = random_local_channel("A", 1, 509)
        assert len(ch.kraus_ops) == 1
        u = ch.kraus_ops[0]
        assert_allclose(u @ dagger(u), np.eye(4), atol=1e-12)

    def test_kraus_count_matches_environment(self):
        for env in (1, 2, 3, 4):
            assert len(random_local_channel("B", env, 510).kraus_ops) == env

    def test_completeness_holds_across_samples(self):
        rng = np.random.default_rng(520)
        for _ in range(200):
            ch = random_local_channel("A", int(rng.integers(1, 5)), rng)
            assert completeness_defect(ch) <= COMPLETENESS_TOL

    def test_rejects_bad_side_or_environment(self):
        with pytest.raises(OutOfRange):
            random_local_channel("c", 2, 0)
        with pytest.raises(OutOfRange):
            random_local_channel("A", 5, 0)

    def test_separable_stays_ppt(self):
        rng = np.random.default_rng(511)
        for i in range(50):
            rho = random_product_mixture(rng)
            ch = random_local_channel("A" if i % 2 else "B", 1 + i % 4, rng)
            assert is_ppt(apply(ch, rho))

    def test_acts_on_stated_side_only(self):
        # a channel on A leaves B's reduced state untouched
        rho = random_mixed(2, 512)
        out = apply(random_local_channel("A", 3, 513), rho)

        def red_b(m):
            return m.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)

        assert_allclose(red_b(out), red_b(rho), atol=1e-12)


class TestOneWayLocc:
    def test_single_outcome_is_product_unitary(self):
        ch = one_way_locc_channel(1, 514)
        assert len(ch.kraus_ops) == 1
        u = ch.kraus_ops[0]
        assert_allclose(u @ dagger(u), np.eye(4), atol=1e-12)

    def test_outcome_count(self):
        for m in (1, 2, 3, 4):
            assert len(one_way_locc_channel(m, 515).kraus_ops) == m

    def test_separable_stays_ppt(self):
        rng = np.random.default_rng(516)
        for _ in range(50):
            ch = one_way_locc_channel(int(rng.integers(1, 5)), rng)
            assert is_ppt(apply(ch, random_product_mixture(rng)))

    def test_rejects_zero_outcomes(self):
        with pytest.raises(OutOfRange):
            one_way_locc_channel(0, 0)


class TestChoi:
    def test_identity_choi_is_maximally_entangled_projector(self):
        choi = choi_from_kraus(IDENTITY)
        w = np.linalg.eigvalsh(choi.matrix)
        assert_allclose(w[-1], 4.0, atol=1e-12)
        assert_allclose(w[:-1], 0.0, atol=1e-12)

    def test_depolarizing_choi(self):
        choi = choi_from_kraus(DEPOLARIZING)
        assert_allclose(choi.matrix, np.eye(16) / 4, atol=1e-12)

    def test_round_trip_preserves_action(self):
        rng = np.random.default_rng(517)
        for m in (1, 2, 4):
            ch = one_way_locc_channel(m, rng)
            back = kraus_from_choi(choi_from_kraus(ch))
            for rho in random_mixed(2, rng, size=5):
                assert frobenius_distance(apply(ch, rho), apply(back, rho)) <= 1e-9

    def test_choi_validates_trace_preservation(self):
        with pytest.raises(NotTracePreserving):
            ChoiMatrix(np.eye(16, dtype=complex), 4, 4)


class TestPptChannels:
    def test_product_channels_are_ppt(self):
        rng = np.random.default_rng(518)
        assert is_ppt_channel(choi_from_kraus(IDENTITY))
        for _ in range(25):
            assert is_ppt_channel(choi_from_kraus(random_local_channel("A", 2, rng)))
            assert is_ppt_channel(choi_from_kraus(one_way_locc_channel(2, rng)))

    def test_swap_is_not_ppt(self):
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[2 * b + a, 2 * a + b] = 1.0
        assert not is_ppt_channel(choi_from_kraus(KrausChannel((swap,), 4, 4)))

    def test_sampler_satisfies_cone_constraints(self):
        for seed in range(30):
            choi, ch = random_ppt_channel(seed)
            assert is_ppt_channel(choi, tol=1e-9)
            assert completeness_defect(ch) <= COMPLETENESS_TOL
            # the recovered Kraus family reproduces the projected Choi matrix
            round_trip = choi_from_kraus(ch)
            assert frobenius_distance(round_trip.matrix, choi.matrix) <= 1e-8

    def test_sampler_is_deterministic(self):
        (_, a), (_, b) = random_ppt_channel(9), random_ppt_channel(9)
        assert len(a.kraus_ops) == len(b.kraus_ops)
        for ka, kb in zip(a.kraus_ops, b.kraus_ops):
            assert np.array_equal(ka, kb)

    def test_ppt_channel_output_on_ppt_input_stays_ppt(self):
        # defining property: PPT in, PPT out (within projection tolerance)
        rng = np.random.default_rng(519)
        for seed in range(20):
            _, ch = random_ppt_channel(seed)
            out = apply(ch, random_product_mixture(rng))
            assert np.linalg.eigvalsh(partial_transpose(out))[0] >= -1e-8
            out2 = apply(ch, sigma_pqr(0.5, 0.5, 0.5))
            assert np.linalg.eigvalsh(partial_transpose(out2))[0] >= -1e-8


def ppt_starts(seed, count):
    """Normalized Ginibre squares, the starts the PPT sampler projects."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        j = g @ dagger(g)
        out.append(4.0 * j / np.trace(j).real)
    return np.stack(out)


def reference_projection(start, tol=1e-9):
    """One-matrix Dykstra loop and 1e-12 polish, written out plainly as the
    reference for the stacked projection; returns the symmetrized result."""
    dims, factors = (2, 2, 2, 2), (1, 3)

    def psd(j):
        w, v = np.linalg.eigh((j + dagger(j)) / 2.0)
        return (v * np.clip(w, 0.0, None)) @ dagger(v)

    def ppt(j):
        return transpose_factors(psd(transpose_factors(j, dims, factors)), dims, factors)

    def trace_out(j):
        return np.einsum("iojo->ij", j.reshape(4, 4, 4, 4))

    def tp(j):
        return j - kron(trace_out(j) - np.eye(4), np.eye(4)) / 4

    def cone_defect(j):
        g = transpose_factors(j, dims, factors)
        low = min(np.linalg.eigvalsh((m + dagger(m)) / 2.0)[0] for m in (j, g))
        return max(0.0, -low)

    j = start
    corrections = [np.zeros_like(j)] * 3
    for _ in range(10000):
        for i, proj in enumerate((psd, ppt, tp)):
            shifted = j + corrections[i]
            j = proj(shifted)
            corrections[i] = shifted - j
        if cone_defect(j) <= tol and np.abs(trace_out(j) - np.eye(4)).max() <= tol:
            break
    for _ in range(200):
        j = tp(ppt(psd(j)))
        if cone_defect(j) <= 1e-12:
            break
    return (j + dagger(j)) / 2.0


class TestStackedProjection:
    def test_stack_is_bit_identical_to_one_matrix_calls(self):
        # the completely depolarizing Choi matrix I/4 is already feasible and
        # leaves after one round; the Ginibre starts need from 6 to about 30
        starts = np.concatenate([ppt_starts(61, 11), np.eye(16, dtype=complex)[None] / 4.0])
        within_15 = [True] * len(starts)
        for k, start in enumerate(starts):
            try:
                project_to_ppt_channel(start, max_iter=15)
            except NoConvergence:
                within_15[k] = False
        assert 1 < sum(within_15) < len(starts)  # items stop in different rounds
        singles = [project_to_ppt_channel(s) for s in starts]
        stacked = project_to_ppt_channel(starts.reshape(3, 4, 16, 16))
        assert len(stacked) == len(starts)
        for start, (choi_a, ch_a), (choi_b, ch_b) in zip(starts, singles, stacked):
            assert np.array_equal(choi_a.matrix, reference_projection(start))
            assert np.array_equal(choi_a.matrix, choi_b.matrix)
            assert len(ch_a.kraus_ops) == len(ch_b.kraus_ops)
            for ka, kb in zip(ch_a.kraus_ops, ch_b.kraus_ops):
                assert np.array_equal(ka, kb)

    def test_exhausted_budget_raises(self):
        starts = ppt_starts(62, 4)
        with pytest.raises(NoConvergence):
            project_to_ppt_channel(starts[0], max_iter=1)
        with pytest.raises(NoConvergence):
            project_to_ppt_channel(starts, max_iter=1)
