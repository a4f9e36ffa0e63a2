"""Tests for channel construction, Choi conversion, and the PPT sampler."""

import json
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bineg import channels
from bineg.channels import (
    COMPLETENESS_TOL,
    ChoiMatrix,
    KrausChannel,
    _check_choi,
    _check_complete,
    _cone_defects,
    _fails_ppt,
    _isometry,
    _kraus_stack,
    _one_way_locc_kraus,
    _ppt_start,
    _stinespring_kraus,
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
from bineg.errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotTracePreserving,
    OutOfRange,
    ParseError,
)
from bineg.linalg import dagger, frobenius_distance, frobenius_norm, kron, partial_transpose, transpose_factors
from bineg.measures import binegativity, concurrence, negativity
from bineg.serialize import dumps
from bineg.states import _gaussian_matrices, is_ppt, random_mixed, sigma_pqr

IDENTITY = KrausChannel((np.eye(4, dtype=complex),), 4, 4)


def written(ch):
    """The JSON object a report holds for channel ``ch``: its operators as
    ``[re, im]`` lists, as :meth:`KrausChannel.from_json_dict` reads them."""
    return json.loads(dumps(ch.to_json_dict()))

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

    def test_stacked_completeness_check_sees_one_spoiled_item(self):
        rng = np.random.default_rng(530)
        kraus = np.zeros((5, 4, 4, 4), dtype=complex)
        for i in range(5):
            ops = one_way_locc_channel(2 + i % 3, rng).kraus_ops
            kraus[i, : len(ops)] = ops
        _check_complete(kraus)
        kraus[3] *= 1.0 + 1e-9
        with pytest.raises(NotTracePreserving):
            _check_complete(kraus)

    def test_rejects_nan_family(self):
        # a NaN defect compares False with any tolerance, so the check must
        # ask for the defect to be within it, not for it to exceed it
        with pytest.raises(NotTracePreserving):
            KrausChannel((np.full((4, 4), np.nan),), 4, 4)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(3, dtype=complex),), 4, 4)

    def test_rejects_empty_family(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((), 4, 4)

    def test_json_round_trip(self):
        ch = one_way_locc_channel(3, 502)
        back = KrausChannel.from_json_dict(written(ch))
        assert len(back.kraus_ops) == len(ch.kraus_ops)
        for a, b in zip(back.kraus_ops, ch.kraus_ops):
            assert np.array_equal(a, b)

    def test_owns_its_operators(self):
        # a view would keep the whole stack it was cut from alive
        stack = np.stack([np.eye(4, dtype=complex)] * 2) / np.sqrt(2)
        ch = KrausChannel(tuple(stack), 4, 4)
        assert all(k.base is None for k in ch.kraus_ops)
        stack[0] = 0
        assert np.array_equal(ch.kraus_ops[0], np.eye(4) / np.sqrt(2))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dim_in", 4.9, "dim_in must be an integer, got 4.9"),
            ("dim_in", True, "dim_in must be an integer, got True"),
            ("dim_out", "4", "dim_out must be an integer, got '4'"),
            ("dim_out", 0, "dim_out must be >= 1, got 0"),
        ],
    )
    def test_json_dims_are_integers_in_range(self, key, value, message):
        # a float is not truncated to the dimension of the operators
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            KrausChannel.from_json_dict({**written(IDENTITY), key: value})

    @pytest.mark.parametrize("key", ["kraus", "dim_in", "dim_out"])
    def test_json_without_a_key_is_a_parse_error(self, key):
        data = written(IDENTITY)
        del data[key]
        with pytest.raises(ParseError, match=f"^a Kraus channel needs its '{key}'$"):
            KrausChannel.from_json_dict(data)

    @pytest.mark.parametrize("data", [[], None, "x", 5])
    def test_json_that_is_not_an_object_is_a_parse_error(self, data):
        message = f"a Kraus channel is a JSON object, got {type(data).__name__}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            KrausChannel.from_json_dict(data)

    @pytest.mark.parametrize("kraus", [5, None, 0.5, "x", {"0": []}])
    def test_json_kraus_that_is_not_a_list_is_a_parse_error(self, kraus):
        # no value escapes as a TypeError, and a string is not read per letter
        message = f"a Kraus channel's 'kraus' is a list, got {type(kraus).__name__}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            KrausChannel.from_json_dict({**written(IDENTITY), "kraus": kraus})

    @pytest.mark.parametrize("entry, bad", [(True, "True"), ("0.5", "'0.5'"), (None, "None")])
    def test_json_kraus_entries_are_finite_numbers(self, entry, bad):
        # they were read as 1.0, 0.5 and NaN
        data = written(IDENTITY)
        data["kraus"][0][0][0][0] = entry
        with pytest.raises(ParseError, match=f"^matrix entries are finite numbers, got {bad}$"):
            KrausChannel.from_json_dict(data)

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

    def test_unitary_corner_is_uniform(self):
        # |U_00|^2 of a Haar 2x2 unitary is uniform on [0, 1]: the
        # Kolmogorov-Smirnov statistic of 2e4 draws stays below its 1%
        # critical value, 1.628 / sqrt(n)
        x = np.sort(np.abs(haar_unitary(2, 519, size=20_000)[:, 0, 0]) ** 2)
        n = len(x)
        ks = max((np.arange(1, n + 1) / n - x).max(), (x - np.arange(n) / n).max())
        assert ks < 1.628 / np.sqrt(n)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (6, 2), (8, 2), (16, 16)])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("parallel", [False, True], ids=["ginibre", "parallel"])
    def test_map_of_adversarial_factors_is_an_isometry(self, shape, scale, parallel):
        rng = np.random.default_rng(520)
        g = rng.standard_normal((64,) + shape) + 1j * rng.standard_normal((64,) + shape)
        if parallel:  # each column 1e-8 from a multiple of one column
            g = g[..., :1] * (rng.standard_normal(shape[-1]) + 1j) + 1e-8 * g
        q = _isometry(scale * g)
        assert frobenius_norm(dagger(q) @ q - np.eye(shape[-1])).max() <= 1e-14
        # the Kraus families read from the isometry, or a square one as one operator
        _check_complete(q[:, None] if shape == (16, 16) else _stinespring_kraus(q, shape[0] // 2))

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda g: g[..., 0].fill(0.0), "a Haar map needs finite nonzero columns"),
            (lambda g: g[..., 1].fill(0.0), "a Haar map needs finite nonzero columns"),
            (
                lambda g: np.copyto(g[..., 1], (0.5 - 2j) * g[..., 0]),
                "a Haar map needs independent columns; column 1 depends on the earlier ones",
            ),
            (
                lambda g: np.copyto(g[..., 2], g[..., 0] - 3.0 * g[..., 1]),
                "a Haar map needs independent columns; column 2 depends on the earlier ones",
            ),
        ],
        ids=["zero_first", "zero_second", "multiple", "combination"],
    )
    def test_map_of_a_zero_or_dependent_column_raises(self, spoil, message):
        rng = np.random.default_rng(521)
        g = rng.standard_normal((5, 6, 3)) + 1j * rng.standard_normal((5, 6, 3))
        spoil(g[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
                _isometry(g)


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

    def test_single_outcome_kraus_is_the_local_unitary_pair(self):
        # the identity that builds local unitary pairs as one-outcome LOCC
        # channels: 8 Gaussians make U_A, the next 8 make U_B
        raw = np.random.default_rng(517).standard_normal((64, 16))
        u_a = _isometry(_gaussian_matrices(raw[:, :8], (2, 2)))
        u_b = _isometry(_gaussian_matrices(raw[:, 8:], (2, 2)))
        assert np.array_equal(_one_way_locc_kraus(raw, 1)[:, 0], kron(u_a, u_b))

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


class TestSamplerCounts:
    # each count of a channel sampler, the other arguments valid; I / 4 is
    # a feasible PPT start, which leaves after one round
    CALLS = {
        "env_dim": lambda v: random_local_channel("A", v, 0),
        "n_outcomes": lambda v: one_way_locc_channel(v, 0),
        "dim": lambda v: haar_unitary(v, 0),
        "dim_in": lambda v: haar_isometry(v, 3, 0),
        "dim_out": lambda v: haar_isometry(2, v, 0),
        "max_iter": lambda v: project_to_ppt_channel(np.eye(16, dtype=complex) / 4.0, max_iter=v),
    }

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", 0, -1])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_a_count_is_an_integer_in_range(self, name, bad):
        # a float is not truncated, and a bool or a string is no count
        if type(bad) is int:
            message = f"{name} must be {'1..4' if name == 'env_dim' else '>= 1'}, got {bad}"
        else:
            message = f"{name} must be an integer, got {bad!r}"
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            self.CALLS[name](bad)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_a_numpy_integer_is_a_count(self, name):
        self.CALLS[name](np.int64(2))


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

    def test_choi_rejects_non_hermitian(self):
        j = choi_from_kraus(IDENTITY).matrix.copy()
        j[0, 5] += 1e-9
        with pytest.raises(NotHermitian):
            ChoiMatrix(j, 4, 4)

    def test_choi_rejects_non_finite(self):
        with pytest.raises(OutOfRange):
            ChoiMatrix(np.full((16, 16), np.nan), 4, 4)

    def test_stacked_check_sees_one_spoiled_item(self):
        # unitary channels have rank-1 Choi matrices, so each has a null
        # space in which to plant a negative eigenvalue
        rng = np.random.default_rng(531)
        stack = np.stack([choi_from_kraus(random_local_unitary_pair(rng)).matrix for _ in range(5)])
        _check_choi(stack, 4, 4)
        null = np.linalg.eigh(stack[3])[1][:, 0]
        negative = stack.copy()
        negative[3] -= 1e-9 * np.outer(null, null.conj())
        assert_allclose(np.linalg.eigvalsh(negative[3])[0], -1e-9, rtol=1e-6)
        with pytest.raises(NotTracePreserving, match="eigenvalue"):
            _check_choi(negative, 4, 4)
        off_tp = stack.copy()
        off_tp[3] *= 1.0 + 1e-8
        with pytest.raises(NotTracePreserving, match="partial trace"):
            _check_choi(off_tp, 4, 4)


def reference_kraus(j, cut=1e-12):
    """One-matrix Kraus extraction, written out plainly as the reference
    for the stacked one."""
    w, v = np.linalg.eigh((j + dagger(j)) / 2.0)
    return [np.sqrt(lam) * vec.reshape(4, 4).T for lam, vec in zip(w, v.T) if lam > cut]


def same_bits(a, b):
    """Equal values, and equal signs of zero, in real and imaginary parts."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


class TestKrausStack:
    def test_matches_one_matrix_extraction_bit_for_bit(self):
        rng = np.random.default_rng(532)
        chois = [choi_from_kraus(IDENTITY), choi_from_kraus(DEPOLARIZING)]
        chois += [choi_from_kraus(one_way_locc_channel(m, rng)) for m in (2, 3, 4)]
        chois += [choi for choi, _ in project_to_ppt_channel(ppt_starts(63, 4))]
        kraus, counts = _kraus_stack(np.stack([c.matrix for c in chois]), 4, 4)
        assert kraus.shape == (len(chois), 16, 4, 4)
        assert len(set(counts.tolist())) > 3  # items padded by different amounts
        for choi, ops, count in zip(chois, kraus, counts):
            single = kraus_from_choi(choi).kraus_ops
            reference = reference_kraus(choi.matrix)
            assert len(single) == len(reference) == count
            assert np.all(ops[count:] == 0)
            for a, b, c in zip(ops, single, reference):
                assert a.flags.f_contiguous and b.flags.f_contiguous
                assert same_bits(a, b) and same_bits(a, c)

    def test_rejects_an_item_without_positive_spectrum(self):
        stack = np.stack([np.eye(16, dtype=complex) / 4.0, np.zeros((16, 16), dtype=complex)])
        with pytest.raises(NotTracePreserving):
            _kraus_stack(stack, 4, 4)


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

    def test_is_ppt_channel_rejects_non_finite(self):
        with pytest.raises(OutOfRange):
            is_ppt_channel(np.full((16, 16), np.nan))

    def test_is_ppt_channel_rejects_a_non_hermitian_array(self):
        # eigvalsh reads one triangle only: an entry above the diagonal with
        # no mirror below it went unseen, and this read as PPT
        j = np.eye(16, dtype=complex)
        j[0, 15] = 50.0
        with pytest.raises(NotHermitian):
            is_ppt_channel(j)

    def test_sampler_satisfies_cone_constraints(self):
        for seed in range(30):
            choi, ch = random_ppt_channel(seed)
            assert is_ppt_channel(choi)
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


def reference_projection(start):
    """One-matrix Anderson-accelerated Dykstra loop to cone defects of at
    most 1e-12, written out plainly as the reference for the stacked
    projection; returns the symmetrized result."""
    dims, factors = (2, 2, 2, 2), (1, 3)
    memory = channels.AA_MEMORY

    def psd(j):
        w, v = np.linalg.eigh((j + dagger(j)) / 2.0)
        return (v * np.clip(w, 0.0, None)) @ dagger(v)

    def ppt(j):
        return transpose_factors(psd(transpose_factors(j, dims, factors)), dims, factors)

    def tp(j):
        delta = np.einsum("iojo->ij", j.reshape(4, 4, 4, 4)) - np.eye(4)
        return j - kron(delta, np.eye(4)) / 4

    def cone_defect(j):
        g = transpose_factors(j, dims, factors)
        low = min(np.linalg.eigvalsh((m + dagger(m)) / 2.0)[0] for m in (j, g))
        return max(0.0, -low)

    def real(h):
        # the float view, whose dot products are Re tr(A^dagger B)
        return h.reshape(len(h), -1).view(float)

    # the pair (p, q) of PSD and PPT corrections; a ring of the last
    # `memory` differences of the residual f = G(pair) - pair and of G, with
    # the Gram matrix of the former (unfilled slots: zero, unit diagonal)
    pair = np.zeros((2, 16, 16), dtype=complex)
    d_f = np.zeros((memory, 2, 16, 16), dtype=complex)
    d_g = np.zeros((memory, 2, 16, 16), dtype=complex)
    gram = np.eye(memory)
    for k in range(10000):
        p, q = pair
        shifted = tp(start - p - q) + p
        j = psd(shifted)
        p = shifted - j
        shifted = j + q
        j = ppt(shifted)
        q = shifted - j
        j = tp(j)
        g = np.stack([p, q])
        f = g - pair
        pair = g
        if k:
            slot = (k - 1) % memory
            d_f[slot] = f - d_f[slot]
            d_g[slot] = g - d_g[slot]
            row = (real(d_f) @ real(d_f[slot : slot + 1]).T)[:, 0]
            gram[slot] = row
            gram[:, slot] = row
            if np.linalg.det(gram) > 1e-12 * np.prod(np.diag(gram)):
                gamma = np.linalg.solve(gram, real(d_f) @ real(f[None]).T)[:, 0]
                if np.isfinite(gamma).all():
                    pair = g - (gamma[None, :] @ real(d_g)).view(complex).reshape(g.shape)
        d_f[k % memory] = f
        d_g[k % memory] = g
        if cone_defect(j) <= 1e-12:
            break
    return (j + dagger(j)) / 2.0


class TestPptStart:
    def test_gram_state_scaled_to_trace_four_with_identity_fallback(self):
        raw = np.random.default_rng(519).standard_normal((3, 512))
        raw[1] = 0.0
        starts = _ppt_start(raw)
        assert np.array_equal(starts[1], np.eye(16) / 4.0)
        for i in (0, 2):
            g = _gaussian_matrices(raw[i], (16, 16))
            j = g @ dagger(g)
            assert np.array_equal(starts[i], 4.0 * j / np.trace(j).real)


class TestStackedProjection:
    def test_stack_is_bit_identical_to_one_matrix_calls(self):
        # the completely depolarizing Choi matrix I/4 is already feasible and
        # leaves after one round; the Ginibre starts need from 5 to 17
        starts = np.concatenate([ppt_starts(61, 11), np.eye(16, dtype=complex)[None] / 4.0])
        within_8 = [True] * len(starts)
        for k, start in enumerate(starts):
            try:
                project_to_ppt_channel(start, max_iter=8)
            except NoConvergence:
                within_8[k] = False
        assert 1 < sum(within_8) < len(starts)  # items stop in different rounds
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

    def test_empty_stack_gives_no_channels(self):
        assert project_to_ppt_channel(np.zeros((0, 16, 16), dtype=complex)) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_start(self, bad):
        with pytest.raises(OutOfRange):
            project_to_ppt_channel(np.full((16, 16), bad))
        starts = np.stack([np.eye(16, dtype=complex) / 4.0] * 3)
        starts[1, 2, 5] = bad
        with pytest.raises(OutOfRange):
            project_to_ppt_channel(starts)


def assert_valid_channels(choi):
    assert np.isfinite(choi).all()
    _check_choi(choi, 4, 4)
    kraus, _ = _kraus_stack(choi, 4, 4)
    _check_complete(kraus)


class TestAndersonEdgeCases:
    def test_edge_starts_converge_within_budget(self):
        rng = np.random.default_rng(540)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        ginibre = ppt_starts(541, 2)
        starts = np.stack(
            [
                np.eye(16, dtype=complex) / 4.0,  # feasible in round 1
                4.0 * np.outer(v, v.conj()) / np.vdot(v, v).real,  # rank 1
                1e-3 * ginibre[0],
                2.0 * ginibre[1],
            ]
        )
        assert_valid_channels(channels._ppt_choi(starts, max_iter=400))

    def test_starts_of_trace_eight_converge_within_400_rounds(self):
        # the top of project_to_ppt_channel's documented range: these 64
        # take from 7 to 57 rounds
        assert_valid_channels(channels._ppt_choi(2.0 * ppt_starts(545, 64), max_iter=400))

    def test_far_start_runs_out_of_budget_with_finite_iterates(self, monkeypatch):
        # a start of trace 4000 lies so far outside the set that neither
        # plain Dykstra nor its acceleration gets within 1e-12 in 10000
        # rounds; the budget must end the run, with every iterate finite
        step = channels._dykstra_step
        finite = []

        def recorded(state, k):
            basis = step(state, k)
            finite.append(all(np.isfinite(s).all() for s in state))
            return basis

        monkeypatch.setattr(channels, "_dykstra_step", recorded)
        with pytest.raises(NoConvergence):
            channels._ppt_choi(1e3 * ppt_starts(541, 2)[1:], max_iter=300)
        assert len(finite) == 300 and all(finite)

    def test_vanishing_residual_differences_take_the_plain_step(self, monkeypatch):
        # after round 1 the correction pair is reset to zero, so round 2
        # repeats round 1: its residual difference is zero, and so is its
        # row of the Gram matrix
        step = channels._dykstra_step
        seen = []

        def repeat_round_one(state, k):
            basis = step(state, k)
            seen.append((state[2].copy(), state[4].copy()))
            if len(seen) == 1:
                state[2][:] = 0.0
            return basis

        monkeypatch.setattr(channels, "_dykstra_step", repeat_round_one)
        choi = channels._ppt_choi(ppt_starts(542, 1), max_iter=30)
        (first, _), (second, gram) = seen[:2]
        assert np.all(gram[0, 0] == 0.0)
        assert np.array_equal(second, first)  # the plain step G(0)
        assert len(seen) > 3
        assert_valid_channels(choi)


class TestHermitianDykstra:
    def test_stopping_test_sees_trace_preserving_iterates(self, monkeypatch):
        # _feasible tests the two cones only: every iterate it is given comes
        # out of P_tp, so its output partial trace is the identity to
        # rounding, also a few rounds into starts far outside the set
        feasible = channels._feasible
        defects = []

        def recorded(j, basis, tol):
            defects.append(np.abs(channels._trace_out(j, 4, 4) - np.eye(4)).max())
            return feasible(j, basis, tol)

        monkeypatch.setattr(channels, "_feasible", recorded)
        starts = ppt_starts(543, 16)
        channels._ppt_choi(starts)
        rounds = len(defects)
        with pytest.raises(NoConvergence):
            channels._ppt_choi(30.0 * starts, max_iter=5)
        assert rounds > 5 and len(defects) == rounds + 5
        assert max(defects) <= 1e-12

    def test_corrections_stay_hermitian(self, monkeypatch):
        # the corrections are kept as complex matrices: only rounding gives
        # them an anti-Hermitian part, which stays at that size
        step = channels._dykstra_step
        worst = []

        def recorded(state, k):
            basis = step(state, k)
            pair = state[2]
            anti = frobenius_norm(pair - dagger(pair)) / 2.0
            worst.append((anti / np.maximum(1.0, frobenius_norm(pair))).max())
            return basis

        monkeypatch.setattr(channels, "_dykstra_step", recorded)
        channels._ppt_choi(_ppt_start(np.random.default_rng(544).standard_normal((256, 512))))
        assert len(worst) > 5 and max(worst) <= 1e-13


def boundary_items(tol, count, seed):
    """Matrices whose PPT transform has lowest eigenvalue ``-tol``, with the
    transform's eigenvectors: the certificate's quotient and the exact
    eigenvalue then agree to rounding, on either side of ``-tol``."""
    rng = np.random.default_rng(seed)
    shape = (count, 16, 16)
    u = channels._isometry(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    w = np.concatenate([np.full((count, 1), -tol), rng.uniform(0.0, 0.5, (count, 15))], axis=1)
    g = (u * w[:, None, :]) @ dagger(u)
    return transpose_factors(g, (2, 2, 2, 2), (1, 3)), np.linalg.eigh(g)[1]


class TestStoppingCertificate:
    def test_certified_failures_fail_the_exact_test(self, monkeypatch):
        step = channels._dykstra_step
        rounds = []

        def recorded(state, k):
            basis = step(state, k)
            rounds.append((state[0].copy(), basis))
            return basis

        monkeypatch.setattr(channels, "_dykstra_step", recorded)
        # I/4 is feasible from the first round on; the Ginibre starts cross
        # the tolerance after 3 to 18 rounds
        starts = np.concatenate([ppt_starts(64, 63), np.eye(16, dtype=complex)[None] / 4.0])
        project_to_ppt_channel(starts)
        for tol in (1e-9, 1e-12):
            for j, basis in rounds + [boundary_items(tol, 256, 65)]:
                flagged = _fails_ppt(j, basis, tol)
                assert np.all(_cone_defects(j[flagged])[1] > tol)
        # the certificate settles most rounds: that is what it is for
        flagged = np.concatenate([_fails_ppt(j, b, 1e-12) for j, b in rounds])
        assert flagged.mean() > 0.7
        first_j, first_basis = rounds[0]
        assert not _fails_ppt(first_j, first_basis, 1e-12)[-1]  # I/4
