"""Tests for the sweep/search harness and figure emission.

Sweeps run on reduced sample counts with fixed seeds; expected finding
counts are frozen from high-precision audits of the same seeds.
"""

import itertools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bineg import channels, harness, measures, serialize
from bineg.channels import (
    KrausChannel,
    _apply_kraus,
    _ppt_start,
    apply,
    one_way_locc_channel,
    project_to_ppt_channel,
    random_local_channel,
    random_local_unitary_pair,
    random_ppt_channel,
)
from bineg.cli import parse_state_spec
from bineg.errors import DimensionMismatch, NotTracePreserving, OutOfRange, ParseError, WrongDimension
from bineg.harness import (
    CHANNEL_KINDS,
    CHUNK,
    CONJECTURE_KINDS,
    HARD_KINDS,
    SweepReport,
    ViolationRecord,
    _bound_gaps,
    _build_pairs,
    _climb,
    _draw_structures,
    _ordering_gap,
    counterexample_search,
    figure_data,
    monotonicity_sweep,
    recompute_gap,
    verify_closed_forms,
    verify_ordering,
    verify_region,
)
from bineg.measures import (
    _SCREEN_BOUND,
    MeasureTriple,
    _nu_n2_screen,
    _region_bounds,
    _uhlmann,
    _uhlmann_bound,
    bineg_lower_given_nu,
    bineg_mems,
    binegativity,
    measure_triple,
    nu_of_c,
)
from bineg.serialize import complex_matrix_to_json, dumps
from bineg.states import _ginibre, _gram_state, random_mixed

import mp_oracle


def written(record):
    """The JSON object a report holds for ``record``: its matrices as
    ``[re, im]`` lists, as :meth:`ViolationRecord.from_json_dict` reads them."""
    return json.loads(dumps(record.to_json_dict()))


def read_csv(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


# the real Gaussians of a channel's row in a pair sweep or climb, per kind
CHANNEL_WIDTH = {"local_unitary": 16, "local": 32, "one_way_locc": 64, "ppt": 512}


def reference_pairs(kind, rank, seed, n):
    """(state, channel) pairs of a sweep, drawn one by one through the public
    samplers from the sweep's fixed-size chunk substreams: a chunk draws its
    channels' integers first, then per pair the state, the channel and the
    rest of the pair's row of ``8 rank + CHANNEL_WIDTH[kind]`` Gaussians."""
    sizes = [CHUNK] * (n // CHUNK) + ([n % CHUNK] if n % CHUNK else [])
    for child, size in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        rng = np.random.default_rng(child)
        if kind == "local":
            sides, envs = rng.integers(2, size=size), rng.integers(1, 5, size)
        elif kind == "one_way_locc":
            outcomes = rng.integers(2, 5, size)
        for i in range(size):
            rho = random_mixed(rank, rng)
            if kind == "local_unitary":
                ch, used = random_local_unitary_pair(rng), 16
            elif kind == "local":
                ch, used = random_local_channel("A" if sides[i] == 0 else "B", int(envs[i]), rng), 8 * envs[i]
            elif kind == "one_way_locc":
                ch, used = one_way_locc_channel(int(outcomes[i]), rng), 16 * outcomes[i]
            else:
                (_, ch), used = random_ppt_channel(rng), 512
            rng.standard_normal(CHANNEL_WIDTH[kind] - used)
            yield rho, ch


class TestVerifyOrdering:
    def test_proven_ordering_has_no_violations(self):
        for rank in (1, 2, 3, 4):
            rep = verify_ordering(800, rank=rank, seed=8)
            assert rep.n_violations == 0
            assert rep.max_gap <= 1e-9
            assert not rep.has_hard_failure()
            assert not rep.has_finding()

    def test_single_sample(self):
        rep = verify_ordering(1, rank=1, seed=8)
        assert rep.n_samples == 1
        assert rep.n_violations == 0

    def test_forced_violation_is_hard(self):
        rep = verify_ordering(50, rank=2, seed=8, tol=-10.0)
        assert rep.n_violations > 0
        assert rep.has_hard_failure()
        assert all(v.kind == "ordering" for v in rep.violations)

    def test_rejects_empty_run(self):
        with pytest.raises(OutOfRange):
            verify_ordering(0)


class TestVerifyRegion:
    def test_rank2_sample_has_real_upper_surface_findings(self):
        # frozen audit for this seed: exactly 6 of 2000 rank-2 states land
        # above the conjectured upper surface (worst by about 9e-4); the
        # lower curves hold throughout.  See the matching measures test.
        rep = verify_region(2000, rank=2, seed=8)
        assert rep.n_violations == 6
        assert {v.kind for v in rep.violations} == {"region_eq9"}
        assert [v.index for v in rep.violations] == [30, 262, 310, 468, 1511, 1848]
        assert rep.max_gap == pytest.approx(9.232e-4, abs=1e-6)
        assert rep.has_finding()
        assert not rep.has_hard_failure()
        certified, problems = mp_oracle.certify(rep.violations, tol=1e-9)
        assert problems == []
        assert max(certified) == pytest.approx(rep.max_gap, abs=1e-12)

    def test_oracle_reproduces_exact_states(self):
        # rho1 and rho2 share (c, nu) = (1/2, 3/8) and sit on the upper
        # (147/400) and lower (77/216) region surfaces respectively
        for name, n2 in (("rho1", 147.0 / 400.0), ("rho2", 77.0 / 216.0)):
            rho, _ = parse_state_spec(name)
            got = mp_oracle.measures(complex_matrix_to_json(rho))
            assert [float(x) for x in got] == pytest.approx([0.5, 0.375, n2], abs=1e-14)

    def test_rank4_sample_is_clean(self):
        rep = verify_region(1500, rank=4, seed=8)
        assert rep.n_violations == 0
        assert rep.max_gap < 0

    def test_findings_recompute_to_observed_gap(self):
        rep = verify_region(2000, rank=2, seed=8)
        for v in rep.violations:
            assert recompute_gap(v) == pytest.approx(v.observed_gap, abs=1e-12)

    def test_every_record_recomputes_bit_for_bit(self):
        # tol=-1 records every bound gap of 1030 states across a chunk
        # boundary, among them the bound_eq7 record at index 462 that the
        # scalar path once read 5.6e-17 off
        rep = verify_region(1030, seed=12, tol=-1.0)
        assert any(v.kind == "bound_eq7" and v.index == 462 for v in rep.violations)
        assert [recompute_gap(v) for v in rep.violations] == [v.observed_gap for v in rep.violations]

    def test_least_negativity_is_a_proven_relation(self):
        # nu >= nu_of_c(c) is proven (Verstraete et al. 2001), so a forced
        # bound_eq4 record is a hard failure, not a finding
        assert "bound_eq4" in HARD_KINDS
        rep = verify_region(50, seed=8, tol=-1.0)
        assert any(v.kind == "bound_eq4" for v in rep.violations)
        assert rep.has_hard_failure()

    def test_kinds_are_conjecture_findings(self):
        assert "region_eq9" in CONJECTURE_KINDS
        assert "ordering" in HARD_KINDS
        assert CONJECTURE_KINDS.isdisjoint(HARD_KINDS)


# a tol 4.3e-13 below the reference gap of the seed-8 region finding at 1848
NEAR_1848 = 3.12840132e-4


def chunk_gaps(sweep, n, rank, seed):
    """The states of a sweep of ``n`` states and, per kind, the gap of each,
    measured with ``measure_triple`` one chunk at a time, as a sweep that
    screens nothing measures them: a lone state may differ in the last bit."""
    sizes = [CHUNK] * (n // CHUNK) + ([n % CHUNK] if n % CHUNK else [])
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    chunks = [random_mixed(rank, np.random.default_rng(c), size=k) for c, k in zip(children, sizes)]
    gaps = {}
    for chunk in chunks:
        t = measure_triple(chunk)
        found = {"ordering": _ordering_gap(t)} if sweep is verify_ordering else _bound_gaps(t)
        for kind, g in found.items():
            gaps.setdefault(kind, []).extend(g.tolist())
    return np.concatenate(chunks), gaps


def shifted_screen(monkeypatch, shift):
    """Move every screened concurrence of a state sweep by ``shift``: the
    screen divides ``_uhlmann`` of a factor by the factor's squared norm."""
    monkeypatch.setattr(harness, "_uhlmann", lambda f: _uhlmann(f) + shift * np.square(np.abs(f)).sum(axis=(-2, -1)))


def shifted_nu_n2_screen(monkeypatch, nu_shift, n2_shift):
    """Move the screened nu and n2 of every state that the screen settles as
    entangled by ``nu_shift`` and ``n2_shift``."""

    def screen(rho):
        nu, n2, bound = _nu_n2_screen(rho)
        return nu + nu_shift * (nu > 0.0), n2 + n2_shift * (nu > 0.0), bound

    monkeypatch.setattr(harness, "_nu_n2_screen", screen)


class TestStateSweepChunks:
    @pytest.mark.parametrize("sweep", [verify_ordering, verify_region])
    def test_records_run_across_the_chunk_boundary(self, sweep):
        # CHUNK + 6 states: a full chunk, then a chunk of 6, each drawn whole
        # from its own substream; tol=-1 records every gap of every state
        n, seed = CHUNK + 6, 12
        rep = sweep(n, rank=2, seed=seed, tol=-1.0)
        states, gaps = chunk_gaps(sweep, n, 2, seed)
        want = sorted((i, kind, g[i]) for kind, g in gaps.items() for i in range(n) if g[i] > -1.0)
        got = [(v.index, v.kind, v.observed_gap) for v in rep.violations]
        assert got == want
        assert all(np.array_equal(v.state, states[v.index]) for v in rep.violations)
        # region records only entangled states, ordering records all of them
        indices = sorted({v.index for v in rep.violations})
        assert indices[0] < CHUNK <= indices[-1]
        if sweep is verify_ordering:
            assert indices == list(range(n))

    @pytest.mark.parametrize(
        "rank, tol", [(1, -1.0), (4, -1.0), (1, 1e-9), (2, 1e-9), (4, 1e-9), (2, 3e-4), (2, 1e-3)]
    )
    @pytest.mark.parametrize("sweep", [verify_ordering, verify_region])
    def test_hits_and_top_are_the_reference_gaps(self, sweep, rank, tol):
        # the screen leaves out of the reference only states that are no hit
        # and not the top; at tol 3e-4, 5 of the 6 seed-8 findings are hits,
        # and at 1e-3 none is, so the top (9.2e-4) is measured as the top
        n, seed = 2000, 8
        rep = sweep(n, rank=rank, seed=seed, tol=tol)
        states, gaps = chunk_gaps(sweep, n, rank, seed)
        want = sorted((i, kind, g[i]) for kind, g in gaps.items() for i in range(n) if g[i] > tol)
        assert [(v.index, v.kind, v.observed_gap) for v in rep.violations] == want
        assert all(np.array_equal(v.state, states[v.index]) for v in rep.violations)
        assert rep.max_gap == max(np.fmax.reduce(g) for g in gaps.values())

    @pytest.mark.parametrize("tol", [1e-9, 3.1275e-4])
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("sweep", [verify_ordering, verify_region])
    def test_the_reference_measures_the_uncertified_the_hits_and_the_tops(self, monkeypatch, sweep, rank, tol):
        # a margin set by the certificate measures again no state beyond the
        # hits and each chunk's top, when that top is certified and entangled
        serial(monkeypatch)
        n, seed, want, index = 2000, 8, set(), {}
        for seq, size in harness._chunks(seed, n):
            g = _ginibre(rank, np.random.default_rng(seq), size)
            rho, offset = _gram_state(g), len(index)
            c = np.maximum(_uhlmann(g) / np.square(np.abs(g)).sum(axis=(-2, -1)), 0.0)
            certified = np.maximum(_uhlmann_bound(g, c), _nu_n2_screen(rho)[2]) <= _SCREEN_BOUND
            t = measure_triple(rho)
            found = {"ordering": _ordering_gap(t)} if sweep is verify_ordering else _bound_gaps(t)
            gap = np.max(list(found.values()), axis=0)
            top = (gap == gap.max()) & certified & (t.nu > 0.0)
            want.update(offset + int(j) for j in np.flatnonzero(~certified | (gap > tol) | top))
            index.update((r.tobytes(), offset + j) for j, r in enumerate(rho))
        measured, reference = set(), measures.concurrence

        def spy(rho):
            measured.update(index[r.tobytes()] for r in rho)
            return reference(rho)

        monkeypatch.setattr(measures, "concurrence", spy)
        sweep(n, rank=rank, seed=seed, tol=tol)
        assert measured == want

    # tol 3.1275e-4 sits below the seed-8 finding at 1848 (gap 3.1284e-4, not
    # the top of its chunk) by 9e-8, NEAR_1848 by 4.3e-13: a screen whose gap
    # of 1848 is off by its certificate puts that hit either side of tol
    SHIFTED = [(verify_ordering, 1e-9), (verify_region, 1e-9), (verify_region, 3.1275e-4), (verify_region, NEAR_1848)]

    @pytest.mark.parametrize("sweep, tol", SHIFTED)
    def test_a_screen_off_by_its_bound_moves_no_byte(self, monkeypatch, sweep, tol):
        # half the margin, and the certified bound, either way
        want = dumps(sweep(2000, seed=8, tol=tol).to_json_dict())
        for shift in (harness._SCREEN_MARGIN / 2, -harness._SCREEN_MARGIN / 2, _SCREEN_BOUND, -_SCREEN_BOUND):
            shifted_screen(monkeypatch, shift)
            assert dumps(sweep(2000, seed=8, tol=tol).to_json_dict()) == want

    def test_a_record_screened_below_the_cut_goes(self):
        # the converse of the test above: a screen 3e-3 low puts the seed-8
        # findings at 468 and 1848 (gaps 1.3e-4 and 3.1e-4) below the cut, so
        # their reference gaps are never measured
        with pytest.MonkeyPatch.context() as mp:
            shifted_screen(mp, -3e-3)
            indices = [v.index for v in verify_region(2000, seed=8).violations]
        assert indices == [30, 262, 310, 1511]
        assert [v.index for v in verify_region(2000, seed=8).violations] == [30, 262, 310, 468, 1511, 1848]

    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sweep", [verify_ordering, verify_region])
    def test_a_non_finite_screen_is_measured_by_the_reference(self, monkeypatch, sweep, bad, tol):
        # the state is measured, and its screen is no part of the chunk's
        # top, which at tol 0.5 would lift the cut above the real top
        serial(monkeypatch)
        n, seed = CHUNK + 6, 8
        states, gaps = chunk_gaps(sweep, n, 2, seed)
        measured = []
        reference = measures.concurrence

        def spy(rho):
            measured.extend(r.tobytes() for r in rho)
            return reference(rho)

        monkeypatch.setattr(measures, "concurrence", spy)
        want = dumps(sweep(n, seed=seed, tol=tol).to_json_dict())
        # the first state of the first chunk that the screen settles, and
        # that is entangled, so that its gaps are finite
        j = next(
            i for i in range(CHUNK)
            if states[i].tobytes() not in measured and all(np.isfinite(g[i]) for g in gaps.values())
        )
        measured.clear()

        def screen(f):
            u = _uhlmann(f)
            if len(u) == CHUNK:
                u[j] = bad
            return u

        monkeypatch.setattr(harness, "_uhlmann", screen)
        assert dumps(sweep(n, seed=seed, tol=tol).to_json_dict()) == want
        assert states[j].tobytes() in measured

    @pytest.mark.parametrize("sweep, tol", SHIFTED)
    def test_a_nu_n2_screen_off_by_its_bound_moves_no_byte(self, monkeypatch, sweep, tol):
        # the certified bound, each way in each
        want = dumps(sweep(2000, seed=8, tol=tol).to_json_dict())
        for nu_sign, n2_sign in itertools.product((1, -1), repeat=2):
            shifted_nu_n2_screen(monkeypatch, nu_sign * _SCREEN_BOUND, n2_sign * _SCREEN_BOUND)
            assert dumps(sweep(2000, seed=8, tol=tol).to_json_dict()) == want

    def test_a_record_screened_twice_the_margin_low_goes(self):
        # the converse at NEAR_1848: a screen 2 x 9 _SCREEN_BOUND low in n2,
        # twice the margin that the certificate sets, puts the hit at 1848
        # below the cut, so its reference gap is never measured
        with pytest.MonkeyPatch.context() as mp:
            shifted_nu_n2_screen(mp, 0.0, -2 * 9 * _SCREEN_BOUND)
            indices = [v.index for v in verify_region(2000, seed=8, tol=NEAR_1848).violations]
        assert indices == [30, 262, 310, 1511]
        assert [v.index for v in verify_region(2000, seed=8, tol=NEAR_1848).violations] == [30, 262, 310, 1511, 1848]

    def test_a_record_screened_below_the_nu_n2_cut_goes(self):
        # the converse: a screen 5e-4 low in n2 puts the seed-8 findings at
        # 310, 468 and 1848 (gaps 3.4e-4, 1.3e-4 and 3.1e-4) below the cut,
        # so their reference gaps are never measured
        with pytest.MonkeyPatch.context() as mp:
            shifted_nu_n2_screen(mp, 0.0, -5e-4)
            indices = [v.index for v in verify_region(2000, seed=8).violations]
        assert indices == [30, 262, 1511]

    def test_no_gap_moves_faster_than_the_margin_assumes(self):
        # _SCREEN_MARGIN = 9 _SCREEN_BOUND rests on these slopes on the
        # feasible region: 2 per unit of c (nu_of_c and bineg_mems as c -> 1),
        # 1.5 per unit of nu (region_eq9's lower surface) and 1 per unit of n2.
        # Central differences on a (c, nu) grid, n2 below, inside and above
        # region_eq9's band
        assert harness._SCREEN_MARGIN == 9 * _SCREEN_BOUND
        c = np.linspace(0.0, 1.0, 801)[1:-1, None, None]
        floor = nu_of_c(c)
        nu = floor + np.linspace(0.0, 1.0, 201)[None, 1:-1, None] * (c - floor)
        low, up = _region_bounds(c, nu)
        n2 = low + np.linspace(-0.5, 1.5, 5) * (up - low)
        point, h = np.broadcast_arrays(c, nu, n2), 1e-7

        def gaps(step):
            t = MeasureTriple(*(x + dx for x, dx in zip(point, step)))
            return {**_bound_gaps(t), "ordering": _ordering_gap(t)}

        for axis, bound in enumerate((2.0, 1.5, 1.0)):
            step = np.eye(3)[axis] * h
            ahead, behind = gaps(step), gaps(-step)
            slopes = {k: np.max(np.abs(ahead[k] - behind[k])) / (2 * h) for k in ahead}
            assert max(slopes.values()) <= bound + 1e-6
            assert max(slopes.values()) == pytest.approx(bound, abs=1e-2)

    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("sweep", [verify_ordering, verify_region])
    def test_an_unsettled_nu_n2_is_measured_by_the_reference(self, monkeypatch, sweep, bad, tol):
        # the screen leaves a state it does not settle NaN; the state is
        # measured, and is no part of the chunk's top
        serial(monkeypatch)
        n, seed = CHUNK + 6, 8
        states, gaps = chunk_gaps(sweep, n, 2, seed)
        measured = []
        reference = measures._negative_branch

        def spy(rho):
            measured.extend(r.tobytes() for r in rho)
            return reference(rho)

        monkeypatch.setattr(measures, "_negative_branch", spy)
        want = dumps(sweep(n, seed=seed, tol=tol).to_json_dict())
        # the first state of the first chunk that the screen settles as
        # entangled, so that its gaps are finite
        j = next(
            i for i in range(CHUNK)
            if states[i].tobytes() not in measured and all(np.isfinite(g[i]) for g in gaps.values())
            and _nu_n2_screen(states[i])[0] > 0.0
        )
        measured.clear()

        def screen(rho):
            nu, n2, bound = _nu_n2_screen(rho)
            if len(nu) == CHUNK:
                nu[j] = n2[j] = bound[j] = bad
            return nu, n2, bound

        monkeypatch.setattr(harness, "_nu_n2_screen", screen)
        assert dumps(sweep(n, seed=seed, tol=tol).to_json_dict()) == want
        assert states[j].tobytes() in measured

    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    @pytest.mark.parametrize("sweep", [verify_ordering, verify_region])
    def test_an_uncertified_c_is_measured_by_the_reference(self, monkeypatch, sweep, tol):
        # a sweep trusts a finite screened C only under the certificate that
        # a figure sheet trusts it under: with its bound spoiled, the state
        # is measured, and the report keeps its bytes
        serial(monkeypatch)
        n, seed = CHUNK + 6, 8
        states, _ = chunk_gaps(sweep, n, 2, seed)
        measured = []
        reference = measures.concurrence

        def spy(rho):
            measured.extend(r.tobytes() for r in rho)
            return reference(rho)

        monkeypatch.setattr(measures, "concurrence", spy)
        want = dumps(sweep(n, seed=seed, tol=tol).to_json_dict())
        # the first state of the first chunk that is certified, entangled and
        # not near a hit or the top, so that only its bound can send it to
        # the reference
        j = next(
            i for i in range(CHUNK)
            if states[i].tobytes() not in measured and _nu_n2_screen(states[i])[0] > 0.0
        )
        measured.clear()

        def bound(f, c):
            b = _uhlmann_bound(f, c)
            if len(b) == CHUNK:
                b[j] = np.inf
            return b

        monkeypatch.setattr(harness, "_uhlmann_bound", bound)
        assert dumps(sweep(n, seed=seed, tol=tol).to_json_dict()) == want
        assert states[j].tobytes() in measured

    @pytest.mark.parametrize("rank", [3, 4])
    def test_a_state_settled_as_ppt_is_not_measured(self, monkeypatch, rank):
        # its ordering gap max(0 - 0, 0 - c) is 0.0 for every c >= 0, so the
        # reference cannot change it, though it is the chunk's top
        serial(monkeypatch)
        states, _ = chunk_gaps(verify_ordering, 2000, rank, 8)
        measured = []
        reference = measures.concurrence

        def spy(rho):
            measured.extend(r.tobytes() for r in rho)
            return reference(rho)

        monkeypatch.setattr(measures, "concurrence", spy)
        rep = verify_ordering(2000, rank=rank, seed=8)
        assert rep.max_gap == 0.0 and rep.n_violations == 0
        ppt = _nu_n2_screen(states)[0] == 0.0
        assert ppt.sum() > 100
        assert not any(states[i].tobytes() in measured for i in np.flatnonzero(ppt))

    def test_rank_1_screens_no_state(self, monkeypatch):
        # the screen certifies pure states, but every one sits at gaps of
        # about 0, within _SCREEN_MARGIN of the cut, so the margin would send
        # each to the reference: rank 1 measures every state and calls no screen
        monkeypatch.setattr(harness, "_nu_n2_screen", None)
        monkeypatch.setattr(harness, "_uhlmann", None)
        for sweep in (verify_ordering, verify_region):
            assert sweep(CHUNK + 6, rank=1, seed=8).n_samples == CHUNK + 6


def serial(monkeypatch):
    """Make every sweep take the one-process path, as on a one-CPU host."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)


def forked(monkeypatch):
    """Make every sweep of more than one chunk, and every PPT sweep of more
    than one pair, fork two workers, whatever the host's CPU count."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)


def item_pids(monkeypatch):
    """A list that gets, for each later ``_chunk_results`` call, the pids of
    the processes that ran its items, in item order."""
    chunk_results, pids = harness._chunk_results, []

    def spy(task, items):
        out = list(chunk_results(lambda item: (task(item), os.getpid()), items))
        pids.append([pid for _, pid in out])
        return [result for result, _ in out]

    monkeypatch.setattr(harness, "_chunk_results", spy)
    return pids


class TestChunkWorkers:
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_mapping_is_chosen_by_cpus_and_chunks(self, monkeypatch, cpus):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        for chunks in ([0], [0, 1, 2]):
            results = harness._chunk_results(lambda chunk: (chunk, os.getpid()), chunks)
            assert multiprocessing.active_children() == []  # none before the first read
            got = list(results)
            assert [chunk for chunk, _ in got] == chunks  # in chunk order
            forked = cpus > 1 and len(chunks) > 1
            assert all((pid != os.getpid()) == forked for _, pid in got)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda: verify_region(CHUNK + 6, seed=12, tol=-1.0),
            lambda: verify_ordering(CHUNK + 6, seed=12, tol=-1.0),
            lambda: monotonicity_sweep(CHUNK + 6, channel_kind="local", seed=12, tol=-1.0),
        ],
        ids=["verify_region", "verify_ordering", "monotonicity_local"],
    )
    def test_workers_give_the_serial_report_bytes(self, monkeypatch, sweep):
        # compared line by line: a diff of two whole reports would take minutes
        forked(monkeypatch)
        got = dumps(sweep().to_json_dict()).splitlines()
        assert multiprocessing.active_children() == []
        serial(monkeypatch)
        assert got == dumps(sweep().to_json_dict()).splitlines()

    @pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
    def test_workers_give_the_serial_figure_sheets(self, monkeypatch, tmp_path, which):
        # each worker formats its own chunks of the scatter sheet, the short
        # last chunk too; the caller writes their text in chunk order
        sheets = {}
        for name, force in (("forked", forked), ("serial", serial)):
            force(monkeypatch)
            paths = figure_data(which, 2 * CHUNK + 6, seed=12, out_dir=str(tmp_path / name))
            assert multiprocessing.active_children() == []
            sheets[name] = [open(p, "rb").read().splitlines() for p in paths]
        assert len(sheets["forked"][0]) == 2 * CHUNK + 7  # header and every state
        assert sheets["forked"] == sheets["serial"]

    @pytest.mark.parametrize("n", [1, 33, 70])
    def test_ppt_spans_give_the_serial_report_bytes(self, monkeypatch, n):
        # a PPT chunk is cut into one span per CPU, and the sweep forks
        # exactly when more than one span is not empty; the reports are
        # compared line by line, as above
        pids, reports = item_pids(monkeypatch), []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            report = monotonicity_sweep(n, channel_kind="ppt", seed=12, tol=-1.0).to_json_dict()
            reports.append(dumps(report).splitlines())
            assert multiprocessing.active_children() == []
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert report["n_violations"] == n
        assert [len(p) for p in pids] == [1, min(n, 2), min(n, 3)]
        for p in pids:
            forked_items = len(p) > 1
            assert all((pid != os.getpid()) == forked_items for pid in p)
            assert len(set(p)) == len(p)  # one worker per span

    def test_locc_and_state_sweeps_keep_the_chunk_as_their_unit(self, monkeypatch):
        # a fork round trip costs more than an LOCC chunk gains from it
        forked(monkeypatch)
        pids = item_pids(monkeypatch)
        monotonicity_sweep(1000, channel_kind="one_way_locc", seed=12)
        verify_ordering(CHUNK + 6, seed=12)
        assert pids[0] == [os.getpid()]
        assert len(pids[1]) == 2 and os.getpid() not in pids[1]
        assert multiprocessing.active_children() == []

    def test_block_ships_only_the_states_over_tol_in_any_kind(self):
        # state 3 is above tol in both kinds, state 2 is NaN, which top skips
        states = random_mixed(2, 3, size=4)
        gaps = {"first": np.array([2.0, 0.0, np.nan, 0.75]), "last": np.array([0.0, 0.0, 0.0, 1.0])}
        asked = []

        def extra_of(j):
            asked.append(j)
            return {"params": {"j": j}}

        count, top, hits = harness._block(0.5, states, gaps, extra_of)
        assert count == 4 and top == 2.0
        assert [hit[:3] for hit in hits] == [("first", 0, 2.0), ("first", 3, 0.75), ("last", 3, 1.0)]
        for _, j, _, state, extra in hits:
            # an owned copy, so a record does not keep the block alive
            assert np.array_equal(state, states[j]) and state.base is None
            assert extra == {"params": {"j": j}}
        assert asked == [0, 3, 3]
        assert all(type(x) in (int, float) for hit in hits for x in hit[1:3])
        assert harness._block(0.5, states[:1], {"first": np.array([np.nan])}, extra_of) == (1, -np.inf, [])

    def test_records_own_their_arrays(self, monkeypatch):
        # in one process a record's state, or a Kraus operator, that is a view
        # would keep its chunk's whole stack of states, or its block's stack
        # of Kraus operators, alive as long as the report
        serial(monkeypatch)
        reports = [
            verify_region(2000, rank=2, seed=8),
            monotonicity_sweep(300, channel_kind="local", seed=5, tol=-1.0),
            counterexample_search("one_way_locc", restarts=2, steps=5, seed=8, tol=-1.0),
        ]
        for rep in reports:
            assert rep.violations
            for v in rep.violations:
                assert v.state.base is None
                assert v.channel is None or all(k.base is None for k in v.channel.kraus_ops)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        build = harness._one_way_locc_kraus

        def spoiled(raw, m):
            ops = build(raw, m)
            ops[-1] *= 1.0 + 1e-9
            return ops

        monkeypatch.setattr(harness, "_one_way_locc_kraus", spoiled)
        errors = []
        for force in (forked, serial):
            force(monkeypatch)
            with pytest.raises(NotTracePreserving) as info:
                monotonicity_sweep(CHUNK + 40, channel_kind="one_way_locc", seed=8)
            assert multiprocessing.active_children() == []
            errors.append(info.value)
        assert [type(e) for e in errors] == [NotTracePreserving] * 2
        assert str(errors[0]) == str(errors[1])

    def test_span_error_reaches_the_caller(self, monkeypatch):
        project = channels._ppt_choi

        def spoiled(starts, *budget):
            choi = project(starts, *budget)
            choi[-1] *= 1.0 + 1e-8
            return choi

        # on two CPUs the 5 pairs are spans of 2 and 3; the last pair of
        # every block is spoiled by the same factor, so the messages agree
        monkeypatch.setattr(channels, "_ppt_choi", spoiled)
        errors = []
        for force in (forked, serial):
            force(monkeypatch)
            with pytest.raises(NotTracePreserving, match="partial trace") as info:
                monotonicity_sweep(5, channel_kind="ppt", seed=8)
            assert multiprocessing.active_children() == []
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @staticmethod
    def run_fresh(body):
        """stdout of ``body`` run with two forced CPUs in a fresh interpreter,
        which bounds a wait that broken workers would not end."""
        code = "import multiprocessing, os\nfrom bineg import harness\nharness._usable_cpus = lambda: 2\n" + body
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True).stdout

    def test_worker_error_stops_the_blocked_workers(self):
        # worker 1 raises on its first chunk while worker 0 is blocked in
        # send of a result larger than a pipe's buffer, which no one will
        # read: worker 0 must be stopped, not waited for
        out = self.run_fresh(
            "def task(chunk):\n"
            "    if chunk == 1:\n"
            "        raise KeyError('stop')\n"
            "    return bytes(1 << 20)\n"
            "try:\n"
            "    list(harness._chunk_results(task, list(range(8))))\n"
            "except KeyError as exc:\n"
            "    print(repr(exc), multiprocessing.active_children())\n"
        )
        assert out.strip() == "KeyError('stop') []"

    def test_worker_that_dies_is_an_error_not_a_hang(self):
        out = self.run_fresh(
            "try:\n"
            "    print(list(harness._chunk_results(lambda chunk: os._exit(3) if chunk == 3 else chunk, list(range(6)))))\n"
            "except ChildProcessError as exc:\n"
            "    print(exc, len(multiprocessing.active_children()))\n"
        )
        assert out.strip() == "a worker ended before sending the result of chunk 3 0"

    def test_closing_the_results_early_stops_the_workers(self):
        # a reader that stops early, as a figure sheet's failed write does,
        # must stop the workers, those blocked in a send included
        out = self.run_fresh(
            "results = harness._chunk_results(lambda chunk: bytes(1 << 20), list(range(8)))\n"
            "print(len(next(results)))\n"
            "results.close()\n"
            "print(multiprocessing.active_children())\n"
        )
        assert out.split() == ["1048576", "[]"]

    def test_figure_worker_error_cuts_the_sheet_short(self, monkeypatch, tmp_path):
        # the scatter is written chunk by chunk as it arrives, so an error in
        # the last chunk leaves the rows of the chunks before it
        scatter = harness._scatter_chunk

        def spoiled(which, rank, chunk):
            if chunk[1] < CHUNK:
                raise OutOfRange("spoiled chunk")
            return scatter(which, rank, chunk)

        monkeypatch.setattr(harness, "_scatter_chunk", spoiled)
        for force in (forked, serial):
            force(monkeypatch)
            with pytest.raises(OutOfRange, match="spoiled chunk"):
                figure_data("fig1", CHUNK + 6, seed=3, out_dir=str(tmp_path))
            assert multiprocessing.active_children() == []
            assert len((tmp_path / "fig1_scatter.csv").read_text().splitlines()) == CHUNK + 1

    def test_daemonic_process_runs_serially(self, monkeypatch):
        # a daemonic process may not have children, so its sweeps do not fork
        forked(monkeypatch)
        context = multiprocessing.get_context("fork")
        queue = context.Queue()

        def child():
            queue.put(dumps(verify_ordering(CHUNK + 6, seed=12, tol=-1.0).to_json_dict()))

        proc = context.Process(target=child, daemon=True)
        proc.start()
        got = queue.get(timeout=60)
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0
        assert got.splitlines() == dumps(verify_ordering(CHUNK + 6, seed=12, tol=-1.0).to_json_dict()).splitlines()

    def test_import_loads_no_process_machinery(self):
        code = (
            "import sys, bineg, bineg.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestVerifyClosedForms:
    def test_grid_plus_random_probes(self):
        rep = verify_closed_forms(grid_density=6, seed=8)
        assert rep.n_samples == 6**3 + 100
        assert rep.n_violations == 0
        assert rep.max_gap <= 1e-13

    def test_forced_violation_round_trips_through_params(self):
        rep = verify_closed_forms(grid_density=4, seed=8, tol=-1.0)
        assert rep.n_violations > 0
        v = rep.violations[0]
        assert v.kind == "closed_form"
        assert set(v.params) == {"p", "q", "r"}
        assert recompute_gap(v) == pytest.approx(v.observed_gap, abs=1e-12)

    def test_max_gap_skips_nan(self, monkeypatch):
        gap = harness._closed_form_gap

        def with_nan(got, want):
            out = gap(got, want)
            out[3] = np.nan
            return out

        monkeypatch.setattr(harness, "_closed_form_gap", with_nan)
        rep = verify_closed_forms(grid_density=3, seed=8)
        assert np.isfinite(rep.max_gap) and rep.max_gap <= 1e-13
        assert rep.n_violations == 0

    def test_record_without_params_cannot_be_recomputed(self):
        v = verify_closed_forms(grid_density=2, seed=8, tol=-1.0).violations[0]
        bare = ViolationRecord(v.kind, v.observed_gap, v.seed, v.index, v.state)
        with pytest.raises(OutOfRange, match="params"):
            recompute_gap(bare)


class TestSeeds:
    @pytest.mark.parametrize(
        "run",
        [
            lambda seed: verify_ordering(5, seed=seed),
            lambda seed: verify_closed_forms(grid_density=2, seed=seed),
            lambda seed: counterexample_search(restarts=1, steps=1, seed=seed),
            lambda seed: monotonicity_sweep(2, seed=seed),
        ],
    )
    def test_negative_seed_raises_and_zero_runs(self, run):
        with pytest.raises(OutOfRange, match="seed"):
            run(-1)
        assert run(0).seed == 0


SEEDED = {
    "verify_ordering": lambda seed, out: verify_ordering(5, seed=seed),
    "verify_region": lambda seed, out: verify_region(5, seed=seed),
    "verify_closed_forms": lambda seed, out: verify_closed_forms(grid_density=2, seed=seed),
    "monotonicity_sweep": lambda seed, out: monotonicity_sweep(2, seed=seed),
    "counterexample_search": lambda seed, out: counterexample_search(restarts=1, steps=1, seed=seed),
    "figure_data": lambda seed, out: figure_data("fig1", 5, seed=seed, out_dir=str(out)),
}


class TestSeedType:
    """A seed is an integer >= 0, checked as counts are: a float is
    rejected, not truncated, and a bool is not a seed."""

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None, np.float64(2.0)])
    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_a_non_integer_seed_is_rejected(self, tmp_path, name, bad):
        out = tmp_path / "new"
        with pytest.raises(OutOfRange, match="^seed must be an integer, got "):
            SEEDED[name](bad, out)
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_a_negative_seed_keeps_its_message(self, tmp_path, name):
        with pytest.raises(OutOfRange, match="^seed must be >= 0, got -1$"):
            SEEDED[name](-1, tmp_path / "new")

    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_a_numpy_integer_seed_is_its_int(self, tmp_path, name):
        got, want = SEEDED[name](np.uint16(3), tmp_path / "got"), SEEDED[name](3, tmp_path / "want")
        if name == "figure_data":
            assert [open(p, "rb").read() for p in got] == [open(p, "rb").read() for p in want]
        else:
            assert type(got.seed) is int
            assert dumps(got.to_json_dict()) == dumps(want.to_json_dict())


class TestTolerance:
    RUNS = pytest.mark.parametrize(
        "run",
        [
            lambda tol: verify_ordering(2000, seed=8, tol=tol),
            lambda tol: verify_region(2000, seed=8, tol=tol),
            lambda tol: verify_closed_forms(grid_density=2, seed=8, tol=tol),
            lambda tol: monotonicity_sweep(2000, channel_kind="ppt", seed=8, tol=tol),
            lambda tol: counterexample_search(restarts=1, steps=0, seed=8, tol=tol),
        ],
        ids=["ordering", "region", "closed_forms", "monotonicity", "search"],
    )

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    @RUNS
    def test_non_finite_tol_is_rejected_before_any_chunk(self, monkeypatch, run, tol):
        # every "gap > tol" test is false for a NaN: verify_region(2000,
        # seed=8) reports 6 findings at tol 1e-9 and none at NaN
        forked(monkeypatch)
        monkeypatch.setattr(harness, "_chunk_results", lambda task, items: pytest.fail("items were mapped"))
        with pytest.raises(OutOfRange, match="tol must be finite"):
            run(tol)

    @pytest.mark.parametrize("tol", [True, np.False_, "1e-9", None, 1j])
    @RUNS
    def test_a_tol_that_is_no_real_number_is_rejected_before_any_chunk(self, monkeypatch, run, tol):
        # a bool is not read as 1 or 0, and a string or None raises no TypeError
        forked(monkeypatch)
        monkeypatch.setattr(harness, "_chunk_results", lambda task, items: pytest.fail("items were mapped"))
        with pytest.raises(OutOfRange, match=f"^{re.escape(f'tol must be finite and real, got {tol!r}')}$"):
            run(tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 1000), 1, -1])
    @pytest.mark.parametrize(
        "run",
        [
            lambda tol: verify_ordering(300, seed=8, tol=tol),
            lambda tol: verify_region(300, seed=8, tol=tol),
            lambda tol: verify_closed_forms(grid_density=2, seed=8, tol=tol),
            lambda tol: monotonicity_sweep(300, seed=8, tol=tol),
            lambda tol: counterexample_search(restarts=1, steps=2, seed=8, tol=tol),
        ],
        ids=["ordering", "region", "closed_forms", "monotonicity", "search"],
    )
    def test_the_report_holds_the_checked_tol(self, run, tol):
        # the config echoes the float the check returns: a Fraction echoed
        # as given made the report fail to serialize
        report = run(tol)
        assert type(report.config["tol"]) is float
        assert dumps(report.to_json_dict()) == dumps(run(float(tol)).to_json_dict())

    def test_a_numpy_float_tol_is_a_tol(self):
        assert verify_region(2000, seed=8, tol=np.float32(1e-3)).n_violations == 0

    @pytest.mark.parametrize(
        "run",
        [
            lambda out: verify_ordering(3000, rank=0, seed=8),
            lambda out: verify_region(3000, rank=7, seed=8),
            lambda out: figure_data("fig1", 3000, rank=7, seed=8, out_dir=str(out)),
        ],
        ids=["ordering", "region", "figure"],
    )
    def test_bad_rank_is_rejected_before_any_chunk(self, monkeypatch, tmp_path, run):
        forked(monkeypatch)
        monkeypatch.setattr(harness, "_chunk_results", lambda task, items: pytest.fail("items were mapped"))
        out = tmp_path / "new"
        with pytest.raises(OutOfRange, match="rank must be 1..4"):
            run(out)
        assert not out.exists()


class TestMonotonicitySweep:
    def test_no_findings_on_any_channel_kind(self):
        for kind in CHANNEL_KINDS:
            n = 60 if kind == "ppt" else 150
            rep = monotonicity_sweep(n, channel_kind=kind, seed=8)
            assert rep.n_violations == 0, kind
            assert rep.n_samples == n

    def test_local_unitary_gap_is_numerical_noise(self):
        rep = monotonicity_sweep(100, channel_kind="local_unitary", seed=8)
        assert abs(rep.max_gap) <= 1e-10

    def test_entangling_kinds_decrease_binegativity_on_average(self):
        rep = monotonicity_sweep(150, channel_kind="one_way_locc", seed=8)
        assert rep.max_gap < -1e-4

    def test_forced_findings_round_trip(self):
        rep = monotonicity_sweep(20, channel_kind="local", seed=8, tol=-10.0)
        assert rep.n_violations == 20
        for v in rep.violations[:5]:
            assert v.kind == "monotonicity"
            assert v.channel is not None
            assert recompute_gap(v) == pytest.approx(v.observed_gap, abs=1e-12)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: monotonicity_sweep(300, channel_kind="local_unitary", rank=3, seed=5, tol=-1.0),
            lambda: monotonicity_sweep(300, channel_kind="local", rank=3, seed=5, tol=-1.0),
            lambda: monotonicity_sweep(300, channel_kind="one_way_locc", rank=3, seed=5, tol=-1.0),
            lambda: monotonicity_sweep(40, channel_kind="ppt", rank=3, seed=5, tol=-1.0),
            lambda: counterexample_search("ppt", restarts=2, steps=10, seed=8, tol=-1.0),
        ],
        ids=["local_unitary", "local", "one_way_locc", "ppt", "search_ppt"],
    )
    def test_records_recompute_bit_for_bit(self, run):
        rep = run()
        assert rep.n_violations == (1 if rep.op == "counterexample_search" else rep.n_samples)
        for v in rep.violations:
            assert recompute_gap(v) == v.observed_gap

    def test_record_without_channel_cannot_be_recomputed(self):
        v = monotonicity_sweep(2, channel_kind="local", seed=8, tol=-10.0).violations[0]
        bare = ViolationRecord(v.kind, v.observed_gap, v.seed, v.index, v.state)
        with pytest.raises(OutOfRange, match="channel"):
            recompute_gap(bare)

    @pytest.mark.parametrize(
        "state, channel, error, message",
        [
            (np.eye(3) / 3, None, WrongDimension, "a monotonicity record's state is 4x4, got shape (3, 3)"),
            (np.eye(2) / 2, None, WrongDimension, "a monotonicity record's state is 4x4, got shape (2, 2)"),
            (None, KrausChannel((np.eye(2),), 2, 2), DimensionMismatch, "a monotonicity record's channel maps 4 to 4, got 2 to 2"),
        ],
        ids=["state-3x3", "state-2x2", "channel-2-to-2"],
    )
    def test_a_record_off_the_two_qubit_shapes_is_a_dimension_error(self, state, channel, error, message):
        # each raised numpy's ValueError from a matmul before
        v = monotonicity_sweep(2, channel_kind="local", seed=8, tol=-10.0).violations[0]
        record = ViolationRecord(
            v.kind,
            v.observed_gap,
            v.seed,
            v.index,
            v.state if state is None else state,
            v.channel if channel is None else channel,
        )
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            recompute_gap(record)

    def test_violations_sorted_for_stable_output(self):
        rep = monotonicity_sweep(20, channel_kind="local", seed=8, tol=-10.0)
        keys = [(v.seed, v.index, v.kind) for v in rep.violations]
        assert keys == sorted(keys)

    def test_unknown_kind_rejected(self, monkeypatch):
        # checked in the caller, so no worker is forked for it
        forked(monkeypatch)
        monkeypatch.setattr(harness, "_chunk_results", lambda task, items: pytest.fail("items were mapped"))
        runs = (
            lambda kind: monotonicity_sweep(2000, channel_kind=kind, seed=8),
            lambda kind: counterexample_search(kind, restarts=1, steps=0, seed=8),
        )
        for run in runs:
            with pytest.raises(OutOfRange) as info:
                run("teleport")
            assert str(info.value) == f"unknown channel kind 'teleport'; choose from {CHANNEL_KINDS}"

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("kind", ["local_unitary", "local", "one_way_locc"])
    def test_blocks_match_pair_by_pair_reference(self, kind, rank):
        # 1030 pairs: a full chunk of 8 blocks of 128, then a chunk that is
        # one partial block of 6; tol=-1 records every pair
        n, seed = 1030, 11
        rep = monotonicity_sweep(n, channel_kind=kind, rank=rank, seed=seed, tol=-1.0)
        assert rep.n_violations == n
        gaps = []
        for v, (rho, ch) in zip(rep.violations, reference_pairs(kind, rank, seed, n)):
            gaps.append(binegativity(apply(ch, rho)) - binegativity(rho))
            assert v.index == len(gaps) - 1
            assert v.observed_gap == gaps[-1]
            assert np.array_equal(v.state, rho)
            assert dumps(v.channel.to_json_dict()) == dumps(ch.to_json_dict())
        assert len(gaps) == n
        assert rep.max_gap == max(gaps)

    @pytest.mark.parametrize("kind", ["local", "one_way_locc", "local_unitary"])
    def test_locc_report_bytes_do_not_depend_on_the_stacking(self, monkeypatch, kind):
        # three spans per chunk and blocks of 7: each span draws its whole
        # chunk's integers, skips the rows before it and draws its own; the
        # reports are compared line by line, as in TestChunkWorkers
        def report():
            return dumps(monotonicity_sweep(1030, channel_kind=kind, seed=11, tol=-1.0).to_json_dict()).splitlines()

        want = report()
        monkeypatch.setattr(harness, "_stacking", lambda kind: (3, 7, 8))
        assert report() == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ppt_blocks_match_pair_by_pair_reference(self, monkeypatch, cpus):
        # 40 pairs, each block drawn in one call: on one CPU a block of 32
        # and one of 8; on two, a forked span of 20 each, the second after
        # one call that draws the first's 20; tol=-1 records every pair
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        n, seed = 40, 15
        rep = monotonicity_sweep(n, channel_kind="ppt", seed=seed, tol=-1.0)
        assert rep.n_violations == n
        gaps = []
        for v, (rho, ch) in zip(rep.violations, reference_pairs("ppt", 2, seed, n)):
            gaps.append(binegativity(apply(ch, rho)) - binegativity(rho))
            assert v.index == len(gaps) - 1
            assert v.observed_gap == gaps[-1]
            assert np.array_equal(v.state, rho)
            assert dumps(v.channel.to_json_dict()) == dumps(ch.to_json_dict())
        assert len(gaps) == n
        assert rep.max_gap == max(gaps)

    def test_no_sweep_or_search_calls_qr(self, monkeypatch):
        # the Haar maps are Gram-Schmidt, so no kind reaches LAPACK's QR
        def qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr was called")

        monkeypatch.setattr(np.linalg, "qr", qr)
        for kind in CHANNEL_KINDS:
            monotonicity_sweep(3 if kind == "ppt" else 300, channel_kind=kind, seed=16)
            counterexample_search(kind, restarts=2, steps=1 if kind == "ppt" else 10, seed=16)

    @pytest.mark.parametrize("kind", ["local", "one_way_locc"])
    def test_records_carry_no_padding(self, kind):
        rep = monotonicity_sweep(64, channel_kind=kind, seed=13, tol=-1.0)
        counts = []
        for v, (_, ch) in zip(rep.violations, reference_pairs(kind, 2, 13, 64)):
            ops = v.channel.kraus_ops
            counts.append(len(ops))
            assert len(ops) == len(ch.kraus_ops)  # env or the outcome count
            assert all(np.any(k != 0) for k in ops)
        assert len(counts) == 64
        assert len(set(counts)) > 1  # the blocks were padded

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_padded_apply_equals_apply_of_each_channel(self, kind):
        n = 5 if kind == "ppt" else 40
        rng = np.random.default_rng(14)
        counts, on_a = _draw_structures(kind, rng, n)
        raw = rng.standard_normal((n, 16 + CHANNEL_WIDTH[kind]))
        rho, kraus, counts = _build_pairs(kind, 2, counts, on_a, raw)
        assert kraus.shape == (n, max(counts), 4, 4)
        out = _apply_kraus(kraus, rho)
        for i in range(n):
            assert np.all(kraus[i, counts[i] :] == 0)
            ch = KrausChannel(tuple(kraus[i, : counts[i]]), 4, 4)
            assert np.array_equal(out[i], apply(ch, rho[i]))
            if kind == "ppt":
                _, alone = project_to_ppt_channel(_ppt_start(raw[i, 16:]))
                assert np.array_equal(out[i], apply(alone, rho[i]))

    def test_incomplete_channel_in_a_block_raises(self, monkeypatch):
        build = harness._one_way_locc_kraus

        def spoiled(raw, m):
            ops = build(raw, m)
            ops[-1] *= 1.0 + 1e-9
            return ops

        monkeypatch.setattr(harness, "_one_way_locc_kraus", spoiled)
        with pytest.raises(NotTracePreserving):
            monotonicity_sweep(40, channel_kind="one_way_locc", seed=8)

    def test_spoiled_ppt_choi_in_a_block_raises(self, monkeypatch):
        project = channels._ppt_choi

        def spoiled(starts, *budget):
            choi = project(starts, *budget)
            choi[1] *= 1.0 + 1e-8
            return choi

        # the Choi check names the partial trace; the completeness check,
        # which this spoil also fails, would name sum K^dagger K
        monkeypatch.setattr(channels, "_ppt_choi", spoiled)
        with pytest.raises(NotTracePreserving, match="partial trace"):
            monotonicity_sweep(5, channel_kind="ppt", seed=8)


class TestCounterexampleSearch:
    def test_sample_count_and_clean_result(self):
        rep = counterexample_search(
            channel_kind="local_unitary", restarts=2, steps=4, seed=8
        )
        assert rep.n_samples == 2 * (4 + 1)
        assert rep.n_violations == 0
        assert abs(rep.max_gap) <= 1e-10

    def test_zero_steps_evaluates_starts_only(self):
        rep = counterexample_search(channel_kind="local", restarts=3, steps=0, seed=8)
        assert rep.n_samples == 3

    def test_deterministic_report(self):
        a = counterexample_search(channel_kind="one_way_locc", restarts=2, steps=6, seed=8)
        b = counterexample_search(channel_kind="one_way_locc", restarts=2, steps=6, seed=8)
        assert dumps(a.to_json_dict()) == dumps(b.to_json_dict())

    def test_negative_tolerance_forces_a_finding_with_channel(self):
        rep = counterexample_search(
            channel_kind="local", restarts=2, steps=3, seed=8, tol=-10.0
        )
        assert rep.n_violations == 1
        v = rep.violations[0]
        assert v.channel is not None
        assert recompute_gap(v) == pytest.approx(v.observed_gap, abs=1e-12)

    def test_rejects_bad_budget(self):
        with pytest.raises(OutOfRange):
            counterexample_search(restarts=0)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rejects_bad_rank(self, rank):
        with pytest.raises(OutOfRange):
            counterexample_search(channel_kind="local", restarts=1, steps=2, seed=1, rank=rank)

    @pytest.mark.parametrize("step_size", ["0.1", None, [0.1], True, float("nan")])
    def test_a_step_size_that_is_no_finite_real_is_rejected_before_any_draw(self, monkeypatch, step_size):
        # a string or None raised numpy's TypeError, a list did so only after
        # the whole climb, True ran as 1.0, and NaN failed as an overflow
        monkeypatch.setattr(harness, "_spawn", lambda seed, count: pytest.fail("a stream was drawn"))
        message = f"step_size must be finite and real, got {step_size!r}"
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            counterexample_search("local", restarts=1, steps=2, seed=1, step_size=step_size)

    @pytest.mark.parametrize("step_size", [1e308, 1e200, 1e160])
    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_overflowing_steps_are_out_of_range(self, kind, step_size):
        # 1e308 steps overflow to inf, 1e200 and 1e160 steps square to inf in
        # the Gram products; both used to end in a LinAlgError from the
        # eigensolver
        with np.errstate(over="ignore"), pytest.raises(OutOfRange, match="sum of squares"):
            counterexample_search(channel_kind=kind, restarts=2, steps=2, step_size=step_size, seed=8)

    @pytest.mark.parametrize("kind", ["one_way_locc", "local", "local_unitary"])
    def test_lockstep_equals_independent_climbs(self, kind):
        # 29 steps: three full windows of 8 and a partial one of 5
        seed, restarts, steps, step_size = 8, 3, 29, 0.1
        bests = []
        for child in np.random.SeedSequence(seed).spawn(restarts):
            rng = np.random.default_rng(child)
            counts, on_a = _draw_structures(kind, rng, 1)

            def f(theta):
                rho, kraus, pair_counts = _build_pairs(kind, 2, counts, on_a, theta[None])
                ch = KrausChannel(tuple(kraus[0, : pair_counts[0]]), 4, 4)
                return binegativity(apply(ch, rho[0])) - binegativity(rho[0])

            theta = rng.standard_normal(16 + CHANNEL_WIDTH[kind])
            best = f(theta)
            for _ in range(steps):
                cand = theta + step_size * rng.standard_normal(theta.size)
                value = f(cand)
                if value > best:
                    best, theta = value, cand
            bests.append(best)
        rep = counterexample_search(
            channel_kind=kind, restarts=restarts, steps=steps, step_size=step_size, seed=seed, tol=-1.0
        )
        assert rep.max_gap == max(bests)
        (v,) = rep.violations
        assert v.index == bests.index(max(bests))
        assert v.observed_gap == max(bests)


class TestClimb:
    """``_climb`` against the plain loop it stands for: one restart after
    another, one candidate at a time."""

    @staticmethod
    def sequential(f, thetas, rngs, steps, step_size):
        """Each restart's best value, point, accepted steps (1-based) and
        evaluated candidates, climbing one candidate at a time."""
        out = []
        for theta, rng in zip(thetas, rngs):
            best, accepted, seen = f(theta), [], []
            for step in range(1, steps + 1):
                cand = theta + step_size * rng.standard_normal(theta.size)
                seen.append(cand.tobytes())
                value = f(cand)
                if value > best:
                    best, theta = value, cand
                    accepted.append(step)
            out.append((best, theta, accepted, seen))
        return out

    @staticmethod
    def starts(seeds, sizes):
        """Fresh start points and generators, one restart per seed."""
        rngs = [np.random.default_rng(seed) for seed in seeds]
        return [rng.standard_normal(size) for rng, size in zip(rngs, sizes)], rngs

    @staticmethod
    def stacked(f):
        """``f`` as a stacked objective."""

        def objective(which, cands):
            assert len(which) == len(cands)
            return np.array([f(c) for c in cands])

        return objective

    def check(self, f, seeds, sizes, steps, step_size, window, objective=None):
        """Assert that ``_climb`` ends as the sequential climb does, and
        return the sequential climb's results."""
        ref_thetas, ref_rngs = self.starts(seeds, sizes)
        want = self.sequential(f, ref_thetas, ref_rngs, steps, step_size)
        thetas, rngs = self.starts(seeds, sizes)
        best, got = _climb(objective or self.stacked(f), thetas, rngs, steps, step_size, window)
        assert list(best) == [w[0] for w in want]
        assert [t.tobytes() for t in got] == [w[1].tobytes() for w in want]
        # one noise row per step, no more: the generators stand where the
        # sequential climb leaves them
        assert [r.standard_normal() for r in rngs] == [r.standard_normal() for r in ref_rngs]
        return want

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        size=st.integers(1, 6),
        steps=st.sampled_from([0, 1, 3, 7, 8, 9, 17, 30]),
        step_size=st.sampled_from([0.05, 0.3, 1.0]),
        window=st.sampled_from([1, 2, 8]),
    )
    def test_equals_the_sequential_climb(self, seeds, size, steps, step_size, window):
        # restarts of different sizes, as the Kraus counts of LOCC restarts differ
        sizes = [size + k for k in range(len(seeds))]
        weights = np.linspace(0.5, 2.0, size + len(seeds))

        def f(c):
            return float(np.sin(weights[: c.size] * c).sum() - 0.1 * c @ c)

        self.check(f, seeds, sizes, steps, step_size, window)

    def test_a_restart_accepts_the_last_candidate_of_a_window(self):
        # stairs, so that equal values are rejected and acceptances are rare
        def f(c):
            return float(np.floor(4 * c[0]))

        seeds, steps, window = [6, 9, 24], 40, 8
        want = self.check(f, seeds, [3, 3, 3], steps, 0.3, window)
        last = []
        for _, _, accepted, _ in want:
            gaps = np.diff([0] + accepted)
            last.append(any(g % window == 0 for g in gaps))
        assert last == [True, True, True]  # steps 29, 31 and 10

    def test_a_speculative_candidate_that_raises_is_not_an_error(self):
        # the objective raises on every candidate the one-at-a-time climb
        # never evaluates: the candidates after an accepted one in a window
        def f(c):
            return float(np.sin(3 * c).sum())

        seeds, sizes, steps = [4, 5, 6], [4, 5, 6], 30
        thetas, rngs = self.starts(seeds, sizes)
        seen = {b for w in self.sequential(f, thetas, rngs, steps, 0.3) for b in w[3]}
        seen |= {t.tobytes() for t in self.starts(seeds, sizes)[0]}
        raised = []

        def objective(which, cands):
            if any(c.tobytes() not in seen for c in cands):
                raised.append(len(cands))
                raise ValueError("a candidate the sequential climb never evaluates")
            return np.array([f(c) for c in cands])

        self.check(f, seeds, sizes, steps, 0.3, 8, objective)
        assert raised  # a window held such a candidate, and was run again

    @pytest.mark.parametrize("window", [1, 8])
    def test_an_error_of_the_sequential_climb_is_raised(self, window):
        seeds, sizes, steps = [4, 5], [4, 5], 30
        thetas, rngs = self.starts(seeds, sizes)
        tenth = self.sequential(lambda c: float(np.sin(3 * c).sum()), thetas, rngs, steps, 0.3)[1][3][9]

        def f(c):
            if c.tobytes() == tenth:
                raise ValueError("the tenth candidate of restart 1")
            return float(np.sin(3 * c).sum())

        with pytest.raises(ValueError, match="^the tenth candidate of restart 1$"):
            self.sequential(f, *self.starts(seeds, sizes), steps, 0.3)
        thetas, rngs = self.starts(seeds, sizes)
        with pytest.raises(ValueError, match="^the tenth candidate of restart 1$"):
            _climb(self.stacked(f), thetas, rngs, steps, 0.3, window)

    @pytest.mark.parametrize("kind, most", [("ppt", 3), ("one_way_locc", 24), ("local", 24)])
    def test_stack_sizes_of_a_search(self, monkeypatch, kind, most):
        # a PPT search evaluates one candidate per restart in each call, an
        # LOCC search a window of 8
        gaps, sizes = harness._gaps, []

        def spy(rho, kraus):
            sizes.append(len(rho))
            return gaps(rho, kraus)

        monkeypatch.setattr(harness, "_gaps", spy)
        steps = 4 if kind == "ppt" else 20
        counterexample_search(kind, restarts=3, steps=steps, seed=8)
        assert sizes[0] == 3  # the starts
        assert max(sizes) == most


class TestCounts:
    """Counts are integers: a float is rejected, not truncated."""

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None, np.float64(2.0)])
    @pytest.mark.parametrize(
        "name, run",
        [
            ("rank", lambda x: verify_ordering(3, rank=x, seed=1)),
            ("rank", lambda x: random_mixed(x, 0)),
            ("rank", lambda x: counterexample_search("local", restarts=1, steps=1, rank=x)),
            ("n", lambda x: verify_region(x, seed=1)),
            ("n", lambda x: monotonicity_sweep(x, "local")),
            ("n", lambda x: figure_data("fig1", x, out_dir="never-made")),
            ("restarts", lambda x: counterexample_search("local", restarts=x, steps=1)),
            ("steps", lambda x: counterexample_search("local", restarts=2, steps=x)),
            ("grid_density", lambda x: verify_closed_forms(grid_density=x)),
        ],
    )
    def test_a_non_integer_is_rejected(self, name, run, bad):
        with pytest.raises(OutOfRange, match=f"^{name} must be an integer, got "):
            run(bad)

    def test_numpy_integers_are_counts(self):
        i = np.int64
        rep = counterexample_search("local", restarts=i(2), steps=i(1), rank=i(3), seed=1)
        assert rep.config["restarts"] == 2 and rep.config["steps"] == 1 and rep.config["rank"] == 3
        assert type(rep.config["rank"]) is int and rep.n_samples == 4
        assert monotonicity_sweep(i(3), "local", rank=np.int32(2)).n_samples == 3
        assert verify_closed_forms(grid_density=np.uint8(2)).config["grid_density"] == 2
        assert random_mixed(np.int16(1), 0).shape == (4, 4)

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda: verify_ordering(3, rank=5), "rank must be 1..4, got 5"),
            (lambda: monotonicity_sweep(0, "local"), "n must be >= 1, got 0"),
            (lambda: counterexample_search(restarts=0), "restarts must be >= 1, got 0"),
            (lambda: counterexample_search(restarts=1, steps=-1), "steps must be >= 0, got -1"),
            (lambda: verify_closed_forms(grid_density=1), "grid_density must be >= 2, got 1"),
        ],
    )
    def test_an_integer_out_of_range_is_rejected(self, run, message):
        with pytest.raises(OutOfRange, match=f"^{message}$"):
            run()


class TestReportSerialization:
    def test_runtime_not_in_serialized_form(self):
        rep = verify_ordering(10, seed=8)
        assert rep.runtime_seconds is not None
        assert rep.to_json_dict()["runtime_seconds"] is None

    @pytest.mark.parametrize(
        "module, name, run",
        [
            (harness, "_closed_form_gap", lambda: verify_closed_forms(grid_density=2, seed=8)),
            # the reference kernel runs in every chunk, on the states the
            # screen does not certify and on those near a hit or the top,
            # and the screen on all of them
            (measures, "_negative_branch", lambda: verify_region(CHUNK + 6, seed=8)),
            (harness, "_nu_n2_screen", lambda: verify_region(CHUNK + 6, seed=8)),
            (harness, "_gaps", lambda: counterexample_search(restarts=1, steps=0, seed=8)),
        ],
        ids=["closed_forms", "state_sweep", "state_screen", "search"],
    )
    def test_runtime_covers_the_work(self, monkeypatch, module, name, run):
        # the clock starts before the work, so a 50 ms kernel shows in it,
        # in forked workers too
        forked(monkeypatch)
        kernel = getattr(module, name)

        def slow(*args):
            time.sleep(0.05)
            return kernel(*args)

        monkeypatch.setattr(module, name, slow)
        assert run().runtime_seconds >= 0.05

    def test_violation_record_round_trip(self):
        rep = monotonicity_sweep(3, channel_kind="local", seed=8, tol=-10.0)
        v = rep.violations[0]
        back = ViolationRecord.from_json_dict(written(v))
        assert written(back) == written(v)  # JSON reads "-0" as 0, so a zero may lose its sign
        assert recompute_gap(back) == v.observed_gap

    def test_a_record_is_parsed_once(self, monkeypatch):
        # its state, and each Kraus operator of its channel, in from_json_dict;
        # recompute_gap uses them as they are and parses nothing again
        region = verify_region(2000, rank=2, seed=8).violations[0]
        locc = monotonicity_sweep(3, channel_kind="one_way_locc", seed=8, tol=-10.0).violations[0]
        parse, calls = serialize.complex_matrix_from_json, []
        monkeypatch.setattr(serialize, "complex_matrix_from_json", lambda data: calls.append(data) or parse(data))
        assert region.kind == "region_eq9" and len(locc.channel.kraus_ops) > 1
        for v, want in ((region, 1), (locc, 1 + len(locc.channel.kraus_ops))):
            calls.clear()
            assert recompute_gap(ViolationRecord.from_json_dict(written(v))) == v.observed_gap
            assert len(calls) == want

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", 8.9, "seed must be an integer, got 8.9"),
            ("seed", True, "seed must be an integer, got True"),
            ("seed", "8", "seed must be an integer, got '8'"),
            ("seed", -1, "seed must be >= 0, got -1"),
            ("index", 30.7, "index must be an integer, got 30.7"),
            ("index", -1, "index must be >= 0, got -1"),
        ],
    )
    def test_a_record_count_is_an_integer_in_range(self, key, value, message):
        # a float is not truncated, so no record agrees with its truncation
        data = written(verify_ordering(5, seed=1, tol=-10.0).violations[0])
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            ViolationRecord.from_json_dict({**data, key: value})

    @pytest.mark.parametrize("key", ["kind", "observed_gap", "seed", "index", "state"])
    def test_a_record_without_a_key_is_a_parse_error(self, key):
        data = written(verify_ordering(5, seed=1, tol=-10.0).violations[0])
        del data[key]
        with pytest.raises(ParseError, match=f"^a violation record needs its '{key}'$"):
            ViolationRecord.from_json_dict(data)

    @pytest.mark.parametrize("value", [True, False, "x", None, [0.5], float("nan"), float("inf"), -float("inf")])
    def test_a_record_gap_is_a_finite_real(self, value):
        # a bool is not read as 1.0, and no other value escapes as a TypeError
        data = written(verify_ordering(5, seed=1, tol=-10.0).violations[0])
        message = f"observed_gap must be finite and real, got {value!r}"
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            ViolationRecord.from_json_dict({**data, "observed_gap": value})

    @pytest.mark.parametrize("entry, bad", [(True, "True"), ("0.5", "'0.5'"), (None, "None")])
    def test_a_record_state_entry_is_a_finite_number(self, entry, bad):
        # they were read as 1.0, 0.5 and NaN, and then refused only by recompute_gap
        data = written(verify_ordering(5, seed=1, tol=-10.0).violations[0])
        data["state"][0][0][0] = entry
        with pytest.raises(ParseError, match=f"^matrix entries are finite numbers, got {bad}$"):
            ViolationRecord.from_json_dict(data)

    @pytest.mark.parametrize(
        "state, error, message",
        [
            ("x", ParseError, "matrix entries are not numeric: could not convert string to float: 'x'"),
            ([[[True, 0]]], ParseError, "matrix entries are finite numbers, got True"),
            ([[[0.5, 0]]], WrongDimension, "a violation record's state is 4x4, got shape (1, 1)"),
            (None, ParseError, "expected nested [re, im] pairs, got array of shape ()"),
        ],
        ids=["string", "bool", "1x1", "null"],
    )
    def test_a_record_state_is_a_4x4_matrix(self, state, error, message):
        # each was accepted, and failed only in a later recompute_gap
        data = written(verify_ordering(5, seed=1, tol=-10.0).violations[0])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ViolationRecord.from_json_dict({**data, "state": state})

    @pytest.mark.parametrize("channel", ["x", 5])
    def test_a_record_channel_is_an_object_or_null(self, channel):
        data = written(monotonicity_sweep(3, channel_kind="local", seed=8, tol=-10.0).violations[0])
        message = f"a violation record's 'channel' is an object or null, got {type(channel).__name__}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ViolationRecord.from_json_dict({**data, "channel": channel})

    @pytest.mark.parametrize("data", [[], None, "x", 5])
    def test_a_record_that_is_not_an_object_is_a_parse_error(self, data):
        message = f"a violation record is a JSON object, got {type(data).__name__}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ViolationRecord.from_json_dict(data)

    @pytest.mark.parametrize("kind", [["x"], {"a": 1}, 5, None])
    def test_a_record_kind_is_a_string(self, kind):
        # an unhashable kind would otherwise escape recompute_gap as a TypeError
        data = written(verify_ordering(5, seed=1, tol=-10.0).violations[0])
        message = f"a violation record's 'kind' is a string, got {type(kind).__name__}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ViolationRecord.from_json_dict({**data, "kind": kind})

    @pytest.mark.parametrize("params", [5, [1, 2, 3], "p", True])
    def test_record_params_are_an_object_or_null(self, params):
        data = written(verify_closed_forms(grid_density=2, seed=8, tol=-1.0).violations[0])
        message = f"a violation record's 'params' is an object or null, got {type(params).__name__}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ViolationRecord.from_json_dict({**data, "params": params})

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"p": "x"}, "p must be finite and real, got 'x'"),
            ({"q": None}, "q must be finite and real, got None"),
            ({"r": True}, "r must be finite and real, got True"),
            ({"p": float("nan")}, "p must be finite and real, got nan"),
            ({"r": [0.5]}, "r must be finite and real, got [0.5]"),
        ],
    )
    def test_closed_form_params_are_finite_reals(self, change, message):
        data = written(verify_closed_forms(grid_density=2, seed=8, tol=-1.0).violations[0])
        record = ViolationRecord.from_json_dict({**data, "params": {**data["params"], **change}})
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            recompute_gap(record)

    def test_closed_form_params_without_a_key_are_out_of_range(self):
        data = written(verify_closed_forms(grid_density=2, seed=8, tol=-1.0).violations[0])
        params = {k: v for k, v in data["params"].items() if k != "q"}
        with pytest.raises(OutOfRange, match="^q must be finite and real, got None$"):
            recompute_gap(ViolationRecord.from_json_dict({**data, "params": params}))


def scatter_states(rank, seed, n):
    """The factors ``G`` and states ``G G^dagger / Tr`` of a figure's
    scatter, drawn chunk by chunk as the sheet draws them."""
    g = np.concatenate([_ginibre(rank, np.random.default_rng(seq), size) for seq, size in harness._chunks(seed, n)])
    return g, _gram_state(g)


def certified_bounds(g, rho):
    """Each state's certified bounds on its screened ``C`` and on its
    screened ``N`` and ``N2`` against ``measure_triple``'s, or 0.0 where the
    sheet must hold the reference's bits."""
    c_bound = _uhlmann_bound(g, np.maximum(_uhlmann(g) / np.square(np.abs(g)).sum(axis=(-2, -1)), 0.0))
    nu_bound = _nu_n2_screen(rho)[2]
    certified = np.maximum(c_bound, nu_bound) <= _SCREEN_BOUND
    return np.where(certified, c_bound, 0.0), np.where(certified, nu_bound, 0.0)


class TestScreenedScatter:
    """A scatter row holds the screened measures of its state where they are
    certified to within ``_SCREEN_BOUND`` of ``measure_triple``'s, and
    ``measure_triple``'s bits elsewhere."""

    # each column's bound from those of C and of N and N2; a fig3 row holds
    # differences of two measures
    SLACK = {
        "fig1": lambda bc, bn: (bc, bn),
        "fig2": lambda bc, bn: (bn, bn),
        "fig3": lambda bc, bn: (bc, bc + bn, 2.0 * bn),
    }

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_every_row_is_within_its_bound_of_the_reference(self, tmp_path, rank):
        n = CHUNK + 6
        for seed in (5, 6):
            g, rho = scatter_states(rank, seed, n)
            bounds = certified_bounds(g, rho)
            assert np.mean(bounds[0] > 0.0) > 0.99  # nearly every row is screened
            want = measure_triple(rho)
            for which, (_, columns) in harness._SCATTER.items():
                out = tmp_path / f"{which}-{seed}"
                _, rows = read_csv(figure_data(which, n, rank=rank, seed=seed, out_dir=str(out))[0])
                for got, ref, bound in zip(rows.T, columns(want), self.SLACK[which](*bounds)):
                    assert np.all(np.abs(got - ref) <= bound)
                assert not np.array_equal(rows, np.transpose(columns(want)))  # the screen's own values

    # a seed per rank whose one chunk holds the states the screen leaves to
    # the reference: nu unsettled at ranks 1 and 2, C uncertified at rank 4;
    # none of the 4.1e6 rank-3 states of seeds 0-3999 was left
    LEFT = {1: (1, [391]), 2: (31, [1012]), 3: (0, []), 4: (17, [168, 976])}

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_rows_agree_with_the_oracle(self, tmp_path, rank):
        seed, left = self.LEFT[rank]
        g, rho = scatter_states(rank, seed, CHUNK)
        assert np.flatnonzero(certified_bounds(g, rho)[0] == 0.0).tolist() == left
        _, rows = read_csv(figure_data("fig3", CHUNK, rank=rank, seed=seed, out_dir=str(tmp_path))[0])
        picked = left + [j for j in range(0, CHUNK, 16) if j not in left][: 64 - len(left)]
        with mpmath.workdps(mp_oracle.DPS):
            for j in picked:
                c, nu, n2 = mp_oracle.measures(complex_matrix_to_json(rho[j]))
                assert rows[j] == pytest.approx([float(c), float(c - nu), float(nu - n2)], abs=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_a_state_the_screen_leaves_gets_the_reference_bits(self, monkeypatch, tmp_path, rank):
        # a NaN nu of the first two and a NaN C of the last two, across both
        # chunks and on the forked path; every other row keeps its bytes
        n, seed = CHUNK + 6, 8
        g, rho = scatter_states(rank, seed, n)
        no_nu, no_c = {rho[j].tobytes() for j in (3, CHUNK + 1)}, {g[j].tobytes() for j in (40, CHUNK + 5)}
        nu_n2_screen, uhlmann = harness._nu_n2_screen, harness._uhlmann

        def spoiled_nu_n2(states):
            nu, n2, bound = nu_n2_screen(states)
            for j, state in enumerate(states):
                if state.tobytes() in no_nu:
                    nu[j] = n2[j] = bound[j] = np.nan
            return nu, n2, bound

        def spoiled_uhlmann(f):
            u = uhlmann(f)
            u[[j for j, x in enumerate(f) if x.tobytes() in no_c]] = np.nan
            return u

        forked(monkeypatch)
        want = measure_triple(rho)
        for which, (_, columns) in harness._SCATTER.items():
            before = open(figure_data(which, n, rank=rank, seed=seed, out_dir=str(tmp_path / "a"))[0]).read().splitlines()
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_nu_n2_screen", spoiled_nu_n2)
                patch.setattr(harness, "_uhlmann", spoiled_uhlmann)
                path = figure_data(which, n, rank=rank, seed=seed, out_dir=str(tmp_path / "b"))[0]
            after = open(path).read().splitlines()
            _, rows = read_csv(path)
            spoiled = [3, 40, CHUNK + 1, CHUNK + 5]
            assert rows[spoiled].tolist() == np.transpose(columns(want))[spoiled].tolist()
            assert [ln for j, ln in enumerate(after) if j - 1 not in spoiled] == [
                ln for j, ln in enumerate(before) if j - 1 not in spoiled
            ]

    @pytest.mark.parametrize("rank", [1, 3, 4])
    def test_workers_give_the_serial_sheet_at_every_rank(self, monkeypatch, tmp_path, rank):
        sheets = []
        for name, force in (("forked", forked), ("serial", serial)):
            force(monkeypatch)
            path = figure_data("fig3", 2 * CHUNK + 6, rank=rank, seed=12, out_dir=str(tmp_path / name))[0]
            sheets.append(open(path, "rb").read())
            assert multiprocessing.active_children() == []
        assert sheets[0] == sheets[1]


class TestFigureData:
    def test_fig1_scatter_respects_proven_and_conjectured_curves(self, tmp_path):
        paths = figure_data("fig1", 400, seed=8, out_dir=str(tmp_path))
        assert [p.split("/")[-1] for p in paths] == ["fig1_scatter.csv", "fig1_bounds.csv"]
        header, rows = read_csv(paths[0])
        assert header == ["c", "n2"]
        c, n2 = rows[:, 0], rows[:, 1]
        assert np.all(n2 <= c + 1e-9)
        assert np.all(n2 >= bineg_mems(np.clip(c, 0, 1)) - 1e-9)

    def test_fig2_scatter_respects_curves(self, tmp_path):
        paths = figure_data("fig2", 400, seed=8, out_dir=str(tmp_path))
        header, rows = read_csv(paths[0])
        assert header == ["nu", "n2"]
        nu, n2 = rows[:, 0], rows[:, 1]
        assert np.all(n2 <= nu + 1e-9)
        assert np.all(n2 >= bineg_lower_given_nu(np.clip(nu, 0, 1)) - 1e-9)

    def test_fig3_files_and_segment_endpoints(self, tmp_path):
        paths = figure_data("fig3", 300, seed=8, out_dir=str(tmp_path))
        names = [p.split("/")[-1] for p in paths]
        assert names == [
            "fig3_scatter.csv",
            "fig3_region.csv",
            "fig3_mems.csv",
            "fig3_segment.csv",
        ]
        _, seg = read_csv(paths[3])
        assert seg.shape == (21, 3)
        assert seg[0].tolist() == [0.5, 0.125, 3.0 / 400.0]
        assert seg[-1].tolist() == [0.5, 0.125, 1.0 / 54.0]
        # region sheet: min sheet below max, and its last three columns are
        # the bits of one array evaluation on its own (c, nu) columns
        header, reg = read_csv(paths[1])
        assert header == ["c", "nu", "c_minus_nu", "nu_minus_n2_min", "nu_minus_n2_max"]
        assert np.all(reg[:, 2] > 0)
        assert np.all(reg[:, 3] <= reg[:, 4] + 1e-12)
        c, nu = reg[:, 0], reg[:, 1]
        low, up = _region_bounds(c, nu)
        assert reg[:, 2:].tolist() == np.column_stack([c - nu, nu - up, nu - low]).tolist()

    def test_fig3_mems_curve_on_scatter_boundary(self, tmp_path):
        paths = figure_data("fig3", 50, seed=8, out_dir=str(tmp_path))
        _, mems = read_csv(paths[2])
        c = mems[:, 0]
        assert np.allclose(mems[:, 1], c - nu_of_c(c), atol=1e-12)
        assert np.allclose(
            mems[:, 2], nu_of_c(c) - bineg_mems(c), atol=1e-12
        )

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        p1 = figure_data("fig1", 600, seed=9, out_dir=str(d1))
        p2 = figure_data("fig1", 600, seed=9, out_dir=str(d2))
        for a, b in zip(p1, p2):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(OutOfRange):
            figure_data("fig4", 10, out_dir=str(tmp_path))

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_empty_run_before_creating_the_directory(self, tmp_path, n):
        out = tmp_path / "new"
        with pytest.raises(OutOfRange, match="n must be >= 1"):
            figure_data("fig1", n, out_dir=str(out))
        assert not out.exists()
