"""Tests for the sweep/search harness and figure emission.

Sweeps run on reduced sample counts with fixed seeds; expected finding
counts are frozen from high-precision audits of the same seeds.
"""

import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bineg import channels, harness
from bineg.channels import (
    KrausChannel,
    _apply_kraus,
    _ppt_start,
    apply,
    one_way_locc_channel,
    project_to_ppt_channel,
    random_local_channel,
    random_local_unitary_pair,
)
from bineg.cli import parse_state_spec
from bineg.errors import NotTracePreserving, OutOfRange
from bineg.harness import (
    CHANNEL_KINDS,
    CHUNK,
    CONJECTURE_KINDS,
    HARD_KINDS,
    SweepReport,
    ViolationRecord,
    _bound_gaps,
    _build_pairs,
    _draw_pairs,
    _draw_structure,
    _ordering_gap,
    counterexample_search,
    figure_data,
    monotonicity_sweep,
    recompute_gap,
    verify_closed_forms,
    verify_ordering,
    verify_region,
)
from bineg.measures import bineg_lower_given_nu, bineg_mems, binegativity, measure_triple, nu_of_c
from bineg.serialize import complex_matrix_to_json, dumps
from bineg.states import random_mixed

import mp_oracle


def read_csv(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


def reference_pairs(kind, rank, seed, n):
    """(state, channel) pairs of a sweep, drawn one by one through the public
    samplers from the sweep's fixed-size chunk substreams."""
    sizes = [CHUNK] * (n // CHUNK) + ([n % CHUNK] if n % CHUNK else [])
    for child, size in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        rng = np.random.default_rng(child)
        for _ in range(size):
            rho = random_mixed(rank, rng)
            if kind == "local_unitary":
                ch = random_local_unitary_pair(rng)
            elif kind == "local":
                side = "A" if int(rng.integers(2)) == 0 else "B"
                ch = random_local_channel(side, int(rng.integers(1, 5)), rng)
            else:
                ch = one_way_locc_channel(int(rng.integers(2, 5)), rng)
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


class TestStateSweepChunks:
    @pytest.mark.parametrize("sweep", [verify_ordering, verify_region])
    def test_records_run_across_the_chunk_boundary(self, sweep):
        # CHUNK + 6 states: a full chunk, then a chunk of 6, each drawn whole
        # from its own substream; tol=-1 records every gap of every state
        n, seed = CHUNK + 6, 12
        rep = sweep(n, rank=2, seed=seed, tol=-1.0)
        children = np.random.SeedSequence(seed).spawn(2)
        chunks = [random_mixed(2, np.random.default_rng(c), size=k) for c, k in zip(children, (CHUNK, 6))]
        states = np.concatenate(chunks)
        # gaps of each chunk as one stack: a lone state may differ in the last bit
        gaps = {}
        for chunk in chunks:
            t = measure_triple(chunk)
            found = {"ordering": _ordering_gap(t)} if sweep is verify_ordering else _bound_gaps(t)
            for kind, g in found.items():
                gaps.setdefault(kind, []).extend(g.tolist())
        want = sorted((i, kind, g[i]) for kind, g in gaps.items() for i in range(n) if g[i] > -1.0)
        got = [(v.index, v.kind, v.observed_gap) for v in rep.violations]
        assert got == want
        assert all(v.state == complex_matrix_to_json(states[v.index]) for v in rep.violations)
        # region records only entangled states, ordering records all of them
        indices = sorted({v.index for v in rep.violations})
        assert indices[0] < CHUNK <= indices[-1]
        if sweep is verify_ordering:
            assert indices == list(range(n))


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
        row = {j: (complex_matrix_to_json(states[j]), {"params": {"j": j}}) for j in (0, 3)}
        assert hits == [("first", 0, 2.0, *row[0]), ("first", 3, 0.75, *row[3]), ("last", 3, 1.0, *row[3])]
        assert asked == [0, 3] and hits[1][3] is hits[2][3]  # state 3 serialized once
        assert all(type(x) in (int, float) for hit in hits for x in hit[1:3])
        assert harness._block(0.5, states[:1], {"first": np.array([np.nan])}, extra_of) == (1, -np.inf, [])

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


class TestTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
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
    def test_non_finite_tol_is_rejected_before_any_chunk(self, monkeypatch, run, tol):
        # every "gap > tol" test is false for a NaN: verify_region(2000,
        # seed=8) reports 6 findings at tol 1e-9 and none at NaN
        forked(monkeypatch)
        monkeypatch.setattr(harness, "_chunk_results", lambda task, items: pytest.fail("items were mapped"))
        with pytest.raises(OutOfRange, match="tol must be finite"):
            run(tol)

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
        # 1030 pairs: a full chunk of 32 blocks, then a chunk that is one
        # partial block of 6; tol=-1 records every pair
        n, seed = 1030, 11
        rep = monotonicity_sweep(n, channel_kind=kind, rank=rank, seed=seed, tol=-1.0)
        assert rep.n_violations == n
        gaps = []
        for v, (rho, ch) in zip(rep.violations, reference_pairs(kind, rank, seed, n)):
            gaps.append(binegativity(apply(ch, rho)) - binegativity(rho))
            assert v.index == len(gaps) - 1
            assert v.observed_gap == gaps[-1]
            assert v.state == complex_matrix_to_json(rho)
            assert v.channel == ch.to_json_dict()
        assert len(gaps) == n
        assert rep.max_gap == max(gaps)

    @pytest.mark.parametrize("kind", ["local", "one_way_locc"])
    def test_records_carry_no_padding(self, kind):
        rep = monotonicity_sweep(64, channel_kind=kind, seed=13, tol=-1.0)
        counts = []
        for v, (_, ch) in zip(rep.violations, reference_pairs(kind, 2, 13, 64)):
            ops = KrausChannel.from_json_dict(v.channel).kraus_ops
            counts.append(len(ops))
            assert len(ops) == len(ch.kraus_ops)  # env or the outcome count
            assert all(np.any(k != 0) for k in ops)
        assert len(counts) == 64
        assert len(set(counts)) > 1  # the blocks were padded

    @pytest.mark.parametrize("kind", CHANNEL_KINDS)
    def test_padded_apply_equals_apply_of_each_channel(self, kind):
        n = 5 if kind == "ppt" else 40
        state_raw, structures, channel_raw = _draw_pairs(kind, 2, np.random.default_rng(14), n)
        rho, kraus, counts = _build_pairs(kind, structures, state_raw, channel_raw)
        assert kraus.shape == (n, max(counts), 4, 4)
        out = _apply_kraus(kraus, rho)
        for i in range(n):
            assert np.all(kraus[i, counts[i] :] == 0)
            ch = KrausChannel(tuple(kraus[i, : counts[i]]), 4, 4)
            assert np.array_equal(out[i], apply(ch, rho[i]))
            if kind == "ppt":
                _, alone = project_to_ppt_channel(_ppt_start(channel_raw[i]))
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

    @pytest.mark.parametrize("step_size", [1e308, 1e200, 1e160])
    @pytest.mark.parametrize("kind", ["ppt", "local_unitary"])
    def test_overflowing_steps_are_out_of_range(self, kind, step_size):
        # 1e308 steps overflow to inf, 1e200 and 1e160 steps square to inf in
        # the Gram products; both used to end in a LinAlgError from the
        # eigensolver
        with np.errstate(over="ignore"), pytest.raises(OutOfRange, match="sum of squares"):
            counterexample_search(channel_kind=kind, restarts=2, steps=2, step_size=step_size, seed=8)

    @pytest.mark.parametrize("kind", ["one_way_locc", "local"])
    def test_lockstep_equals_independent_climbs(self, kind):
        seed, restarts, steps, step_size = 8, 3, 30, 0.1
        bests = []
        for child in np.random.SeedSequence(seed).spawn(restarts):
            rng = np.random.default_rng(child)
            structure, size = _draw_structure(kind, rng)

            def f(theta):
                rho, kraus, counts = _build_pairs(kind, [structure], theta[None, :16], [theta[16:]])
                ch = KrausChannel(tuple(kraus[0, : counts[0]]), 4, 4)
                return binegativity(apply(ch, rho[0])) - binegativity(rho[0])

            theta = rng.standard_normal(16 + size)
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


class TestReportSerialization:
    def test_runtime_not_in_serialized_form(self):
        rep = verify_ordering(10, seed=8)
        assert rep.runtime_seconds is not None
        assert rep.to_json_dict()["runtime_seconds"] is None

    @pytest.mark.parametrize(
        "name, run",
        [
            ("_closed_form_gap", lambda: verify_closed_forms(grid_density=2, seed=8)),
            ("measure_triple", lambda: verify_region(CHUNK + 6, seed=8)),
            ("_gaps", lambda: counterexample_search(restarts=1, steps=0, seed=8)),
        ],
        ids=["closed_forms", "state_sweep", "search"],
    )
    def test_runtime_covers_the_work(self, monkeypatch, name, run):
        # the clock starts before the work, so a 50 ms kernel shows in it,
        # in forked workers too
        forked(monkeypatch)
        kernel = getattr(harness, name)

        def slow(*args):
            time.sleep(0.05)
            return kernel(*args)

        monkeypatch.setattr(harness, name, slow)
        assert run().runtime_seconds >= 0.05

    def test_violation_record_round_trip(self):
        rep = monotonicity_sweep(3, channel_kind="local", seed=8, tol=-10.0)
        v = rep.violations[0]
        back = ViolationRecord.from_json_dict(v.to_json_dict())
        assert back.kind == v.kind
        assert back.observed_gap == v.observed_gap
        assert back.seed == v.seed and back.index == v.index
        assert recompute_gap(back) == pytest.approx(v.observed_gap, abs=1e-12)


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
        # region sheet: wedge coordinates consistent, min sheet below max
        header, reg = read_csv(paths[1])
        assert header == ["c", "nu", "c_minus_nu", "nu_minus_n2_min", "nu_minus_n2_max"]
        assert np.all(reg[:, 2] > 0)
        assert np.all(reg[:, 3] <= reg[:, 4] + 1e-12)
        assert np.allclose(reg[:, 0] - reg[:, 1], reg[:, 2], atol=1e-12)

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
