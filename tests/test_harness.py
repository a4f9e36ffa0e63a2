"""Tests for the sweep/search harness and figure emission.

Sweeps run on reduced sample counts with fixed seeds; expected finding
counts are frozen from high-precision audits of the same seeds.
"""

import numpy as np
import pytest

from bineg.cli import parse_state_spec
from bineg.errors import OutOfRange
from bineg.harness import (
    CHANNEL_KINDS,
    CONJECTURE_KINDS,
    HARD_KINDS,
    SweepReport,
    ViolationRecord,
    counterexample_search,
    figure_data,
    monotonicity_sweep,
    recompute_gap,
    verify_closed_forms,
    verify_ordering,
    verify_region,
)
from bineg.measures import bineg_lower_given_nu, bineg_mems, nu_of_c
from bineg.serialize import complex_matrix_to_json, dumps

import mp_oracle


def read_csv(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


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

    def test_kinds_are_conjecture_findings(self):
        assert "region_eq9" in CONJECTURE_KINDS
        assert "ordering" in HARD_KINDS
        assert CONJECTURE_KINDS.isdisjoint(HARD_KINDS)


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

    def test_record_without_params_cannot_be_recomputed(self):
        v = verify_closed_forms(grid_density=2, seed=8, tol=-1.0).violations[0]
        bare = ViolationRecord(v.kind, v.observed_gap, v.seed, v.index, v.state)
        with pytest.raises(OutOfRange, match="params"):
            recompute_gap(bare)


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

    def test_violations_sorted_for_stable_output(self):
        rep = monotonicity_sweep(20, channel_kind="local", seed=8, tol=-10.0)
        keys = [(v.seed, v.index, v.kind) for v in rep.violations]
        assert keys == sorted(keys)

    def test_unknown_kind_rejected(self):
        with pytest.raises(OutOfRange):
            monotonicity_sweep(5, channel_kind="teleport", seed=8)


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


class TestReportSerialization:
    def test_runtime_not_in_serialized_form(self):
        rep = verify_ordering(10, seed=8)
        assert rep.runtime_seconds is not None
        assert rep.to_json_dict()["runtime_seconds"] is None

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
