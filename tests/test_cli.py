"""End-to-end tests of the command-line interface.

Commands run in-process through ``main(argv)`` so exit codes and streams
can be asserted exactly; one subprocess test covers the installed entry
point.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bineg import cli, harness, measures, states
from bineg.cli import EXIT_FINDING, EXIT_HARD, EXIT_OK, main
from bineg.serialize import complex_matrix_to_json, dumps
from bineg.states import random_mixed, sigma_mems


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_rho1_json(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--state", "rho1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["state"] == "rho1"
        assert data["c"] == pytest.approx(0.5, abs=1e-10)
        assert data["nu"] == pytest.approx(0.375, abs=1e-10)
        assert data["n2"] == pytest.approx(0.3675, abs=1e-10)
        assert data["mu"] == pytest.approx(0.64, abs=1e-10)
        assert data["is_ppt"] is False

    def test_rho2_json(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--state", "rho2")
        assert code == EXIT_OK
        assert json.loads(out)["n2"] == pytest.approx(77.0 / 216.0, abs=1e-10)

    def test_bell_end_of_mems_family(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--state", "mems:1")
        data = json.loads(out)
        for key in ("c", "nu", "n2"):
            assert data[key] == pytest.approx(1.0, abs=1e-10)
        assert data["mu"] == pytest.approx(0.5, abs=1e-10)

    def test_separable_family_point(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--state", "sigma_pqr:0.5,0.5,0.5")
        data = json.loads(out)
        assert (data["c"], data["nu"], data["n2"]) == (0.0, 0.0, 0.0)
        assert data["mu"] is None
        assert data["is_ppt"] is True

    def test_boundary_family_spec(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--state", "boundary:0.5,0.375,0.2")
        data = json.loads(out)
        assert code == EXIT_OK
        assert data["c"] == pytest.approx(0.5, abs=1e-9)
        assert data["nu"] == pytest.approx(0.375, abs=1e-9)

    def test_csv_format_encodes_missing_mu_as_nan(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--state", "sigma_pqr:0.5,0.5,0.5", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "c,nu,n2,mu,is_ppt"
        cells = lines[1].split(",")
        assert cells[:3] == ["0", "0", "0"]
        assert cells[3] == "nan"
        assert cells[4] == "true"

    def test_ppt_boundary_state_gives_one_verdict(self, capsys, tmp_path):
        # a mixture (1-t) I/4 + t rho on the PPT boundary, where a separate
        # eigensolve and cut printed "nu": 0 with "is_ppt": false
        rng = np.random.default_rng(0)
        rho = [random_mixed(2, rng) for _ in range(4)][-1]
        t = 0.7765473100012458
        path = tmp_path / "state.json"
        path.write_text(json.dumps(complex_matrix_to_json((1.0 - t) * np.eye(4) / 4.0 + t * rho)))
        code, out, _ = run_cli(capsys, "compute", "--state", str(path))
        data = json.loads(out)
        assert code == EXIT_OK
        assert (data["nu"], data["is_ppt"]) == (0.0, True)

    def test_one_eigensolve_of_the_partial_transpose(self, capsys, monkeypatch):
        # nu, n2, mu and is_ppt all come from one (lam, a), whichever module
        # of the package calls the kernel's eigensolve
        calls = []
        branch = measures._negative_branch

        def counted(rho):
            calls.append(rho)
            return branch(rho)

        for module in (cli, measures, states):
            if hasattr(module, "_negative_branch"):
                monkeypatch.setattr(module, "_negative_branch", counted)
        code, _, _ = run_cli(capsys, "compute", "--state", "rho1")
        assert (code, len(calls)) == (EXIT_OK, 1)

    def test_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(complex_matrix_to_json(sigma_mems(0.7))))
        code, out, _ = run_cli(capsys, "compute", "--state", str(path))
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["file"] == str(path)
        assert data["c"] == pytest.approx(0.7, abs=1e-10)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, out, _ = run_cli(
            capsys, "compute", "--state", "rho2", "--out", str(out_path)
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(out_path.read_text())["nu"] == pytest.approx(0.375, abs=1e-10)


class TestComputeErrors:
    def test_unknown_family_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--state", "werner:0.5")
        assert code == EXIT_HARD
        assert "unknown family" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--state", "no_such_file.json")
        assert code == EXIT_HARD
        assert "neither a family spec nor an existing file" in err

    def test_wrong_parameter_count(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--state", "mems:0.5,0.6")
        assert code == EXIT_HARD
        assert "takes 1 parameter" in err

    def test_invalid_state_file_names_violated_invariant(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        bad = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        path.write_text(json.dumps(complex_matrix_to_json(bad)))
        code, _, err = run_cli(capsys, "compute", "--state", str(path))
        assert code == EXIT_HARD
        assert "positivity" in err

    @pytest.mark.parametrize("entry, bad", [(False, "False"), ("0", "'0'"), (None, "None")])
    def test_a_state_file_entry_is_a_finite_number(self, capsys, tmp_path, entry, bad):
        # with false or "0" for an imaginary part of 0.0 the file was read as
        # MEMS(0.7); null was read as NaN
        path = tmp_path / "state.json"
        data = complex_matrix_to_json(sigma_mems(0.7))
        data[0][0][1] = entry
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "compute", "--state", str(path))
        assert code == EXIT_HARD
        assert f"matrix entries are finite numbers, got {bad}" in err

    def test_unknown_flag_exits_hard(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--state", "rho1", "--frobnicate"])
        assert exc.value.code == EXIT_HARD

    def test_help_exits_clean(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("compute", "verify", "monotonic", "search", "figure"):
            assert sub in out

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["figure", "--help"], "output directory (default: .)"),
            (["monotonic", "--help"], "output path (default: stdout)"),
        ],
    )
    def test_help_describes_out(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert text in out
        if argv[0] == "figure":
            assert "stdout" not in out


class TestVerify:
    def test_closed_forms_clean(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "closed-forms", "--grid", "5", "--seed", "8"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["op"] == "verify_closed_forms"
        assert report["n_violations"] == 0
        assert "verify_closed_forms: n=" in err

    def test_ordering_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "ordering", "--samples", "400", "--seed", "8"
        )
        assert code == EXIT_OK
        assert json.loads(out)["n_violations"] == 0

    def test_region_small_sample_clean(self, capsys):
        # frozen: this (samples, seed) pair draws no state above the
        # conjectured upper surface, so the sweep reports a clean pass
        code, out, _ = run_cli(
            capsys, "verify", "region", "--samples", "50", "--seed", "8"
        )
        assert code == EXIT_OK

    def test_region_larger_sample_reports_findings(self, capsys):
        # the conjectured upper surface genuinely fails for a small fraction
        # of rank-2 states, so the sweep must exit with the finding code
        code, out, _ = run_cli(
            capsys, "verify", "region", "--samples", "2000", "--seed", "8"
        )
        assert code == EXIT_FINDING
        report = json.loads(out)
        assert report["n_violations"] == 6
        assert all(v["kind"] == "region_eq9" for v in report["violations"])

    def test_region_least_negativity_record_is_hard(self, capsys):
        # a forced bound_eq4 record breaks a proven relation: exit 1, not 2
        code, out, _ = run_cli(
            capsys, "verify", "region", "--samples", "50", "--seed", "8", "--tol", "-1"
        )
        assert code == EXIT_HARD
        assert "bound_eq4" in {v["kind"] for v in json.loads(out)["violations"]}

    def test_csv_report_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "ordering",
            "--samples",
            "50",
            "--seed",
            "8",
            "--format",
            "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "op,n_samples,n_violations,max_gap,seed"
        assert lines[1].startswith("verify_ordering,50,0,")


class TestReportStreaming:
    @pytest.mark.parametrize(
        "command",
        ["verify region --samples 2000 --seed 8", "monotonic --channel local --samples 30 --seed 7 --tol -1"],
        ids=["region", "monotonic"],
    )
    def test_stdout_and_out_file_are_the_same_bytes(self, capsys, tmp_path, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert run_cli(capsys, *command.split(), "--out", str(tmp_path / "report"))[0] == code == EXIT_FINDING
        assert json.loads(out)["n_violations"] > 0
        assert out.encode() == (tmp_path / "report").read_bytes()

    def test_a_report_is_written_without_holding_its_text(self, capsys, tmp_path):
        # 600 records of 4x4 states, about 1 MB of text; the emission holds a
        # record's text at a time, and the report's dicts of records
        rng = np.random.default_rng(30)
        records = [
            harness.ViolationRecord("region_eq9", gap, 30, i, random_mixed(2, rng))
            for i, gap in enumerate(rng.random(600).tolist())
        ]
        report = harness.SweepReport("verify_region", 10**5, len(records), 1.0, 30, {"rank": 2}, 1.5, records)
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            cli._emit_report(report, argparse.Namespace(format="json", out=str(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert path.read_text() == dumps(report.to_json_dict())
        assert size > 500_000 and peak < size / 4


class TestMonotonicAndSearch:
    def test_monotonic_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "monotonic", "--samples", "40", "--channel", "local", "--seed", "8"
        )
        assert code == EXIT_OK
        assert json.loads(out)["n_violations"] == 0

    def test_monotonic_forced_finding_exits_2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "monotonic",
            "--samples",
            "10",
            "--channel",
            "local",
            "--seed",
            "8",
            "--tol",
            "-1",
        )
        assert code == EXIT_FINDING
        assert json.loads(out)["n_violations"] == 10

    def test_search_clean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--channel",
            "local_unitary",
            "--restarts",
            "2",
            "--steps",
            "3",
            "--seed",
            "8",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["op"] == "counterexample_search"
        assert report["n_samples"] == 8


class TestSeedResolution:
    def test_env_fallback_matches_explicit_seed(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("BINEG_SEED", "8")
        assert run_cli(capsys, "verify", "ordering", "--samples", "60", "--out", str(a))[0] == EXIT_OK
        monkeypatch.delenv("BINEG_SEED")
        assert (
            run_cli(
                capsys, "verify", "ordering", "--samples", "60", "--seed", "8",
                "--out", str(b),
            )[0]
            == EXIT_OK
        )
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "ordering", "--samples", "5"],
            ["search", "--restarts", "1", "--steps", "1"],
        ],
    )
    def test_negative_seed_flag_is_an_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert code == EXIT_HARD
        assert err.startswith("bineg: error:") and "seed" in err
        assert out == ""
        assert run_cli(capsys, *argv, "--seed", "0")[0] == EXIT_OK

    def test_negative_env_seed_is_an_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BINEG_SEED", "-3")
        out = tmp_path / "newdir"
        code, _, err = run_cli(capsys, "figure", "fig1", "--samples", "5", "--out", str(out))
        assert code == EXIT_HARD
        assert err.startswith("bineg: error:") and "seed" in err
        assert not out.exists()

    def test_bad_env_seed_is_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("BINEG_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "verify", "ordering", "--samples", "10")
        assert code == EXIT_HARD
        assert "BINEG_SEED" in err


# the smallest run of every sweep subcommand; figure no longer registers
# --tol and none registers --threads, so those flags are usage errors there
SWEEP_COMMANDS = {
    "verify": ["verify", "region", "--samples", "2000", "--seed", "8"],
    "monotonic": ["monotonic", "--samples", "2"],
    "search": ["search", "--restarts", "1", "--steps", "1"],
    "figure": ["figure", "fig1", "--samples", "20"],
}

# options a subcommand would ignore are not registered, so passing one is
# a usage error rather than a silent no-op
UNREAD_OPTIONS = {
    "compute-seed": ["compute", "--state", "rho1", "--seed", "5"],
    "verify-threads": ["verify", "region", "--samples", "20", "--threads", "2"],
    "monotonic-threads": ["monotonic", "--samples", "2", "--threads", "2"],
    "search-threads": ["search", "--restarts", "1", "--steps", "1", "--threads", "2"],
    "figure-threads": ["figure", "fig1", "--samples", "20", "--threads", "2"],
    "figure-tol": ["figure", "fig1", "--samples", "20", "--tol", "1"],
    "figure-format": ["figure", "fig1", "--samples", "20", "--format", "csv"],
    "search-samples": ["search", "--restarts", "1", "--steps", "1", "--samples", "5"],
    "closed-forms-samples": ["verify", "closed-forms", "--grid", "2", "--samples", "5"],
    "closed-forms-rank": ["verify", "closed-forms", "--grid", "2", "--rank", "3"],
    "region-grid": ["verify", "region", "--samples", "20", "--grid", "5"],
    "ordering-grid": ["verify", "ordering", "--samples", "20", "--grid", "5"],
}


class TestNumericFlags:
    @pytest.mark.parametrize("command", sorted(SWEEP_COMMANDS))
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_usage_error(self, capsys, tmp_path, command, tol):
        # a NaN tolerance used to switch every check off: the seed-8 region
        # sweep has 6 genuine findings, and with --tol nan it exited 0
        argv = SWEEP_COMMANDS[command] + [f"--tol={tol}", "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_HARD
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("step_size", ["nan", "inf", "-inf"])
    def test_non_finite_step_size_is_usage_error(self, capsys, tmp_path, step_size):
        # a NaN step made every candidate NaN, and the search ended in a
        # LinAlgError traceback from the eigensolver
        argv = SWEEP_COMMANDS["search"] + ["--channel", "ppt", f"--step-size={step_size}"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_HARD
        assert "--step-size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_step_size_is_an_error_line(self, capsys, tmp_path):
        argv = SWEEP_COMMANDS["search"] + ["--channel", "ppt", "--step-size", "1e308"]
        with np.errstate(over="ignore"):
            code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == EXIT_HARD
        assert err.startswith("bineg: error:")

    @pytest.mark.parametrize("command", sorted(SWEEP_COMMANDS))
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, capsys, tmp_path, command, threads):
        argv = SWEEP_COMMANDS[command] + ["--threads", threads, "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_HARD
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(UNREAD_OPTIONS))
    def test_unread_option_is_usage_error(self, capsys, tmp_path, case):
        argv = UNREAD_OPTIONS[case]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_HARD
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert argv[-2] in err
        assert not (tmp_path / "out").exists()


# every option a report subcommand registers, each at a value that is not its
# default and differs from the others, with the config the harness must echo
WIRED = {
    "ordering": (
        ["verify", "ordering", "--samples", "7", "--rank", "3", "--tol", "0.5"],
        7,
        {"rank": 3, "tol": 0.5},
    ),
    "region": (
        ["verify", "region", "--samples", "7", "--rank", "4", "--tol", "0.5"],
        7,
        {"rank": 4, "tol": 0.5},
    ),
    "closed-forms": (
        ["verify", "closed-forms", "--grid", "3", "--tol", "0.5"],
        3**3 + 100,
        {"grid_density": 3, "tol": 0.5},
    ),
    "monotonic": (
        ["monotonic", "--samples", "7", "--rank", "3", "--channel", "local_unitary", "--tol", "0.5"],
        7,
        {"channel_kind": "local_unitary", "rank": 3, "tol": 0.5},
    ),
    "search": (
        [
            "search", "--channel", "local", "--restarts", "2", "--steps", "4",
            "--step-size", "0.25", "--rank", "3", "--tol", "0.5",
        ],
        2 * (4 + 1),
        {"channel_kind": "local", "restarts": 2, "steps": 4, "step_size": 0.25, "rank": 3, "tol": 0.5},
    ),
}


class TestReportWiring:
    @pytest.mark.parametrize("case", sorted(WIRED))
    def test_every_option_reaches_the_harness(self, capsys, case):
        # --format and --out are read by the report writer, not the harness,
        # and have tests of their own
        argv, n_samples, config = WIRED[case]
        code, out, _ = run_cli(capsys, *argv, "--seed", "5")
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["config"], report["n_samples"], report["seed"]) == (config, n_samples, 5)


class TestFigure:
    def test_fig_output_reproducible(self, capsys, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            code, _, _ = run_cli(
                capsys,
                "figure",
                "fig3",
                "--samples",
                "80",
                "--seed",
                "7",
                "--out",
                str(d),
            )
            assert code == EXIT_OK
        files = sorted(p.name for p in d1.iterdir())
        assert files == [
            "fig3_mems.csv",
            "fig3_region.csv",
            "fig3_scatter.csv",
            "fig3_segment.csv",
        ]
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_is_an_error(self, capsys, tmp_path, samples):
        out = tmp_path / "newdir"
        code, _, err = run_cli(capsys, "figure", "fig1", "--samples", samples, "--out", str(out))
        assert code == EXIT_HARD
        assert err.startswith("bineg: error:") and "n must be >= 1" in err
        assert not out.exists()


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bineg", "compute", "--state", "rho2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["n2"] == pytest.approx(77.0 / 216.0, abs=1e-10)


class TestPinnedReports:
    """Report bytes and exit codes of fixed commands, as SHA-256 prefixes of
    their ``--out`` files.  Any change to a sampled stream, a gap, a record
    or the serializer moves a hash, so a change that must keep every byte
    shows here.  The hashes were taken with numpy 2.4.6 and its OpenBLAS on
    x86_64; another numpy or BLAS may round the last bit differently."""

    REPORTS = {
        "region-csv": ("verify region --samples 2000 --seed 8 --format csv", "49b967bc6264915d", EXIT_FINDING),
        # three chunks, so forked workers on a host with more than one CPU
        "ordering": ("verify ordering --samples 3000 --seed 42 --tol -1", "34b968a81b48eb05", EXIT_HARD),
        "closed-forms": ("verify closed-forms --grid 4 --tol -1", "3691ec00fd47fcc0", EXIT_HARD),
        "monotonic-local": (
            "monotonic --channel local --samples 2100 --seed 7 --tol -1", "fe59ac85d51d7230", EXIT_FINDING
        ),
        "monotonic-one-way-locc": (
            "monotonic --channel one_way_locc --samples 3000 --seed 5 --tol -1", "fedb8d8b02180c80", EXIT_FINDING
        ),
        "search-one-way-locc": (
            "search --channel one_way_locc --restarts 3 --steps 40 --seed 5 --tol -1", "7a3ae3ecde9aa98f", EXIT_FINDING
        ),
        "monotonic-ppt": (
            "monotonic --channel ppt --rank 3 --samples 70 --seed 9 --tol -1", "1aff1304c9698c89", EXIT_FINDING
        ),
        "search-ppt": (
            "search --channel ppt --restarts 2 --steps 10 --seed 8 --tol -1", "38e574817ff7af1e", EXIT_FINDING
        ),
        "compute-rho1-json": ("compute --state rho1", "8283e28145240b78", EXIT_OK),
        "compute-rho1-csv": ("compute --state rho1 --format csv", "0f9b44d9c1ab73fe", EXIT_OK),
        "compute-rho2-json": ("compute --state rho2", "a3135620990acd84", EXIT_OK),
        "compute-rho2-csv": ("compute --state rho2 --format csv", "c45d606d4f4f0b16", EXIT_OK),
        "compute-mems-json": ("compute --state mems:0.4", "28ae6f6bb8c864fe", EXIT_OK),
        "compute-mems-csv": ("compute --state mems:0.4 --format csv", "f2fdc8a718b4e567", EXIT_OK),
    }

    # the sheets of "figure <which> --samples 5000 --seed 42"
    FIGURE_SHEETS = {
        "fig1": {
            "fig1_bounds.csv": "0d1815dba5a1f65d",
            "fig1_scatter.csv": "e6285bd7096863ec",
        },
        "fig2": {
            "fig2_bounds.csv": "abf32b79877220e7",
            "fig2_scatter.csv": "fe233ec1d7233c1b",
        },
        "fig3": {
            "fig3_mems.csv": "baf1355e970a1827",
            "fig3_region.csv": "1f395780f87431b3",
            "fig3_scatter.csv": "a8fe45e331ff66be",
            "fig3_segment.csv": "697bf06a7e5d02eb",
        },
    }

    @staticmethod
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    @pytest.mark.parametrize("case", sorted(REPORTS))
    def test_report_bytes(self, capsys, tmp_path, case):
        command, digest, exit_code = self.REPORTS[case]
        code, _, _ = run_cli(capsys, *command.split(), "--out", str(tmp_path / "report"))
        assert (code, self.sha(tmp_path / "report")) == (exit_code, digest)

    @pytest.mark.parametrize("which", sorted(FIGURE_SHEETS))
    def test_figure_sheets(self, capsys, tmp_path, which):
        code, _, _ = run_cli(capsys, "figure", which, "--samples", "5000", "--seed", "42", "--out", str(tmp_path))
        assert code == EXIT_OK
        assert {p.name: self.sha(p) for p in tmp_path.iterdir()} == self.FIGURE_SHEETS[which]
