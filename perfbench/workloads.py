"""Workload definitions and the output checks every command must pass.

A workload iteration is a fixed list of CLI commands run one after another
with one seed.  Each command names the samples it must report, the exit
code it must return, and how its output is checked.  The reasons behind
each workload and its sizes are in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

WORKLOADS = ("region-sweep", "figure-csv", "locc-pairs", "ppt-pairs")

SIZES = {
    "full": {"states": 100_000, "pairs": 1000, "restarts": 4, "steps": 150, "ppt_pairs": 200},
    "tiny": {"states": 4096, "pairs": 20, "restarts": 2, "steps": 4, "ppt_pairs": 3},
}

# Proven properties: a record of these kinds is a bug in the program.
HARD_KINDS = ("ordering", "closed_form")
GAP_TOL = 1e-12
ORDER_TOL = 1e-9
FIG3_FILES = ("fig3_scatter.csv", "fig3_region.csv", "fig3_mems.csv", "fig3_segment.csv")


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--seed`` and ``--out`` are added per run."""

    argv: tuple
    samples: int
    exit_code: int
    figure: bool = False  # --out is a directory of CSV sheets, not a report


def commands(workload, size="full"):
    s = SIZES[size]
    if workload == "region-sweep":
        n = s["states"]
        return [Command(("verify", "region", "--rank", "2", "--samples", str(n)), n, 2)]
    if workload == "figure-csv":
        n = s["states"]
        return [Command(("figure", "fig3", "--rank", "2", "--samples", str(n)), n, 0, figure=True)]
    if workload == "locc-pairs":
        n = s["pairs"]
        restarts, steps = s["restarts"], s["steps"]
        sweeps = [
            Command(("monotonic", "--channel", kind, "--rank", "2", "--samples", str(n)), n, 0)
            for kind in ("local_unitary", "local", "one_way_locc")
        ]
        search = Command(
            ("search", "--channel", "one_way_locc", "--rank", "2",
             "--restarts", str(restarts), "--steps", str(steps)),
            restarts * (steps + 1),
            0,
        )
        return sweeps + [search]
    if workload == "ppt-pairs":
        n = s["ppt_pairs"]
        return [Command(("monotonic", "--channel", "ppt", "--rank", "2", "--samples", str(n)), n, 0)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def output_files(cmd, out):
    return [os.path.join(out, f) for f in FIG3_FILES] if cmd.figure else [out]


def digest(paths):
    """SHA-256 over the bytes of every output file, in order."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def check(cmd, seed, code, out):
    """Problems with one command's exit code and output; empty means pass."""
    problems = []
    if code != cmd.exit_code:
        problems.append(f"exit code {code}, expected {cmd.exit_code}")
    missing = [p for p in output_files(cmd, out) if not os.path.isfile(p)]
    if missing:
        return problems + [f"missing output {p}" for p in missing]
    if cmd.figure:
        return problems + _check_fig3(cmd, os.path.join(out, FIG3_FILES[0]))
    return problems + _check_report(cmd, seed, out)


def _check_report(cmd, seed, path):
    from bineg.harness import ViolationRecord, recompute_gap

    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    problems = []
    if report.get("n_samples") != cmd.samples:
        problems.append(f"n_samples {report.get('n_samples')}, expected {cmd.samples}")
    if report.get("seed") != seed:
        problems.append(f"seed {report.get('seed')}, expected {seed}")
    violations = report.get("violations", [])
    if report.get("n_violations") != len(violations):
        problems.append("n_violations does not match the violation list")
    for v in violations:
        if v["kind"] in HARD_KINDS:
            problems.append(f"proven property broken: {v['kind']} at index {v['index']}")
            continue
        gap = recompute_gap(ViolationRecord.from_json_dict(v))
        if not abs(gap - v["observed_gap"]) <= GAP_TOL:
            problems.append(
                f"{v['kind']} at index {v['index']}: observed_gap {v['observed_gap']!r} "
                f"recomputes to {gap!r}"
            )
    return problems


def _check_fig3(cmd, path):
    problems = []
    rows = 0
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != "c,c_minus_nu,nu_minus_n2":
            problems.append(f"unexpected header {header!r}")
        for line in f:
            rows += 1
            _, c_minus_nu, nu_minus_n2 = map(float, line.split(","))
            # proven order N2 <= N <= C
            if not (c_minus_nu >= -ORDER_TOL and nu_minus_n2 >= -ORDER_TOL):
                problems.append(f"row {rows} breaks n2 <= nu <= c: {line.strip()}")
    if rows != cmd.samples:
        problems.append(f"{rows} scatter rows, expected {cmd.samples}")
    return problems
