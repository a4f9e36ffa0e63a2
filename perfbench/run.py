"""Benchmark of the bineg CLI on four workloads, untraced or traced.

    python3 perfbench/run.py --workload region-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root or anywhere else; the package is imported
from ``src/`` next to this directory.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run.  ``--workload all`` runs every workload
both ways and prints a table.  Workload choices, sizes and the expected
effect of each layer are described in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import bineg.cli; bineg.cli.build_parser(); "
    "print(time.perf_counter() - t0)"
)
# Fresh-process import of a fixed set of standard-library modules that
# neither bineg nor numpy loads: the same kind of work as the set-up, and no
# change to the package moves it.  It gauges the machine's current speed at
# importing, as reference.py does for the commands.
IMPORT_REFERENCE = (
    "import time; t0 = time.perf_counter(); import asyncio, unittest, http.server, "
    "email.mime.multipart, xml.dom.minidom, decimal, sqlite3, logging.handlers, csv, "
    "ctypes, difflib, zipfile, tarfile; print(time.perf_counter() - t0)"
)
IMPORT_REF_NOMINAL_S = 0.1

END_TO_END = {"setup_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}
_UNITS = {"calls": "count", "matrices": "count", "self_s": "s"}
_ALL = ("calls", "matrices", "self_s")
_CALLS_SELF = ("calls", "self_s")
PER_FUNCTION = {
    "states.random_mixed": _ALL,
    "measures.concurrence": _ALL,
    "measures.negativity": _ALL,
    "measures.binegativity": _ALL,
    "linalg.partial_transpose": ("self_s",),
    "linalg.negative_part": ("self_s",),
    "linalg.psd_sqrt": ("self_s",),
    "lapack.eigh": _ALL,
    "lapack.qr": ("calls",),
    "channels.random_local_unitary_pair": _CALLS_SELF,
    "channels.random_local_channel": _CALLS_SELF,
    "channels.one_way_locc_channel": _CALLS_SELF,
    "channels.random_ppt_channel": _CALLS_SELF,
    "channels.project_to_ppt_channel": _CALLS_SELF,
    "channels.apply": _CALLS_SELF,
    "harness.verify_region": ("self_s",),
    "harness.figure_data": ("self_s",),
    "harness.monotonicity_sweep": ("self_s",),
    "harness.counterexample_search": ("self_s",),
    "serialize.dumps": _CALLS_SELF,
    "serialize.write_csv": _CALLS_SELF,
    "serialize.complex_matrix_to_json": _CALLS_SELF,
}
LAYERS = ("cli", "harness", "channels", "measures", "states", "linalg", "lapack", "serialize")


def run_worker(workload, seed, seconds, trace, size):
    """Run one workload in a fresh process and return its result dict."""
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            workload, str(seed), str(seconds), str(trace), size, workdir]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _probe(code, env):
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def setup_seconds():
    """Median time of a fresh process to import ``bineg.cli`` and build its
    parser, each probe scaled by the import reference timed in fresh
    processes right before and right after it; one untimed round first
    fills the bytecode caches.  Returns (scaled median, raw median)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    _probe(IMPORT_REFERENCE, env)
    _probe(SETUP_PROBE, env)
    refs = [_probe(IMPORT_REFERENCE, env)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        raw.append(_probe(SETUP_PROBE, env))
        refs.append(_probe(IMPORT_REFERENCE, env))
        scaled.append(raw[-1] * 2.0 * IMPORT_REF_NOMINAL_S / (refs[-2] + refs[-1]))
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(result, setup, raw_setup):
    rates = [it["samples_per_s"] for it in result["iterations"]]
    raw_rate = statistics.median(it["raw_samples_per_s"] for it in result["iterations"])
    metrics = {
        "setup_s": setup,
        "samples_per_s": statistics.median(rates),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    q1, _, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    line = (f"{result['workload']}: setup_s {setup:.4f} s (raw {raw_setup:.4f}) | samples_per_s "
            f"{metrics['samples_per_s']:.1f} 1/s (q1 {q1:.1f}, q3 {q3:.1f}, n={len(rates)}, "
            f"raw {raw_rate:.1f}) | peak_rss_mb {metrics['peak_rss_mb']:.1f} MB | "
            f"failed_ratio {result['failed'] / result['attempted']:.4f} "
            f"({result['failed']}/{result['attempted']})")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, line


def per_layer(result):
    trace = result["trace"]
    n = trace["iterations"]
    funcs = trace["functions"]
    metrics = {}
    for name, fields in PER_FUNCTION.items():
        row = dict(zip(_ALL, funcs.get(name, [0, 0, 0.0])))
        for field in fields:
            metrics[f"{name}.{field}"] = (row[field] / n, _UNITS[field])
    ppt_calls = funcs.get("channels.project_to_ppt_channel", [0])[0]
    metrics["channels.project_to_ppt_channel.eigensolves_per_call"] = (
        trace["ppt_eigensolves"] / ppt_calls if ppt_calls else 0.0, "count")
    metrics["serialize.bytes_written"] = (trace["bytes"] / n, "B")
    metrics["trace.overhead_ratio"] = (trace["overhead_ratio"], "ratio")
    for layer in LAYERS:
        self_s = sum(row[2] for name, row in funcs.items() if name.split(".")[0] == layer)
        metrics[f"layer.{layer}.share"] = (self_s / trace["wall_s"], "ratio")
    shares = ", ".join(f"{layer} {metrics[f'layer.{layer}.share'][0]:.1%}" for layer in LAYERS)
    line = (f"{result['workload']} (traced, {n} iterations): overhead "
            f"{trace['overhead_ratio']:+.1%} | share of traced wall time: {shares}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, line


def measure(workload, seed, seconds, trace, size):
    """One benchmark run: (metrics, summary line, result dict)."""
    if trace:
        result = run_worker(workload, seed, seconds, 1, size)
        metrics, line = per_layer(result)
    else:
        setup, raw_setup = setup_seconds()
        result = run_worker(workload, seed, seconds, 0, size)
        metrics, line = end_to_end(result, setup, raw_setup)
    for problem in result["problems"]:
        print(f"  FAILED CHECK {problem}")
    return metrics, line, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bineg", "cli.py")):
        print(f"perfbench: no bineg sources under {SRC}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    start = time.perf_counter()
    if args.workload == "all":
        metrics, lines, attempted, failed = {}, [], 0, 0
        for trace in (0, 1):
            for workload in WORKLOADS:
                m, line, result = measure(workload, args.seed, args.seconds, trace, size)
                metrics.update({f"{workload}/{k}": v for k, v in m.items()})
                lines.append(line)
                attempted += result["attempted"]
                failed += result["failed"]
        print("end to end, untraced runs:")
        print("\n".join("  " + line for line in lines[: len(WORKLOADS)]))
        print("per layer, traced runs (not used for the numbers above):")
        print("\n".join("  " + line for line in lines[len(WORKLOADS):]))
    else:
        metrics, line, result = measure(args.workload, args.seed, args.seconds, args.trace, size)
        attempted, failed = result["attempted"], result["failed"]
        print(line)
    print(f"wall {time.perf_counter() - start:.1f} s")
    print("env " + json.dumps(result["env"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
