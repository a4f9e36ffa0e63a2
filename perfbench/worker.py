"""Run one workload as a closed loop in this process and print the result.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE SIZE WORKDIR

``run.py`` starts this in a fresh process, so the process's peak resident
memory is the workload's own.  Commands go through ``bineg.cli.main(argv)``
one at a time, each between two timings of the reference kernel in
``reference.py``, which scale its wall time to the nominal machine.
Iteration ``k`` uses CLI seed ``1000 * seed + k // 2``, so iterations run in
pairs on identical inputs and the second of each pair must reproduce the
first's output bytes.  With tracing on, the second of each pair is the
traced one; the pair then also gives the tracing overhead.  The loop stops
at the first pair boundary after SECONDS.  The last stdout line is
one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_PROBLEMS = 20


def run_loop(workload, seed, seconds, trace, size, workdir, corrupt=None):
    """Closed loop over workload iterations; returns the result dict.

    ``corrupt(cmd, out)``, when given, damages each output before it is
    checked, so a test can show that damaged output counts as failed.
    """
    import bineg.cli

    from reference import REF_NOMINAL_S, reference_s
    from spans import Tracer
    from workloads import check, commands, digest, output_files

    cmds = commands(workload, size)
    tracer = Tracer() if trace else None
    iterations, problems = [], []
    attempted = failed = 0

    def run_command(cmd, cli_seed, traced, index, expect):
        nonlocal attempted, failed
        out = os.path.join(workdir, f"out{index}")
        shutil.rmtree(out, ignore_errors=True)
        if os.path.isfile(out):
            os.remove(out)
        argv = list(cmd.argv) + ["--seed", str(cli_seed), "--out", out]
        ref_before = reference_s()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            code = bineg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed attempt, not the end of the run
            code = repr(exc)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                tracer.fold()
        scale = 2.0 * REF_NOMINAL_S / (ref_before + reference_s())
        if corrupt is not None:
            corrupt(cmd, out)
        try:
            found = check(cmd, cli_seed, code, out)
        except Exception as exc:  # unreadable output is a failed check
            found = [f"check raised {exc!r}"]
        files = [p for p in output_files(cmd, out) if os.path.isfile(p)]
        dig = digest(files)
        if expect is not None and dig != expect:
            found.append("output bytes differ from the previous run with the same seed")
        attempted += 1
        failed += bool(found)
        problems.extend(f"{argv}: {p}" for p in found[: max(0, MAX_PROBLEMS - len(problems))])
        return wall, wall * scale, dig, sum(os.path.getsize(p) for p in files)

    def run_iteration(cli_seed, traced, expect):
        wall = scaled = 0.0
        digests, written = [], 0
        for i, cmd in enumerate(cmds):
            w, w_scaled, dig, size_b = run_command(cmd, cli_seed, traced, i, expect and expect[i])
            wall += w
            scaled += w_scaled
            digests.append(dig)
            written += size_b
        samples = sum(c.samples for c in cmds)
        return {"seed": cli_seed, "traced": traced, "wall_s": wall, "scaled_s": scaled,
                "samples": samples, "samples_per_s": samples / scaled,
                "raw_samples_per_s": samples / wall, "digests": digests, "bytes": written}

    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 or k % 2 or time.perf_counter() < deadline:
        expect = iterations[-1]["digests"] if k % 2 else None
        iterations.append(run_iteration(1000 * seed + k // 2, trace and k % 2 == 1, expect))
        k += 1

    result = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "iterations": [{k: v for k, v in it.items() if k != "digests"} for it in iterations],
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, iterations)
    return result


def _trace_summary(tracer, iterations):
    traced = [it for it in iterations if it["traced"]]
    overheads = [t["scaled_s"] / u["scaled_s"] - 1.0 for u, t in zip(iterations[::2], iterations[1::2])]
    return {
        "iterations": len(traced),
        "functions": tracer.totals,
        "wall_s": tracer.wall_s,
        "ppt_eigensolves": tracer.ppt_eigensolves,
        "bytes": sum(it["bytes"] for it in traced),
        "overhead_ratio": statistics.median(overheads),
    }


def environment():
    """Machine, interpreter, numpy/BLAS and source revision of this run."""
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unavailable"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "commit": git_commit(ROOT),
    }


def git_commit(root):
    """HEAD commit read from ``root/.git``, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(argv):
    workload, seed, seconds, trace, size, workdir = argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bineg

    src = os.path.join(ROOT, "src", "bineg")
    if os.path.dirname(os.path.abspath(bineg.__file__)) != src:
        raise SystemExit(f"imported bineg from {bineg.__file__}, expected {src}")
    os.makedirs(workdir, exist_ok=True)
    # warm-up: first-call costs (lazy imports, LAPACK workspace) stay out of the loop
    run_loop(workload, int(seed), 0, False, "tiny", workdir)
    result = run_loop(workload, int(seed), float(seconds), trace == "1", size, workdir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
