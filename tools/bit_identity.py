"""Hash the output of a fixed table of ``python -m bineg`` commands.

Each command runs twice: on every usable CPU (sweeps of more than one chunk
fork their workers) and under ``taskset -c 0`` (one CPU, so every sweep runs
in the calling process).  For a figure the hash is of each sheet in its
``--out`` directory; for a report it is of the ``--out`` file, and the
command runs once more without ``--out`` to check that stdout holds the same
bytes.  Hashes are the first 16 hex digits of SHA-256.

Usage, from any directory; the ``bineg`` next to this script is the one run:

    python tools/bit_identity.py > table.json
    python tools/bit_identity.py --compare BENCH_31.json

With ``--compare FILE`` the script also checks every command against the
``change`` column of ``FILE``'s ``bit_identity`` table, or against the
``forked`` column of a table this script wrote, and exits 1 if any hash
or exit code differs, a command is missing, or stdout differs from
``--out``.  The table goes to stdout as JSON, and the differences to
stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def commands():
    """The 79 commands, in the order of ``BENCH_31.json``'s table."""
    cmds = [f"figure {fig} --samples 5000 --seed 42" for fig in ("fig1", "fig2", "fig3")]
    cmds += [f"figure fig3 --rank {r} --samples 3000 --seed {s}" for r in range(1, 5) for s in (0, 1)]
    cmds.append("figure fig3 --rank 2 --samples 100000 --seed 42")
    for rank in range(1, 5):
        for seed in range(3):
            for samples, tol in ((20000, ""), (3000, " --tol -1")):
                for check in ("region", "ordering"):
                    cmds.append(f"verify {check} --rank {rank} --samples {samples} --seed {seed}{tol}")
    cmds += [
        "verify region --samples 100000 --seed 42",
        "verify region --samples 2000 --seed 8 --format csv",
        "verify ordering --samples 3000 --seed 42 --tol -1",
        "verify closed-forms --grid 4 --tol -1",
        "monotonic --channel local --samples 2100 --seed 7 --tol -1",
        "monotonic --channel ppt --rank 3 --samples 70 --seed 9 --tol -1",
        "search --channel ppt --restarts 2 --steps 10 --seed 8 --tol -1",
        "monotonic --channel one_way_locc --samples 3000 --seed 5 --tol -1",
        "search --channel one_way_locc --restarts 3 --steps 40 --seed 5 --tol -1",
    ]
    for state in ("rho1", "rho2", "mems:0.4"):
        cmds += [f"compute --state {state}", f"compute --state {state} --format csv"]
    cmds += [
        "monotonic --channel local_unitary --samples 3000 --seed 7 --tol -1",
        "search --channel local_unitary --restarts 4 --steps 40 --seed 8 --tol -1",
        "search --channel local --restarts 3 --steps 40 --seed 5 --tol -1",
        "monotonic --channel one_way_locc --rank 3 --samples 2100 --seed 7 --tol -1",
    ]
    return cmds


def sha16(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run(cmd, out, one_cpu):
    """``(exit code, stdout bytes)`` of ``python -m bineg cmd --out out``."""
    env = {k: v for k, v in os.environ.items() if k != "BINEG_SEED"}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, "-m", "bineg", *cmd.split()] + (["--out", out] if out else [])
    if one_cpu:
        argv = ["taskset", "-c", "0", *argv]
    proc = subprocess.run(argv, env=env, capture_output=True, check=False)
    return proc.returncode, proc.stdout


def hashes(cmd, one_cpu):
    """One cell of the table: the exit code and the output's hashes."""
    with tempfile.TemporaryDirectory() as tmp:
        if cmd.startswith("figure"):
            code, _ = run(cmd, tmp, one_cpu)
            return {"exit": code, "sha256_16": {p.name: sha16(p.read_bytes()) for p in sorted(pathlib.Path(tmp).iterdir())}}
        path = os.path.join(tmp, "out")
        code, _ = run(cmd, path, one_cpu)
        digest = sha16(pathlib.Path(path).read_bytes()) if os.path.exists(path) else None
        _, stdout = run(cmd, None, one_cpu)
        return {"exit": code, "sha256_16": digest, "stdout_equals_out": sha16(stdout) == digest}


def differences(table, reference):
    """``(command, what)`` for each difference between ``table`` and the
    reference table."""
    found = []
    for cmd, cells in table.items():
        want = reference.get(cmd, {})
        want = want.get("change", want.get("forked"))
        if want is None:
            found.append((cmd, "not in the reference table"))
            continue
        for mode, cell in cells.items():
            if (cell["exit"], cell["sha256_16"]) != (want["exit"], want["sha256_16"]):
                found.append((cmd, f"{mode}: {cell} != {want}"))
            if cell.get("stdout_equals_out") is False:
                found.append((cmd, f"{mode}: stdout differs from --out"))
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", help="a BENCH_*.json file whose bit_identity table must match")
    args = parser.parse_args(argv)
    table = {cmd: {"forked": hashes(cmd, False), "one_cpu": hashes(cmd, True)} for cmd in commands()}
    json.dump({"commands": table}, sys.stdout, indent=1)
    print()
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            reference = json.load(f)
        found = differences(table, reference.get("bit_identity", reference)["commands"])
        for cmd, what in found:
            print(f"{cmd}: {what}", file=sys.stderr)
        print(f"{len(table) - len({cmd for cmd, _ in found})} of {len(table)} identical", file=sys.stderr)
        return 1 if found else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
