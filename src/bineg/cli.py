"""Command-line surface.

Subcommands: ``compute`` (measures of one state), ``verify``
(ordering | region | closed-forms sweeps), ``monotonic`` (channel
monotonicity sweep), ``search`` (hill-climb counterexample search),
``figure`` (fig1 | fig2 | fig3 CSV data).  Each subcommand registers only
the options it reads, so an option that would have no effect is a usage
error.

Exit codes: 0 clean, 1 hard failure (bad input, IO trouble, or a violated
proven property), 2 conjecture finding.  All randomness flows from the seed
(flag ``--seed``, else the ``BINEG_SEED`` environment variable, else 42), so
rerunning a command with the same seed reproduces its output files byte for
byte; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import harness, serialize
from .errors import BinegError, ParseError
from .measures import measure_triple, negative_eigvec_mu
from .states import (
    boundary_family,
    is_ppt,
    sigma_mems,
    sigma_pqr,
    validate_density_matrix,
)

EXIT_OK = 0
EXIT_HARD = 1
EXIT_FINDING = 2


class _Parser(argparse.ArgumentParser):
    # usage errors are hard failures; exit code 2 is reserved for findings
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_HARD, f"{self.prog}: error: {message}\n")


def _finite_float(text):
    # a NaN tolerance would make every "gap > tol" test false
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _named_state(name):
    if name == "rho1":
        return sigma_pqr(7.0 / 48.0, 1.0, 0.5 + math.sqrt(1105.0) / 82.0)
    if name == "rho2":
        return sigma_pqr(39.0 / 112.0, 0.5 + 2.0 * math.sqrt(77.0) / 39.0, 0.5)
    return None


_FAMILY_ARITY = {"sigma_pqr": 3, "mems": 1, "boundary": 3}


def parse_state_spec(text):
    """Turn a state spec into ``(rho, echo)``.

    Accepts ``rho1``, ``rho2``, ``mems:c``, ``sigma_pqr:p,q,r``,
    ``boundary:c,nu,p``, or a path to a JSON file holding a 4x4 matrix as
    nested [re, im] pairs.
    """
    named = _named_state(text)
    if named is not None:
        return named, {"state": text}
    if ":" in text:
        name, _, rest = text.partition(":")
        if name not in _FAMILY_ARITY:
            raise ParseError(
                f"unknown family {name!r}; expected one of {sorted(_FAMILY_ARITY)}"
            )
        try:
            args = [float(x) for x in rest.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad family parameters {rest!r}: {exc}") from exc
        if len(args) != _FAMILY_ARITY[name]:
            raise ParseError(
                f"family {name!r} takes {_FAMILY_ARITY[name]} parameters, got {len(args)}"
            )
        if name == "sigma_pqr":
            rho = sigma_pqr(*args)
            echo = {"family": name, "p": args[0], "q": args[1], "r": args[2]}
        elif name == "mems":
            rho = sigma_mems(args[0])
            echo = {"family": name, "c": args[0]}
        else:
            rho = boundary_family(*args)
            echo = {"family": name, "c": args[0], "nu": args[1], "p": args[2]}
        return rho, echo
    if os.path.exists(text):
        import json

        try:
            with open(text, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read state file {text!r}: {exc}") from exc
        return serialize.complex_matrix_from_json(data), {"file": text}
    raise ParseError(f"{text!r} is neither a family spec nor an existing file")


def _resolve_seed(args):
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("BINEG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"BINEG_SEED must be an integer, got {env!r}") from exc
    return 42


def _write_text(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def _emit_report(report, args):
    summary = (
        f"{report.op}: n={report.n_samples} violations={report.n_violations} "
        f"max_gap={report.max_gap:.3e} runtime={report.runtime_seconds:.2f}s"
    )
    print(summary, file=sys.stderr)
    if args.format == "csv":
        header = ["op", "n_samples", "n_violations", "max_gap", "seed"]
        row = [report.op, report.n_samples, report.n_violations, report.max_gap, report.seed]
        lines = ",".join(header) + "\n" + ",".join(serialize._cell(x) for x in row) + "\n"
        _write_text(args.out, lines)
    else:
        _write_text(args.out, serialize.dumps(report.to_json_dict()))


def _cmd_compute(args):
    rho, echo = parse_state_spec(args.state)
    rho = validate_density_matrix(rho)
    triple, mu = measure_triple(rho), negative_eigvec_mu(rho)
    ppt = is_ppt(rho)
    result = dict(echo)
    result.update(
        {
            "c": triple.c,
            "nu": triple.nu,
            "n2": triple.n2,
            "mu": mu,
            "is_ppt": ppt,
        }
    )
    if args.format == "csv":
        header = ["c", "nu", "n2", "mu", "is_ppt"]
        row = [triple.c, triple.nu, triple.n2, math.nan if mu is None else mu, ppt]
        text = ",".join(header) + "\n" + ",".join(serialize._cell(x) for x in row) + "\n"
        _write_text(args.out, text)
    else:
        _write_text(args.out, serialize.dumps(result))
    return EXIT_OK


def _cmd_verify(args):
    seed = _resolve_seed(args)
    tol = args.tol if args.tol is not None else 1e-9
    if args.which == "ordering":
        report = harness.verify_ordering(args.samples, rank=args.rank, seed=seed, tol=tol)
    elif args.which == "region":
        report = harness.verify_region(args.samples, rank=args.rank, seed=seed, tol=tol)
    else:
        report = harness.verify_closed_forms(grid_density=args.grid, seed=seed, tol=tol)
    _emit_report(report, args)
    if report.has_hard_failure():
        return EXIT_HARD
    if report.has_finding():
        return EXIT_FINDING
    return EXIT_OK


def _cmd_monotonic(args):
    seed = _resolve_seed(args)
    tol = args.tol if args.tol is not None else 1e-9
    report = harness.monotonicity_sweep(
        args.samples,
        channel_kind=args.channel,
        rank=args.rank,
        seed=seed,
        tol=tol,
    )
    _emit_report(report, args)
    return EXIT_FINDING if report.has_finding() else EXIT_OK


def _cmd_search(args):
    seed = _resolve_seed(args)
    tol = args.tol if args.tol is not None else 1e-8
    report = harness.counterexample_search(
        channel_kind=args.channel,
        restarts=args.restarts,
        steps=args.steps,
        step_size=args.step_size,
        seed=seed,
        rank=args.rank,
        tol=tol,
    )
    _emit_report(report, args)
    return EXIT_FINDING if report.has_finding() else EXIT_OK


def _cmd_figure(args):
    seed = _resolve_seed(args)
    paths = harness.figure_data(
        args.which,
        args.samples,
        rank=args.rank,
        seed=seed,
        out_dir=args.out,
    )
    for p in paths:
        print(p, file=sys.stderr)
    return EXIT_OK


def _add_common(sub, samples=None, rank=True, report=True):
    """Register the shared options that a subcommand reads: ``samples`` is
    the default of ``--samples`` (None: no such option); ``report`` adds
    ``--tol`` and ``--format`` for commands that emit a violation report,
    whose ``--out`` is a file; otherwise ``--out`` is a directory."""
    sub.add_argument("--seed", type=int, default=None, help="root RNG seed (default: BINEG_SEED or 42)")
    if samples is not None:
        sub.add_argument("--samples", type=int, default=samples, help="number of random samples")
    if rank:
        sub.add_argument("--rank", type=int, default=2, choices=(1, 2, 3, 4), help="rank of sampled states")
    if report:
        sub.add_argument("--tol", type=_finite_float, default=None, help="violation tolerance override")
        sub.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
    else:
        sub.add_argument("--out", default=".", help="output directory (default: .)")


def build_parser():
    parser = _Parser(prog="bineg", description="Two-qubit entanglement measures and conjecture sweeps.")
    commands = parser.add_subparsers(dest="command", required=True)

    compute = commands.add_parser(
        "compute", help="measures of one state", description="Compute (c, nu, n2, mu, is_ppt) for a state."
    )
    compute.add_argument(
        "--state",
        required=True,
        help="rho1 | rho2 | mems:c | sigma_pqr:p,q,r | boundary:c,nu,p | path to JSON matrix",
    )
    compute.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    compute.add_argument("--format", choices=("json", "csv"), default="json")
    compute.add_argument("--out", default=None, help="output path (default: stdout)")
    compute.set_defaults(func=_cmd_compute)

    verify = commands.add_parser(
        "verify",
        help="property and bound sweeps",
        description="ordering and closed-forms violations are hard failures (exit 1); region violations are findings (exit 2).",
    )
    variants = verify.add_subparsers(dest="which", required=True)
    for which in ("ordering", "region"):
        _add_common(variants.add_parser(which), samples=100000)
    closed_forms = variants.add_parser("closed-forms")
    _add_common(closed_forms, rank=False)
    closed_forms.add_argument("--grid", type=int, default=20, help="grid density")
    verify.set_defaults(func=_cmd_verify)

    monotonic = commands.add_parser(
        "monotonic",
        help="channel monotonicity sweep",
        description="Sample (state, channel) pairs; exit 2 if any channel raises the binegativity.",
    )
    _add_common(monotonic, samples=10000)
    monotonic.add_argument(
        "--channel", choices=harness.CHANNEL_KINDS, default="local", help="channel ensemble"
    )
    monotonic.set_defaults(func=_cmd_monotonic)

    search = commands.add_parser(
        "search",
        help="hill-climb counterexample search",
        description="Maximize n2(E(rho)) - n2(rho); exit 2 if the best value exceeds tolerance.",
    )
    _add_common(search)
    search.add_argument("--channel", choices=harness.CHANNEL_KINDS, default="one_way_locc")
    search.add_argument("--restarts", type=int, default=10)
    search.add_argument("--steps", type=int, default=200)
    search.add_argument("--step-size", type=float, default=0.1, dest="step_size")
    search.set_defaults(func=_cmd_search)

    figure = commands.add_parser(
        "figure",
        help="scatter and bound-curve CSV data",
        description="Write the CSV data behind the three standard plots; --out names the output directory.",
    )
    figure.add_argument("which", choices=("fig1", "fig2", "fig3"))
    _add_common(figure, samples=100000, report=False)
    figure.set_defaults(func=_cmd_figure)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BinegError as exc:
        print(f"bineg: error: {exc}", file=sys.stderr)
        return EXIT_HARD
    except OSError as exc:
        print(f"bineg: io error: {exc}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
