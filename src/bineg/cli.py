"""Command-line surface.

Subcommands: ``compute`` (measures of one state), ``verify``
(ordering | region | closed-forms sweeps), ``monotonic`` (channel
monotonicity sweep), ``search`` (hill-climb counterexample search),
``figure`` (fig1 | fig2 | fig3 CSV data).  Each subcommand registers only
the options it reads, so an option that would have no effect is a usage
error.

Each subcommand that emits a violation report (``verify``, ``monotonic``,
``search``) registers its harness call with ``set_defaults(sweep=...)``
beside its options, and one handler, ``_cmd_report``, runs it and sets the
exit code.  Exit codes: 0 clean, 1 hard failure (bad input, IO trouble, or a
report holding a hard kind: a proven relation broken), 2 a conjecture finding
and no hard kind.  All randomness flows from the seed (flag ``--seed``, else
the ``BINEG_SEED`` environment variable, else 42), so rerunning a command
with the same seed reproduces its output files byte for byte; wall-clock
timings go to stderr only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import harness, serialize
from .errors import BinegError, ParseError
from .measures import _mu, _negative_branch, _nu_n2, concurrence
from .states import boundary_family, sigma_mems, sigma_pqr, validate_density_matrix

EXIT_OK = 0
EXIT_HARD = 1
EXIT_FINDING = 2


class _Parser(argparse.ArgumentParser):
    # usage errors are hard failures; exit code 2 is reserved for findings
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_HARD, f"{self.prog}: error: {message}\n")


def _finite_float(text):
    # a NaN tolerance would make every "gap > tol" test false, and a
    # non-finite step size sends every search candidate to NaN
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


# family name -> (constructor, parameter names in spec order)
_FAMILIES = {
    "sigma_pqr": (sigma_pqr, ("p", "q", "r")),
    "mems": (sigma_mems, ("c",)),
    "boundary": (boundary_family, ("c", "nu", "p")),
}


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
        if name not in _FAMILIES:
            raise ParseError(f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}")
        make, names = _FAMILIES[name]
        try:
            args = [float(x) for x in rest.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad family parameters {rest!r}: {exc}") from exc
        if len(args) != len(names):
            raise ParseError(f"family {name!r} takes {len(names)} parameters, got {len(args)}")
        return make(*args), {"family": name, **dict(zip(names, args))}
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


def _write(out, write):
    """Call ``write(f)`` with ``f`` the text file ``out``, or stdout if
    ``out`` is None."""
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as f:
            write(f)


def _csv_row(fields):
    """A header line of the keys of ``fields`` and one line of its values."""
    return ",".join(fields) + "\n" + ",".join(serialize._cell(x) for x in fields.values()) + "\n"


def _emit_report(report, args):
    summary = (
        f"{report.op}: n={report.n_samples} violations={report.n_violations} "
        f"max_gap={report.max_gap:.3e} runtime={report.runtime_seconds:.2f}s"
    )
    print(summary, file=sys.stderr)
    if args.format == "csv":
        keys = ("op", "n_samples", "n_violations", "max_gap", "seed")
        _write(args.out, lambda f: f.write(_csv_row({k: getattr(report, k) for k in keys})))
    else:
        # streamed record by record: the report's text is never held whole
        _write(args.out, lambda f: serialize.dump(report.to_json_dict(), f))


def _cmd_compute(args):
    rho, echo = parse_state_spec(args.state)
    rho = validate_density_matrix(rho)
    # one eigensolve of rho^G gives nu, n2, mu and the PPT verdict, each as
    # measure_triple, negative_eigvec_mu and is_ppt derive it
    lam, a = _negative_branch(rho)
    nu, n2 = map(float, _nu_n2(lam, a))
    mu = _mu(lam, a)
    result = {"c": concurrence(rho), "nu": nu, "n2": n2, "mu": mu, "is_ppt": bool(lam == 0.0)}
    if args.format == "csv":
        _write(args.out, lambda f: f.write(_csv_row({**result, "mu": math.nan if mu is None else mu})))
    else:
        _write(args.out, lambda f: serialize.dump({**echo, **result}, f))
    return EXIT_OK


def _cmd_report(args):
    """Run the sweep the subcommand registered as ``sweep(args, seed)``,
    emit its report, and map it to an exit code: a proven relation broken
    is a hard failure, a conjecture finding exits 2."""
    report = args.sweep(args, _resolve_seed(args))
    _emit_report(report, args)
    if report.has_hard_failure():
        return EXIT_HARD
    if report.has_finding():
        return EXIT_FINDING
    return EXIT_OK


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


def _add_common(sub, samples=None, rank=True, tol=1e-9):
    """Register the shared options that a subcommand reads: ``samples`` is
    the default of ``--samples`` (None: no such option); ``tol``, the default
    of ``--tol``, marks a command that emits a violation report through
    :func:`_cmd_report` and adds ``--format``, with ``--out`` a file; with
    ``tol=None`` ``--out`` is a directory."""
    sub.add_argument("--seed", type=int, default=None, help="root RNG seed (default: BINEG_SEED or 42)")
    if samples is not None:
        sub.add_argument("--samples", type=int, default=samples, help="number of random samples")
    if rank:
        sub.add_argument("--rank", type=int, default=2, choices=(1, 2, 3, 4), help="rank of sampled states")
    if tol is not None:
        sub.add_argument("--tol", type=_finite_float, default=tol, help="violation tolerance (default: %(default)g)")
        sub.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
        sub.set_defaults(func=_cmd_report)
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
    compute.add_argument("--format", choices=("json", "csv"), default="json")
    compute.add_argument("--out", default=None, help="output path (default: stdout)")
    compute.set_defaults(func=_cmd_compute)

    verify = commands.add_parser(
        "verify",
        help="property and bound sweeps",
        description="ordering, closed-forms and least-negativity (bound_eq4) violations are hard failures (exit 1); "
        "the other region violations are findings (exit 2).",
    )
    variants = verify.add_subparsers(dest="which", required=True)
    for which, sweep in (("ordering", harness.verify_ordering), ("region", harness.verify_region)):
        state_sweep = variants.add_parser(which)
        _add_common(state_sweep, samples=100000)
        state_sweep.set_defaults(sweep=lambda a, seed, f=sweep: f(a.samples, rank=a.rank, seed=seed, tol=a.tol))
    closed_forms = variants.add_parser("closed-forms")
    _add_common(closed_forms, rank=False)
    closed_forms.add_argument("--grid", type=int, default=20, help="grid density")
    closed_forms.set_defaults(sweep=lambda a, seed: harness.verify_closed_forms(
        grid_density=a.grid, seed=seed, tol=a.tol))

    monotonic = commands.add_parser(
        "monotonic",
        help="channel monotonicity sweep",
        description="Sample (state, channel) pairs; exit 2 if any channel raises the binegativity.",
    )
    _add_common(monotonic, samples=10000)
    monotonic.add_argument(
        "--channel", choices=harness.CHANNEL_KINDS, default="local", help="channel ensemble"
    )
    monotonic.set_defaults(sweep=lambda a, seed: harness.monotonicity_sweep(
        a.samples, channel_kind=a.channel, rank=a.rank, seed=seed, tol=a.tol))

    search = commands.add_parser(
        "search",
        help="hill-climb counterexample search",
        description="Maximize n2(E(rho)) - n2(rho); exit 2 if the best value exceeds tolerance.",
    )
    _add_common(search, tol=1e-8)
    search.add_argument("--channel", choices=harness.CHANNEL_KINDS, default="one_way_locc")
    search.add_argument("--restarts", type=int, default=10)
    search.add_argument("--steps", type=int, default=200)
    search.add_argument("--step-size", type=_finite_float, default=0.1, dest="step_size")
    search.set_defaults(sweep=lambda a, seed: harness.counterexample_search(
        channel_kind=a.channel, restarts=a.restarts, steps=a.steps, step_size=a.step_size,
        seed=seed, rank=a.rank, tol=a.tol))

    figure = commands.add_parser(
        "figure",
        help="scatter and bound-curve CSV data",
        description="Write the CSV data behind the three standard plots; --out names the output directory.",
    )
    figure.add_argument("which", choices=("fig1", "fig2", "fig3"))
    _add_common(figure, samples=100000, tol=None)
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
