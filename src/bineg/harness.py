"""Verification sweeps for the measure properties and conjectures.

Proven facts (the measure ordering, the closed forms, the least negativity
at fixed concurrence) are hard checks: a violation means an implementation
bug.  The binegativity bound curves, the (c, nu, n2) region, and channel
monotonicity are conjectures: violations are findings to report, not test
failures.  Reports keep that distinction through the ``HARD_KINDS`` /
``CONJECTURE_KINDS`` split.

Every report has one path.  The sampling sweeps (``verify_ordering``,
``verify_region``, ``monotonicity_sweep``) run through ``_sweep``: the draws
are cut into fixed-size chunks, each on its own substream of the seed
(``_chunks``), and ``_sweep_chunk`` turns a chunk into blocks of gaps per
kind.  ``_block`` applies the threshold once: it keeps a block's largest gap
and one hit per gap above ``tol``, with only the hit states serialized.
``_records`` turns the blocks of any check, the closed-form grid and the
search's best climb included, into a sorted ``SweepReport``.  No chunk
depends on another, so ``_chunk_results`` spreads the chunks of a sweep, and
of the ``figure_data`` scatter, over the usable CPUs in forked workers and
yields their results in chunk order, which ``_records`` reads as they come:
a report is byte-identical for a given seed, and to a one-process run.  A
scatter chunk comes back as its rows of CSV text, formatted in the worker by
``serialize.csv_rows``, and the caller writes each as it arrives.  A PPT
sweep maps ``_spans`` instead, each chunk cut into one span of pairs per
CPU, since one PPT pair costs milliseconds: a span first draws the chunk's
earlier pairs to move its stream past them.  There is no option for it; a
sweep of one item, or on one CPU, runs in the calling process.  Each gap
kind is defined once, and ``recompute_gap`` uses the same definitions.
Channel sweeps draw the raw Gaussians of each pair in the samplers' order,
then build, apply and measure a block of pairs in stacked calls that give
each pair the bits of a one-pair run, so a span's pairs come out as its
chunk's would.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .channels import (
    KrausChannel,
    _apply_kraus,
    _check_complete,
    _local_kraus,
    _one_way_locc_kraus,
    _ppt_kraus,
    _ppt_start,
)
from .errors import OutOfRange
from .measures import (
    _region_bounds,
    binegativity,
    bineg_lower_given_nu,
    bineg_mems,
    closed_form_pqr,
    measure_triple,
    nu_of_c,
)
from .states import _check_rank, _gaussian_matrices, _gram_state, random_mixed, sigma_pqr

# Fixed chunk size for substream spawning.  Changing it would change every
# sampled stream, so it is a constant, not a knob.
CHUNK = 1024

# Pairs drawn ahead of measuring them, so that a block's channels are built,
# applied and measured in stacked calls.  Every stacked step is bit-identical
# per item and draws no randomness, so this sets speed and memory, not streams.
PAIR_BLOCK = 32

HARD_KINDS = frozenset({"ordering", "closed_form", "bound_eq4"})
CONJECTURE_KINDS = frozenset({"bound_eq5_lower", "bound_eq7", "region_eq9", "monotonicity"})

CHANNEL_KINDS = ("local_unitary", "local", "one_way_locc", "ppt")


@dataclass(frozen=True)
class ViolationRecord:
    """One observed break of a checked inequality.

    ``state`` is the serialized density matrix; ``channel`` the serialized
    Kraus family when one was involved; ``params`` the family parameters for
    closed-form checks.  ``seed`` is the sweep's root seed and ``index`` the
    global sample index, so the record pinpoints the draw that produced it.
    """

    kind: str
    observed_gap: float
    seed: int
    index: int
    state: list
    channel: dict | None = None
    params: dict | None = None

    def to_json_dict(self):
        """The record's fields in their order, leaving out those that are None."""
        return {k: v for k, v in vars(self).items() if v is not None}

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            kind=data["kind"],
            observed_gap=float(data["observed_gap"]),
            seed=int(data["seed"]),
            index=int(data["index"]),
            state=data["state"],
            channel=data.get("channel"),
            params=data.get("params"),
        )


@dataclass
class SweepReport:
    """Outcome of one sweep: sample count, violations, and the config echo.

    ``runtime_seconds`` is measured but serialized as null so that report
    bytes depend only on (command, seed); the CLI logs the measured value to
    stderr instead.
    """

    op: str
    n_samples: int
    n_violations: int
    max_gap: float
    seed: int
    config: dict
    violations: list = field(default_factory=list)
    runtime_seconds: float | None = None

    def has_hard_failure(self):
        return any(v.kind in HARD_KINDS for v in self.violations)

    def has_finding(self):
        return any(v.kind in CONJECTURE_KINDS for v in self.violations)

    def to_json_dict(self):
        return {
            "op": self.op,
            "n_samples": self.n_samples,
            "n_violations": self.n_violations,
            "max_gap": self.max_gap,
            "seed": self.seed,
            "config": self.config,
            "runtime_seconds": None,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def _spawn(seed, count):
    """``count`` substreams of ``seed``, as ``SeedSequence`` children.
    Raises :class:`OutOfRange` for a negative seed."""
    seed = int(seed)
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed).spawn(count)


def _chunks(seed, n):
    """``(substream, size)`` per fixed-size chunk of ``n`` draws, each chunk
    on its own substream of ``seed``.  Raises :class:`OutOfRange` for
    ``n < 1``."""
    n = int(n)
    if n < 1:
        raise OutOfRange("n must be >= 1")
    sizes = [CHUNK] * (n // CHUNK) + ([n % CHUNK] if n % CHUNK else [])
    return list(zip(_spawn(seed, len(sizes)), sizes))


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _serve(task, chunks, recv, conn):
    """The work of one forked worker of :func:`_chunk_results`: send ``(True,
    task(chunk))`` for each of ``chunks`` in order, or ``(False, error)``
    for the first that raises, and stop there."""
    # the caller is then the pipe's only reader: should it die, the next
    # send fails and this worker ends, which frees the earlier workers' pipes
    recv.close()
    try:
        for chunk in chunks:
            conn.send((True, task(chunk)))
    except BrokenPipeError:  # the caller has died; there is no one to tell
        return
    except Exception as exc:  # the caller raises it in its own process
        conn.send((False, exc))


def _chunk_results(task, chunks):
    """Yield ``task(chunk)`` for each of ``chunks``, in chunk order; a chunk
    here is any independent item of work, a PPT sweep's span too.

    With more than one chunk and more than one usable CPU, forked workers,
    one per CPU up to one per chunk, compute them, worker ``k`` the chunks
    ``k, k + workers, ...``; otherwise builtin ``map`` does, in this
    process, as it does where ``fork`` does not exist and in a daemonic
    process, which may not have children.  Forked workers inherit ``task``,
    which may be a closure, and the loaded modules; spawned ones would
    import numpy again for every sweep.  Their results are read in this
    thread, one worker's pipe at a time in chunk order, as the caller asks
    for them, so they are allocated where a serial run allocates them, and
    a worker that runs ahead of the reader waits once its pipe is full.  The
    workers start at the first result asked for, and are stopped and joined
    once the last is read, an error is raised, or the caller closes the
    generator; an error of a worker reaches the caller with its type and
    message, and a worker that ends without sending its next result raises
    ChildProcessError.
    """
    workers = min(_usable_cpus(), len(chunks))
    if workers > 1 and hasattr(os, "fork"):
        import multiprocessing

        if not multiprocessing.current_process().daemon:
            context = multiprocessing.get_context("fork")
            conns, procs = [], []
            try:
                for k in range(workers):
                    recv, send = context.Pipe(duplex=False)
                    conns.append(recv)
                    proc = context.Process(target=_serve, args=(task, chunks[k::workers], recv, send), daemon=True)
                    proc.start()
                    procs.append(proc)
                    send.close()  # the worker has its own copy; its exit then ends the pipe
                for i in range(len(chunks)):
                    try:
                        ok, value = conns[i % workers].recv()
                    except EOFError:
                        raise ChildProcessError(f"a worker ended before sending the result of chunk {i}") from None
                    if not ok:
                        raise value
                    yield value
                return
            finally:
                for proc in procs:
                    proc.terminate()  # a worker that is done has exited or is exiting
                    proc.join()
                for recv in conns:
                    recv.close()
    yield from map(task, chunks)


def _block(tol, states, gaps, extra_of):
    """A block of ``states`` with ``{kind: gaps}`` in the form that
    :func:`_records` takes: ``(count, top, hits)``.  ``top`` is the largest
    gap of any kind, skipping NaN, and ``hits`` holds ``(kind, j, gap,
    state, extra)`` for each gap above ``tol``: the serialized state and its
    ``extra_of(j)`` keywords, the record's ``channel`` or ``params``.  Only
    those states are serialized, each once, and only they leave a worker."""
    top, hits, rows = -math.inf, [], {}
    for kind, gap in gaps.items():
        top = float(np.fmax.reduce(gap, initial=top))
        for j in map(int, np.flatnonzero(gap > tol)):
            if j not in rows:
                rows[j] = serialize.complex_matrix_to_json(states[j]), extra_of(j)
            hits.append((kind, j, float(gap[j]), *rows[j]))
    return len(states), top, hits


def _records(op, seed, config, blocks, t0):
    """The report of a check begun at ``t0``, from ``blocks``, any iterable
    of :func:`_block` results in order.  Each hit becomes a record whose index
    counts the states of the blocks before it, ``max_gap`` is the largest
    ``top``, and the records are sorted so that the bytes do not depend on
    the order they were found in."""
    violations, max_gap, offset = [], -math.inf, 0
    for count, top, hits in blocks:
        max_gap = max(max_gap, top)
        for kind, j, gap, state, extra in hits:
            violations.append(ViolationRecord(kind, gap, int(seed), offset + j, state, **extra))
        offset += count
    violations.sort(key=lambda v: (v.seed, v.index, v.kind))
    runtime = time.perf_counter() - t0
    return SweepReport(op, offset, len(violations), max_gap, int(seed), config, violations, runtime)


def _spans(chunks, parts):
    """Each ``(substream, size)`` of ``chunks`` cut into ``parts`` contiguous
    spans ``(substream, begin, length)`` of its draws, the k-th beginning at
    ``size * k // parts``, in order and with the empty spans dropped."""
    return [
        (seq, begin, end - begin)
        for seq, size in chunks
        for begin, end in itertools.pairwise(size * k // parts for k in range(parts + 1))
        if end > begin
    ]


def _sweep_chunk(work, tol, item):
    """The :func:`_block` results of one item, a chunk ``(substream, size)``
    or a span ``(substream, begin, length)``: ``work(rng, *rest)`` on the
    item's substream yields its blocks of ``(states, {kind: gaps},
    extra_of)``."""
    seq, *rest = item
    return [_block(tol, *block) for block in work(np.random.default_rng(seq), *rest)]


def _sweep(op, seed, config, tol, work, items):
    """The loop of every sampling sweep: ``work`` samples one of ``items``,
    the chunks of :func:`_chunks` or their :func:`_spans`, and their blocks
    reach :func:`_records` in item order as :func:`_chunk_results` yields
    them."""
    _check_tol(tol)
    t0 = time.perf_counter()
    results = _chunk_results(functools.partial(_sweep_chunk, work, tol), items)
    return _records(op, seed, config, itertools.chain.from_iterable(results), t0)


def _ordering_gap(t):
    """``max(n2 - nu, nu - c)`` of a measure triple: positive where the
    proven ``n2 <= nu <= c`` breaks."""
    return np.maximum(t.n2 - t.nu, t.nu - t.c)


def _closed_form_gap(got, want):
    """Largest disagreement of the three measures between two triples."""
    return np.maximum(
        np.abs(got.c - want.c),
        np.maximum(np.abs(got.nu - want.nu), np.abs(got.n2 - want.n2)),
    )


def _bound_gaps(t):
    """Signed conjecture gaps of a measure triple per bound family; a
    positive entry beyond tolerance means the state escapes that bound.
    Non-entangled states are masked out (every bound concerns entangled
    states only)."""
    c = np.clip(np.asarray(t.c, dtype=float), 0.0, 1.0)
    nu = np.clip(np.asarray(t.nu, dtype=float), 0.0, 1.0)
    n2 = np.asarray(t.n2, dtype=float)
    lower9, upper9 = _region_bounds(c, nu)
    gaps = {
        "bound_eq4": nu_of_c(c) - nu,
        "bound_eq5_lower": bineg_mems(c) - n2,
        "bound_eq7": bineg_lower_given_nu(nu) - n2,
        "region_eq9": np.maximum(lower9 - n2, n2 - upper9),
    }
    entangled = nu > 0.0
    return {k: np.where(entangled, g, -math.inf) for k, g in gaps.items()}


def _state_sweep(op, gaps_of, n, rank, seed, tol):
    """Sweep of ``n`` random states of ``rank``, with gaps ``gaps_of(triple)``."""
    rank = _check_rank(rank)

    def work(rng, size):
        rho = random_mixed(rank, rng, size=size)
        yield rho, gaps_of(measure_triple(rho)), lambda j: {}

    return _sweep(op, seed, {"rank": rank, "tol": tol}, tol, work, _chunks(seed, n))


def verify_ordering(n, rank=2, seed=42, tol=1e-9):
    """Sample ``n`` random states of the given rank and flag any break of
    ``n2 <= nu <= c`` beyond ``tol``.  Expected violations: zero; any hit is
    an implementation bug, not a finding."""
    return _state_sweep("verify_ordering", lambda t: {"ordering": _ordering_gap(t)}, n, rank, seed, tol)


def verify_region(n, rank=2, seed=42, tol=1e-9):
    """Check every sampled entangled state against the conjectured bounds:
    the least-negativity curve, both binegativity lower curves, and the
    two-sided (c, nu, n2) region.  Violations are findings."""
    return _state_sweep("verify_region", _bound_gaps, n, rank, seed, tol)


def verify_closed_forms(grid_density=20, seed=42, tol=1e-9):
    """Compare the sigma_pqr closed forms against the numerical measures on
    a full (p, q, r) grid plus 100 random triples.  Disagreement beyond
    ``tol`` is a hard failure."""
    g = int(grid_density)
    if g < 2:
        raise OutOfRange("grid density must be >= 2")
    _check_tol(tol)
    t0 = time.perf_counter()
    rng = np.random.default_rng(_spawn(seed, 1)[0])
    axis = np.linspace(0.0, 1.0, g)
    cube = np.meshgrid(axis, axis, axis, indexing="ij")
    pqr = [np.concatenate([a.ravel(), e]) for a, e in zip(cube, rng.uniform(size=(100, 3)).T)]
    rho = sigma_pqr(*pqr)
    gap = _closed_form_gap(measure_triple(rho), closed_form_pqr(*pqr)[0])

    def params(j):
        return {"params": {k: float(v[j]) for k, v in zip("pqr", pqr)}}

    block = _block(tol, rho, {"closed_form": gap}, params)
    return _records("verify_closed_forms", seed, {"grid_density": g, "tol": tol}, [block], t0)


def _check_kind(kind):
    """Raise :class:`OutOfRange` unless ``kind`` is one of ``CHANNEL_KINDS``."""
    if kind not in CHANNEL_KINDS:
        raise OutOfRange(f"unknown channel kind {kind!r}; choose from {CHANNEL_KINDS}")


def _check_tol(tol):
    """Raise :class:`OutOfRange` unless ``tol`` is finite: no gap is above a NaN."""
    if not math.isfinite(tol):
        raise OutOfRange(f"tol must be finite, got {tol!r}")


def _draw_structure(kind, rng):
    """Draw the discrete part of a channel of ``kind``.

    Returns ``(structure, size)``: ``size`` counts the real Gaussians the
    channel is built from, and ``structure`` is a tuple that starts with the
    Kraus count (``(1,)``, ``(env, on_a)`` for local, ``(outcomes,)``), or
    None for PPT, whose count comes out of the projection.  ``kind`` has
    passed :func:`_check_kind`.
    """
    if kind == "local_unitary":
        return (1,), 16
    if kind == "local":
        on_a = int(rng.integers(2)) == 0
        env = int(rng.integers(1, 5))
        return (env, on_a), 8 * env
    if kind == "one_way_locc":
        m = int(rng.integers(2, 5))
        return (m,), 16 * m
    return None, 512  # ppt


def _draw_pairs(kind, rank, rng, count):
    """Raw Gaussians of ``count`` (state, channel) pairs, drawn pair by pair
    in the samplers' order: the state's, the channel's structure, then the
    channel's.  Returns ``(state_raw, structures, channel_raw)``."""
    states, structures, channels = [], [], []
    for _ in range(count):
        states.append(rng.standard_normal(8 * rank))
        structure, size = _draw_structure(kind, rng)
        structures.append(structure)
        channels.append(rng.standard_normal(size))
    return np.stack(states), structures, channels


def _build_pairs(kind, structures, state_raw, channel_raw):
    """States and zero-padded Kraus stacks from raw Gaussians, one pair per
    row: ``state_raw`` is ``(n, 8 rank)``, ``channel_raw`` a list of n flat
    arrays sized by their structures.  The samplers and the hill climb both
    map their draws to pairs here.

    Returns ``(rho, kraus, counts)``: states ``(n, 4, 4)``, Kraus operators
    ``(n, K, 4, 4)`` with K the largest count, and each pair's own count.
    Raises :class:`OutOfRange` if the raw Gaussians' sum of squares is not
    finite (a climb that overflowed; a finite sum keeps the Gram products of
    states and PPT starts finite), :class:`NotTracePreserving` if any channel
    fails the completeness check, and for PPT channels also the error of a
    Choi matrix that fails the checks of :class:`ChoiMatrix`.
    """
    raw = np.concatenate([state_raw.ravel(), *channel_raw])
    # a ufunc sum, not ``raw @ raw``: a BLAS dot this long wakes a second
    # OpenBLAS thread, which then spins on another core
    if not np.isfinite(np.square(raw).sum()):
        raise OutOfRange("raw Gaussians of the pairs must have a finite sum of squares")
    n = len(structures)
    rank = state_raw.shape[-1] // 8
    rho = _gram_state(_gaussian_matrices(state_raw, (4, rank)))
    if kind == "ppt":
        _, kraus, counts = _ppt_kraus(_ppt_start(np.stack(channel_raw)))
        return rho, kraus, counts.tolist()
    counts = [s[0] for s in structures]
    kraus = np.zeros((n, max(counts), 4, 4), dtype=complex)
    for count in sorted(set(counts)):
        idx = [i for i in range(n) if counts[i] == count]
        raw = np.stack([channel_raw[i] for i in idx])
        if kind == "local":
            ops = _local_kraus(raw, count, np.array([structures[i][1] for i in idx]))
        else:
            ops = _one_way_locc_kraus(raw, count)
        kraus[idx, :count] = ops
    _check_complete(kraus)
    return rho, kraus, counts


def _gaps(rho, kraus):
    """``n2(E(rho)) - n2(rho)`` per pair, all outputs and inputs measured in
    one stacked call."""
    n2 = binegativity(np.concatenate([_apply_kraus(kraus, rho), rho]))
    return n2[: len(rho)] - n2[len(rho) :]


def _channel_of(kraus, counts):
    """Map of a pair's index in a block to its serialized channel, padding dropped."""
    return lambda j: {"channel": KrausChannel(tuple(kraus[j, : counts[j]]), 4, 4).to_json_dict()}


def monotonicity_sweep(n_pairs, channel_kind="local", rank=2, seed=42, tol=1e-9):
    """Sample (state, channel) pairs and flag every pair where the channel
    RAISES the binegativity by more than ``tol``.

    The conjecture says that never happens for LOCC or PPT channels, so any
    violation here is a finding (a refutation candidate), not a bug.  The
    report's ``max_gap`` tracks the largest signed increase even when it
    stays below tolerance.

    A PPT pair costs milliseconds of projection, so a PPT sweep cuts each
    chunk into one span per usable CPU, and even a sweep of one chunk runs
    on every core.  An LOCC pair costs tens of microseconds, so that a
    1000-pair sweep gains less from a second core than forking it costs:
    LOCC sweeps keep the chunk as their unit.
    """
    rank = _check_rank(rank)
    _check_kind(channel_kind)

    def work(rng, begin, length):
        if begin:  # the chunk's earlier pairs, drawn only to move the stream past them
            _draw_pairs(channel_kind, rank, rng, begin)
        for first in range(0, length, PAIR_BLOCK):
            count = min(PAIR_BLOCK, length - first)
            state_raw, structures, channel_raw = _draw_pairs(channel_kind, rank, rng, count)
            rho, kraus, counts = _build_pairs(channel_kind, structures, state_raw, channel_raw)
            yield rho, {"monotonicity": _gaps(rho, kraus)}, _channel_of(kraus, counts)

    config = {"channel_kind": channel_kind, "rank": rank, "tol": tol}
    parts = _usable_cpus() if channel_kind == "ppt" else 1
    return _sweep("monotonicity_sweep", seed, config, tol, work, _spans(_chunks(seed, n_pairs), parts))


def counterexample_search(
    channel_kind="one_way_locc",
    restarts=10,
    steps=200,
    step_size=0.1,
    seed=42,
    rank=2,
    tol=1e-8,
):
    """Random-restart hill climb on ``f = n2(E(sigma)) - n2(sigma)`` over a
    joint (state, channel) parameter vector: the raw Gaussians the samplers
    draw, mapped to a pair by the same constructors.

    Accept-on-improvement Gaussian steps; the report's ``max_gap`` is the
    best ``f`` found.  Each restart climbs on its own substream with its own
    accept rule, and all restarts advance in lockstep, one stacked
    evaluation per step, so the result equals that of separate climbs.  A
    best value above ``tol`` is a finding: a candidate refutation of
    monotonicity, recorded with its state and channel.
    """
    restarts = int(restarts)
    steps = int(steps)
    if restarts < 1 or steps < 0:
        raise OutOfRange("need restarts >= 1 and steps >= 0")
    rank = _check_rank(rank)
    _check_kind(channel_kind)
    _check_tol(tol)
    t0 = time.perf_counter()
    rngs = list(map(np.random.default_rng, _spawn(seed, restarts)))
    structures, sizes = zip(*(_draw_structure(channel_kind, rng) for rng in rngs))
    split = 8 * rank  # a parameter vector is the state's Gaussians, then the channel's

    def build(which, thetas):
        raw = np.stack([t[:split] for t in thetas]), [t[split:] for t in thetas]
        return _build_pairs(channel_kind, [structures[i] for i in which], *raw)

    every = range(restarts)
    thetas = [rng.standard_normal(split + size) for rng, size in zip(rngs, sizes)]
    rho, kraus, _ = build(every, thetas)
    best = _gaps(rho, kraus)
    for _ in range(steps):
        cands = [t + step_size * rng.standard_normal(t.size) for t, rng in zip(thetas, rngs)]
        rho, kraus, _ = build(every, cands)
        f = _gaps(rho, kraus)
        better = f > best
        best = np.where(better, f, best)
        thetas = [c if b else t for c, t, b in zip(cands, thetas, better)]
    best_idx = max(every, key=lambda i: best[i])
    best_f = float(best[best_idx])
    hits = []
    if best_f > tol:
        rho, kraus, counts = build([best_idx], [thetas[best_idx]])
        state = serialize.complex_matrix_to_json(rho[0])
        hits.append(("monotonicity", best_idx, best_f, state, _channel_of(kraus, counts)(0)))
    config = {
        "channel_kind": channel_kind,
        "restarts": restarts,
        "steps": steps,
        "step_size": float(step_size),
        "rank": rank,
        "tol": tol,
    }
    return _records("counterexample_search", seed, config, [(restarts * (steps + 1), best_f, hits)], t0)


# each figure's scatter sheet: its header, and its columns of a measure triple
_SCATTER = {
    "fig1": (["c", "n2"], lambda t: (t.c, t.n2)),
    "fig2": (["nu", "n2"], lambda t: (t.nu, t.n2)),
    "fig3": (["c", "c_minus_nu", "nu_minus_n2"], lambda t: (t.c, t.c - t.nu, t.nu - t.n2)),
}


def _scatter_chunk(which, rank, chunk):
    """The rows of figure ``which``'s scatter sheet for one chunk of random
    states of ``rank``, as CSV text: a worker hands back text to write, and
    its caller formats none of it."""
    seq, size = chunk
    t = measure_triple(random_mixed(rank, np.random.default_rng(seq), size=size))
    return serialize.csv_rows(*_SCATTER[which][1](t))


def figure_data(which, n, rank=2, seed=42, out_dir="."):
    """Emit scatter and bound-curve CSV data for one of the three plots.

    * fig1: (c, n2) scatter; curves n2 = c and the sigma_mems lower curve.
    * fig2: (nu, n2) scatter; curves n2 = nu and the fixed-nu lower curve.
    * fig3: (c, c - nu, nu - n2) scatter; the two-sided region surface on a
      50 x 50 feasible (c, nu) grid, the sigma_mems curve, and the segment
      of states sharing (c, nu) = (1/2, 3/8).

    The scatter's chunks come back from :func:`_chunk_results` as their rows
    of text, each written as it arrives, in chunk order, so that the sheet
    is never held whole; an error in a chunk leaves the sheet cut short
    there.  Returns the list of file paths written.
    """
    if which not in _SCATTER:
        raise OutOfRange(f"unknown figure {which!r}; choose fig1, fig2 or fig3")
    rank = _check_rank(rank)
    chunks = _chunks(seed, n)
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def emit(name, header, texts):
        path = os.path.join(out_dir, name)
        serialize.write_csv(path, header, texts)
        paths.append(path)

    task = functools.partial(_scatter_chunk, which, rank)
    emit(f"{which}_scatter.csv", _SCATTER[which][0], _chunk_results(task, chunks))
    rows = serialize.csv_rows
    grid = np.linspace(0.0, 1.0, 201)
    if which == "fig1":
        emit("fig1_bounds.csv", ["c", "lower", "upper"], [rows(grid, bineg_mems(grid), grid)])
    elif which == "fig2":
        emit("fig2_bounds.csv", ["nu", "lower", "upper"], [rows(grid, bineg_lower_given_nu(grid), grid)])
    else:
        region = []
        for ci in np.linspace(0.02, 0.98, 50):
            floor = nu_of_c(ci)
            for nj in np.linspace(floor, ci, 52)[1:-1]:
                low, up = _region_bounds(ci, nj)
                region.append((ci, nj, ci - nj, nj - up, nj - low))
        emit(
            "fig3_region.csv",
            ["c", "nu", "c_minus_nu", "nu_minus_n2_min", "nu_minus_n2_max"],
            [rows(*np.transpose(region))],
        )
        triple = _SCATTER["fig3"][0]
        mems_nu = nu_of_c(grid)
        emit("fig3_mems.csv", triple, [rows(grid, grid - mems_nu, mems_nu - bineg_mems(grid))])
        lo, hi = 3.0 / 400.0, 1.0 / 54.0
        t = np.linspace(0.0, 1.0, 21)
        emit("fig3_segment.csv", triple, [rows(np.full(21, 0.5), np.full(21, 0.125), lo + t * (hi - lo))])
    return paths


def recompute_gap(record):
    """Recompute a violation record's observed gap from its serialized state
    (and channel), for audit round-trips; it equals the sweep's gap bit for
    bit."""
    # a stack of one, so that each gap is computed as a sweep computes it:
    # numpy's scalar path rounds some bound curves differently in the last bit
    rho = serialize.complex_matrix_from_json(record.state)[None]
    kind = record.kind
    need = {"monotonicity": "channel", "closed_form": "params"}.get(kind)
    if need and getattr(record, need) is None:
        raise OutOfRange(f"a {kind} record needs its {need}")
    if kind == "monotonicity":
        kraus = np.stack(KrausChannel.from_json_dict(record.channel).kraus_ops)
        return float(_gaps(rho, kraus[None])[0])
    t = measure_triple(rho)
    if kind == "closed_form":
        want, _ = closed_form_pqr(
            float(record.params["p"]), float(record.params["q"]), float(record.params["r"])
        )
        return float(_closed_form_gap(t, want)[0])
    if kind == "ordering":
        return float(_ordering_gap(t)[0])
    gaps = _bound_gaps(t)
    if kind in gaps:
        return float(gaps[kind][0])
    raise OutOfRange(f"cannot recompute gap for record kind {record.kind!r}")
