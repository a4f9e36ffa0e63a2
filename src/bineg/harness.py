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
(``_chunks``), and a stack of up to ``STACK`` chunks is sampled at once
into each chunk's blocks of gaps per kind.  ``_block`` applies the threshold
once: it keeps a block's largest gap and one hit per gap above ``tol``, and
only the hit states leave a worker.  ``_records`` turns the blocks of any
check, the closed-form grid and the search's best climb included, into a
sorted ``SweepReport``.  No chunk depends on another, so ``_chunk_results``
spreads the chunks of a sweep, and of the ``figure_data`` scatter, over the
usable CPUs in forked workers and yields their results in chunk order,
which ``_records`` reads as they come: a report is byte-identical for a
given seed, and to a one-process run.  A worker, or the one process, runs
its chunks a stack at a time, and a sweep forks only with two full-size
chunks.  A scatter chunk comes back as its rows of CSV text, formatted in
the worker by ``serialize.csv_rows`` with array operations, and the caller
writes each as it arrives.  A PPT sweep maps ``_spans`` instead, each chunk
cut into one span of pairs per CPU, since one PPT pair costs milliseconds:
a span first draws the chunk's earlier rows to move its stream past them.
There is no option for it; a sweep of one full-size item, or on one CPU,
runs in the calling process.  Each gap kind is defined once, and ``recompute_gap`` uses the same
definitions.
A stack of states (``_state_stack``) is screened without an eigensolve, each
chunk drawn from its own substream, ``nu`` and ``n2`` with
``_nu_n2_screen`` and ``C`` with the concurrence of the sampler's own
factor ``G`` of ``rho = G G^dagger / Tr``, and ``measure_triple`` measures
the states whose screen is not certified to ``_SCREEN_BOUND`` = 1e-10.  A
scatter stack writes those values; a state sweep measures again only the
certified states within ``_SCREEN_MARGIN``, which the certificate sets, of
a hit or their chunk's top, so every recorded gap and ``max_gap`` is the
reference's.  Each of these steps acts on every state alone, so a state has
the same bits in any stack, and the stack pays each step's fixed cost once.
A (state, channel) pair is one row of raw Gaussians of a fixed width per
channel kind, ``[state | channel | unused tail]``, plus the channel's Kraus
count and side (``_draw_structures``), all drawn as arrays.  A channel
sweep's chunk draws its integers first, then a block's rows in one call;
``_build_pairs`` builds, and ``_gaps`` applies and measures, a block of
pairs in stacked calls that give each pair the bits of a one-pair run, so a
span's pairs come out as its chunk's would; ``_stacking`` sets the block
size by what a pair of the kind costs.  ``counterexample_search`` climbs
on the same rows and runs in the calling process, its climbs in
``_climb``: one stacked call per round evaluates a window of candidates per
restart, and gives the bits of a climb that takes one candidate at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
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
from .errors import DimensionMismatch, OutOfRange, ParseError, WrongDimension
from .measures import (
    _SCREEN_BOUND,
    MeasureTriple,
    _nu_n2_screen,
    _region_bounds,
    _uhlmann,
    _uhlmann_bound,
    binegativity,
    bineg_lower_given_nu,
    bineg_mems,
    closed_form_pqr,
    measure_triple,
    nu_of_c,
)
from .states import (
    _check_count,
    _check_rank,
    _gaussian_matrices,
    _ginibre,
    _gram_state,
    sigma_pqr,
)

# Fixed chunk size for substream spawning.  Changing it would change every
# sampled stream, so it is a constant, not a knob.
CHUNK = 1024
# Chunks measured together in one pass.  A state pass pays some 300 numpy
# calls and a near-set measure_triple whatever its size, once per stack; each
# chunk keeps its own draws, cut and blocks, so no byte depends on it.  For a
# 1e5 rank-2 verify_region on 2 CPUs, 16 alternating rounds in one process:
# 311 ms at 1, 266 at 2, 256 at 3, 251 at 4.  The largest forked worker then
# peaks at 30.8, 32.0, 33.6 and 35.0 MB, so 4 breaks the 10% memory bound.
STACK = 3

HARD_KINDS = frozenset({"ordering", "closed_form", "bound_eq4"})
CONJECTURE_KINDS = frozenset({"bound_eq5_lower", "bound_eq7", "region_eq9", "monotonicity"})

CHANNEL_KINDS = ("local_unitary", "local", "one_way_locc", "ppt")


@dataclass(frozen=True)
class ViolationRecord:
    """One observed break of a checked inequality.

    ``state`` is the density matrix, a (4, 4) complex array that owns its
    data; ``channel`` the :class:`KrausChannel` when one was involved;
    ``params`` the family parameters for closed-form checks.  ``seed`` is
    the sweep's root seed and ``index`` the global sample index, so the
    record pinpoints the draw that produced it.
    """

    kind: str
    observed_gap: float
    seed: int
    index: int
    state: np.ndarray
    channel: KrausChannel | None = None
    params: dict | None = None

    def to_json_dict(self):
        """The dict ``serialize.dump`` writes; matrices are arrays.  The
        record's fields in their order, leaving out those that are None."""
        return {k: v.to_json_dict() if k == "channel" else v for k, v in vars(self).items() if v is not None}

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of :meth:`to_json_dict`: ParseError for input that is not a
        JSON object, lacks a key, has a ``kind`` that is not a string,
        ``params`` or a ``channel`` that are neither an object nor null, or a
        ``state`` that :func:`serialize.complex_matrix_from_json` does not
        read; WrongDimension unless that state is 4x4; OutOfRange unless
        ``observed_gap`` is a finite real and ``seed`` and ``index`` are
        integers >= 0; and the errors of :meth:`KrausChannel.from_json_dict`
        for a channel.  The state and the channel are parsed here, each
        once, and kept as an array and a :class:`KrausChannel`."""
        if not isinstance(data, dict):
            raise ParseError(f"a violation record is a JSON object, got {type(data).__name__}")
        try:
            kind, gap, state = data["kind"], _check_real("observed_gap", data["observed_gap"]), data["state"]
            seed, index = (_check_count(key, data[key], 0) for key in ("seed", "index"))
        except KeyError as exc:
            raise ParseError(f"a violation record needs its {exc.args[0]!r}") from None
        if not isinstance(kind, str):
            raise ParseError(f"a violation record's 'kind' is a string, got {type(kind).__name__}")
        for key in ("params", "channel"):
            if not isinstance(data.get(key), (dict, type(None))):
                raise ParseError(f"a violation record's {key!r} is an object or null, got {type(data[key]).__name__}")
        state = serialize.complex_matrix_from_json(state)
        if state.shape != (4, 4):
            raise WrongDimension(f"a violation record's state is 4x4, got shape {state.shape}")
        channel = data.get("channel")
        channel = None if channel is None else KrausChannel.from_json_dict(channel)
        return cls(kind, gap, seed, index, state, channel, data.get("params"))


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
    runtime_seconds: float | None = None
    violations: list = field(default_factory=list)

    def has_hard_failure(self):
        return any(v.kind in HARD_KINDS for v in self.violations)

    def has_finding(self):
        return any(v.kind in CONJECTURE_KINDS for v in self.violations)

    def to_json_dict(self):
        return {**vars(self), "runtime_seconds": None, "violations": [v.to_json_dict() for v in self.violations]}


def _spawn(seed, count):
    """``count`` substreams of ``seed``, as ``SeedSequence`` children.
    Raises :class:`OutOfRange` unless ``seed`` is an integer >= 0."""
    return np.random.SeedSequence(_check_count("seed", seed, 0)).spawn(count)


def _chunks(seed, n):
    """``(substream, size)`` per fixed-size chunk of ``n`` draws, each chunk
    on its own substream of ``seed``.  Raises :class:`OutOfRange` unless
    ``n`` is an integer >= 1."""
    n = _check_count("n", n, 1)
    sizes = [CHUNK] * (n // CHUNK) + ([n % CHUNK] if n % CHUNK else [])
    return list(zip(_spawn(seed, len(sizes)), sizes))


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stack_results(task, chunks):
    """The result of each of ``chunks``, in order, from ``task`` run on
    consecutive stacks of up to ``STACK`` of them.  Should a stack of more
    than one raise, its chunks run one at a time, so the chunks before the
    one that raises still give their results and the error comes in place
    of that chunk's, as if every stack were of one."""
    for i in range(0, len(chunks), STACK):
        stack = chunks[i : i + STACK]
        try:
            results = task(stack)
        except Exception:
            if len(stack) == 1:
                raise
            results = itertools.chain.from_iterable(task([chunk]) for chunk in stack)
        yield from results


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    """Make this process's C allocator keep what numpy frees, where it is
    glibc's: arrays of up to 32 MB come from the heap, and the heap's free
    top is not given back below 64 MB, so one stack's temporaries reuse the
    last one's pages.  Else the top goes back whenever it passes the
    allocator's trim threshold, which its history sets: a 1e5-state rank-2
    verify_region faulted in 29k pages in its workers at 3 chunks a stack,
    against 3.3k at one chunk, once a caller had read an 860 KB report, and
    4.6k with this.  The peak stays.  Only a forked worker, which ends with
    its sweep, calls this: a caller's allocator is left as it is."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # another C library: its defaults stay
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _serve(task, chunks, recv, conn):
    """The work of one forked worker of :func:`_chunk_results`: send ``(True,
    result)`` for each of ``chunks`` in order (:func:`_stack_results`), or
    ``(False, error)`` for the first that raises, and stop there."""
    # the caller is then the pipe's only reader: should it die, the next
    # send fails and this worker ends, which frees the earlier workers' pipes
    recv.close()
    _keep_freed_memory()
    try:
        for result in _stack_results(task, chunks):
            conn.send((True, result))
    except BrokenPipeError:  # the caller has died; there is no one to tell
        return
    except Exception as exc:  # the caller raises it in its own process
        conn.send((False, exc))


def _chunk_results(task, chunks):
    """Yield the result of each of ``chunks``, in chunk order, where
    ``task(stack)`` maps a stack, a list of up to ``STACK`` chunks, to the
    list of its chunks' results.  A chunk here is any independent item of
    work, ``(substream, size, ...)``: a chunk of draws or a span of a chunk.

    Forked workers, one per usable CPU up to one per full-size chunk (one
    whose ``size`` is the largest), compute them when there are at least two
    such chunks: worker ``k`` takes the chunks ``k, k + workers, ...`` and
    runs them ``STACK`` at a time, so a short last chunk never has a fork to
    itself.  Otherwise this process runs consecutive stacks, as it does
    where ``fork`` does not exist and in a daemonic process, which may not
    have children.  Forked workers inherit ``task``, which may be a closure,
    and the loaded modules; spawned ones would import numpy again for every
    sweep.  Each chunk's result is sent on its own and read in this thread,
    one worker's pipe at a time in chunk order, as the caller asks for them,
    so they are allocated where a serial run allocates them, and a worker
    that runs ahead of the reader waits once its pipe is full.  The workers
    start at the first result asked for, and are stopped and joined once the
    last is read, an error is raised, or the caller closes the generator; an
    error reaches the caller with its type and message in place of the
    result of the chunk that raised it, on either path, and a worker that
    ends without sending its next result raises ChildProcessError.
    """
    largest = max(chunk[1] for chunk in chunks)
    workers = min(_usable_cpus(), sum(chunk[1] == largest for chunk in chunks))
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
    yield from _stack_results(task, chunks)


def _block(tol, states, gaps, extra_of):
    """A block of ``states`` with ``{kind: gaps}`` in the form that
    :func:`_records` takes: ``(count, top, hits)``.  ``top`` is the largest
    gap of any kind, skipping NaN, and ``hits`` holds ``(kind, j, gap,
    state, extra)`` for each gap above ``tol``: a copy of the state, which
    owns its data so that the record does not keep the block alive, and its
    ``extra_of(j)`` keywords, the record's ``channel`` or ``params``.  Only
    those states leave a worker."""
    top, hits = -math.inf, []
    for kind, gap in gaps.items():
        top = float(np.fmax.reduce(gap, initial=top))
        for j in map(int, np.flatnonzero(gap > tol)):
            hits.append((kind, j, float(gap[j]), states[j].copy(), extra_of(j)))
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
    return SweepReport(op, offset, len(violations), max_gap, int(seed), config, runtime, violations)


def _spans(chunks, parts):
    """Each ``(substream, size)`` of ``chunks`` cut into ``parts`` contiguous
    spans ``(substream, size, begin, length)`` of its draws, the k-th
    beginning at ``size * k // parts``, in order and with the empty spans
    dropped."""
    return [
        (seq, size, begin, end - begin)
        for seq, size in chunks
        for begin, end in itertools.pairwise(size * k // parts for k in range(parts + 1))
        if end > begin
    ]


def _sweep(op, seed, config, tol, work, items):
    """The loop of every sampling sweep: ``work(stack)`` samples a stack of
    ``items``, the chunks of :func:`_chunks` or their :func:`_spans`, and
    yields per item its blocks of ``(states, {kind: gaps}, extra_of)``, which
    reach :func:`_records` in item order as :func:`_chunk_results` yields
    them."""
    t0 = time.perf_counter()
    results = _chunk_results(lambda stack: [[_block(tol, *block) for block in blocks] for blocks in work(stack)], items)
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


# A state sweep measures again every certified state whose screened gap comes
# within this of min(tol, its chunk's top).  On the feasible region a gap moves
# by at most 2 per unit of C, 1.5 per unit of nu and 1 per unit of n2, so by at
# most 4.5 _SCREEN_BOUND from the certified screen; the cut needs twice that.
_SCREEN_MARGIN = 9 * _SCREEN_BOUND


def _split(stack, *arrays):
    """Each chunk's slice of ``arrays``, which hold the states of ``stack``
    in its order: a list of one tuple of slices per chunk."""
    ends = itertools.accumulate((size for _, size in stack), initial=0)
    return [tuple(a[begin:end] for a in arrays) for begin, end in itertools.pairwise(ends)]


def _factors(rank, stack):
    """The factors ``G`` of the random states of ``rank`` of a stack of
    chunks ``(substream, size)``, each chunk's drawn from its own substream,
    in stack order."""
    return np.concatenate([_ginibre(rank, np.random.default_rng(seq), size) for seq, size in stack])


def _state_stack(rank, stack):
    """``(rho, triple, certified)`` of the random states ``rho = G
    G^dagger / Tr`` of a stack of chunks, ``G`` from :func:`_factors`: every
    scatter stack, and every sweep stack above rank 1.  The screen makes no
    eigensolve: ``nu`` and ``n2`` come from :func:`_nu_n2_screen` and ``c =
    max(_uhlmann(G) / Tr, 0)``.  A state is ``certified`` where ``c`` is
    finite and both :func:`_uhlmann_bound` and the screen's bound are at most
    ``_SCREEN_BOUND``; the triple holds measure_triple's bits for every
    other state, written before it is returned.  Every step acts on each
    state alone, so a state gets the same bits in any stack.
    """
    g = _factors(rank, stack)
    rho = _gram_state(g)
    c = np.maximum(_uhlmann(g) / np.square(np.abs(g)).sum(axis=(-2, -1)), 0.0)
    c_bound = _uhlmann_bound(g, c)
    del g  # before the screen, whose temporaries set the stack's peak
    nu, n2, bound = _nu_n2_screen(rho)
    certified = np.isfinite(c) & (np.maximum(c_bound, bound) <= _SCREEN_BOUND)
    t = MeasureTriple(c, nu, n2)
    if not certified.all():  # most stacks are all certified; an empty call costs 2% of a sweep
        for name, exact in vars(measure_triple(rho[~certified])).items():
            getattr(t, name)[~certified] = exact
    return rho, t, certified


def _state_sweep(op, gaps_of, n, rank, seed, tol):
    """Sweep of ``n`` random states of ``rank``, with gaps ``gaps_of(triple)``.

    A stack of chunks comes from :func:`_state_stack`.  Its certified states
    whose gap of any kind comes within ``_SCREEN_MARGIN`` of ``min(tol,
    top)``, ``top`` the largest gap of the state's own chunk, are measured
    again with :func:`measure_triple`, in one call for the stack.  That
    margin is twice the most a certified screen moves a gap, so they include
    every hit and each chunk's top, which then carry the reference bits, and
    a report is byte-identical to one that measures every state, in any
    stacking.  A certified PPT state is not measured again: ``gaps_of``
    gives it the same gaps for any ``C >= 0`` (0 for the ordering, none for
    the bounds).  At rank 1 every state is measured and none is screened:
    the screen certifies pure states, but each has ``C = nu = n2`` and so
    gaps of about 0, within ``_SCREEN_MARGIN`` of the cut, and the margin
    would send every one to the reference anyway.
    """
    rank = _check_rank(rank)
    tol = _check_real("tol", tol)

    def work(stack):
        if rank == 1:
            rho = _gram_state(_factors(rank, stack))
            gaps = gaps_of(measure_triple(rho))
        else:
            rho, t, certified = _state_stack(rank, stack)
            gaps = gaps_of(t)
            state_tops = np.max(list(gaps.values()), axis=0)
            cuts = [min(tol, np.max(top)) - _SCREEN_MARGIN for (top,) in _split(stack, state_tops)]
            cut = np.repeat(cuts, [size for _, size in stack])
            near = np.flatnonzero(certified & (t.nu != 0.0) & np.any([gap >= cut for gap in gaps.values()], axis=0))
            exact = gaps_of(measure_triple(rho[near]))
            for kind, gap in gaps.items():
                gap[near] = exact[kind]
        kinds = list(gaps)
        for states, *chunk_gaps in _split(stack, rho, *gaps.values()):
            yield [(states, dict(zip(kinds, chunk_gaps)), lambda j: {})]

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
    g = _check_count("grid_density", grid_density, 2)
    tol = _check_real("tol", tol)
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


def _check_real(name, value):
    """``value`` as a ``float`` if it is a finite real, not a bool, else raise
    :class:`OutOfRange`: no gap is above a NaN tolerance, and a gap is a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise OutOfRange(f"{name} must be finite and real, got {value!r}")
    return float(value)


# the real Gaussians of a channel's row: the most its sampler draws, 8 per
# environment dimension of a local channel and 16 per one-way LOCC outcome
_CHANNEL_WIDTH = {"local_unitary": 16, "local": 32, "one_way_locc": 64, "ppt": 512}


def _draw_structures(kind, rng, count):
    """The discrete part of ``count`` channels of ``kind``: ``(counts,
    on_a)``, each channel's Kraus count and whether a local channel acts on
    A.  Each integer is one generator call for all ``count`` channels: a
    local channel's side, then its environment dimension 1..4, and a one-way
    LOCC channel's outcome count 2..4.  A local unitary channel has one
    Kraus operator, and a PPT channel's count comes out of its projection;
    neither draws."""
    if kind == "local":
        on_a = rng.integers(2, size=count) == 0
        return rng.integers(1, 5, count), on_a
    counts = rng.integers(2, 5, count) if kind == "one_way_locc" else np.ones(count, dtype=int)
    return counts, np.zeros(count, dtype=bool)


def _build_pairs(kind, rank, counts, on_a, raw):
    """States and zero-padded Kraus stacks of pairs, one per row of raw
    Gaussians ``raw`` ``(n, 8 rank + _CHANNEL_WIDTH[kind])``: the state's
    ``8 rank``, then the channel's, of which a channel reads the prefix its
    count in ``counts`` needs, with its side in ``on_a`` if it is local
    (:func:`_draw_structures`).  The sweeps and the hill climb both map
    their rows to pairs here.

    Returns ``(rho, kraus, counts)``: states ``(n, 4, 4)``, Kraus operators
    ``(n, K, 4, 4)`` with K the largest count, and each pair's own count.
    Raises :class:`OutOfRange` if the rows' sum of squares is not finite (a
    climb that overflowed; a finite sum keeps the Gram products of states
    and PPT starts finite), :class:`NotTracePreserving` if any channel
    fails the completeness check, and for PPT channels also the error of a
    Choi matrix that fails the checks of :class:`ChoiMatrix`.
    """
    # a ufunc sum, not a BLAS dot: a dot this long wakes a second OpenBLAS
    # thread, which then spins on another core
    if not np.isfinite(np.square(raw).sum()):
        raise OutOfRange("raw Gaussians of the pairs must have a finite sum of squares")
    split = 8 * rank
    rho = _gram_state(_gaussian_matrices(raw[:, :split], (4, rank)))
    if kind == "ppt":
        _, kraus, counts = _ppt_kraus(_ppt_start(raw[:, split:]))
        return rho, kraus, counts
    kraus = np.zeros((len(raw), counts.max(), 4, 4), dtype=complex)
    # not np.unique, whose first call imports numpy.ma: a megabyte of peak memory
    for count in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == count)
        if kind == "local":
            kraus[idx, :count] = _local_kraus(raw[idx, split : split + 8 * count], count, on_a[idx])
        else:
            kraus[idx, :count] = _one_way_locc_kraus(raw[idx, split : split + 16 * count], count)
    _check_complete(kraus)
    return rho, kraus, counts


def _stacking(kind):
    """``(parts, block, window)`` for the pairs of channel ``kind``: the
    spans a sweep cuts each chunk into, the pairs it draws ahead and then
    builds, applies and measures in stacked calls, and the candidates per
    restart in one stacked call of :func:`_climb`.  Every span draws the
    integers of its whole chunk first, then rows of a fixed width, and every
    stacked step is bit-identical per item and draws no randomness, so these
    set speed and memory, not streams, and follow from what one pair costs.

    An LOCC pair costs tens of microseconds, mostly numpy call overhead,
    which larger stacks share out: blocks of 128 pairs, a window of 8, and
    one span per chunk, since forking costs more than a 1000-pair sweep
    gains from a second core.  A PPT pair costs milliseconds of projection,
    which no stack shares out: one span per usable CPU; blocks of 32, since
    each worker's peak grows with its block (33.1 MB at 32 pairs, 40.0 MB at
    128); and a window of 1, since speculative candidates would cost more
    than they save.
    """
    if kind == "ppt":
        return _usable_cpus(), 32, 1
    return 1, 128, 8


def _gaps(rho, kraus):
    """``n2(E(rho)) - n2(rho)`` per pair, all outputs and inputs measured in
    one stacked call."""
    n2 = binegativity(np.concatenate([_apply_kraus(kraus, rho), rho]))
    return n2[: len(rho)] - n2[len(rho) :]


def _channel_of(kraus, counts):
    """Map of a pair's index in a block to its channel, padding dropped."""
    return lambda j: {"channel": KrausChannel(tuple(kraus[j, : counts[j]]), 4, 4)}


def monotonicity_sweep(n_pairs, channel_kind="local", rank=2, seed=42, tol=1e-9):
    """Sample (state, channel) pairs and flag every pair where the channel
    RAISES the binegativity by more than ``tol``.

    The conjecture says that never happens for LOCC or PPT channels, so any
    violation here is a finding (a refutation candidate), not a bug.  The
    report's ``max_gap`` tracks the largest signed increase even when it
    stays below tolerance.

    A PPT pair costs milliseconds of projection, so a PPT sweep cuts each
    chunk into one span per usable CPU, and even a sweep of one chunk runs
    on every core; it measures blocks of 32 pairs.  An LOCC pair costs tens
    of microseconds, so that a 1000-pair sweep gains less from a second core
    than forking it costs: LOCC sweeps keep the chunk as their unit, and
    measure blocks of 128 pairs (:func:`_stacking`).
    """
    rank = _check_rank(rank)
    _check_kind(channel_kind)
    tol = _check_real("tol", tol)
    parts, block, _ = _stacking(channel_kind)
    width = 8 * rank + _CHANNEL_WIDTH[channel_kind]

    def pairs(rng, size, begin, length):
        counts, on_a = _draw_structures(channel_kind, rng, size)
        rng.standard_normal((begin, width))  # the chunk's earlier rows, drawn only to move the stream past them
        for first in range(begin, begin + length, block):
            end = min(first + block, begin + length)
            raw = rng.standard_normal((end - first, width))
            rho, kraus, pair_counts = _build_pairs(channel_kind, rank, counts[first:end], on_a[first:end], raw)
            yield rho, {"monotonicity": _gaps(rho, kraus)}, _channel_of(kraus, pair_counts)

    def work(stack):
        return (pairs(np.random.default_rng(seq), *rest) for seq, *rest in stack)

    config = {"channel_kind": channel_kind, "rank": rank, "tol": tol}
    return _sweep("monotonicity_sweep", seed, config, tol, work, _spans(_chunks(seed, n_pairs), parts))


def _climb(objective, thetas, rngs, steps, step_size, window):
    """Accept-on-improvement hill climbs from the parameter vectors
    ``thetas``, one per restart, each ``steps`` long.  A step adds
    ``step_size`` times a row of standard normals from the restart's own
    generator in ``rngs``, and the restart moves there if the objective is
    strictly larger.  ``objective(which, cands)`` maps a list of candidate
    vectors, with ``which[j]`` the restart of ``cands[j]``, to their values
    in one stacked call.  Returns each restart's best value, as an array,
    and its point.

    Each round evaluates the next ``window`` candidates of every restart
    together, each built from the restart's current point as if the earlier
    ones were rejected.  A restart moves to its first accepted candidate and
    drops the rest, which the next round builds again from there, or past
    the whole window if none is accepted.  A restart uses one noise row per
    step, accepted or not, drawn when its window first reaches it, so the
    result is bit for bit that of climbing one candidate at a time; with a
    window of 1 all restarts step in lockstep.  If a round's call raises, the
    round runs again with one candidate per restart, the ones the
    one-at-a-time climb evaluates next, so an error reaches the caller only
    where that climb raises it.
    """
    thetas = list(thetas)
    best = np.array(objective(range(len(thetas)), thetas), dtype=float)
    left = [steps] * len(thetas)
    noise = [np.empty((0, t.size)) for t in thetas]
    width = window
    while any(left):
        counts = [min(width, n) for n in left]
        which, cands = [], []
        for i, (t, rng, k) in enumerate(zip(thetas, rngs, counts)):
            if k > len(noise[i]):
                noise[i] = np.concatenate([noise[i], rng.standard_normal((k - len(noise[i]), t.size))])
            which += [i] * k
            cands.extend(t + step_size * noise[i][:k])
        try:
            values = objective(which, cands)
        except Exception:
            if width == 1:
                raise
            width = 1
            continue
        width, first = window, 0
        for i, k in enumerate(counts):
            accepted = np.flatnonzero(values[first : first + k] > best[i])
            used = int(accepted[0]) + 1 if accepted.size else k
            if accepted.size:
                best[i], thetas[i] = values[first + used - 1], cands[first + used - 1]
            noise[i], left[i] = noise[i][used:], left[i] - used
            first += k
    return best, thetas


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
    pair's row of raw Gaussians, mapped to a pair by :func:`_build_pairs` as
    a sweep's rows are; each restart draws its channel's integers, which the
    climb keeps, then its start row.

    Accept-on-improvement Gaussian steps; the report's ``max_gap`` is the
    best ``f`` found.  Each restart climbs on its own substream with its own
    accept rule, through :func:`_climb`, so the result equals that of
    separate climbs.  An LOCC climb evaluates a window of 8 candidates per
    restart in each stacked call, and a PPT climb one (:func:`_stacking`).
    ``n_samples`` counts the climb's ``restarts * (steps + 1)`` points, not
    the speculative candidates a window evaluates beyond them.  A best value
    above ``tol`` is a finding: a candidate refutation of monotonicity,
    recorded with its state and channel.
    """
    restarts = _check_count("restarts", restarts, 1)
    steps = _check_count("steps", steps, 0)
    rank = _check_rank(rank)
    _check_kind(channel_kind)
    tol = _check_real("tol", tol)
    step_size = _check_real("step_size", step_size)
    t0 = time.perf_counter()
    rngs = list(map(np.random.default_rng, _spawn(seed, restarts)))
    counts, on_a = map(np.concatenate, zip(*(_draw_structures(channel_kind, rng, 1) for rng in rngs)))

    def build(which, thetas):
        return _build_pairs(channel_kind, rank, counts[which], on_a[which], np.asarray(thetas))

    def objective(which, thetas):
        rho, kraus, _ = build(which, thetas)
        return _gaps(rho, kraus)

    every = range(restarts)
    thetas = [rng.standard_normal(8 * rank + _CHANNEL_WIDTH[channel_kind]) for rng in rngs]
    best, thetas = _climb(objective, thetas, rngs, steps, step_size, _stacking(channel_kind)[2])
    best_idx = max(every, key=lambda i: best[i])
    best_f = float(best[best_idx])
    hits = []
    if best_f > tol:
        rho, kraus, counts = build([best_idx], [thetas[best_idx]])
        hits.append(("monotonicity", best_idx, best_f, rho[0].copy(), _channel_of(kraus, counts)(0)))
    config = {
        "channel_kind": channel_kind,
        "restarts": restarts,
        "steps": steps,
        "step_size": step_size,
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


def _scatter_stack(which, rank, stack):
    """The rows of figure ``which``'s scatter sheet for each chunk of a stack
    of random states of ``rank``, as CSV text: a worker hands back text to
    write, and its caller formats none of it.  A row holds its state's
    measures from :func:`_state_stack`: screened where certified, else
    measure_triple's."""
    _, t, _ = _state_stack(rank, stack)
    return [serialize.csv_rows(*columns) for columns in _split(stack, *_SCATTER[which][1](t))]


def figure_data(which, n, rank=2, seed=42, out_dir="."):
    """Emit scatter and bound-curve CSV data for one of the three plots.

    * fig1: (c, n2) scatter; curves n2 = c and the sigma_mems lower curve.
    * fig2: (nu, n2) scatter; curves n2 = nu and the fixed-nu lower curve.
    * fig3: (c, c - nu, nu - n2) scatter; the two-sided region surface on a
      50 x 50 feasible (c, nu) grid, the sigma_mems curve, and the segment
      of states sharing (c, nu) = (1/2, 3/8).  The grid is 50 values of c by
      the 50 inner points of 52 from ``nu_of_c(c)`` to c, and one array call
      of :func:`_region_bounds` gives its bounds, rounded as a sweep's are.

    The scatter's chunks come back from :func:`_chunk_results` as their rows
    of text, each written as it arrives, in chunk order, so that the sheet
    is never held whole; an error in a chunk leaves the sheet cut short
    there.  A row holds screened measures certified to within 1e-10 of
    :func:`measure_triple`'s, or its bits (:func:`_scatter_stack`).
    Returns the list of file paths written.
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

    task = functools.partial(_scatter_stack, which, rank)
    emit(f"{which}_scatter.csv", _SCATTER[which][0], _chunk_results(task, chunks))
    rows = serialize.csv_rows
    grid = np.linspace(0.0, 1.0, 201)
    if which == "fig1":
        emit("fig1_bounds.csv", ["c", "lower", "upper"], [rows(grid, bineg_mems(grid), grid)])
    elif which == "fig2":
        emit("fig2_bounds.csv", ["nu", "lower", "upper"], [rows(grid, bineg_lower_given_nu(grid), grid)])
    else:
        c = np.linspace(0.02, 0.98, 50)
        nu = np.linspace(nu_of_c(c), c, 52, axis=-1)[:, 1:-1].ravel()
        c = np.repeat(c, 50)
        low, up = _region_bounds(c, nu)
        header = ["c", "nu", "c_minus_nu", "nu_minus_n2_min", "nu_minus_n2_max"]
        emit("fig3_region.csv", header, [rows(c, nu, c - nu, nu - up, nu - low)])
        triple = _SCATTER["fig3"][0]
        mems_nu = nu_of_c(grid)
        emit("fig3_mems.csv", triple, [rows(grid, grid - mems_nu, mems_nu - bineg_mems(grid))])
        lo, hi = 3.0 / 400.0, 1.0 / 54.0
        t = np.linspace(0.0, 1.0, 21)
        emit("fig3_segment.csv", triple, [rows(np.full(21, 0.5), np.full(21, 0.125), lo + t * (hi - lo))])
    return paths


def recompute_gap(record):
    """Recompute a violation record's observed gap from its state (and
    channel), as :meth:`ViolationRecord.from_json_dict` parsed them or a
    sweep built them, for audit round-trips; it equals the sweep's gap bit
    for bit.  It parses nothing; the shape checks guard records built in
    Python."""
    # a stack of one, so that each gap is computed as a sweep computes it:
    # numpy's scalar path rounds some bound curves differently in the last bit
    rho = np.asarray(record.state)[None]
    kind = record.kind
    need = {"monotonicity": "channel", "closed_form": "params"}.get(kind)
    if need and getattr(record, need) is None:
        raise OutOfRange(f"a {kind} record needs its {need}")
    if kind == "monotonicity":
        ch = record.channel
        if rho.shape[1:] != (4, 4):
            raise WrongDimension(f"a monotonicity record's state is 4x4, got shape {rho.shape[1:]}")
        if (ch.dim_in, ch.dim_out) != (4, 4):
            raise DimensionMismatch(f"a monotonicity record's channel maps 4 to 4, got {ch.dim_in} to {ch.dim_out}")
        return float(_gaps(rho, np.stack(ch.kraus_ops)[None])[0])
    t = measure_triple(rho)
    if kind == "closed_form":
        want, _ = closed_form_pqr(*(_check_real(k, record.params.get(k)) for k in "pqr"))
        return float(_closed_form_gap(t, want)[0])
    if kind == "ordering":
        return float(_ordering_gap(t)[0])
    gaps = _bound_gaps(t)
    if kind in gaps:
        return float(gaps[kind][0])
    raise OutOfRange(f"cannot recompute gap for record kind {record.kind!r}")
