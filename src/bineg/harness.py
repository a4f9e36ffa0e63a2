"""Verification sweeps for the measure properties and conjectures.

Proven facts (the measure ordering, the closed forms) are hard checks: a
violation means an implementation bug.  The bound curves, the (c, nu, n2)
region, and channel monotonicity are conjectures: violations are findings to
report, not test failures.  Reports keep that distinction through the
``HARD_KINDS`` / ``CONJECTURE_KINDS`` split.

All randomness flows from one root seed through ``SeedSequence.spawn`` in
fixed-size chunks, processed one after another, so a report is
byte-identical for a given seed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .channels import (
    KrausChannel,
    _ppt_start,
    apply,
    one_way_locc_channel,
    project_to_ppt_channel,
    random_local_channel,
    random_local_unitary_pair,
)
from .errors import OutOfRange
from .linalg import dagger, kron
from .measures import (
    binegativity,
    bineg_lower_given_nu,
    bineg_mems,
    closed_form_pqr,
    concurrence,
    negativity,
    nu_of_c,
    region_bounds,
)
from .states import random_mixed, sigma_pqr

# Fixed chunk size for substream spawning.  Changing it would change every
# sampled stream, so it is a constant, not a knob.
CHUNK = 1024

# Pairs drawn ahead of measuring them, so that the PPT channels of a block
# are projected in one stacked call.  The projection is bit-identical per
# item and draws no randomness, so this sets speed and memory, not streams.
PAIR_BLOCK = 32

HARD_KINDS = frozenset({"ordering", "closed_form"})
CONJECTURE_KINDS = frozenset(
    {"bound_eq4", "bound_eq5_lower", "bound_eq7", "region_eq9", "monotonicity"}
)

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
        out = {
            "kind": self.kind,
            "observed_gap": self.observed_gap,
            "seed": self.seed,
            "index": self.index,
            "state": self.state,
        }
        if self.channel is not None:
            out["channel"] = self.channel
        if self.params is not None:
            out["params"] = self.params
        return out

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


def _chunk_sizes(n):
    sizes = [CHUNK] * (n // CHUNK)
    if n % CHUNK:
        sizes.append(n % CHUNK)
    return sizes


def _run_chunks(work, seed, n):
    """Run ``work(rng, size)`` over fixed-size chunks with independent
    substreams; results come back in chunk order."""
    sizes = _chunk_sizes(int(n))
    children = np.random.SeedSequence(int(seed)).spawn(len(sizes))
    return [work(np.random.default_rng(child), size) for child, size in zip(children, sizes)]


def _finish(report, t0):
    report.violations.sort(key=lambda v: (v.seed, v.index, v.kind))
    report.n_violations = len(report.violations)
    report.runtime_seconds = time.perf_counter() - t0
    return report


def verify_ordering(n, rank=2, seed=42, tol=1e-9):
    """Sample ``n`` random states of the given rank and flag any break of
    ``n2 <= nu <= c`` beyond ``tol``.  Expected violations: zero; any hit is
    an implementation bug, not a finding."""
    n = int(n)
    if n < 1:
        raise OutOfRange("n must be >= 1")
    t0 = time.perf_counter()

    def work(rng, size):
        rho = random_mixed(rank, rng, size=size)
        c = concurrence(rho)
        nu = negativity(rho)
        n2 = binegativity(rho)
        return rho, np.maximum(n2 - nu, nu - c)

    results = _run_chunks(work, seed, n)
    violations = []
    max_gap = -math.inf
    offset = 0
    for rho, gap in results:
        max_gap = max(max_gap, float(gap.max()))
        for j in np.flatnonzero(gap > tol):
            violations.append(
                ViolationRecord(
                    "ordering",
                    float(gap[j]),
                    int(seed),
                    offset + int(j),
                    serialize.complex_matrix_to_json(rho[j]),
                )
            )
        offset += len(gap)
    report = SweepReport(
        "verify_ordering",
        n,
        len(violations),
        max_gap,
        int(seed),
        {"rank": int(rank), "tol": tol},
        violations,
    )
    return _finish(report, t0)


def _bound_gaps(c, nu, n2):
    """Signed conjecture gaps per bound family; a positive entry beyond
    tolerance means the state escapes that bound.  Non-entangled states are
    masked out (every bound concerns entangled states only)."""
    c = np.clip(np.asarray(c, dtype=float), 0.0, 1.0)
    nu = np.clip(np.asarray(nu, dtype=float), 0.0, 1.0)
    n2 = np.asarray(n2, dtype=float)
    lower9, upper9 = region_bounds(c, nu, validate=False)
    gaps = {
        "bound_eq4": nu_of_c(c) - nu,
        "bound_eq5_lower": bineg_mems(c) - n2,
        "bound_eq7": bineg_lower_given_nu(nu) - n2,
        "region_eq9": np.maximum(lower9 - n2, n2 - upper9),
    }
    entangled = nu > 0.0
    return {k: np.where(entangled, g, -math.inf) for k, g in gaps.items()}


def verify_region(n, rank=2, seed=42, tol=1e-9):
    """Check every sampled entangled state against the conjectured bounds:
    the least-negativity curve, both binegativity lower curves, and the
    two-sided (c, nu, n2) region.  Violations are findings."""
    n = int(n)
    if n < 1:
        raise OutOfRange("n must be >= 1")
    t0 = time.perf_counter()

    def work(rng, size):
        rho = random_mixed(rank, rng, size=size)
        c = concurrence(rho)
        nu = negativity(rho)
        n2 = binegativity(rho)
        return rho, _bound_gaps(c, nu, n2)

    results = _run_chunks(work, seed, n)
    violations = []
    max_gap = -math.inf
    offset = 0
    for rho, gaps in results:
        for kind, gap in gaps.items():
            finite = gap[np.isfinite(gap)]
            if finite.size:
                max_gap = max(max_gap, float(finite.max()))
            for j in np.flatnonzero(gap > tol):
                violations.append(
                    ViolationRecord(
                        kind,
                        float(gap[j]),
                        int(seed),
                        offset + int(j),
                        serialize.complex_matrix_to_json(rho[j]),
                    )
                )
        offset += rho.shape[0]
    report = SweepReport(
        "verify_region",
        n,
        len(violations),
        max_gap,
        int(seed),
        {"rank": int(rank), "tol": tol},
        violations,
    )
    return _finish(report, t0)


def verify_closed_forms(grid_density=20, seed=42, tol=1e-9):
    """Compare the sigma_pqr closed forms against the numerical measures on
    a full (p, q, r) grid plus 100 random triples.  Disagreement beyond
    ``tol`` is a hard failure."""
    g = int(grid_density)
    if g < 2:
        raise OutOfRange("grid density must be >= 2")
    t0 = time.perf_counter()
    axis = np.linspace(0.0, 1.0, g)
    pg, qg, rg = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)).spawn(1)[0])
    extra = rng.uniform(size=(100, 3))
    p = np.concatenate([pg, extra[:, 0]])
    q = np.concatenate([qg, extra[:, 1]])
    r = np.concatenate([rg, extra[:, 2]])
    rho = sigma_pqr(p, q, r)
    triple, _ = closed_form_pqr(p, q, r)
    diff = np.maximum(
        np.abs(concurrence(rho) - triple.c),
        np.maximum(
            np.abs(negativity(rho) - triple.nu), np.abs(binegativity(rho) - triple.n2)
        ),
    )
    violations = []
    for j in np.flatnonzero(diff > tol):
        violations.append(
            ViolationRecord(
                "closed_form",
                float(diff[j]),
                int(seed),
                int(j),
                serialize.complex_matrix_to_json(rho[j]),
                params={"p": float(p[j]), "q": float(q[j]), "r": float(r[j])},
            )
        )
    report = SweepReport(
        "verify_closed_forms",
        int(p.size),
        len(violations),
        float(diff.max()),
        int(seed),
        {"grid_density": g, "tol": tol},
        violations,
    )
    return _finish(report, t0)


def _sample_channel(kind, rng):
    if kind == "local_unitary":
        return random_local_unitary_pair(rng)
    if kind == "local":
        side = "A" if int(rng.integers(2)) == 0 else "B"
        return random_local_channel(side, int(rng.integers(1, 5)), rng)
    if kind == "one_way_locc":
        return one_way_locc_channel(int(rng.integers(2, 5)), rng)
    raise OutOfRange(f"unknown channel kind {kind!r}; choose from {CHANNEL_KINDS}")


def _sample_pairs(kind, rank, rng, count):
    """Draw ``count`` (state, channel) pairs, each state before its channel.

    PPT channels are projected together once all their starts are drawn;
    the projection consumes no randomness, so the stream and every channel
    match a pair-by-pair draw.
    """
    if kind != "ppt":
        return [(random_mixed(rank, rng), _sample_channel(kind, rng)) for _ in range(count)]
    states, starts = [], []
    for _ in range(count):
        states.append(random_mixed(rank, rng))
        starts.append(_ppt_start(rng))
    projected = project_to_ppt_channel(np.stack(starts))
    return [(rho, ch) for rho, (_, ch) in zip(states, projected)]


def monotonicity_sweep(n_pairs, channel_kind="local", rank=2, seed=42, tol=1e-9):
    """Sample (state, channel) pairs and flag every pair where the channel
    RAISES the binegativity by more than ``tol``.

    The conjecture says that never happens for LOCC or PPT channels, so any
    violation here is a finding (a refutation candidate), not a bug.  The
    report's ``max_gap`` tracks the largest signed increase even when it
    stays below tolerance.
    """
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise OutOfRange("n_pairs must be >= 1")
    if channel_kind not in CHANNEL_KINDS:
        raise OutOfRange(
            f"unknown channel kind {channel_kind!r}; choose from {CHANNEL_KINDS}"
        )
    t0 = time.perf_counter()

    def work(rng, size):
        out = []
        for first in range(0, size, PAIR_BLOCK):
            count = min(PAIR_BLOCK, size - first)
            for rho, ch in _sample_pairs(channel_kind, rank, rng, count):
                gap = binegativity(apply(ch, rho)) - binegativity(rho)
                out.append((gap, rho, ch))
        return out

    results = _run_chunks(work, seed, n_pairs)
    violations = []
    max_gap = -math.inf
    offset = 0
    for chunk in results:
        for j, (gap, rho, ch) in enumerate(chunk):
            max_gap = max(max_gap, gap)
            if gap > tol:
                violations.append(
                    ViolationRecord(
                        "monotonicity",
                        float(gap),
                        int(seed),
                        offset + j,
                        serialize.complex_matrix_to_json(rho),
                        channel=ch.to_json_dict(),
                    )
                )
        offset += len(chunk)
    report = SweepReport(
        "monotonicity_sweep",
        n_pairs,
        len(violations),
        max_gap,
        int(seed),
        {"channel_kind": channel_kind, "rank": int(rank), "tol": tol},
        violations,
    )
    return _finish(report, t0)


def _unitary_from_raw(raw):
    """QR with the R-diagonal phase fix; maps any full-rank complex matrix to
    a unitary (or an isometry for tall input) continuously almost everywhere."""
    q, r = np.linalg.qr(raw)
    d = np.diagonal(r)
    safe = np.where(np.abs(d) > 0.0, d, 1.0)
    return q * (safe / np.abs(safe))


class _SearchSpace:
    """Joint (state, channel) parameterization for the hill climb.

    Discrete structure (side, environment size, outcome count) is frozen at
    construction; after that ``build`` is a pure function of the real
    parameter vector, which is what the climber perturbs.
    """

    def __init__(self, kind, rank, rng):
        self.kind = kind
        self.rank = int(rank)
        self.state_size = 8 * self.rank
        if kind == "local_unitary":
            self.channel_size = 16
        elif kind == "local":
            self.side = "A" if int(rng.integers(2)) == 0 else "B"
            self.env = int(rng.integers(1, 5))
            self.channel_size = 8 * self.env
        elif kind == "one_way_locc":
            self.m = int(rng.integers(2, 5))
            self.channel_size = 16 * self.m
        elif kind == "ppt":
            self.channel_size = 512
        else:
            raise OutOfRange(
                f"unknown channel kind {kind!r}; choose from {CHANNEL_KINDS}"
            )
        self.n_params = self.state_size + self.channel_size

    def _complex(self, flat, shape):
        half = flat.size // 2
        return (flat[:half] + 1j * flat[half:]).reshape(shape)

    def build(self, theta):
        g = self._complex(theta[: self.state_size], (4, self.rank))
        m = g @ dagger(g)
        tr = float(np.trace(m).real)
        rho = m / tr if tr > 1e-30 else np.eye(4, dtype=complex) / 4.0
        raw = theta[self.state_size :]
        eye = np.eye(2)
        if self.kind == "local_unitary":
            ua = _unitary_from_raw(self._complex(raw[:8], (2, 2)))
            ub = _unitary_from_raw(self._complex(raw[8:], (2, 2)))
            ch = KrausChannel((kron(ua, ub),), 4, 4)
        elif self.kind == "local":
            v = _unitary_from_raw(self._complex(raw, (2 * self.env, 2)))
            ops = [
                kron(v[e :: self.env], eye) if self.side == "A" else kron(eye, v[e :: self.env])
                for e in range(self.env)
            ]
            ch = KrausChannel(tuple(ops), 4, 4)
        elif self.kind == "one_way_locc":
            v = _unitary_from_raw(self._complex(raw[: 8 * self.m], (2 * self.m, 2)))
            ops = []
            for i in range(self.m):
                u = _unitary_from_raw(
                    self._complex(raw[8 * self.m + 8 * i : 8 * self.m + 8 * (i + 1)], (2, 2))
                )
                ops.append(kron(v[i :: self.m], u))
            ch = KrausChannel(tuple(ops), 4, 4)
        else:  # ppt
            g = self._complex(raw, (16, 16))
            j = g @ dagger(g)
            tr_j = float(np.trace(j).real)
            if tr_j <= 1e-30:
                j = np.eye(16, dtype=complex)
                tr_j = 16.0
            _, ch = project_to_ppt_channel(4.0 * j / tr_j)
        return rho, ch


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
    joint (state, channel) parameter vector.

    Accept-on-improvement Gaussian steps; the report's ``max_gap`` is the
    best ``f`` found.  A best value above ``tol`` is a finding: a candidate
    refutation of monotonicity, recorded with its state and channel.
    """
    restarts = int(restarts)
    steps = int(steps)
    if restarts < 1 or steps < 0:
        raise OutOfRange("need restarts >= 1 and steps >= 0")
    t0 = time.perf_counter()
    children = np.random.SeedSequence(int(seed)).spawn(restarts)

    def climb(child):
        rng = np.random.default_rng(child)
        space = _SearchSpace(channel_kind, rank, rng)
        theta = rng.standard_normal(space.n_params)
        rho, ch = space.build(theta)
        best = binegativity(apply(ch, rho)) - binegativity(rho)
        best_theta = theta
        for _ in range(steps):
            cand = best_theta + step_size * rng.standard_normal(space.n_params)
            rho, ch = space.build(cand)
            f = binegativity(apply(ch, rho)) - binegativity(rho)
            if f > best:
                best = f
                best_theta = cand
        return best, best_theta, space

    outcomes = [climb(child) for child in children]
    best_idx = max(range(len(outcomes)), key=lambda i: outcomes[i][0])
    best_f, best_theta, best_space = outcomes[best_idx]
    violations = []
    if best_f > tol:
        rho, ch = best_space.build(best_theta)
        violations.append(
            ViolationRecord(
                "monotonicity",
                float(best_f),
                int(seed),
                best_idx,
                serialize.complex_matrix_to_json(rho),
                channel=ch.to_json_dict(),
            )
        )
    report = SweepReport(
        "counterexample_search",
        restarts * (steps + 1),
        len(violations),
        float(best_f),
        int(seed),
        {
            "channel_kind": channel_kind,
            "restarts": restarts,
            "steps": steps,
            "step_size": float(step_size),
            "rank": int(rank),
            "tol": tol,
        },
        violations,
    )
    return _finish(report, t0)


def _scatter_triples(n, rank, seed):
    def work(rng, size):
        rho = random_mixed(rank, rng, size=size)
        return concurrence(rho), negativity(rho), binegativity(rho)

    results = _run_chunks(work, seed, int(n))
    c = np.concatenate([r[0] for r in results])
    nu = np.concatenate([r[1] for r in results])
    n2 = np.concatenate([r[2] for r in results])
    return c, nu, n2


def figure_data(which, n, rank=2, seed=42, out_dir="."):
    """Emit scatter and bound-curve CSV data for one of the three plots.

    * fig1: (c, n2) scatter; curves n2 = c and the sigma_mems lower curve.
    * fig2: (nu, n2) scatter; curves n2 = nu and the fixed-nu lower curve.
    * fig3: (c, c - nu, nu - n2) scatter; the two-sided region surface on a
      50 x 50 feasible (c, nu) grid, the sigma_mems curve, and the segment
      of states sharing (c, nu) = (1/2, 3/8).

    Returns the list of file paths written.
    """
    if which not in ("fig1", "fig2", "fig3"):
        raise OutOfRange(f"unknown figure {which!r}; choose fig1, fig2 or fig3")
    os.makedirs(out_dir, exist_ok=True)
    c, nu, n2 = _scatter_triples(n, rank, seed)
    paths = []

    def emit(name, header, rows):
        path = os.path.join(out_dir, name)
        serialize.write_csv(path, header, rows)
        paths.append(path)

    grid = np.linspace(0.0, 1.0, 201)
    if which == "fig1":
        emit("fig1_scatter.csv", ["c", "n2"], zip(c, n2))
        emit(
            "fig1_bounds.csv",
            ["c", "lower", "upper"],
            zip(grid, bineg_mems(grid), grid),
        )
    elif which == "fig2":
        emit("fig2_scatter.csv", ["nu", "n2"], zip(nu, n2))
        emit(
            "fig2_bounds.csv",
            ["nu", "lower", "upper"],
            zip(grid, bineg_lower_given_nu(grid), grid),
        )
    else:
        emit(
            "fig3_scatter.csv",
            ["c", "c_minus_nu", "nu_minus_n2"],
            zip(c, c - nu, nu - n2),
        )
        rows = []
        for ci in np.linspace(0.02, 0.98, 50):
            floor = nu_of_c(ci)
            for nj in np.linspace(floor, ci, 52)[1:-1]:
                low, up = region_bounds(ci, nj, validate=False)
                rows.append((ci, nj, ci - nj, nj - up, nj - low))
        emit(
            "fig3_region.csv",
            ["c", "nu", "c_minus_nu", "nu_minus_n2_min", "nu_minus_n2_max"],
            rows,
        )
        mems_c = np.linspace(0.0, 1.0, 201)
        mems_nu = nu_of_c(mems_c)
        emit(
            "fig3_mems.csv",
            ["c", "c_minus_nu", "nu_minus_n2"],
            zip(mems_c, mems_c - mems_nu, mems_nu - bineg_mems(mems_c)),
        )
        lo, hi = 3.0 / 400.0, 1.0 / 54.0
        emit(
            "fig3_segment.csv",
            ["c", "c_minus_nu", "nu_minus_n2"],
            [(0.5, 0.125, lo + t * (hi - lo)) for t in np.linspace(0.0, 1.0, 21)],
        )
    return paths


def recompute_gap(record):
    """Recompute a violation record's observed gap from its serialized state
    (and channel), for audit round-trips."""
    rho = serialize.complex_matrix_from_json(record.state)
    kind = record.kind
    if kind == "monotonicity":
        ch = KrausChannel.from_json_dict(record.channel)
        return float(binegativity(apply(ch, rho)) - binegativity(rho))
    if kind == "closed_form":
        if record.params is None:
            raise OutOfRange("a closed_form record needs its (p, q, r) params")
        triple, _ = closed_form_pqr(
            float(record.params["p"]), float(record.params["q"]), float(record.params["r"])
        )
        return float(
            max(
                abs(concurrence(rho) - triple.c),
                abs(negativity(rho) - triple.nu),
                abs(binegativity(rho) - triple.n2),
            )
        )
    c = concurrence(rho)
    nu = negativity(rho)
    n2 = binegativity(rho)
    if kind == "ordering":
        return float(max(n2 - nu, nu - c))
    gaps = _bound_gaps(c, nu, n2)
    if kind in gaps:
        return float(gaps[kind])
    raise OutOfRange(f"cannot recompute gap for record kind {record.kind!r}")
