"""Quantum channels in Kraus and Choi form, plus the samplers used by the
monotonicity sweeps.

Choi convention: ``J = sum_ij |i><j| (x) E(|i><j|)`` with the input factor
first, so ``J`` acts on input (x) output and tracing out the output factor
of a trace-preserving map gives the input identity.  For two-qubit channels
the 16-dimensional space factors as (A_in, B_in, A_out, B_out); a channel is
PPT when transposing the two B factors of its Choi matrix leaves it PSD.
Every product channel E_A (x) E_B passes that test and SWAP fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotTracePreserving,
    OutOfRange,
    ParseError,
    WrongDimension,
)
from .linalg import check_hermitian, dagger, frobenius_norm, kron, transpose_factors
from .states import _check_count, _gaussian_matrices, _gram_state, as_generator

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as a finite Kraus family.

    Operators have shape ``(dim_out, dim_in)``, each a copy that owns its
    data; the constructor enforces ``sum_k K_k^dagger K_k = I`` to
    ``COMPLETENESS_TOL``.
    """

    kraus_ops: tuple
    dim_in: int
    dim_out: int

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise DimensionMismatch("need at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus operator of shape {k.shape}, expected "
                    f"({self.dim_out}, {self.dim_in})"
                )
        object.__setattr__(self, "kraus_ops", ops)
        _check_complete(np.stack(ops))

    def to_json_dict(self):
        """The dict ``serialize.dump`` writes; matrices are arrays."""
        return {"dim_in": self.dim_in, "dim_out": self.dim_out, "kraus": list(self.kraus_ops)}

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of :meth:`to_json_dict` as written, each operator parsed
        once: ParseError for input that is not a JSON object, a missing key
        or a ``kraus`` that is not a list, and OutOfRange unless both
        dimensions are integers >= 1."""
        if not isinstance(data, dict):
            raise ParseError(f"a Kraus channel is a JSON object, got {type(data).__name__}")
        try:
            kraus = data["kraus"]
            if not isinstance(kraus, list):
                raise ParseError(f"a Kraus channel's 'kraus' is a list, got {type(kraus).__name__}")
            ops = [serialize.complex_matrix_from_json(k) for k in kraus]
            dims = [_check_count(name, data[name], 1) for name in ("dim_in", "dim_out")]
        except KeyError as exc:
            raise ParseError(f"a Kraus channel needs its {exc.args[0]!r}") from None
        return cls(tuple(ops), *dims)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi form of a channel, input factor first.

    The constructor checks Hermiticity and positivity to 1e-10, and the
    trace-preserving condition (output partial trace = input identity) to
    1e-9.
    """

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def __post_init__(self):
        j = np.asarray(self.matrix, dtype=complex)
        d = self.dim_in * self.dim_out
        if j.shape != (d, d):
            raise WrongDimension(f"Choi matrix of shape {j.shape}, expected ({d}, {d})")
        object.__setattr__(self, "matrix", j)
        _check_choi(j, self.dim_in, self.dim_out)


def _check_choi(j, dim_in, dim_out):
    """Raise :class:`NotHermitian` unless every Choi matrix in a stack
    ``(..., d, d)`` is Hermitian to 1e-10, and :class:`NotTracePreserving`
    unless each is PSD to 1e-10 and its output partial trace is the input
    identity to 1e-9."""
    check_hermitian(j, 1e-10)
    low = float(np.linalg.eigvalsh(j)[..., 0].min())
    if low < -1e-10:
        raise NotTracePreserving(f"Choi eigenvalue {low:.3e} below -1e-10")
    defect = float(np.abs(_trace_out(j, dim_in, dim_out) - np.eye(dim_in)).max())
    if defect > 1e-9:
        raise NotTracePreserving(f"output partial trace deviates from identity by {defect:.3e}")


def _check_complete(kraus):
    """Raise :class:`NotTracePreserving` unless ``sum_k K_k^dagger K_k = I``
    to ``COMPLETENESS_TOL`` for every Kraus family in a stack of shape
    ``(..., count, dim_out, dim_in)``, each family's sum one matmul of its
    operators stacked in a column (:func:`_column`).  Zero padding adds
    nothing to the sum."""
    column = _column(kraus)
    defect = float(np.abs(dagger(column) @ column - np.eye(kraus.shape[-1])).max())
    if not defect <= COMPLETENESS_TOL:
        raise NotTracePreserving(f"sum K^dagger K deviates from identity by {defect:.3e}")


def _column(kraus):
    """Each family of a Kraus stack ``(..., count, d_out, d_in)`` as one
    ``(count d_out, d_in)`` matrix, its operators stacked top to bottom."""
    return kraus.reshape(kraus.shape[:-3] + (-1, kraus.shape[-1]))


def _trace_out(j, dim_in, dim_out):
    """Partial trace over the output factor, batched over leading axes."""
    split = j.shape[:-2] + (dim_in, dim_out, dim_in, dim_out)
    return np.einsum("...iojo->...ij", j.reshape(split))


def apply(ch, rho):
    """Channel action ``sum_k K rho K^dagger``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim_in, ch.dim_in):
        raise DimensionMismatch(
            f"state of shape {rho.shape} fed to a channel with dim_in {ch.dim_in}"
        )
    return _apply_kraus(np.stack(ch.kraus_ops), rho)


def _apply_kraus(kraus, rho):
    """``sum_k K_k rho K_k^dagger`` for a Kraus stack ``(..., count, d_out,
    d_in)`` and states ``(..., d_in, d_in)``, in two batched matmuls.  The
    first takes each family's operators stacked in a column to the blocks
    ``K_k rho``; the second multiplies those, laid side by side, with the
    column of the ``K_k^dagger``, so its inner products sum over the Kraus
    axis.

    Zero operators padding a family to the stack's count add exact zeros at
    the end of each inner product, so each item comes out bit for bit as
    its unpadded family gives it.
    """
    count, d_out, d_in = kraus.shape[-3:]
    blocks = _column(kraus) @ rho
    lead = blocks.shape[:-2]
    side = np.swapaxes(blocks.reshape(lead + (count, d_out, d_in)), -3, -2)
    return side.reshape(lead + (d_out, count * d_in)) @ _column(dagger(kraus))


# a unit column is dependent on the earlier ones when less than this of its
# norm lies outside their span: a hundred times and more the rounding of a
# projection in up to 16 dimensions
_INDEPENDENT = 1e-13


def _isometry(g):
    """Haar map of complex Gaussian matrices ``(..., rows, cols)``, rows >=
    cols: classical Gram-Schmidt applied twice (CGS2) to the columns, each
    first scaled to norm 1.  That is the Q of the QR decomposition whose R
    has a positive diagonal, which maps Ginibre matrices to the Haar
    measure (Mezzadri, Notices AMS 54, 592 (2007)).  Raises
    :class:`OutOfRange` if a column is zero, its norm is not finite, or
    less than ``_INDEPENDENT`` of it lies outside the span of the earlier
    columns."""
    q = np.swapaxes(np.asarray(g, dtype=complex), -1, -2).copy()  # a row per column
    size = np.sqrt(np.vecdot(q, q).real)
    if not (np.isfinite(size) & (size > 0.0)).all():
        raise OutOfRange("a Haar map needs finite nonzero columns")
    q /= size[..., None]
    for j in range(1, q.shape[-2]):
        v, done = q[..., j, :], q[..., :j, :]
        for _ in range(2):
            v -= np.matvec(np.swapaxes(done, -1, -2), np.vecdot(done, v[..., None, :]))
        r = np.sqrt(np.vecdot(v, v).real)
        if not (r > _INDEPENDENT).all():
            raise OutOfRange(f"a Haar map needs independent columns; column {j} depends on the earlier ones")
        v /= r[..., None]
    return np.swapaxes(q, -1, -2)


def _stinespring_kraus(v, count):
    """Kraus operators ``v[e::count]`` of an isometry ``(..., 2 count, 2)``
    whose rows are ordered (system, environment), stacked on a new axis
    before the last two: ``(..., count, 2, 2)``."""
    return np.swapaxes(v.reshape(v.shape[:-2] + (2, count, 2)), -3, -2)


def _local_kraus(raw, env_dim, on_a):
    """Kraus stack ``(..., env_dim, 4, 4)`` of ``E (x) id`` where ``on_a``
    holds, else ``id (x) E``, from ``8 env_dim`` real Gaussians per item:
    those of E's Stinespring isometry of one qubit into system (x)
    environment.  ``on_a`` is a bool or a bool array over the items."""
    v = _isometry(_gaussian_matrices(raw, (2 * env_dim, 2)))
    k = _stinespring_kraus(v, env_dim)
    eye = np.eye(2)
    return np.where(np.asarray(on_a)[..., None, None, None], kron(k, eye), kron(eye, k))


def _one_way_locc_kraus(raw, n_outcomes):
    """Kraus stack ``(..., n_outcomes, 4, 4)`` of ``{M_i (x) V_i}`` from
    ``16 n_outcomes`` real Gaussians per item: ``8 n_outcomes`` for the
    isometry behind A's instrument, then 8 for each outcome's unitary on B.
    One outcome gives the local unitary pair ``U_A (x) U_B``."""
    raw = np.asarray(raw, dtype=float)
    m = n_outcomes
    v = _isometry(_gaussian_matrices(raw[..., : 8 * m], (2 * m, 2)))
    u = _isometry(_gaussian_matrices(raw[..., 8 * m :].reshape(raw.shape[:-1] + (m, 8)), (2, 2)))
    return kron(_stinespring_kraus(v, m), u)


def haar_unitary(dim, seed, size=None):
    """Haar-distributed unitaries: the Gram-Schmidt map :func:`_isometry` of
    a complex Gaussian matrix.  ``size=k`` returns a stack ``(k, dim, dim)``.
    """
    dim = _check_count("dim", dim, 1)
    rng = as_generator(seed)
    shape = (dim, dim) if size is None else (_check_count("size", size, 0), dim, dim)
    return _isometry(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def haar_isometry(dim_in, dim_out, seed):
    """Haar-random isometry: ``dim_in`` orthonormal columns in dimension
    ``dim_out`` (requires ``dim_out >= dim_in``)."""
    dim_in, dim_out = _check_count("dim_in", dim_in, 1), _check_count("dim_out", dim_out, 1)
    if dim_out < dim_in:
        raise DimensionMismatch(f"no isometry from dim {dim_in} into dim {dim_out}")
    rng = as_generator(seed)
    shape = (dim_out, dim_in)
    return _isometry(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_local_unitary_pair(seed):
    """Single-Kraus channel ``U_A (x) U_B`` with independent Haar factors:
    the one-outcome :func:`one_way_locc_channel`."""
    return one_way_locc_channel(1, seed)


def random_local_channel(side, env_dim, seed):
    """One-sided channel ``E (x) id`` (side "A") or ``id (x) E`` (side "B").

    ``E`` comes from a Haar-random Stinespring isometry of one qubit into
    system (x) environment with ``env_dim`` in 1..4; tracing the environment
    leaves ``env_dim`` Kraus operators.  ``env_dim=1`` is a plain random
    unitary on that side.
    """
    if side not in ("A", "B"):
        raise OutOfRange(f"side must be 'A' or 'B', got {side!r}")
    env_dim = _check_count("env_dim", env_dim, 1, 4)
    raw = as_generator(seed).standard_normal(8 * env_dim)
    return KrausChannel(tuple(_local_kraus(raw, env_dim, side == "A")), 4, 4)


def one_way_locc_channel(n_outcomes, seed):
    """Measure side A, communicate the outcome, rotate side B.

    The A instruments ``{M_i}`` are the ``n_outcomes`` Kraus operators of a
    Haar-random isometry, and each outcome triggers an independent Haar
    unitary ``V_i`` on B; the joint Kraus family is ``{M_i (x) V_i}``.
    ``n_outcomes=1`` gives a product of independent Haar unitaries
    ``U_A (x) U_B``, which is :func:`random_local_unitary_pair`.
    """
    n_outcomes = _check_count("n_outcomes", n_outcomes, 1)
    raw = as_generator(seed).standard_normal(16 * n_outcomes)
    return KrausChannel(tuple(_one_way_locc_kraus(raw, n_outcomes)), 4, 4)


def choi_from_kraus(ch):
    """Choi matrix of a Kraus channel (input factor first)."""
    d = ch.dim_in * ch.dim_out
    j = np.zeros((d, d), dtype=complex)
    for k in ch.kraus_ops:
        v = np.transpose(k).reshape(-1)
        j += np.outer(v, np.conjugate(v))
    return ChoiMatrix(j, ch.dim_in, ch.dim_out)


def kraus_from_choi(choi):
    """Kraus operators from the Choi eigendecomposition, discarding
    eigenvalues at or below 1e-12."""
    kraus, _ = _kraus_stack(choi.matrix[None], choi.dim_in, choi.dim_out)
    return KrausChannel(tuple(kraus[0]), choi.dim_in, choi.dim_out)


def _kraus_stack(j, dim_in, dim_out):
    """Kraus families of a stack of Choi matrices ``(n, d, d)``, from one
    batched eigensolve.

    Item i keeps its ``counts[i]`` eigenvalues above 1e-12 in ascending
    order, each as ``sqrt(lam)`` times its eigenvector read as a
    ``(dim_in, dim_out)`` matrix and transposed.  Returns ``(kraus,
    counts)``: ``kraus`` has shape ``(n, K, dim_out, dim_in)`` with K the
    largest count, zero-padded, and holds each operator column-major, the
    layout the transpose gives it.  Raises :class:`NotTracePreserving` if
    an item has no eigenvalue above 1e-12.
    """
    w, v = np.linalg.eigh((j + dagger(j)) / 2.0)
    counts = (w > 1e-12).sum(axis=-1)
    if not counts.all():
        raise NotTracePreserving("Choi matrix has no positive spectrum")
    d = w.shape[-1]
    slot = np.arange(counts.max(initial=0))
    kept = slot < counts[:, None]
    # the kept eigenvalues are the last counts[i]; padding slots repeat the top one
    take = np.minimum(d - counts[:, None] + slot, d - 1)
    lam = np.where(kept, np.take_along_axis(w, take, axis=-1), 0.0)
    vecs = np.swapaxes(np.take_along_axis(v, take[:, None, :], axis=-1), -1, -2)
    ops = np.where(kept[..., None], np.sqrt(lam)[..., None] * vecs, 0.0)
    # C order first, so that each operator's transpose is column-major
    ops = np.ascontiguousarray(ops).reshape(len(w), len(slot), dim_in, dim_out)
    return np.swapaxes(ops, -1, -2), counts


_PPT_DIMS = (2, 2, 2, 2)
_PPT_FACTORS = (1, 3)  # B_in and B_out


def is_ppt_channel(choi):
    """PPT test for a two-qubit to two-qubit channel: transpose the B
    factors of input and output on the Choi matrix and check it stays PSD,
    with no eigenvalue below -1e-10.  Raises :class:`NotHermitian` for an
    array that is not Hermitian to 1e-10, of which ``eigvalsh`` would read
    one triangle only."""
    j = choi.matrix if isinstance(choi, ChoiMatrix) else np.asarray(choi, dtype=complex)
    if j.shape != (16, 16):
        raise WrongDimension(f"expected a 16x16 Choi matrix, got {j.shape}")
    check_hermitian(j, 1e-10)
    g = transpose_factors(j, _PPT_DIMS, _PPT_FACTORS)
    return bool(np.linalg.eigvalsh(g)[0] >= -1e-10)


def _proj_psd(j):
    """PSD projection of the Hermitian part of ``j``, and the eigenvectors
    of that part."""
    w, v = np.linalg.eigh((j + dagger(j)) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * w[..., None, :]) @ dagger(v), v


def _proj_ppt(j):
    """PPT projection of ``j``, and the eigenvectors of its PPT transform."""
    p, v = _proj_psd(transpose_factors(j, _PPT_DIMS, _PPT_FACTORS))
    return transpose_factors(p, _PPT_DIMS, _PPT_FACTORS), v


def _proj_tp(j):
    delta = _trace_out(j, 4, 4) - np.eye(4)
    return j - kron(delta, np.eye(4)) / 4


def _cone_defects(j):
    """Per-matrix distances below zero of the lowest eigenvalue of ``j`` and
    of its PPT transpose."""
    low = np.linalg.eigvalsh((j + dagger(j)) / 2.0)[..., 0]
    g = transpose_factors(j, _PPT_DIMS, _PPT_FACTORS)
    low_g = np.linalg.eigvalsh((g + dagger(g)) / 2.0)[..., 0]
    return np.maximum(0.0, -low), np.maximum(0.0, -low_g)


# bound on the rounding of a Rayleigh quotient and of eigvalsh, relative
# to max(1, ||g||_F): about 30 times the error of either, some 16 eps ||g||
_CERTIFICATE_MARGIN = 1e-13


def _fails_ppt(j, basis, tol):
    """Items whose PPT transform surely has an eigenvalue below ``-tol``,
    proved without an eigensolve.

    Every Rayleigh quotient of a Hermitian matrix bounds its lowest
    eigenvalue from above.  So if the least quotient over the orthonormal
    columns of ``basis`` lies below ``-tol`` by more than the margin, the
    exact test of :func:`_cone_defects` fails on that item as well.
    """
    g = transpose_factors(j, _PPT_DIMS, _PPT_FACTORS)
    quotient = (basis.conj() * (g @ basis)).real.sum(axis=-2).min(axis=-1)
    return quotient < -(tol + _CERTIFICATE_MARGIN * np.maximum(1.0, frobenius_norm(g)))


def _feasible(j, basis, tol):
    """Per-item stopping test: both cone defects at most ``tol``, 1e-12 in
    :func:`_ppt_choi`.  The exact test runs only on the items that
    :func:`_fails_ppt` does not reject on ``basis``.  Every iterate is an
    output of ``P_tp``, whose partial trace is the identity to rounding, so
    the test leaves it out; :func:`_check_choi` checks it on the results."""
    out = np.zeros(len(j), dtype=bool)
    open_ = np.flatnonzero(~_fails_ppt(j, basis, tol))
    d_psd, d_ppt = _cone_defects(j[open_])
    out[open_] = (d_psd <= tol) & (d_ppt <= tol)
    return out


# Anderson memory: how many past residual differences a round combines
AA_MEMORY = 2


def _dykstra_step(state, k):
    """Dykstra round ``k``, Anderson-accelerated (type II, Walker & Ni 2011).

    ``state`` is ``[x, start, pair, ring, gram]``, updated in place.
    The plain round ``G`` maps the Hermitian PSD and PPT corrections
    ``pair`` through ``x = P_tp(start - p - q)``, the two cone projections
    and P_tp.  The new pair is ``G - dG gamma``, ``gamma`` the least-squares
    fit of ``f = G - pair`` by the differences ``df`` in ``ring``, from
    their Gram matrix ``gram`` under ``Re tr(A^dagger B)``: the dot product
    of the matrices' float views.  If its determinant is at most 1e-12
    times its diagonal's product, or ``gamma`` is not finite, the item
    takes the plain step.
    """
    start, pair, ring, gram = state[1:]
    state[0] = None  # the last iterate, freed for the round's peak memory
    fg = np.empty_like(ring[:, :, 0])  # this round's f and G
    shifted = pair[:, 0] + _proj_tp(start - pair[:, 0] - pair[:, 1])
    x, _ = _proj_psd(shifted)
    np.subtract(shifted, x, out=fg[:, 1, 0])
    shifted = x
    shifted += pair[:, 1]
    x, basis = _proj_ppt(shifted)
    np.subtract(shifted, x, out=fg[:, 1, 1])
    state[0] = _proj_tp(x)
    np.subtract(fg[:, 1], pair, out=fg[:, 0])
    n = len(fg)
    d_f, d_g = (ring[:, i].reshape(n, AA_MEMORY, -1).view(float) for i in (0, 1))
    if k:  # the last round's slot holds its f and G
        slot = (k - 1) % AA_MEMORY
        np.subtract(fg, ring[:, :, slot], out=ring[:, :, slot])
        gram[:, slot] = gram[:, :, slot] = (d_f @ d_f[:, slot, :, None])[..., 0]
    ok = np.linalg.det(gram) > 1e-12 * np.diagonal(gram, 0, 1, 2).prod(axis=1)
    rhs = d_f @ fg[:, 0].reshape(n, -1).view(float)[..., None]
    gamma = np.linalg.solve(np.where(ok[:, None, None], gram, np.eye(AA_MEMORY)), rhs)[..., 0]
    step = gamma[:, None, :] @ d_g
    step[~(ok & np.isfinite(gamma).all(axis=-1))] = 0.0
    np.subtract(fg[:, 1], step.view(complex).reshape(pair.shape), out=pair)
    ring[:, :, k % AA_MEMORY] = fg
    return basis


def _ppt_choi(stack, max_iter=10000):
    """Accelerated Dykstra projection (:func:`_dykstra_step`) of finite
    starts ``(n, 16, 16)`` until both cone defects of each item are at most
    1e-12 (:func:`_feasible`); returns the Hermitian parts of the results.

    An item leaves the stack in the round its test first passes, so it gets
    exactly the operations, eigensolves included, of a run on that item
    alone.  Raises :class:`NoConvergence` when an item is still running
    after ``max_iter`` rounds.  See :func:`project_to_ppt_channel`."""
    n, m = len(stack), AA_MEMORY
    out, active = np.empty_like(stack), np.arange(n)
    # one list, so that no name keeps the arrays the loop has replaced
    pair, ring = (n, 2, 16, 16), (n, 2, m, 2, 16, 16)
    state = [stack, stack, np.zeros(pair, complex), np.zeros(ring, complex), np.tile(np.eye(m), (n, 1, 1))]
    k = 0
    while active.size:
        if k == max_iter:
            raise NoConvergence(f"Dykstra did not reach tolerance 1.0e-12 in {max_iter} iterations")
        basis = _dykstra_step(state, k)
        k += 1
        finished = _feasible(state[0], basis, 1e-12)
        out[active[finished]] = state[0][finished]
        active = active[~finished]
        state[:] = [s[~finished] for s in state]
    return (out + dagger(out)) / 2.0


def _ppt_kraus(starts, max_iter=10000):
    """``(choi, kraus, counts)`` of :func:`_ppt_choi` and :func:`_kraus_stack`
    on finite starts ``(n, 16, 16)``, each item checked as :class:`ChoiMatrix`
    and :class:`KrausChannel` check it."""
    choi = _ppt_choi(starts, max_iter)
    if len(choi):  # the stacked checks need an item
        _check_choi(choi, 4, 4)
    kraus, counts = _kraus_stack(choi, 4, 4)
    if len(choi):
        _check_complete(kraus)
    return choi, kraus, counts


def project_to_ppt_channel(start, max_iter=10000):
    """Map Hermitian 16x16 start matrices into the set of two-qubit
    PPT-channel Choi matrices by Dykstra's projection algorithm.

    The constraint set is the intersection of the PSD cone, the PPT cone,
    and the trace-preserving affine subspace; the Dykstra rounds are
    Anderson-accelerated (:func:`_dykstra_step`) and each ends on the
    trace-preserving step, so the recovered Kraus family is complete to
    machine precision.  The rounds stop at the first iterate whose cone
    defects are at most a fixed 1e-12: the test checks feasibility only, not
    the distance to the projection, so the result is a feasible point near
    the Euclidean projection of the start, not that projection to 1e-12.  A
    round's stopping test skips the eigensolves of items that Rayleigh
    quotients prove infeasible (:func:`_fails_ppt`), so the result is that
    of the exact test.

    Any finite start is accepted, but convergence is known only near the set:
    PSD starts of trace about 4e-3 to 8 converge within 400 rounds (the
    sampler's have trace 4 and take about 8).  The rounds grow with the
    trace: Ginibre starts of trace 8, 12 and 20 took 44, 85 and 215 rounds
    on average (70, 228 and 1174 at most, of 256 starts each), one of trace
    40 can exhaust 10000 rounds, and one of trace 4000 is still infeasible
    after 10000 rounds and raises :class:`NoConvergence`.

    ``start`` is one matrix or a stack ``(..., 16, 16)``.  A stack is
    projected in one pass with a convergence test per item, and each item
    comes out bit for bit as it would alone.  Returns ``(ChoiMatrix,
    KrausChannel)`` for one matrix and a list of such pairs, in C order of
    the leading axes, for a stack.  Raises :class:`OutOfRange` if a start
    has a non-finite entry or ``max_iter`` is not an integer >= 1, and
    :class:`NoConvergence` if any item runs out of iteration budget.
    """
    max_iter = _check_count("max_iter", max_iter, 1)
    j = np.asarray(start, dtype=complex)
    if j.shape[-2:] != (16, 16):
        raise WrongDimension(f"expected 16x16 start matrices, got {j.shape}")
    if not np.isfinite(j).all():
        raise OutOfRange("start matrices must be finite")
    choi, kraus, counts = _ppt_kraus(j.reshape((-1, 16, 16)), max_iter)
    pairs = [
        (ChoiMatrix(m, 4, 4), KrausChannel(tuple(k[:c]), 4, 4))
        for m, k, c in zip(choi, kraus, counts)
    ]
    return pairs[0] if j.ndim == 2 else pairs


def _ppt_start(raw):
    """Start of the PPT sampler: the Gram state of a 16x16 Ginibre matrix
    scaled to trace 4, a random PSD matrix, from 512 real Gaussians per
    item.  An input whose square has trace below 1e-30 starts from ``I / 4``."""
    return 4.0 * _gram_state(_gaussian_matrices(raw, (16, 16)))


def random_ppt_channel(seed):
    """Sample a PPT channel: :func:`project_to_ppt_channel`, with its fixed
    tolerance 1e-12 and budget of 10000 rounds, of a random PSD matrix of
    trace 4 (a normalized Ginibre square): a feasible point near the
    projection of that start, not the projection to 1e-12.

    Returns ``(ChoiMatrix, KrausChannel)``.
    """
    return project_to_ppt_channel(_ppt_start(as_generator(seed).standard_normal(512)))
