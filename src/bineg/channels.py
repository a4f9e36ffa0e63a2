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

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotTracePreserving,
    OutOfRange,
    WrongDimension,
)
from .linalg import dagger, frobenius_norm, kron, transpose_factors
from .states import as_generator

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map as a finite Kraus family.

    Operators have shape ``(dim_out, dim_in)``; the constructor enforces
    ``sum_k K_k^dagger K_k = I`` to ``COMPLETENESS_TOL``.
    """

    kraus_ops: tuple
    dim_in: int
    dim_out: int

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise DimensionMismatch("need at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus operator of shape {k.shape}, expected "
                    f"({self.dim_out}, {self.dim_in})"
                )
        object.__setattr__(self, "kraus_ops", ops)
        comp = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for k in ops:
            comp += dagger(k) @ k
        defect = float(np.abs(comp - np.eye(self.dim_in)).max())
        if defect > COMPLETENESS_TOL:
            raise NotTracePreserving(
                f"sum K^dagger K deviates from identity by {defect:.3e}"
            )

    def to_json_dict(self):
        return {
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "kraus": [serialize.complex_matrix_to_json(k) for k in self.kraus_ops],
        }

    @classmethod
    def from_json_dict(cls, data):
        ops = [serialize.complex_matrix_from_json(k) for k in data["kraus"]]
        return cls(tuple(ops), int(data["dim_in"]), int(data["dim_out"]))


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi form of a channel, input factor first.

    The constructor checks Hermiticity, positivity to 1e-10, and the
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
        if float(frobenius_norm(j - dagger(j))) > 1e-10:
            raise NotTracePreserving("Choi matrix is not Hermitian")
        low = float(np.linalg.eigvalsh(j)[0])
        if low < -1e-10:
            raise NotTracePreserving(f"Choi eigenvalue {low:.3e} below -1e-10")
        defect = float(
            np.abs(_trace_out(j, self.dim_in, self.dim_out) - np.eye(self.dim_in)).max()
        )
        if defect > 1e-9:
            raise NotTracePreserving(
                f"output partial trace deviates from identity by {defect:.3e}"
            )


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
    k = np.stack(ch.kraus_ops)
    return np.einsum("aij,jl,akl->ik", k, rho, np.conjugate(k))


def haar_unitary(dim, seed, size=None):
    """Haar-distributed unitaries via QR of a complex Gaussian matrix with
    the R-diagonal phase fix.  ``size=k`` returns a stack ``(k, dim, dim)``.
    """
    rng = as_generator(seed)
    shape = (dim, dim) if size is None else (int(size), dim, dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_isometry(dim_in, dim_out, seed):
    """Haar-random isometry: ``dim_in`` orthonormal columns in dimension
    ``dim_out`` (requires ``dim_out >= dim_in``)."""
    if dim_out < dim_in:
        raise DimensionMismatch(f"no isometry from dim {dim_in} into dim {dim_out}")
    rng = as_generator(seed)
    g = rng.standard_normal((dim_out, dim_in)) + 1j * rng.standard_normal(
        (dim_out, dim_in)
    )
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_local_unitary_pair(seed):
    """Single-Kraus channel ``U_A (x) U_B`` with independent Haar factors."""
    rng = as_generator(seed)
    ua = haar_unitary(2, rng)
    ub = haar_unitary(2, rng)
    return KrausChannel((kron(ua, ub),), 4, 4)


def random_local_channel(side, env_dim, seed):
    """One-sided channel ``E (x) id`` (side "A") or ``id (x) E`` (side "B").

    ``E`` comes from a Haar-random Stinespring isometry of one qubit into
    system (x) environment with ``env_dim`` in 1..4; tracing the environment
    leaves ``env_dim`` Kraus operators.  ``env_dim=1`` is a plain random
    unitary on that side.
    """
    if side not in ("A", "B"):
        raise OutOfRange(f"side must be 'A' or 'B', got {side!r}")
    env_dim = int(env_dim)
    if not 1 <= env_dim <= 4:
        raise OutOfRange(f"env_dim must be 1..4, got {env_dim}")
    rng = as_generator(seed)
    # rows of the isometry ordered (system, environment)
    v = haar_isometry(2, 2 * env_dim, rng)
    eye = np.eye(2)
    ops = []
    for e in range(env_dim):
        k = v[e::env_dim]
        ops.append(kron(k, eye) if side == "A" else kron(eye, k))
    return KrausChannel(tuple(ops), 4, 4)


def one_way_locc_channel(n_outcomes, seed):
    """Measure side A, communicate the outcome, rotate side B.

    The A instruments ``{M_i}`` are the ``n_outcomes`` Kraus operators of a
    Haar-random isometry, and each outcome triggers an independent Haar
    unitary ``V_i`` on B; the joint Kraus family is ``{M_i (x) V_i}``.
    ``n_outcomes=1`` degenerates to a local channel on A alone.
    """
    n_outcomes = int(n_outcomes)
    if n_outcomes < 1:
        raise OutOfRange(f"n_outcomes must be >= 1, got {n_outcomes}")
    rng = as_generator(seed)
    v = haar_isometry(2, 2 * n_outcomes, rng)
    ops = []
    for i in range(n_outcomes):
        m_i = v[i::n_outcomes]
        u_i = haar_unitary(2, rng)
        ops.append(kron(m_i, u_i))
    return KrausChannel(tuple(ops), 4, 4)


def choi_from_kraus(ch):
    """Choi matrix of a Kraus channel (input factor first)."""
    d = ch.dim_in * ch.dim_out
    j = np.zeros((d, d), dtype=complex)
    for k in ch.kraus_ops:
        v = np.transpose(k).reshape(-1)
        j += np.outer(v, np.conjugate(v))
    return ChoiMatrix(j, ch.dim_in, ch.dim_out)


def kraus_from_choi(choi, cut=1e-12):
    """Kraus operators from the Choi eigendecomposition, discarding
    eigenvalues at or below ``cut``."""
    j = choi.matrix
    w, v = np.linalg.eigh((j + dagger(j)) / 2.0)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > cut:
            ops.append(math.sqrt(lam) * vec.reshape(choi.dim_in, choi.dim_out).T)
    if not ops:
        raise NotTracePreserving("Choi matrix has no positive spectrum")
    return KrausChannel(tuple(ops), choi.dim_in, choi.dim_out)


_PPT_DIMS = (2, 2, 2, 2)
_PPT_FACTORS = (1, 3)  # B_in and B_out


def is_ppt_channel(choi, tol=1e-10):
    """PPT test for a two-qubit to two-qubit channel: transpose the B
    factors of input and output on the Choi matrix and check it stays PSD."""
    j = choi.matrix if isinstance(choi, ChoiMatrix) else np.asarray(choi, dtype=complex)
    if j.shape != (16, 16):
        raise WrongDimension(f"expected a 16x16 Choi matrix, got {j.shape}")
    g = transpose_factors(j, _PPT_DIMS, _PPT_FACTORS)
    return bool(np.linalg.eigvalsh(g)[0] >= -tol)


def _proj_psd(j):
    w, v = np.linalg.eigh((j + dagger(j)) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * w[..., None, :]) @ dagger(v)


def _proj_ppt(j):
    g = transpose_factors(j, _PPT_DIMS, _PPT_FACTORS)
    return transpose_factors(_proj_psd(g), _PPT_DIMS, _PPT_FACTORS)


def _proj_tp(j, dim_in=4, dim_out=4):
    delta = _trace_out(j, dim_in, dim_out) - np.eye(dim_in)
    return j - kron(delta, np.eye(dim_out)) / dim_out


_PROJECTIONS = (_proj_psd, _proj_ppt, _proj_tp)


def _cone_defects(j):
    """Per-matrix distances below zero of the lowest eigenvalue of ``j`` and
    of its PPT transpose."""
    low = np.linalg.eigvalsh((j + dagger(j)) / 2.0)[..., 0]
    g = transpose_factors(j, _PPT_DIMS, _PPT_FACTORS)
    low_g = np.linalg.eigvalsh((g + dagger(g)) / 2.0)[..., 0]
    return np.maximum(0.0, -low), np.maximum(0.0, -low_g)


def _dykstra_step(state):
    # state is [iterate, one correction per projection], updated in place
    for i, proj in enumerate(_PROJECTIONS, start=1):
        shifted = state[0] + state[i]
        state[0] = proj(shifted)
        state[i] = shifted - state[0]


def _dykstra_done(tol):
    def done(j):
        d_psd, d_ppt = _cone_defects(j)
        d_tp = np.abs(_trace_out(j, 4, 4) - np.eye(4)).max(axis=(-2, -1))
        return (d_psd <= tol) & (d_ppt <= tol) & (d_tp <= tol)

    return done


def _polish_step(state):
    state[0] = _proj_tp(_proj_ppt(_proj_psd(state[0])))


def _polish_done(j):
    d_psd, d_ppt = _cone_defects(j)
    return (d_psd <= 1e-12) & (d_ppt <= 1e-12)


def _iterate_each(state, step, done, budget, failure):
    """Advance a stack of iterates until each one passes its own stopping test.

    ``state`` is a list of arrays sharing the leading item axis, the
    iterates first; ``step`` advances it in place, so that each array is
    freed as soon as its successor exists, and ``done`` maps the iterates
    to a boolean mask.  An item leaves the stack in the round its
    test first passes, so it gets exactly the operations, eigensolves
    included, of a run on that item alone.  Returns the final iterates in
    input order; raises :class:`NoConvergence` with ``failure`` when an
    item is still running after ``budget`` rounds.
    """
    out = np.empty_like(state[0])
    active = np.arange(len(out))
    rounds = 0
    while active.size:
        if rounds >= budget:
            raise NoConvergence(failure)
        rounds += 1
        step(state)
        finished = done(state[0])
        out[active[finished]] = state[0][finished]
        keep = ~finished
        active = active[keep]
        state[:] = [s[keep] for s in state]
    return out


def project_to_ppt_channel(start, max_iter=10000, tol=1e-9):
    """Dykstra-project Hermitian 16x16 start matrices onto the set of
    two-qubit PPT-channel Choi matrices.

    The constraint set is the intersection of the PSD cone, the PPT cone,
    and the trace-preserving affine subspace.  A short plain-projection
    polish then drives the cone defects below 1e-12 and ends on the
    trace-preserving step, so the recovered Kraus family is complete to
    machine precision.

    ``start`` is one matrix or a stack ``(..., 16, 16)``.  A stack is
    projected in one pass with a convergence test per item, and each item
    comes out bit for bit as it would alone.  Returns ``(ChoiMatrix,
    KrausChannel)`` for one matrix and a list of such pairs, in C order of
    the leading axes, for a stack.  Raises :class:`NoConvergence` if any
    item runs out of iteration budget.
    """
    j = np.asarray(start, dtype=complex)
    if j.shape[-2:] != (16, 16):
        raise WrongDimension(f"expected 16x16 start matrices, got {j.shape}")
    stack = j.reshape((-1, 16, 16))
    zero = np.zeros_like(stack)
    stack = _iterate_each(
        [stack, zero, zero, zero],
        _dykstra_step,
        _dykstra_done(tol),
        int(max_iter),
        f"Dykstra did not reach tolerance {tol:.1e} in {max_iter} iterations",
    )
    stack = _iterate_each(
        [stack], _polish_step, _polish_done, 200, "polishing projections stalled above 1e-12"
    )
    stack = (stack + dagger(stack)) / 2.0
    pairs = []
    for m in stack:
        choi = ChoiMatrix(m, 4, 4)
        pairs.append((choi, kraus_from_choi(choi)))
    return pairs[0] if j.ndim == 2 else pairs


def _ppt_start(rng):
    """Start of the PPT sampler: a normalized Ginibre square, a random PSD
    16x16 matrix of trace 4."""
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    j = g @ dagger(g)
    return 4.0 * j / float(np.trace(j).real)


def random_ppt_channel(seed, max_iter=10000, tol=1e-9):
    """Sample a PPT channel: project a random PSD matrix of trace 4 (a
    normalized Ginibre square) onto the PPT-channel set.

    Returns ``(ChoiMatrix, KrausChannel)``.
    """
    start = _ppt_start(as_generator(seed))
    return project_to_ppt_channel(start, max_iter=max_iter, tol=tol)
