"""Dense linear algebra for small complex Hermitian matrices.

Every function accepts stacked input: an array of shape ``(..., n, n)`` is
treated as a batch of matrices and the result keeps the leading axes.  The
Monte Carlo sweeps rely on this to push 10^5 states through the measure
pipeline in a handful of vectorized calls.

Tolerances follow one ladder: 1e-12 for raw decompositions, 1e-11 for
deciding that an eigenvalue counts as zero.  The zero cut is relative to
``max(1, ||M||_F)`` so that rescaling a matrix cannot promote rounding noise
to a spurious negative eigenvalue.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, OutOfRange, WrongDimension

HERMITICITY_TOL = 1e-12
ZERO_EIG_TOL = 1e-11


def dagger(m):
    """Conjugate transpose over the trailing two axes."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def trace(m):
    """Trace over the trailing two axes."""
    return np.trace(m, axis1=-2, axis2=-1)


def frobenius_norm(m):
    """Frobenius norm per matrix in the stack."""
    return np.asarray(np.linalg.norm(m, axis=(-2, -1)))


def frobenius_distance(a, b):
    """Frobenius norm of ``a - b``, batched over leading axes."""
    return frobenius_norm(np.asarray(a) - np.asarray(b))


def kron(a, b):
    """Kronecker product on the trailing two axes.

    Unlike :func:`numpy.kron` this broadcasts over leading batch axes, so a
    stack of left factors and a stack of right factors combine elementwise
    into a stack of product operators.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    ra, ca = a.shape[-2:]
    rb, cb = b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (ra * rb, ca * cb))


def check_hermitian(m, tol=HERMITICITY_TOL):
    """Raise :class:`OutOfRange` on a non-finite entry and :class:`NotHermitian`
    unless ``||M - M^dagger||_F <= tol`` for every matrix in the stack."""
    if not np.isfinite(m).all():
        raise OutOfRange("matrix entries must be finite")
    worst = float(np.max(frobenius_distance(m, dagger(m))))
    if worst > tol:
        raise NotHermitian(
            f"Hermiticity defect {worst:.3e} exceeds tolerance {tol:.1e}"
        )


def zero_threshold(m):
    """Magnitude below which an eigenvalue of ``m`` counts as zero.

    Equals ``ZERO_EIG_TOL * max(1, ||m||_F)`` per matrix in the stack.
    """
    return ZERO_EIG_TOL * np.maximum(1.0, frobenius_norm(m))


def hermitian_eig(m):
    """Diagonalize a Hermitian matrix or a stack of them, after checking it
    with :func:`check_hermitian`.

    Returns ``(w, v)``: eigenvalues ``(..., n)`` in ascending order, and
    ``(..., n, n)`` eigenvectors with column ``[..., :, k]`` the unit
    eigenvector for ``w[..., k]``.
    """
    m = np.asarray(m, dtype=complex)
    check_hermitian(m)
    return np.linalg.eigh(m)


def negative_part(m):
    """PSD matrix collecting the negative spectrum of a Hermitian input.

    Satisfies ``m = negative_part(-m) - negative_part(m)`` up to the dropped
    sliver of near-zero eigenvalues.  Eigenvalues above ``-zero_threshold(m)``
    are discarded outright, so a matrix that is PSD up to rounding has
    negative part exactly zero; this is what keeps separable states at
    negativity 0.0 rather than 1e-17.
    """
    m = np.asarray(m, dtype=complex)
    w, v = hermitian_eig(m)
    cut = np.asarray(zero_threshold(m))
    w = np.where(w < -cut[..., None], -w, 0.0)
    return (v * w[..., None, :]) @ dagger(v)


def transpose_factors(m, dims, which):
    """Transpose selected tensor factors of an operator on a product space.

    Parameters
    ----------
    m : array_like, shape (..., d, d) with d = prod(dims)
    dims : sequence of int
        Factor dimensions in tensor order.
    which : sequence of int
        Indices of the factors to transpose.

    Raises :class:`WrongDimension` when the trailing shape is not ``(d, d)``.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    d = 1
    for f in dims:
        d *= f
    if m.shape[-2:] != (d, d):
        raise WrongDimension(
            f"expected trailing shape ({d}, {d}) for dims {dims}, got {m.shape}"
        )
    lead = m.ndim - 2
    nf = len(dims)
    t = m.reshape(m.shape[:-2] + dims + dims)
    axes = list(range(lead + 2 * nf))
    for f in which:
        i, j = lead + f, lead + nf + f
        axes[i], axes[j] = axes[j], axes[i]
    return t.transpose(axes).reshape(m.shape)


def partial_transpose(m):
    """Transpose the second (B) tensor factor of a two-qubit operator:
    ``transpose_factors(m, (2, 2), (1,))``.

    Basis order ``|00>, |01>, |10>, |11>``; entry ``((a,b),(a',b'))`` maps to
    the old entry at ``((a,b'),(a',b))``.  Applying it twice returns the
    input exactly.  Works on stacks of shape ``(..., 4, 4)`` and raises
    :class:`WrongDimension` for any other trailing shape.
    """
    return transpose_factors(m, (2, 2), (1,))

