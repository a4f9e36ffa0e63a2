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

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, WrongDimension

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
    """Raise :class:`NotHermitian` unless ``||M - M^dagger||_F <= tol``
    for every matrix in the stack."""
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


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Spectral decomposition with eigenvalues sorted ascending.

    ``eigenvalues`` has shape ``(..., n)``; ``eigenvectors`` has shape
    ``(..., n, n)`` with column ``[..., :, k]`` the unit eigenvector for
    ``eigenvalues[..., k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, check=True):
    """Diagonalize a Hermitian matrix or a stack of them.

    Parameters
    ----------
    m : array_like, shape (..., n, n)
        Hermitian input.
    check : bool
        Verify Hermiticity first; disable only on matrices that are
        Hermitian by construction.

    Returns
    -------
    HermitianEigenSystem
    """
    m = np.asarray(m, dtype=complex)
    if check:
        check_hermitian(m)
    w, v = np.linalg.eigh(m)
    return HermitianEigenSystem(w, v)


def negative_part(m, check=True):
    """PSD matrix collecting the negative spectrum of a Hermitian input.

    Satisfies ``m = negative_part(-m) - negative_part(m)`` up to the dropped
    sliver of near-zero eigenvalues.  Eigenvalues above ``-zero_threshold(m)``
    are discarded outright, so a matrix that is PSD up to rounding has
    negative part exactly zero; this is what keeps separable states at
    negativity 0.0 rather than 1e-17.
    """
    m = np.asarray(m, dtype=complex)
    es = hermitian_eig(m, check=check)
    cut = np.asarray(zero_threshold(m))
    w = np.where(es.eigenvalues < -cut[..., None], -es.eigenvalues, 0.0)
    v = es.eigenvectors
    return (v * w[..., None, :]) @ dagger(v)


def partial_transpose(m):
    """Transpose the second (B) tensor factor of a two-qubit operator.

    Basis order ``|00>, |01>, |10>, |11>``; entry ``((a,b),(a',b'))`` maps to
    the old entry at ``((a,b'),(a',b))``.  Applying it twice returns the
    input exactly.  Works on stacks of shape ``(..., 4, 4)``.
    """
    m = np.asarray(m)
    if m.shape[-2:] != (4, 4):
        raise WrongDimension(f"expected trailing shape (4, 4), got {m.shape}")
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    t = np.swapaxes(t, -3, -1)
    return t.reshape(m.shape)


def transpose_factors(m, dims, which):
    """Transpose selected tensor factors of an operator on a product space.

    Parameters
    ----------
    m : array_like, shape (..., d, d) with d = prod(dims)
    dims : sequence of int
        Factor dimensions in tensor order.
    which : sequence of int
        Indices of the factors to transpose.

    ``transpose_factors(m, (2, 2), (1,))`` equals ``partial_transpose(m)``.
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


def psd_sqrt(m, check=True):
    """Principal square root of a PSD matrix via its spectrum.

    Eigenvalues in ``[-zero_threshold(m), 0)`` are clamped to zero; anything
    more negative raises :class:`NotPSD`.
    """
    m = np.asarray(m, dtype=complex)
    es = hermitian_eig(m, check=check)
    cut = np.asarray(zero_threshold(m))
    if np.any(es.eigenvalues < -cut[..., None]):
        worst = float(np.min(es.eigenvalues))
        raise NotPSD(f"eigenvalue {worst:.3e} below the PSD tolerance")
    w = np.sqrt(np.clip(es.eigenvalues, 0.0, None))
    v = es.eigenvectors
    return (v * w[..., None, :]) @ dagger(v)
