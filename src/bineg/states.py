"""Two-qubit state constructors, parametric families, and seeded sampling.

Basis order is ``|00>, |01>, |10>, |11>`` everywhere.  Constructors return
plain complex ndarrays: shape ``(4,)`` for state vectors, ``(4, 4)`` for
density matrices.  Samplers accept either an integer seed or an existing
:class:`numpy.random.Generator`, so sweeps can hand out substreams.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidState, OutOfRange
from .linalg import dagger, frobenius_distance, trace
from .measures import _family_point, _negative_branch, _unit_interval


def projector(psi):
    """Rank-1 projector ``|psi><psi|``; batched over leading axes."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * np.conjugate(psi)[..., None, :]


def phi_q(q):
    """``sqrt(q)|00> + sqrt(1-q)|11>``; an array ``q`` gives a stack ``(..., 4)``."""
    q = _unit_interval("q", q)
    v = np.zeros(q.shape + (4,), dtype=complex)
    v[..., 0], v[..., 3] = np.sqrt(q), np.sqrt(1.0 - q)
    return v


def psi_r(r):
    """``sqrt(r)|01> - sqrt(1-r)|10>``; an array ``r`` gives a stack ``(..., 4)``."""
    r = _unit_interval("r", r)
    v = np.zeros(r.shape + (4,), dtype=complex)
    v[..., 1], v[..., 2] = np.sqrt(r), -np.sqrt(1.0 - r)
    return v


def phi_plus():
    """The Bell state ``(|00> + |11>)/sqrt(2)``."""
    return phi_q(0.5)


def sigma_pqr(p, q, r):
    """Rank-(at most)-2 mixture ``p |phi_q><phi_q| + (1-p) |psi_r><psi_r|``.

    In the computational basis this has diagonal
    ``(pq, (1-p)r, (1-p)(1-r), p(1-q))``, corner entries ``p sqrt(q(1-q))``
    at (0,3)/(3,0) and middle entries ``-(1-p) sqrt(r(1-r))`` at (1,2)/(2,1).

    Array arguments broadcast against each other and give a stack of shape
    ``(..., 4, 4)``; each item equals the scalar call bit for bit.
    """
    p = _unit_interval("p", p)[..., None, None]
    return p * projector(phi_q(q)) + (1.0 - p) * projector(psi_r(r))


def sigma_mems(c):
    """``c |phi+><phi+| + (1-c) |10><10|``.

    Among all states of concurrence ``c`` this family attains the least
    possible negativity, and conjecturally the least binegativity.
    """
    c = _unit_interval("c", c)
    ten = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    return c * projector(phi_plus()) + (1.0 - c) * projector(ten)


def _clamped_sqrt_arg(x):
    # family formulas touch zero at the interval ends; anything clearly
    # negative means the caller left the feasible set
    if x < -1e-12:
        raise OutOfRange(f"square-root argument {x:.3e} is negative")
    return max(x, 0.0)


def _into_unit(name, x):
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise OutOfRange(f"{name} = {x!r} falls outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def boundary_family(c, nu, p):
    """The ``sigma_pqr`` state with concurrence ``c`` and negativity ``nu``
    at mixing parameter ``p``.

    For fixed ``(c, nu)`` with ``nu`` strictly between ``nu_of_c(c)`` and
    ``c``, a one-parameter family of sigma_pqr states realizes exactly that
    measure pair while the binegativity decreases strictly in ``p``.  The
    parameter runs over ``boundary_p_range(c, nu)``; the ends attain the
    conjectured upper (``p_min``) and lower (``p_max``) binegativity limits.

    Raises :class:`InfeasibleRegion` for an unrealizable ``(c, nu)`` pair
    (including the degenerate edge ``c = nu``, which pure states cover) and
    :class:`OutOfRange` for ``p`` outside the interval by more than 1e-12.
    """
    c, nu, p, p_min = map(float, _family_point(float(c), float(nu), float(p)))
    scale = math.sqrt(c * c - nu * nu) / (2.0 * c)
    # q(1-q) = s^2: this form puts q at exactly 1 at p_min, where the
    # rounding of 1 - q would otherwise leave a corner entry of ~1e-8
    s = nu * (p - p_min) / (2.0 * c * p)
    q = 0.5 + math.sqrt(_clamped_sqrt_arg(0.25 - s * s))
    r_arg = (p - 0.5 * (c - nu) - c * (nu + 1.0) / (c - nu)) * (
        p + 0.5 * (c + nu) - c * (nu + 1.0) / (c + nu)
    )
    r = 0.5 + scale / (1.0 - p) * math.sqrt(_clamped_sqrt_arg(r_arg))
    return sigma_pqr(p, _into_unit("q_p", q), _into_unit("r_p", r))


def schmidt(psi):
    """Larger Schmidt coefficient ``mu >= 1/2`` of a two-qubit unit vector."""
    s = np.linalg.svd(np.asarray(psi, dtype=complex).reshape(2, 2), compute_uv=False)
    return min(float(s[0] ** 2), 1.0)


def as_generator(seed):
    """Accept an integer seed or pass an existing Generator through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_pure(seed, size=None):
    """Haar-random state vectors: normalized independent complex Gaussians.

    ``size=None`` gives one vector of shape ``(4,)``; ``size=k`` a stack
    ``(k, 4)``.
    """
    rng = as_generator(seed)
    shape = (4,) if size is None else (int(size), 4)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _gaussian_matrices(raw, shape):
    """Complex matrices of ``shape`` from the real Gaussians on the last axis
    of ``raw``: its first half are the real parts and its second half the
    imaginary parts, each in C order.  That is the order in which
    ``rng.standard_normal(shape) + 1j * rng.standard_normal(shape)`` draws
    them, so a flat draw of ``2 prod(shape)`` normals gives the same matrix."""
    raw = np.asarray(raw, dtype=float)
    half = raw.shape[-1] // 2
    return (raw[..., :half] + 1j * raw[..., half:]).reshape(raw.shape[:-1] + tuple(shape))


def _check_rank(rank):
    rank = int(rank)
    if rank not in (1, 2, 3, 4):
        raise OutOfRange(f"rank must be 1..4, got {rank}")
    return rank


def _gram_state(g):
    """Density matrices ``G G^dagger / Tr`` of complex matrices ``(..., d,
    k)``; the maximally mixed state ``I / d`` where the trace is below 1e-30."""
    m = g @ dagger(g)
    tr = np.asarray(trace(m).real)
    tiny = tr <= 1e-30
    rho = m / np.where(tiny, 1.0, tr)[..., None, None]
    d = m.shape[-1]
    rho[tiny] = np.eye(d) / d
    return rho


def random_mixed(rank, seed, size=None):
    """Induced-measure random density matrices ``G G^dagger / Tr`` with
    ``G`` a complex Gaussian 4 x rank matrix.

    ``rank=1`` reproduces Haar-random pure states.
    """
    rank = _check_rank(rank)
    rng = as_generator(seed)
    shape = (4, rank) if size is None else (int(size), 4, rank)
    return _gram_state(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def is_ppt(rho):
    """True where :func:`bineg.measures.negativity` is 0.0, by its eigensolve
    and cut at ``-zero_threshold`` (-1e-11 for a state), and raising as it
    does: the separability verdict.  Batched input gives a boolean array."""
    out = _negative_branch(rho)[0] == 0.0
    return bool(out) if out.ndim == 0 else out


def validate_density_matrix(rho):
    """Check the density-matrix invariants, raising :class:`InvalidState`
    that names the violated one.  Returns the validated complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState(f"dimension: expected a 4x4 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise InvalidState("finiteness: matrix contains NaN or Inf entries")
    herm = float(frobenius_distance(rho, dagger(rho)))
    if herm > 1e-12:
        raise InvalidState(f"hermiticity: defect {herm:.3e} exceeds 1e-12")
    tr = complex(trace(rho)).real
    if abs(tr - 1.0) > 1e-11:
        raise InvalidState(f"trace: {tr!r} differs from 1 by more than 1e-11")
    low = float(np.linalg.eigvalsh(rho)[0])
    if low < -1e-11:
        raise InvalidState(f"positivity: eigenvalue {low:.3e} below -1e-11")
    return rho
