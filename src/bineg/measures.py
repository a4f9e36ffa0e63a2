"""Entanglement measures for two-qubit states, and the bound formulas that
constrain them.

The three measures are

* negativity ``N = 2 Tr[(rho^G)_-]`` where ``^G`` is the partial transpose
  and ``_-`` the negative part,
* binegativity ``N2 = Tr[(rho^G)_-] + 2 Tr[(((rho^G)_-)^G)_-]``,
* Wootters concurrence ``C = max{0, l1 - l2 - l3 - l4}`` with ``l_i`` the
  decreasing singular values of ``sqrt(rho) (Y x Y) conj(sqrt(rho))``, the
  square roots of the eigenvalues of
  ``sqrt(rho) (Y x Y) conj(rho) (Y x Y) sqrt(rho)``.

``rho^G`` has at most one negative eigenvalue ``-lam``; with ``mu`` the larger
Schmidt coefficient of its eigenvector, ``N2 = N (1/2 + sqrt(mu(1-mu)))``.

They obey ``0 <= N2 <= N <= C <= 1``, vanish together exactly on the PPT
(= separable) states, and coincide on pure states.

Measure functions take a single ``(4, 4)`` density matrix or a stack
``(..., 4, 4)`` and return a float or an array over the leading axes.  The
closed forms and bound curves are plain elementwise functions of their real
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRegion, MultipleNegativeEigenvalues, OutOfRange
from .linalg import ZERO_EIG_TOL, partial_transpose, zero_threshold

# (Y tensor Y) in the computational basis; real symmetric, squares to I.
_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

# Eigenvalues of rho below this are rounding residue of its null space (~1e-17
# in a rank-2 sample) and count as zero.  Clipped at zero instead, their square
# roots (~6e-9) enter the concurrence at first order where the spin-flipped
# support is rank-deficient: sigma_pqr(0.8, 0.4, 0) lands 6.3e-9 off its closed
# form.  Any cut from 1e-15 to 1e-12 brings the closed-form grids to ~1e-15.
_RANK_CUT = 1e-13


def _scalar(x):
    """``x`` as a float when it is 0-d: one state or point came in, and the
    result's shape shows it.  An array over a stack passes through."""
    return float(x) if np.ndim(x) == 0 else x


def _negative_branch(rho):
    """``(lam, a)`` from one batched ``eigh`` of ``rho^G``: the magnitude of
    its eigenvalue below ``-zero_threshold`` (0.0 when PPT) and that unit
    eigenvector as 2x2 amplitudes.  Raises :class:`MultipleNegativeEigenvalues`
    for two or more such eigenvalues, which no two-qubit state has."""
    g = partial_transpose(np.asarray(rho, dtype=complex))
    w, v = np.linalg.eigh(g)
    neg = w < -np.asarray(zero_threshold(g))[..., None]
    counts = neg.sum(axis=-1)
    if np.any(counts > 1):
        raise MultipleNegativeEigenvalues(
            f"partial transpose has {int(np.max(counts))} negative eigenvalues"
        )
    # eigenvalues ascend, so the negative one (when present) sits at index 0
    lam = np.where(neg[..., 0], -w[..., 0], 0.0)
    return lam, v[..., :, 0].reshape(lam.shape + (2, 2))


def _nu_n2(lam, a):
    """``(N, N2) = (2 lam, lam + 2 t2)``: ``(lam |v><v|)^G`` has the one
    negative eigenvalue ``-t2 = -lam |det a|``, cut as ``zero_threshold``
    cuts it for that matrix of Frobenius norm ``lam``."""
    t2 = lam * np.abs(a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])
    t2 = np.where(t2 > ZERO_EIG_TOL * np.maximum(1.0, lam), t2, 0.0)
    return 2.0 * lam, lam + 2.0 * t2


def negativity(rho):
    """Twice the trace of the negative part of the partial transpose.

    Exactly 0.0 for PPT inputs, and :func:`bineg.states.is_ppt` is this test:
    eigenvalues above ``-zero_threshold`` are discarded, not truncated.
    Raises :class:`MultipleNegativeEigenvalues` for a non-state input with
    two negative eigenvalues there.
    """
    return _scalar(2.0 * _negative_branch(rho)[0])


def binegativity(rho):
    """``Tr[(rho^G)_-] + 2 Tr[(((rho^G)_-)^G)_-]``: the negativity of the
    negative part, folded back once more through the partial transpose.

    Computed from the negativity's eigensolve by the structure identity;
    vanishes exactly on PPT states, never exceeds the negativity, and raises
    as :func:`negativity` does.
    """
    return _scalar(_nu_n2(*_negative_branch(rho))[1])


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix, in Uhlmann's
    form: ``max(0, s1 - s2 - s3 - s4)`` over the decreasing singular values
    of ``sqrt(rho) (Y x Y) conj(sqrt(rho))``.

    These are the singular values of ``W^T (Y x Y) W`` for ``W = V
    diag(sqrt(w))`` from ``rho = V diag(w) V^dagger``; nothing is squared.
    """
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    f = v * np.sqrt(np.where(w > _RANK_CUT, w, 0.0))[..., None, :]
    sv = np.linalg.svd(np.swapaxes(f, -1, -2) @ (_YY @ f), compute_uv=False)
    c = 2.0 * sv[..., 0] - sv.sum(axis=-1)
    return _scalar(np.maximum(c, 0.0))


def _mu(lam, a):
    # mu - 1/2 is the Bloch length of a a^dagger: accurate near mu = 1/2, where
    # 1/2 + sqrt(1/4 - |det a|^2) loses half the digits.  None/NaN when PPT.
    p = np.abs(a) ** 2
    z = (p[..., 0, :].sum(axis=-1) - p[..., 1, :].sum(axis=-1)) / 2.0
    x = np.abs((a[..., 0, :] * np.conjugate(a[..., 1, :])).sum(axis=-1))
    mu = np.where(lam > 0.0, 0.5 + np.hypot(z, x), np.nan)
    return None if np.ndim(lam) == 0 and lam == 0.0 else _scalar(mu)


def negative_eigvec_mu(rho):
    """Larger Schmidt coefficient of the negative-eigenvalue eigenvector of
    the partial transpose.

    For an entangled two-qubit state the partial transpose has exactly one
    negative eigenvalue; its eigenvector ``|psi>`` determines the whole
    negative branch of the binegativity through
    ``Tr[(((rho^G)_-)^G)_-] = sqrt(mu(1-mu)) Tr[(rho^G)_-]``.

    Returns ``None`` for a single PPT input, NaN entries in a batch; raises
    as :func:`negativity` does.
    """
    return _mu(*_negative_branch(rho))


@dataclass(frozen=True)
class MeasureTriple:
    """Concurrence, negativity, binegativity of one state (or a batch)."""

    c: float
    nu: float
    n2: float

    def to_json_dict(self):
        return {"c": self.c, "nu": self.nu, "n2": self.n2}


def measure_triple(rho):
    """All three measures of a state or stack, from one eigensolve of
    ``rho`` and one of its partial transpose."""
    nu, n2 = map(_scalar, _nu_n2(*_negative_branch(rho)))
    return MeasureTriple(concurrence(rho), nu, n2)


@dataclass(frozen=True)
class PqrDerived:
    """Intermediate quantities of the sigma(p, q, r) closed forms.

    ``alpha = p^2 q(1-q)``, ``beta = (1-p)^2 r(1-r)``; ``mu`` is the larger
    Schmidt coefficient of the negative-eigenvalue eigenvector.
    """

    alpha: float
    beta: float
    mu: float


def _unit_interval(name, x):
    # every entry must lie inside [0, 1], so NaN is rejected
    arr = np.asarray(x, dtype=float)
    ok = (arr >= 0.0) & (arr <= 1.0)
    if not ok.all():
        raise OutOfRange(f"{name} must lie in [0, 1], got {float(arr[~ok].flat[0])!r}")
    return arr


def closed_form_pqr(p, q, r):
    """Closed-form measures of ``sigma_pqr(p, q, r)`` without diagonalizing.

    Returns ``(MeasureTriple, PqrDerived)``.  With ``alpha = p^2 q(1-q)`` and
    ``beta = (1-p)^2 r(1-r)``:

    * ``c = 2 |sqrt(alpha) - sqrt(beta)|``
    * ``nu = sqrt(4(beta-alpha) + p^2) - p`` when ``alpha <= beta``, else
      ``sqrt(4(alpha-beta) + (1-p)^2) - (1-p)``
    * ``mu = 4 beta / (4 beta + (sqrt(4(beta-alpha)+p^2) + p(1-2q))^2)`` on
      the first branch, the (alpha, r)-mirrored expression on the second,
      mapped to ``max(mu, 1-mu)``
    * ``n2 = nu (1/2 + sqrt(mu(1-mu)))``

    Elementwise on arrays; floats for scalar input.  At ``alpha = beta`` both
    negativity branches give 0 and the binegativity is 0 regardless of mu.
    """
    p = _unit_interval("p", p)
    q = _unit_interval("q", q)
    r = _unit_interval("r", r)
    alpha = p**2 * q * (1.0 - q)
    beta = (1.0 - p) ** 2 * r * (1.0 - r)
    c = 2.0 * np.abs(np.sqrt(alpha) - np.sqrt(beta))
    le = alpha <= beta
    with np.errstate(invalid="ignore"):
        # each root is valid only on its own branch; np.where picks that one
        root_le = np.sqrt(4.0 * (beta - alpha) + p**2)
        root_ge = np.sqrt(4.0 * (alpha - beta) + (1.0 - p) ** 2)
        nu = np.where(le, root_le - p, root_ge - (1.0 - p))
        den_le = 4.0 * beta + (root_le + p * (1.0 - 2.0 * q)) ** 2
        den_ge = 4.0 * alpha + (root_ge + (1.0 - p) * (1.0 - 2.0 * r)) ** 2
        mu_le = 4.0 * beta / np.where(den_le > 0.0, den_le, 1.0)
        mu_ge = 4.0 * alpha / np.where(den_ge > 0.0, den_ge, 1.0)
        den_ok = np.where(le, den_le > 0.0, den_ge > 0.0)
        mu_raw = np.where(den_ok, np.where(le, mu_le, mu_ge), 0.0)
    mu = np.maximum(mu_raw, 1.0 - mu_raw)
    nu = np.maximum(nu, 0.0)
    n2 = nu * (0.5 + np.sqrt(mu * (1.0 - mu)))
    return MeasureTriple(*map(_scalar, (c, nu, n2))), PqrDerived(*map(_scalar, (alpha, beta, mu)))


# Each bound curve is written once, in an unvalidated private helper; the
# public functions below check their arguments and then call it.


def _nu_of_c(c):
    return np.sqrt((1.0 - c) ** 2 + c**2) - (1.0 - c)


def _c_of_nu(nu):
    return np.sqrt(2.0 * nu * (nu + 1.0)) - nu


def _bineg_mems_at(c, nu):
    # binegativity of sigma_mems at concurrence c, given its negativity nu
    return 0.5 * nu * (1.0 + c / np.sqrt((1.0 - c) ** 2 + c**2))


def _p_range(c, nu):
    p_min = (c**2 - nu**2) / (2.0 * nu)
    p_max = c * (nu + 1.0) / (c + nu) - 0.5 * (c + nu)
    return p_min, p_max


def nu_of_c(c):
    """Least negativity compatible with concurrence ``c``:
    ``sqrt((1-c)^2 + c^2) - (1-c)``."""
    return _scalar(_nu_of_c(_unit_interval("c", c)))


def c_of_nu(nu):
    """Inverse of :func:`nu_of_c`: ``c = sqrt(2 nu (nu+1)) - nu``."""
    return _scalar(_c_of_nu(_unit_interval("nu", nu)))


def bineg_mems(c):
    """Binegativity along the minimal-negativity family ``sigma_mems``:
    ``(nu_c / 2)(1 + c / sqrt((1-c)^2 + c^2))``.

    Conjectured to lower-bound the binegativity of every state with
    concurrence ``c``.
    """
    c = _unit_interval("c", c)
    return _scalar(_bineg_mems_at(c, _nu_of_c(c)))


def bineg_lower_given_nu(nu):
    """Conjectured least binegativity at fixed negativity ``nu``: evaluate
    :func:`bineg_mems` at the concurrence ``c_of_nu(nu)`` that attains it.

    The given ``nu`` enters the formula as is; recomputing it from that
    concurrence would move the result by rounding."""
    nu = _unit_interval("nu", nu)
    return _scalar(_bineg_mems_at(_c_of_nu(nu), nu))


def _region_bounds(c, nu):
    c = np.asarray(c, dtype=float)
    nu = np.asarray(nu, dtype=float)
    s = c + nu
    den_low = s**2 + 2.0 * c * (1.0 - c)
    den_up = c**2 + nu**2
    with np.errstate(invalid="ignore", divide="ignore"):
        lower = np.where(den_low > 0.0, nu * s * (nu + 1.0) / np.where(den_low > 0.0, den_low, 1.0), 0.0)
        upper = np.where(den_up > 0.0, 0.5 * nu * s**2 / np.where(den_up > 0.0, den_up, 1.0), 0.0)
    return _scalar(lower), _scalar(upper)


def region_bounds(c, nu):
    """Conjectured limits on the binegativity at fixed (concurrence,
    negativity):

    * lower: ``nu (c+nu)(nu+1) / ((c+nu)^2 + 2c(1-c))``
    * upper: ``(nu/2) (c+nu)^2 / (c^2 + nu^2)``

    Returns ``(lower, upper)`` elementwise.  Raises :class:`InfeasibleRegion`
    unless ``nu_of_c(c) <= nu <= c`` to 1e-9.
    """
    c = _unit_interval("c", c)
    nu = _unit_interval("nu", nu)
    if np.any(nu > c + 1e-9) or np.any(nu < _nu_of_c(c) - 1e-9):
        raise InfeasibleRegion("negativity must lie between nu_of_c(concurrence) and the concurrence")
    return _region_bounds(c, nu)


def _check_family(c, nu):
    """Feasibility of the fixed-(c, nu) boundary family; needs nu strictly
    between nu_of_c(c) and c."""
    c = np.asarray(c, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not ((c > 0.0) & (c <= 1.0) & (nu > 0.0)).all():
        raise InfeasibleRegion("need 0 < nu <= c <= 1")
    if np.any(c - nu <= 1e-12):
        raise InfeasibleRegion(
            "c = nu is degenerate for this family; pure states cover that edge"
        )
    if np.any(nu < _nu_of_c(c) - 1e-12):
        raise InfeasibleRegion("nu below nu_of_c(c): no state has this pair")
    return c, nu


def boundary_p_range(c, nu):
    """Mixing-parameter interval ``[p_min, p_max]`` of the boundary family:
    ``p_min = (c^2 - nu^2) / (2 nu)``,
    ``p_max = c (nu+1)/(c+nu) - (c+nu)/2``."""
    p_min, p_max = _p_range(*_check_family(c, nu))
    return _scalar(p_min), _scalar(p_max)


def _family_point(c, nu, p):
    """``(c, nu, p, p_min)``, ``p`` clamped into ``[p_min, p_max]``.  Raises as
    :func:`_check_family`, and :class:`OutOfRange` for ``p`` off it by > 1e-12."""
    c, nu = _check_family(c, nu)
    p = np.asarray(p, dtype=float)
    p_min, p_max = _p_range(c, nu)
    if not ((p >= p_min - 1e-12) & (p <= p_max + 1e-12)).all():
        raise OutOfRange(f"p = {p} outside [p_min, p_max] = [{p_min}, {p_max}] for c = {c}, nu = {nu}")
    return c, nu, np.clip(p, p_min, p_max), p_min


def boundary_bineg(c, nu, p):
    """Binegativity along the boundary family:
    ``(nu (c+nu) / 4c)(2 + (c-nu)/(p+nu))``.

    Strictly decreasing in ``p``; at ``p_min`` it equals the upper and at
    ``p_max`` the lower limit of :func:`region_bounds`.
    """
    c, nu, p, _ = _family_point(c, nu, p)
    return _scalar(nu * (c + nu) / (4.0 * c) * (2.0 + (c - nu) / (p + nu)))
