"""Entanglement measures for two-qubit states, and the bound formulas that
constrain them.

The three measures are

* negativity ``N = 2 Tr[(rho^G)_-]`` where ``^G`` is the partial transpose
  and ``_-`` the negative part,
* binegativity ``N2 = Tr[(rho^G)_-] + 2 Tr[(((rho^G)_-)^G)_-]``,
* Wootters concurrence ``C = max{0, l1 - l2 - l3 - l4}`` with ``l_i`` the
  decreasing square roots of the eigenvalues of
  ``sqrt(rho) (Y x Y) conj(rho) (Y x Y) sqrt(rho)``.

They obey ``0 <= N2 <= N <= C <= 1``, vanish together exactly on the PPT
(= separable) states, and coincide on pure states.

Measure functions take a single ``(4, 4)`` density matrix or a stack
``(..., 4, 4)`` and return a float or an array over the leading axes.  The
closed forms and bound curves are plain elementwise functions of their real
arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRegion, MultipleNegativeEigenvalues, OutOfRange
from .linalg import (
    hermitian_eig,
    negative_part,
    partial_transpose,
    psd_sqrt,
    zero_threshold,
)

# (Y tensor Y) in the computational basis; real symmetric, squares to I.
_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)

# Eigenvalues of the concurrence product matrix below this level are rounding
# noise; taking their square roots would inflate 1e-17 of noise into 3e-9 of
# error, so they are zeroed first.
_CONC_EIG_CLAMP = 1e-13


def _as_batch(rho):
    rho = np.asarray(rho, dtype=complex)
    return rho, rho.ndim == 2


def _maybe_float(x, single):
    return float(x) if single else x


def negativity(rho):
    """Twice the trace of the negative part of the partial transpose.

    Exactly 0.0 for PPT inputs: eigenvalues above ``-zero_threshold`` are
    discarded, not truncated, so separability verdicts stay consistent with
    :func:`bineg.states.is_ppt`.
    """
    rho, single = _as_batch(rho)
    g = partial_transpose(rho)
    w = np.linalg.eigvalsh(g)
    cut = np.asarray(zero_threshold(g))
    neg = np.where(w < -cut[..., None], -w, 0.0).sum(axis=-1)
    return _maybe_float(2.0 * neg, single)


def binegativity(rho):
    """``Tr[(rho^G)_-] + 2 Tr[(((rho^G)_-)^G)_-]``: the negativity of the
    negative part, folded back once more through the partial transpose.

    Vanishes exactly on PPT states and never exceeds the negativity.
    """
    rho, single = _as_batch(rho)
    neg = negative_part(partial_transpose(rho), check=False)
    t1 = np.trace(neg, axis1=-2, axis2=-1).real
    g2 = partial_transpose(neg)
    w2 = np.linalg.eigvalsh(g2)
    cut = np.asarray(zero_threshold(g2))
    t2 = np.where(w2 < -cut[..., None], -w2, 0.0).sum(axis=-1)
    return _maybe_float(t1 + 2.0 * t2, single)


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix."""
    rho, single = _as_batch(rho)
    s = psd_sqrt(rho, check=False)
    flipped = _YY @ np.conjugate(rho) @ _YY
    w = np.linalg.eigvalsh(s @ flipped @ s)
    w = np.where(w < _CONC_EIG_CLAMP, 0.0, w)
    lam = np.sqrt(w)
    c = 2.0 * lam[..., -1] - lam.sum(axis=-1)
    return _maybe_float(np.maximum(c, 0.0), single)


def negative_eigvec_mu(rho):
    """Larger Schmidt coefficient of the negative-eigenvalue eigenvector of
    the partial transpose.

    For an entangled two-qubit state the partial transpose has exactly one
    negative eigenvalue; its eigenvector ``|psi>`` determines the whole
    negative branch of the binegativity through
    ``Tr[(((rho^G)_-)^G)_-] = sqrt(mu(1-mu)) Tr[(rho^G)_-]``.

    Returns ``None`` for a single PPT input, NaN entries in a batch.  Raises
    :class:`MultipleNegativeEigenvalues` if any input has two or more
    eigenvalues below the zero threshold, which no valid two-qubit state can
    produce.
    """
    rho, single = _as_batch(rho)
    g = partial_transpose(rho)
    es = hermitian_eig(g, check=False)
    cut = np.asarray(zero_threshold(g))
    counts = (es.eigenvalues < -cut[..., None]).sum(axis=-1)
    if np.any(counts > 1):
        raise MultipleNegativeEigenvalues(
            f"partial transpose has {int(np.max(counts))} negative eigenvalues"
        )
    # eigenvalues ascend, so the negative one (when present) sits at index 0
    vec = es.eigenvectors[..., :, 0]
    amp = vec.reshape(vec.shape[:-1] + (2, 2))
    sv = np.linalg.svd(amp, compute_uv=False)
    mu = np.minimum(sv[..., 0] ** 2, 1.0)
    mu = np.where(counts == 1, mu, np.nan)
    if single:
        val = float(mu)
        return None if math.isnan(val) else val
    return mu


@dataclass(frozen=True)
class MeasureTriple:
    """Concurrence, negativity, binegativity of one state (or a batch)."""

    c: float
    nu: float
    n2: float

    def to_json_dict(self):
        return {"c": self.c, "nu": self.nu, "n2": self.n2}


def measure_triple(rho):
    """All three measures of a state in one call."""
    return MeasureTriple(concurrence(rho), negativity(rho), binegativity(rho))


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
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise OutOfRange(f"{name} must lie in [0, 1]")
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
    single = np.ndim(c) == 0
    triple = MeasureTriple(
        _maybe_float(c, single), _maybe_float(nu, single), _maybe_float(n2, single)
    )
    derived = PqrDerived(
        _maybe_float(alpha, single), _maybe_float(beta, single), _maybe_float(mu, single)
    )
    return triple, derived


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
    out = _nu_of_c(_unit_interval("c", c))
    return _maybe_float(out, out.ndim == 0)


def c_of_nu(nu):
    """Inverse of :func:`nu_of_c`: ``c = sqrt(2 nu (nu+1)) - nu``."""
    out = _c_of_nu(_unit_interval("nu", nu))
    return _maybe_float(out, out.ndim == 0)


def bineg_mems(c):
    """Binegativity along the minimal-negativity family ``sigma_mems``:
    ``(nu_c / 2)(1 + c / sqrt((1-c)^2 + c^2))``.

    Conjectured to lower-bound the binegativity of every state with
    concurrence ``c``.
    """
    c = _unit_interval("c", c)
    out = _bineg_mems_at(c, _nu_of_c(c))
    return _maybe_float(out, out.ndim == 0)


def bineg_lower_given_nu(nu):
    """Conjectured least binegativity at fixed negativity ``nu``: evaluate
    :func:`bineg_mems` at the concurrence ``c_of_nu(nu)`` that attains it.

    The given ``nu`` enters the formula as is; recomputing it from that
    concurrence would move the result by rounding."""
    nu = _unit_interval("nu", nu)
    out = _bineg_mems_at(_c_of_nu(nu), nu)
    return _maybe_float(out, out.ndim == 0)


def _check_region(c, nu, tol):
    c = _unit_interval("c", c)
    nu = _unit_interval("nu", nu)
    if np.any(nu > c + tol) or np.any(nu < _nu_of_c(c) - tol):
        raise InfeasibleRegion(
            "negativity must lie between nu_of_c(concurrence) and the concurrence"
        )
    return c, nu


def region_bounds(c, nu, tol=1e-9, validate=True):
    """Conjectured limits on the binegativity at fixed (concurrence,
    negativity):

    * lower: ``nu (c+nu)(nu+1) / ((c+nu)^2 + 2c(1-c))``
    * upper: ``(nu/2) (c+nu)^2 / (c^2 + nu^2)``

    ``validate=False`` skips the feasibility check, for sweeps that verify
    membership themselves.  Returns ``(lower, upper)`` elementwise.
    """
    if validate:
        c, nu = _check_region(c, nu, tol)
    else:
        c = np.asarray(c, dtype=float)
        nu = np.asarray(nu, dtype=float)
    s = c + nu
    den_low = s**2 + 2.0 * c * (1.0 - c)
    den_up = c**2 + nu**2
    with np.errstate(invalid="ignore", divide="ignore"):
        lower = np.where(den_low > 0.0, nu * s * (nu + 1.0) / np.where(den_low > 0.0, den_low, 1.0), 0.0)
        upper = np.where(den_up > 0.0, 0.5 * nu * s**2 / np.where(den_up > 0.0, den_up, 1.0), 0.0)
    single = np.ndim(lower) == 0
    return _maybe_float(lower, single), _maybe_float(upper, single)


def _check_family(c, nu):
    """Feasibility of the fixed-(c, nu) boundary family; needs nu strictly
    between nu_of_c(c) and c."""
    c = np.asarray(c, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.any(c <= 0.0) or np.any(c > 1.0) or np.any(nu <= 0.0):
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
    single = np.ndim(p_min) == 0
    return _maybe_float(p_min, single), _maybe_float(p_max, single)


def boundary_bineg(c, nu, p, tol=1e-12):
    """Binegativity along the boundary family:
    ``(nu (c+nu) / 4c)(2 + (c-nu)/(p+nu))``.

    Strictly decreasing in ``p``; at ``p_min`` it equals the upper and at
    ``p_max`` the lower limit of :func:`region_bounds`.
    """
    c, nu = _check_family(c, nu)
    p = np.asarray(p, dtype=float)
    p_min, p_max = _p_range(c, nu)
    if np.any(p < p_min - tol) or np.any(p > p_max + tol):
        raise OutOfRange("p outside [p_min, p_max] for this (c, nu)")
    out = nu * (c + nu) / (4.0 * c) * (2.0 + (c - nu) / (p + nu))
    return _maybe_float(out, np.ndim(out) == 0)
