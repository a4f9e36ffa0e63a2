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

from .errors import InfeasibleRegion, MultipleNegativeEigenvalues, OutOfRange, WrongDimension
from .linalg import ZERO_EIG_TOL, partial_transpose, zero_threshold

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


# The screen's allowance for rounding, per unit of max(1, |rho^G|_F): the
# backward error of LAPACK's eigh and of the screen's own sums is a few eps.
_SCREEN_ROUNDING = 1e-14
# A screened (nu, n2) is settled only when its certified bound is at most this.
_SCREEN_BOUND = 1e-10


def _nu_n2_screen(rho):
    """``(nu, n2, bound)`` of density matrices without an eigensolve: the
    ``_nu_n2(*_negative_branch(rho))`` of each state to within ``bound`` in
    both, or NaN in all three where the screen does not settle the state.

    With ``H = rho^G`` and ``w0 <= w1 <= w2 <= w3`` its eigenvalues:

    * the power sums ``tr H^k`` (one ``H @ H``) give ``det(x - H) = x^4 +
      a3 x^3 + a2 x^2 + a1 x + a0`` by Newton's identities;
    * Laguerre's method from Samuelson's bound ``tr H / 4 - sqrt(3) sigma <=
      w0`` climbs to ``e ~ w0`` without passing it, 6 steps for a quartic
      with real roots;
    * ``adj(e - H) = H^3 + (e + a3) H^2 + (e^2 + a3 e + a2) H + (e^3 + a3 e^2
      + a2 e + a1)`` is about ``p'(w0) v0 v0^dagger``, so its column of
      largest diagonal entry, normalized, is ``v``; ``theta = v^dagger H v``
      and ``r = |H v - theta v|``, with the rounding allowance added.

    The certificate: some ``w_j`` lies within ``r`` of ``theta`` (Weyl).
    Every term of ``p'(theta)`` but one holds the factor ``theta - w_j``, and
    each ``|theta - w_k| <= D`` (Samuelson), so ``|theta - w_k| >= delta =
    (|p'(theta)| - 3 r D^2) / D^2`` for every ``k != j``.  As ``e <= w0``,
    ``theta - e < delta`` makes ``j = 0``; then ``|theta - w0| <= r^2 /
    delta`` (Kato-Temple), and the sine of the angle between ``v`` and the
    eigenvector is at most ``r / delta`` (Davis & Kahan, SIAM J. Numer.
    Anal. 7, 1 (1970)).  These bound ``lam = -theta`` and ``t2 = lam |det
    a|`` against the reference's.  A state is unsettled when ``delta`` is
    too small or ``e`` not first, when ``lam`` or ``t2`` lies within its
    bound of the cut of :func:`_negative_branch` or :func:`_nu_n2`, or when
    the bound exceeds ``_SCREEN_BOUND``.  A PPT state settles at ``nu = n2 =
    0.0`` and a bound of 0, the reference's bits.  The input must be states,
    whose ``rho^G`` has at most one negative eigenvalue: the screen does not
    look for a second, on which :func:`_negative_branch` raises.
    """
    h = partial_transpose(np.asarray(rho, dtype=complex))
    h2 = h @ h
    diag1 = np.diagonal(h, axis1=-2, axis2=-1).real
    diag2 = np.diagonal(h2, axis1=-2, axis2=-1).real
    # (H^3)_ii = sum_j (H^2)_ij conj(H_ij), read as pairs of floats
    diag3 = (h2.view(float) * h.view(float)).sum(axis=-1)
    p1, p2, p3 = diag1.sum(axis=-1), diag2.sum(axis=-1), diag3.sum(axis=-1)
    p4 = np.square(h2.view(float)).sum(axis=(-2, -1))
    e2 = (p1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - p1 * p2 + p3) / 3.0
    a3, a2, a1, a0 = -p1, e2, -e3, (e3 * p1 - e2 * p2 + p1 * p3 - p4) / 4.0
    scale = np.maximum(1.0, np.sqrt(p2))
    s = _SCREEN_ROUNDING * scale
    eps_p = _SCREEN_ROUNDING * scale**3  # of p and p' near the spectrum
    # Samuelson: the four eigenvalues lie within sqrt(3) sigma of their mean
    mean = p1 / 4.0
    spread = np.sqrt(3.0 * np.maximum(p2 / 4.0 - mean * mean, 0.0)) + s
    with np.errstate(divide="ignore", invalid="ignore"):
        e = mean - spread
        for _ in range(6):
            p = (((e + a3) * e + a2) * e + a1) * e + a0
            dp = ((4.0 * e + 3.0 * a3) * e + 2.0 * a2) * e + a1
            ddp = (12.0 * e + 6.0 * a3) * e + 2.0 * a2
            den = dp - np.sqrt(np.maximum(9.0 * dp * dp - 12.0 * p * ddp, 0.0))
            e = np.where(den < 0.0, e - 4.0 * p / den, e)
        c1 = e + a3
        c2 = c1 * e + a2
        c3 = c2 * e + a1
        c1, c2, c3 = c1[..., None], c2[..., None], c3[..., None]
        k = np.argmax(np.abs(diag3 + c1 * diag2 + c2 * diag1 + c3), axis=-1)[..., None, None]
        col1 = np.take_along_axis(h, k, axis=-1)[..., 0]
        col2 = np.take_along_axis(h2, k, axis=-1)[..., 0]
        # the stacks of matrices go once read, diagonals (views) and all: a
        # state pass screens several chunks in one call
        del h2, diag1, diag2, diag3
        v = (h @ col2[..., None])[..., 0] + c1 * col2 + c2 * col1 + c3 * (np.arange(4) == k[..., 0])
        del col1, col2
        v = v / np.sqrt(np.square(np.abs(v)).sum(axis=-1))[..., None]
        hv = (h @ v[..., None])[..., 0]
        del h
        theta = (np.conjugate(v) * hv).sum(axis=-1).real
        r = np.sqrt(np.square(np.abs(hv - theta[..., None] * v)).sum(axis=-1)) + s
        d2 = np.square(np.abs(theta - mean) + spread)
        dp = ((4.0 * theta + 3.0 * a3) * theta + 2.0 * a2) * theta + a1
        delta = (np.abs(dp) - eps_p - 3.0 * r * d2) / d2
        first = (delta > 4.0 * r) & (theta - e + 2.0 * eps_p / np.abs(dp) < delta)
        dlam = r * r / delta + s
        # |det a| moves by at most the angle to the reference's eigenvector,
        # which LAPACK gets within s / (gap) of the true one
        ddet = 2.0 * (r / delta + s / (delta - 3.0 * r))
    lam = -theta
    det = np.abs(v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2])
    t2 = lam * det
    dt2 = dlam / 2.0 + (lam + dlam) * ddet
    thr = ZERO_EIG_TOL * scale
    neg = lam - dlam > thr
    ppt = lam + dlam < thr
    t2_cut = ZERO_EIG_TOL * np.maximum(1.0, lam)
    t2_sure = np.abs(t2 - t2_cut) > dt2 + ZERO_EIG_TOL * dlam
    bound = np.where(neg, np.maximum(2.0 * dlam, dlam + 2.0 * dt2), 0.0)
    settled = first & (ppt | (neg & t2_sure & (bound <= _SCREEN_BOUND)))
    t2 = np.where(t2 > t2_cut, t2, 0.0)
    nu = np.where(settled, np.where(neg, 2.0 * lam, 0.0), np.nan)
    n2 = np.where(settled, np.where(neg, lam + 2.0 * t2, 0.0), np.nan)
    return _scalar(nu), _scalar(n2), _scalar(np.where(settled, bound, np.nan))


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


def _uhlmann(f):
    """``s1 - s2 - ...`` over the decreasing singular values of ``f^T (Y x
    Y) f``, for matrices ``f`` of shape ``(..., 4, k)``: the concurrence of
    ``f f^dagger`` before its clamp at 0.  Any factor with ``f f^dagger =
    rho`` gives the same singular values, and a factor of ``t rho`` gives
    ``t`` times them.

    At ``k = 2`` no SVD is made: ``(s1 - s2)^2 = |A|_F^2 - 2 |det A|`` for
    the symmetric ``A = f^T (Y x Y) f``, since ``s1^2 + s2^2 = |A|_F^2`` and
    ``s1 s2 = |det A|``, with the three entries of ``A`` formed elementwise.
    The difference cancels near ``s1 = s2``, where the result is off by a
    few ``sqrt(eps) s1``; every other ``k`` (:func:`concurrence` passes 4)
    takes the singular values."""
    if np.shape(f)[-1] == 2:
        x, y = f[..., 0], f[..., 1]

        def form(a, b):  # a^T (Y x Y) b
            return a[..., 1] * b[..., 2] + a[..., 2] * b[..., 1] - a[..., 0] * b[..., 3] - a[..., 3] * b[..., 0]

        a00, a11, a01 = form(x, x), form(y, y), form(x, y)
        fro = np.square(np.abs(a00)) + np.square(np.abs(a11)) + 2.0 * np.square(np.abs(a01))
        return np.sqrt(np.maximum(fro - 2.0 * np.abs(a00 * a11 - a01 * a01), 0.0))
    yf = np.stack([-f[..., 3, :], f[..., 2, :], f[..., 1, :], -f[..., 0, :]], axis=-2)  # (Y x Y) f
    sv = np.linalg.svd(np.swapaxes(f, -1, -2) @ yf, compute_uv=False)
    return 2.0 * sv[..., 0] - sv.sum(axis=-1)


def _uhlmann_bound(f, c):
    """A bound on ``|c - concurrence(f f^dagger / Tr)|`` for ``c =
    max(_uhlmann(f) / Tr, 0)`` and ``Tr = |f|_F^2``; NaN or inf where none
    is known.  In units of ``_SCREEN_ROUNDING`` = 1e-14 it has two terms:

    * the rounding of ``c``: at ``k = 2`` the closed form rounds ``(s1 -
      s2)^2`` to a few eps ``Tr^2``, which moves ``c`` by ``4 / c``; an SVD
      has each singular value within a few eps ``|A| <= Tr``, under the
      next term's least value, 8;
    * the error of :func:`concurrence` itself, whose ``eigh`` factors ``rho``
      within some 20 eps of the exact ``f f^dagger / Tr``.  That factor, and
      with it ``C``, moves by ``8 / sqrt(w)`` for the least ``w`` of the
      ``k`` eigenvalues, ``w >= (k - 1)^(k - 1) det(f^dagger f) / Tr^k`` as
      the others sum to at most 1.  A bound of at most ``_SCREEN_BOUND`` so
      has ``w >= 6.4e-7``: :func:`concurrence` keeps all ``k`` eigenvalues
      above ``_RANK_CUT``, and drops only the rounding residue of the null
      space.
    """
    # the columns' squared norms with the bits of sum(axis=-2), in half its time
    a = np.square(np.abs(f))
    n = a[..., 0, :] + a[..., 1, :] + a[..., 2, :] + a[..., 3, :]
    tr, k = n.sum(axis=-1), n.shape[-1]
    if k == 2:  # |x|^2 |y|^2 - |x^dagger y|^2
        det = n[..., 0] * n[..., 1] - np.square(np.abs((np.conjugate(f[..., 0]) * f[..., 1]).sum(axis=-1)))
    else:
        det = np.linalg.det(np.swapaxes(np.conjugate(f), -1, -2) @ f).real
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (k - 1) ** (k - 1) * det / tr**k
        return _SCREEN_ROUNDING * (8.0 / np.sqrt(w) + (4.0 / c if k == 2 else 0.0))


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix, in Uhlmann's
    form: ``max(0, s1 - s2 - s3 - s4)`` over the decreasing singular values
    of ``sqrt(rho) (Y x Y) conj(sqrt(rho))``.

    These are the singular values of ``W^T (Y x Y) W`` for ``W = V
    diag(sqrt(w))`` from ``rho = V diag(w) V^dagger``; nothing is squared.
    Sampled states are screened without this ``eigh``: see
    ``harness._state_stack``.  Raises :class:`WrongDimension` unless the
    trailing shape is ``(4, 4)``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise WrongDimension(f"expected a 4x4 state or a stack of them, got shape {rho.shape}")
    w, v = np.linalg.eigh(rho)
    f = v * np.sqrt(np.where(w > _RANK_CUT, w, 0.0))[..., None, :]
    return _scalar(np.maximum(_uhlmann(f), 0.0))


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

    ``rho^G`` is an X state: its negative eigenvalue lies in the block
    ``[[x, z], [z, y]]`` on ``|00>, |11>`` with ``z = sqrt(beta)`` when
    ``alpha <= beta``, else on ``|01>, |10>`` with ``z = sqrt(alpha)``.  With
    ``R = hypot(x - y, 2z)`` these forms are evaluated as ``nu = R - (x + y)``,
    ``mu = (1 + |x - y| / R) / 2`` (1 where R = 0) and ``n2 = nu (1/2 + z / R)``.
    Elementwise on arrays; floats for scalar input.
    """
    p = _unit_interval("p", p)
    q = _unit_interval("q", q)
    r = _unit_interval("r", r)
    alpha = p**2 * q * (1.0 - q)
    beta = (1.0 - p) ** 2 * r * (1.0 - r)
    c = 2.0 * np.abs(np.sqrt(alpha) - np.sqrt(beta))
    le = alpha <= beta
    x = np.where(le, p * q, (1.0 - p) * r)
    y = np.where(le, p * (1.0 - q), (1.0 - p) * (1.0 - r))
    z = np.sqrt(np.where(le, beta, alpha))
    root = np.hypot(x - y, 2.0 * z)
    nu = np.maximum(root - (x + y), 0.0)
    mu = (1.0 + np.divide(np.abs(x - y), root, out=np.ones_like(root), where=root > 0.0)) / 2.0
    n2 = nu * (0.5 + np.divide(z, root, out=np.zeros_like(root), where=root > 0.0))
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
