"""Independent 40-digit oracle for ``region_eq9`` findings.

Recomputes a violation record's gap from its serialized state with mpmath
alone: its own partial transpose, its own Hermitian eigensolves, the
Wootters concurrence as the singular values of ``W^T (Y x Y) W`` for
``rho = W W^dagger``, and the two region surfaces restated from their
formulas.  Nothing here imports ``bineg.measures`` or ``bineg.linalg``, so a
certified gap that agrees with a sweep's ``observed_gap`` is evidence about
the measures, not a replay of the same code.
"""

import mpmath

from bineg.serialize import complex_matrix_to_json

DPS = 40

# Eigenvalues of the stored double-precision state below this are rounding
# residue of its null space (a rank-2 sample carries two of size ~1e-17) and
# are dropped, so the oracle certifies the PSD state of the sample's rank.
# Kept, their square roots would add ~3e-9 of noise to the concurrence.
RANK_CUT = 1e-12

# (Y tensor Y) in the computational basis
_YY = ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))


def _matrix(state):
    return mpmath.matrix([[mpmath.mpc(re, im) for re, im in row] for row in state])


def _partial_transpose(m):
    """Transpose of the second qubit: ``<a b|m^G|a' b'> = <a b'|m|a' b>``."""
    out = mpmath.matrix(4, 4)
    for a in range(2):
        for b in range(2):
            for a2 in range(2):
                for b2 in range(2):
                    out[2 * a + b, 2 * a2 + b2] = m[2 * a + b2, 2 * a2 + b]
    return out


def _spectrum(m):
    """Eigenvalues (real parts) and eigenvector columns of a Hermitian matrix."""
    e, q = mpmath.eighe(m)
    return [mpmath.re(x) for x in e], q


def _negative_part(m):
    """``(m)_-``: the PSD operator ``sum_{l<0} |l| |v><v|``."""
    w, q = _spectrum(m)
    out = mpmath.matrix(4, 4)
    for k in (k for k, x in enumerate(w) if x < 0):
        for i in range(4):
            for j in range(4):
                out[i, j] -= w[k] * q[i, k] * mpmath.conj(q[j, k])
    return out


def _negative_trace(m):
    w, _ = _spectrum(m)
    return -sum(x for x in w if x < 0)


def _concurrence(rho, rank_cut):
    w, q = _spectrum(rho)
    cols = [k for k, x in enumerate(w) if x > rank_cut]
    big = mpmath.matrix(4, len(cols))
    for j, k in enumerate(cols):
        for i in range(4):
            big[i, j] = mpmath.sqrt(w[k]) * q[i, k]
    tau = big.T * mpmath.matrix(_YY) * big
    s = sorted(mpmath.svd_c(tau, compute_uv=False), reverse=True)
    return max(mpmath.mpf(0), s[0] - sum(s[1:]))


def measures(state, rank_cut=RANK_CUT):
    """``(c, nu, n2)`` of a serialized state, computed from the definitions.

    ``rank_cut=0`` keeps every positive eigenvalue of the stored state, for
    states whose small eigenvalues are genuine rather than rounding residue.
    """
    rho = _matrix(state)
    first = _negative_part(_partial_transpose(rho))
    t1 = sum(mpmath.re(first[i, i]) for i in range(4))
    n2 = t1 + 2 * _negative_trace(_partial_transpose(first))
    return _concurrence(rho, rank_cut), 2 * t1, n2


def region_surfaces(c, nu):
    """Conjectured lower and upper binegativity at fixed (c, nu):
    ``nu (c+nu)(nu+1) / ((c+nu)^2 + 2c(1-c))`` and
    ``(nu/2)(c+nu)^2 / (c^2+nu^2)``."""
    s = c + nu
    return nu * s * (nu + 1) / (s**2 + 2 * c * (1 - c)), nu * s**2 / (2 * (c**2 + nu**2))


def region_excesses(state):
    """40-digit ``(lower - n2, n2 - upper)`` of a serialized state; a
    ``region_eq9`` record's gap is the larger of the two."""
    with mpmath.workdps(DPS):
        c, nu, n2 = measures(state)
        lower, upper = region_surfaces(c, nu)
        return lower - n2, n2 - upper


def certify(records, tol, match=1e-12):
    """Certify upper-surface findings: each record must be a ``region_eq9``
    record whose 40-digit gap lies above the upper surface by more than
    ``tol`` and agrees with ``observed_gap`` to within ``match``.  Returns
    the certified gaps as floats and one message per broken condition."""
    gaps, problems = [], []
    for v in records:
        if v.kind != "region_eq9":
            problems.append(f"index {v.index}: no oracle for kind {v.kind!r}")
            continue
        below, above = region_excesses(complex_matrix_to_json(v.state))
        gap = float(max(below, above))
        gaps.append(gap)
        if not above > tol:
            problems.append(f"index {v.index}: certified excess {float(above):.3e} not above tol")
        if abs(gap - v.observed_gap) > match:
            problems.append(
                f"index {v.index}: certified gap {gap:.16e} != observed {v.observed_gap:.16e}"
            )
    return gaps, problems
