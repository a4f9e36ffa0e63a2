"""Deterministic JSON and CSV emission.

Floats are always written with 17 significant digits, enough to round-trip a
double exactly, so rerunning a command with the same seed produces
byte-identical files and downstream parsers recover the exact values.
Dictionaries serialize in insertion order; nothing here consults the clock,
the platform, or hash randomization.

JSON text comes from one emitter, :func:`_emit`, in pieces: a dict yields
its entries' pieces as they come, a list one piece per entry.  A complex
matrix, a record's state or a Kraus operator, stays an array until here:
a finite one is written as its ``[re, im]`` pairs in one ``%`` of a cached
template, any other as :func:`complex_matrix_to_json`'s lists, NaN as null.
:func:`dumps` joins them; :func:`dump` writes them to a file, so the CLI
writes a report record by record and never holds its text whole.  The
seed-42 ``verify region`` report of 1e5 rank-2 states (532 records,
0.86 MB) is emitted with a 0.16 MB allocation peak instead of 2.6 MB, and
the 1e6-state sweep (8.5 MB) peaks at 58 MB of resident memory instead
of 90 MB.

CSV sheets are written from text: :func:`csv_rows` formats columns of floats
as rows, and :func:`write_csv` writes a header and such texts.  The figure
workers format their own chunk of a scatter sheet with :func:`csv_rows`, so
the process that writes the sheet formats none of its rows.

:func:`csv_rows` builds ``format(x, ".17g")`` of all cells with array
operations.  The digits of ``|x|`` are ``|x| * 10**(16 - E)`` rounded
half-even, ``E`` its decimal exponent, computed as a double-double: Dekker's
TwoProduct with ``hi`` of ``10**k = hi + lo``, plus ``|x| * lo``; its place
against 1e16 and 1e17 corrects the ``log10`` estimate of ``E`` once.  For
``0 <= k <= 22`` the product is exact, so ``np.rint`` resolves true ties as
``%.17g`` does; elsewhere its error is below 1e-14 of a unit.  Small tables
give the characters as NUL-padded words, and one ``bytes.translate`` drops
the NULs.  A call falls back to one ``%.17g`` template for every cell if one
is not finite, is nonzero outside ``1e-200 < |x| < 1e200``, or lies within
1e-12 of a tie where ``lo != 0``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from .errors import ParseError


def fmt_float(x):
    """17-significant-digit decimal form of a float."""
    return format(float(x), ".17g")


def complex_matrix_to_json(m):
    """Nested lists of ``[re, im]`` pairs for a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def complex_matrix_from_json(data):
    """Inverse of :func:`complex_matrix_to_json`; raises ParseError on any
    shape other than rows x cols x 2, and on an entry that is not a finite
    int or float: a bool, a numeric string or a null is not read as one."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix entries are not numeric: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ParseError(
            f"expected nested [re, im] pairs, got array of shape {arr.shape}"
        )
    for x in (x for row in data for pair in row for x in pair):
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise ParseError(f"matrix entries are finite numbers, got {x!r}")
    return arr[..., 0] + 1j * arr[..., 1]


def _bracket(entries, depth, ends="[]"):
    """The pieces of a container at ``depth`` whose entries come as
    iterables of pieces: one entry per line, indented one level deeper than
    the closing bracket, each separator joined to its entry's first piece."""
    inner = "\n" + "  " * (depth + 1)
    sep = ends[0] + inner
    for pieces in entries:
        pieces = iter(pieces)
        yield sep + next(pieces)
        yield from pieces
        sep = "," + inner
    # with no entry, the brackets alone
    yield ends if sep[0] == ends[0] else f"\n{'  ' * depth}{ends[1]}"


@functools.cache
def _pairs_template(depth, rows, cols):
    """The text of ``rows`` lists of ``cols`` ``[re, im]`` pairs at
    ``depth``, with a ``%.17g`` for each float: a state matrix's layout."""
    pair = "".join(_bracket([["%.17g"], ["%.17g"]], depth + 2))
    row = "".join(_bracket([[pair]] * cols, depth + 1))
    return "".join(_bracket([[row]] * rows, depth))


def _scalar(obj):
    """The JSON text of a value that is not a container."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return fmt_float(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _emit(obj, depth):
    """The JSON text of ``obj`` at ``depth``, in pieces: a dict yields its
    entries' pieces as they come, a list one piece per entry."""
    if isinstance(obj, dict):
        entries = (itertools.chain((f"{json.dumps(str(k))}: ",), _emit(v, depth + 1)) for k, v in obj.items())
        yield from _bracket(entries, depth, "{}")
    elif isinstance(obj, (list, tuple)):
        yield from _bracket((("".join(_emit(v, depth + 1)),) for v in obj), depth)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "c" and obj.ndim == 2:
        flat = np.ascontiguousarray(obj).view(float).ravel().tolist()
        # a finite matrix in one ``%``, as fmt_float formats each float; a NaN
        # or an infinity makes the sum one, and so may an overflowing finite
        # sum: such a matrix goes through its lists, which write NaN as null
        if math.isfinite(sum(flat)):
            yield _pairs_template(depth, *obj.shape) % tuple(flat)
        else:
            yield from _emit(complex_matrix_to_json(obj), depth)
    elif isinstance(obj, np.ndarray):
        yield from _emit(obj.tolist(), depth)
    else:
        yield _scalar(obj)


def dumps(obj):
    """Deterministic JSON text with 17-significant-digit floats and a
    trailing newline."""
    return "".join(_emit(obj, 0)) + "\n"


def dump(obj, f):
    """Write :func:`dumps`' text of ``obj`` to the text file ``f`` piece by
    piece, one write per entry of a list, so the text is never held whole."""
    f.writelines(_emit(obj, 0))
    f.write("\n")


def _split(a):
    """Dekker's split of ``a`` into two halves of 26 bits each."""
    c = 134217729.0 * a
    return c - (c - a), a - (c - (c - a))


@functools.cache
def _tables():
    """The tables of :func:`_cells`, built on first use in a process."""
    # 10**k = hi + lo for k = 16 - E, E in [-201, 200]: the exactly rounded
    # 10**(22 q) times the double 10**r by TwoProduct, within 2**-104
    q, r = np.divmod(np.arange(-184, 218), 22)
    seeds = []
    for num, den in ((10 ** (22 * j), 1) if j >= 0 else (1, 10 ** (-22 * j)) for j in range(q[0], q[-1] + 1)):
        m, d = (num / den).as_integer_ratio()
        seeds.append((m / d, (num * d - m * den) / (den * d)))
    sh, sl = np.array(seeds)[q - q[0]].T
    t = 10.0**r
    p = sh * t
    (ah, al), (bh, bl) = _split(sh), _split(t)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl + sl * t
    hi = p + e
    # a group j of value v: the place of its last nonzero digit; its text by
    # v, digits kept (0-3) and point slot (0-2; 3 none)
    v, j3 = np.arange(1000), np.arange(0, 18, 3)
    tails = np.where(v > 0, j3[:, None] + 2 - (v % 10 == 0) - (v % 100 == 0), -1)
    chars = np.zeros((1000, 5), np.uint8)
    chars[:, :3], chars[:, 4] = 48 + v[:, None] // [100, 10, 1] % 10, 46
    keep, slot, c = np.arange(4)[:, None, None], np.arange(4)[:, None], np.arange(4)
    i = c - (c > slot)
    groups = chars[:, np.where((c == slot) & (slot < 3), 4, np.where(i < keep, i, 3))]
    # by a cell's digits kept and point place (0 none): each group's 4 keep + slot
    keep, point = np.arange(18)[:, None, None], np.arange(17)[:, None]
    slot = np.where((point > 0) & (point >= j3) & (point < j3 + 3), point - j3, 3)
    # by exponent X: digits before the point, zeros of "0.000", exponent text
    x = np.arange(-200, 201)
    fixed = (x >= -4) & (x < 17)
    prefixes = b"".join((sign + (b"0." + b"0" * (z - 1) if z else b"")).ljust(8, b"\0")
                        for sign in (b"", b"-") for z in range(5))
    exps = np.zeros((401, 2, 8), np.uint8)
    exps[:, :, 5] = [44, 10]
    exps[~fixed, :, :2] = np.stack([101 + 0 * x, 44 - np.sign(x)], 1)[~fixed, None]
    exps[~fixed, :, 2:5] = (48 + abs(x[~fixed, None]) // [100, 10, 1] % 10)[:, None]
    exps[abs(x) < 100, :, 2] = 0
    return (*_split(hi), e - (hi - p), tails.ravel().astype(np.int8), np.ascontiguousarray(groups).view(np.uint32).ravel(),
            (np.clip(keep - j3, 0, 3) * 4 + slot).astype(np.int8), np.where(fixed, np.maximum(x + 1, 0), 1),
            np.where(fixed & (x < 0), -x, 0), np.frombuffer(prefixes, np.uint64), exps.view(np.uint64).ravel())


def _scaled(a, e10, hh, hl, lo):
    """``a * 10**(16 - e10)`` as ``p + l``: ``p`` rounded, ``l`` the rest."""
    i = 200 - e10
    ah, al = _split(a)
    p = a * (hh[i] + hl[i])
    return p, (((ah * hh[i] - p) + ah * hl[i] + al * hh[i]) + al * hl[i]) + a * lo[i]


def _cells(x, cols):
    """The CSV text of cells ``x`` in rows of ``cols``, or None to fall back."""
    hh, hl, lo, tails, groups, modes, wholes, zeros, prefixes, exps = _tables()
    a = np.abs(x)
    zero = a == 0
    if not np.all(zero | (a > 1e-200) & (a < 1e200)):
        return None
    a[zero] = 1.0
    e10 = np.floor(np.log10(a)).astype(np.int64)
    p, l = _scaled(a, e10, hh, hl, lo)
    fix = np.flatnonzero((p < 1e16) | (p == 1e16) & (l < 0) | (p > 1e17) | (p == 1e17) & (l >= 0))
    e10[fix] += np.where(p[fix] > 5e16, 1, -1)
    p[fix], l[fix] = _scaled(a[fix], e10[fix], hh, hl, lo)
    if np.any((np.abs(l - np.floor(l) - 0.5) < 1e-12) & (lo[200 - e10] != 0)):
        return None
    # p >= 1e16 is even, so rint(l) rounds p + l half-even
    d = p.astype(np.int64) + np.rint(l).astype(np.int64)
    up = d == 10**17
    d[up], e10[up], d[zero], e10[zero] = 10**16, e10[up] + 1, 0, 0
    i = e10 + 200
    # the digits and a 0, as two 9-digit halves, as six 3-digit groups
    top = d // 10**8
    h = np.stack([top, (d - top * 10**8) * 10])
    h1 = h // 1000
    h2 = h1 // 1000
    v = np.stack([h2, h1 - h2 * 1000, h - h1 * 1000], 1).reshape(6, -1)
    whole = wholes[i]
    keep = np.maximum(whole, np.max(tails[v + np.arange(0, 6000, 1000)[:, None]], 0) + 1)
    out = np.empty((len(x), 5), np.uint64)
    out[:, 0] = prefixes[np.signbit(x) * 5 + zeros[i]]
    out.view(np.uint32)[:, 2:8] = groups[v.T * 16 + modes[keep, np.where(keep > whole, whole, 0)]]
    ends = i.reshape(-1, cols) * 2
    ends[:, -1] += 1
    out[:, 4] = exps[ends.ravel()]
    return out.tobytes().translate(None, b"\0").decode("ascii")


def csv_rows(*columns):
    """The rows of equal-length float ``columns`` as CSV text, one
    LF-terminated line per row.  Each cell is :func:`fmt_float`'s text,
    built with array operations as the module docstring describes, 1024
    rows at a time to bound their memory, or, if the call falls back, by one
    row template repeated for every row."""
    x = np.column_stack(columns).astype(float).ravel()
    step = 1024 * len(columns)
    parts = [_cells(x[i : i + step], len(columns)) for i in range(0, len(x), step)]
    if None not in parts:
        return "".join(parts)
    return ((",".join(["%.17g"] * len(columns)) + "\n") * len(columns[0])) % tuple(x.tolist())


def write_csv(path, header, texts):
    """Comma-separated file with LF line endings: the ``header`` row, then
    ``texts``, rows already formatted by :func:`csv_rows`, in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(texts)


def _cell(x):
    """One cell of a short CSV row of mixed types: a report's or a state's."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return fmt_float(x)
