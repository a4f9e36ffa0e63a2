"""Deterministic JSON and CSV emission.

Floats are always written with 17 significant digits, enough to round-trip a
double exactly, so rerunning a command with the same seed produces
byte-identical files and downstream parsers recover the exact values.
Dictionaries serialize in insertion order; nothing here consults the clock,
the platform, or hash randomization.

CSV sheets are written from text: :func:`csv_rows` formats columns of floats
as rows, and :func:`write_csv` writes a header and such texts.  The figure
workers format their own chunk of a scatter sheet with :func:`csv_rows`, so
the process that writes the sheet formats none of its rows.
"""

from __future__ import annotations

import functools
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
    shape other than rows x cols x 2."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix entries are not numeric: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ParseError(
            f"expected nested [re, im] pairs, got array of shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _bracket(items, depth, ends="[]"):
    """The texts ``items`` of a container's entries at ``depth``, one per
    line, indented one level deeper than its closing bracket."""
    if not items:
        return ends
    inner = "  " * (depth + 1)
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{'  ' * depth}{ends[1]}"


@functools.cache
def _pairs_template(depth, rows, cols):
    """The text of ``rows`` lists of ``cols`` ``[re, im]`` pairs at
    ``depth``, with a ``%.17g`` for each float: a state matrix's layout."""
    pair = _bracket(["%.17g", "%.17g"], depth + 2)
    return _bracket([_bracket([pair] * cols, depth + 1)] * rows, depth)


def _pairs(obj):
    """The floats of ``obj``, in order, if it holds equally long, non-empty
    lists of ``[re, im]`` lists of finite floats, else None."""
    if not obj or type(obj[0]) is not list or not obj[0]:
        return None
    flat, cols = [], len(obj[0])
    for row in obj:
        if type(row) is not list or len(row) != cols:
            return None
        for pair in row:
            if type(pair) is not list or len(pair) != 2:
                return None
            flat += pair
    # a NaN or an infinity makes the sum one; a finite sum may overflow, which
    # only sends the list down the general path
    if not all(type(x) is float for x in flat) or not math.isfinite(sum(flat)):
        return None
    return flat


def _emit(obj, depth):
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
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist(), depth)
    if isinstance(obj, dict):
        return _bracket([f"{json.dumps(str(k))}: {_emit(v, depth + 1)}" for k, v in obj.items()], depth, "{}")
    if isinstance(obj, (list, tuple)):
        # a state matrix is formatted in one ``%``, as fmt_float formats each float
        flat = _pairs(obj)
        if flat is not None:
            return _pairs_template(depth, len(obj), len(obj[0])) % tuple(flat)
        return _bracket([_emit(v, depth + 1) for v in obj], depth)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj):
    """Deterministic JSON text with 17-significant-digit floats and a
    trailing newline."""
    return _emit(obj, 0) + "\n"


def csv_rows(*columns):
    """The rows of equal-length float ``columns`` as CSV text, one
    LF-terminated line per row.  Each cell is :func:`fmt_float`'s text:
    ``%.17g`` is the same conversion as ``format(x, ".17g")``, and one row
    template repeated for every row formats them all in one ``%``."""
    template = (",".join(["%.17g"] * len(columns)) + "\n") * len(columns[0])
    return template % tuple(np.column_stack(columns).ravel().tolist())


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
