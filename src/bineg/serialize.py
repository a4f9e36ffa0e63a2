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


def _emit(obj, depth):
    pad = "  " * depth
    inner = "  " * (depth + 1)
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
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, depth + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_emit(v, depth + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
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
