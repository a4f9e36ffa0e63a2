"""In-memory span tracer that measures bineg's layers from outside.

``Tracer.install`` replaces every public function defined in a bineg layer
module, in every ``bineg.*`` namespace that binds it, with a wrapper that
records one span: name, parent span, start, end, and the number of matrices
it was handed.  Module globals are those namespaces, so calls inside the
package (``harness`` calling ``measures.binegativity``, ``channels`` calling
its own ``project_to_ppt_channel``) pass through the wrappers.  The
``numpy.linalg`` entry points ``eigh``, ``eigvalsh`` and ``qr`` are wrapped
the same way under the ``lapack`` layer.  ``uninstall`` puts every original
binding back; no file of the package is touched.

Private helpers are not wrapped, so their time is self time of the public
function that called them (``harness._bound_gaps`` counts as
``harness.verify_region``).
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

import numpy as np

_NAMESPACES = ("bineg", "bineg.cli", "bineg.harness", "bineg.channels", "bineg.measures",
               "bineg.states", "bineg.linalg", "bineg.serialize")
# Called once per CSV cell: a span around it would cost more than the call.
_UNWRAPPED = frozenset({"serialize.fmt_float"})
# eigvalsh is the same LAPACK Hermitian solver as eigh, without eigenvectors.
_LAPACK = {"eigh": "lapack.eigh", "eigvalsh": "lapack.eigh", "qr": "lapack.qr"}
_PPT = "channels.project_to_ppt_channel"


def _matrices(args, result):
    """Matrices in the first array argument, else in an array result."""
    for a in args:
        if isinstance(a, np.ndarray):
            return math.prod(a.shape[:-2]) if a.ndim >= 2 else 0
    if isinstance(result, np.ndarray) and result.ndim >= 2:
        return math.prod(result.shape[:-2])
    return 0


class Tracer:
    """Records spans while installed; ``fold`` adds them to the totals.

    ``totals`` maps a function name to ``[calls, matrices, self_s]``;
    ``wall_s`` is the time inside root spans and ``ppt_eigensolves`` counts
    the LAPACK eigensolves made under ``project_to_ppt_channel``.
    """

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, matrices]
        self.totals = {}
        self.wall_s = 0.0
        self.ppt_eigensolves = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                span[4] = _matrices(args, result)

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for modname in _NAMESPACES:
            mod = importlib.import_module(modname)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith("bineg."):
                    continue
                name = f"{fn.__module__[len('bineg.'):]}.{fn.__name__}"
                if name in _UNWRAPPED:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, name)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        for attr, name in _LAPACK.items():
            fn = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._wrap(fn, name))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def fold(self):
        """Add the recorded spans to the totals and forget them."""
        spans = self.spans
        child = [0.0] * len(spans)
        under_ppt = [False] * len(spans)
        for i, (name, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                under_ppt[i] = under_ppt[parent] or spans[parent][0] == _PPT
            else:
                self.wall_s += end - start
        for i, (name, _, start, end, matrices) in enumerate(spans):
            row = self.totals.setdefault(name, [0, 0, 0.0])
            row[0] += 1
            row[1] += matrices
            row[2] += end - start - child[i]
            if under_ppt[i] and name == "lapack.eigh":
                self.ppt_eigensolves += 1
        spans.clear()
