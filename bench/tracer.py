"""In-memory span tracer that wraps atomchain's public functions from outside.

A span is (id, name, start, end, parent, thread, failed, extra).  Spans are
appended to a list when they close and written out once, when the traced
process ends.  A thread that opens a span with an empty stack of its own
(a worker of the ensemble thread pool) takes the innermost open span of the
main thread as its parent, so pool cells nest under run_ensemble.

Self time is wall time split over the spans doing the work: at each instant
the open spans with no open child share it equally.  The self times of one
process therefore add up exactly to the time covered by its spans, even
while several pool threads run at once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# Public functions called per k-point, per site or per atom pair.  A span
# there costs more than the work it would time, so they stay inside their
# caller's self time.
SCALAR_HELPERS = {
    "atomchain.chain_model": {"flatten_index", "unflatten_index", "positions"},
    "atomchain.collective_couplings": {"dyadic_green", "pair_coupling"},
    "atomchain.hamiltonian": {"single_atom_block"},
    "atomchain.spectrum": {"lattice_sum", "coupling_fourier_sum"},
}
MODULES = (
    "atomchain.cli",
    "atomchain.chain_model",
    "atomchain.collective_couplings",
    "atomchain.hamiltonian",
    "atomchain.spectrum",
    "atomchain.scattering",
    "atomchain.dynamics",
    "atomchain.ensemble",
)
# (module, class, method) -> span name; run_cell is the ensemble's unit of work.
METHODS = {
    ("atomchain.dynamics", "Propagator", "__init__"): "dynamics.Propagator.init",
    ("atomchain.dynamics", "Propagator", "apply"): "dynamics.Propagator.apply",
    ("atomchain.ensemble", "_ConfigRunner", "run_cell"): "ensemble.run_cell",
}
# Dense linear algebra, recorded only for matrices larger than 2 x 2 so that
# the per-k 2 x 2 Bloch eigensolves stay in bloch_bands' self time.
LINALG = (
    ("numpy.linalg", "eig"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "cond"),
    ("numpy.linalg", "inv"),
    ("scipy.linalg", "lu_factor"),
    ("scipy.linalg", "expm"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, extra=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        sid = next(self._ids)
        stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            info = None
            if extra is not None and not failed:
                info = extra(args, kwargs, result)
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), failed, info)
            )

    def wrap(self, fn, name, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return wrapper


def _kpoints(args, kwargs, result):
    return {"kpoints": int(result.k_grid.size)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


EXTRAS = {"spectrum.bloch_bands": _kpoints, "cli.write_table": _bytes_written}


def _linalg_wrapper(tracer: Tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if getattr(a, "ndim", 0) == 2 and a.shape[0] > 2:
            return tracer.call(name, fn, (a,) + args, kwargs)
        return fn(a, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every layer function, in every atomchain namespace that holds it."""
    replacements = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        skip = SCALAR_HELPERS.get(module_name, set())
        for attr, value in vars(module).items():
            if (
                callable(value)
                and not isinstance(value, type)
                and not attr.startswith("_")
                and getattr(value, "__module__", None) == module_name
                and attr not in skip
            ):
                name = f"{module_name.split('.', 1)[1]}.{attr}"
                replacements[id(value)] = (value, tracer.wrap(value, name, EXTRAS.get(name)))
    for (module_name, cls_name, method), name in METHODS.items():
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), name))
    for module_name, attr in LINALG:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = _linalg_wrapper(tracer, original, f"linalg.{attr}")
        setattr(module, attr, wrapped)
        replacements[id(original)] = (original, wrapped)

    for module_name in list(sys.modules):
        if module_name != "atomchain" and not module_name.startswith("atomchain."):
            continue
        namespace = vars(sys.modules[module_name])
        for attr, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]


def self_times(spans) -> tuple[dict[int, float], float]:
    """Self time per span id, and the total time covered by spans.

    Sweep over span boundaries; in each interval the open spans without an
    open child share the interval equally.
    """
    events = []
    for sid, _, start, end, parent, *_ in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, sid, parent))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children: dict[int, int] = {}
    self_s: dict[int, float] = defaultdict(float)
    covered = 0.0
    last = None
    for t, kind, sid, parent in events:
        if last is not None and t > last and open_children:
            leaves = [s for s, n in open_children.items() if n == 0]
            share = (t - last) / len(leaves)
            for s in leaves:
                self_s[s] += share
            covered += t - last
        last = t
        if kind == 1:
            open_children[sid] = 0
            if parent in open_children:
                open_children[parent] += 1
        else:
            del open_children[sid]
            if parent in open_children:
                open_children[parent] -= 1
    return dict(self_s), covered
