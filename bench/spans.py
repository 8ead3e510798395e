"""Layer spans recorded from outside the program.

`Recorder.install()` replaces each public function of the package's layer
modules with a wrapper that appends a span (name, start, end, parent,
counters) to an in-memory list.  The wrapper goes on every module
attribute that holds the original function, so a call through a
from-import binding (`search.lambda1`) is caught as well as one through
the module (`spectral.lambda1`).  `uninstall()` puts the originals back.

Not wrapped: generator functions (their body runs while the caller
iterates, so their time stays in the caller's self time, as the
enumeration does in `search.max_lambda1`) and the per-vertex helpers in
`PER_ELEMENT`, which run once per vertex or line and would make the
tracing cost larger than the work it measures.

A span's self time is its duration minus its children's durations;
calls are strictly nested in one thread, so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("core", "compress", "spectral", "subcubes", "search", "cli")
PACKAGE = "cubespectra"

PER_ELEMENT = frozenset({
    "core.vertex_of", "core.elements_of", "core.vertex_str",
    "core.binary_compare", "core.popcount", "core.mask_to_binary_string",
    "core.binary_string_to_mask",
})

DEFAULT_TOL = 1e-10


def _lambda1_counters(args, kwargs, result):
    tol = kwargs.get("tol", args[1] if len(args) > 1 else DEFAULT_TOL)
    return {
        "n": len(args[0]),
        "iterations": result.iterations,
        "uncertified": int(result.converged and result.error_bound > tol),
    }


# Counters read off a layer's arguments and return value at its boundary.
COUNTERS = {
    "spectral.lambda1": _lambda1_counters,
    "core.induced_edges": lambda a, k, r: {"edges": len(r)},
    "compress.fully_compress": lambda a, k, r: {"steps": len(r[1])},
    "search.max_lambda1": lambda a, k, r: {"families": r.search_space_size},
}


class Recorder:
    """Collects spans while installed; `take()` hands them over."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counters is not None:
                rec[4] = counters(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)
                        or name in PER_ELEMENT):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds `s`, `self_s`, summed counters.

    No wrapped function re-enters itself, so summing durations per name
    counts no interval twice.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent, counters) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - child_time[idx]
        for key, value in (counters or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def root_time(spans: list[list]) -> float:
    """Seconds covered by top-level spans."""
    return sum(rec[2] - rec[1] for rec in spans if rec[3] < 0)


def lambda1_nnz_touched(spans: list[list]) -> int:
    """Computed, not counted: iterations x stored nonzeros of A + I.

    The dense path (n <= 64) stores all n^2 entries; the sparse path
    stores 2|E| + n, with |E| read off the child `core.induced_edges`.
    """
    edges: dict[int, int] = {}
    for rec in spans:
        if rec[0] == "core.induced_edges" and rec[3] >= 0:
            edges[rec[3]] = edges.get(rec[3], 0) + rec[4]["edges"]
    total = 0
    for idx, rec in enumerate(spans):
        if rec[0] != "spectral.lambda1" or rec[4] is None:
            continue
        n = rec[4]["n"]
        stored = n * n if n <= 64 else 2 * edges.get(idx, 0) + n
        total += rec[4]["iterations"] * stored
    return total
