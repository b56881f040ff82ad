"""Outside-in span tracing of the qdynmaps modules.

The tracer wraps each module's public functions from outside the library:
it rebinds the module attribute and every `from ... import` alias of the
same function in the other modules (`channels.kron`, `opendyn.partial_trace`,
...), so calls made inside the library are attributed too. Spans (name,
start, end, parent, item) are kept in memory and written out when the run
ends; self time is a span's duration minus the time its direct children
cover (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

MODULES = ("matcore", "states", "channels", "opendyn", "compatdomain", "cli")

# Helpers too small to be worth a span; their time stays with the caller.
SKIP = {"dag", "vec", "unvec", "mat_close", "is_hermitian", "hermiticity_residual",
        "ket", "projector", "assign"}
# Public entry points that are not listed in `__all__`.
EXTRA = {
    "channels": ("minimize_output_min_eig", "fibonacci_bloch"),
    "cli": ("main", "cmd_check", "cmd_paper_case", "cmd_reduce", "cmd_domain"),
}
# Methods traced under a module-level name.
METHODS = {"opendyn.unitary_at": ("opendyn", "ReducedDynamics", "unitary_at")}


def _min_eig_batch_hook(counts, args, kwargs, result):
    counts["matcore.min_eig_batch.matrices"] += int(np.shape(args[0])[0])


def _search_hook(counts, args, kwargs, result):
    counts["channels.search.calls"] += 1
    counts["channels.search.samples"] += int(result[2])


HOOKS = {
    "matcore.min_eig_batch": _min_eig_batch_hook,
    "channels.minimize_output_min_eig": _search_hook,
}


class Tracer:
    """Installs span-recording wrappers on a loaded qdynmaps package."""

    def __init__(self, qd):
        self.qd = qd
        self.names: list[str] = ["item"]
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._item = -1
        self._bindings = self._bind()

    # -- installation ---------------------------------------------------------

    def _targets(self):
        for mod_name in MODULES:
            mod = getattr(self.qd, mod_name)
            names = [n for n in getattr(mod, "__all__", ()) if n not in SKIP]
            names += EXTRA.get(mod_name, ())
            for n in names:
                fn = getattr(mod, n)
                if callable(fn) and not isinstance(fn, type) and getattr(
                        fn, "__module__", None) == mod.__name__:
                    yield f"{mod_name}.{n}", fn

    def _bind(self) -> list:
        """(owner, attribute, original, wrapper) for every rebinding."""
        wrapped = {fn: self._wrap(fn, span_name) for span_name, fn in self._targets()}
        out = []
        # Every alias of a wrapped function in every module.
        for mod_name in MODULES:
            mod = getattr(self.qd, mod_name)
            for attr, val in vars(mod).items():
                if callable(val) and val in wrapped:
                    out.append((mod, attr, val, wrapped[val]))
        for span_name, (mod_name, cls_name, meth) in METHODS.items():
            cls = getattr(getattr(self.qd, mod_name), cls_name)
            orig = cls.__dict__[meth]
            out.append((cls, meth, orig, self._wrap(orig, span_name)))
        return out

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)

    def _wrap(self, fn, span_name):
        name_id = len(self.names)
        self.names.append(span_name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, items, stack = self.parents, self.items, self._stack
        hook = HOOKS.get(span_name)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            items.append(self._item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- item root spans ------------------------------------------------------

    def begin_item(self) -> None:
        idx = len(self.starts)
        self._item = idx
        self.name_ids.append(0)
        self.parents.append(-1)
        self.items.append(idx)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())

    def end_item(self) -> None:
        self.ends[self._item] = time.perf_counter()
        del self._stack[1:]
        self._item = -1

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.asarray(self.name_ids, dtype=np.int32),
            "start": np.asarray(self.starts),
            "end": np.asarray(self.ends),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "item": np.asarray(self.items, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Per-function calls and self seconds, per-module self seconds, and
        call counts keyed by (child, parent) span names."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, a["parent"][child], dur[child])
        self_s = dur - covered
        ids = a["name_id"]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_by_name = np.bincount(ids, weights=self_s, minlength=n)
        out = {"calls": {}, "self_s": {}, "module_self_s": Counter(), "parent_calls": Counter()}
        for k, name in enumerate(self.names):
            out["calls"][name] = int(calls[k])
            out["self_s"][name] = float(self_by_name[k])
            out["module_self_s"][name.split(".")[0]] += float(self_by_name[k])
        pid = np.where(child, ids[np.maximum(a["parent"], 0)], -1)
        for (c, p), cnt in Counter(zip(ids[child].tolist(), pid[child].tolist())).items():
            out["parent_calls"][(self.names[c], self.names[p])] += cnt
        return out
