"""Spans around the calls that cross locnash's module boundaries.

Nothing under ``src/`` changes.  ``Tracer.install`` rebinds, in every
locnash namespace except the defining one, each function that another layer
defines (``locnash.relations.map_batch``, ``locnash.structures.get_context``,
...), plus two intra-module call sites whose counts the metrics need
(``relations.find_relation`` as called by ``verify_aat`` / ``dependent``, and
``structures.period_group`` as called by ``z_rank``), plus the evaluation
methods of ``WeierstrassContext``.  Samplers handed to ``find_relation`` are
wrapped as well.  ``descriptors``, ``config`` and ``scalars`` are not
wrapped, so their time counts as the self time of their caller (``cli``).

Spans (name, start, end, parent, task id) are kept in memory and written
out when the run ends.  A span's self time is its duration minus the
durations of its direct children; the task span that encloses each timed
call holds the remainder (benchmark glue inside the timed region).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np

LAYERS = ("lattices", "weierstrass", "structures", "relations", "classify", "cli")
EVAL_METHODS = {
    "wp_many": "wp", "wp_prime_many": "wp_prime", "zeta_many": "zeta",
    "sigma_many": "sigma", "wp": "wp", "wp_prime": "wp_prime", "zeta": "zeta",
    "sigma": "sigma",
}
EVAL_KINDS = ("wp", "wp_prime", "zeta", "sigma")
INTRA_MODULE = {"relations": ("find_relation",), "structures": ("period_group",)}
#: library entry points the benchmark itself calls (module, name)
API = (
    ("cli", "main"), ("weierstrass", "get_context"),
    ("lattices", "index"), ("lattices", "coset_representatives"),
    ("lattices", "is_sublattice"), ("lattices", "common_real_sublattice"),
    ("structures", "period_group"), ("structures", "z_rank"),
    ("relations", "verify_aat"), ("relations", "dependent"),
    ("relations", "find_relation"), ("relations", "translate_algebraicity_check"),
    ("relations", "wp_sampler"),
    ("classify", "classify_1d"), ("classify", "isomorphic_1d"),
    ("classify", "compare_2d"),
)


def plain_api():
    """The entry points in ``API`` as a namespace, untraced."""
    import importlib

    return SimpleNamespace(**{
        name: getattr(importlib.import_module(f"locnash.{mod}"), name) for mod, name in API
    })


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []
        self.task = ""
        self.counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.task))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        name, start, _, parent, task = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, task)
        self._stack.pop()

    def run_task(self, task_id: str, fn):
        """Run fn() inside a root span for one task; returns its result."""
        self.task = task_id
        idx = self._open("task")
        try:
            return fn()
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result, seconds) updates counters."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                _, start, end, _, _ = tracer.spans[idx]
                after(args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-function counters --------------------------------------------------

    def _after(self, mod: str, name: str, fn):
        c = self.counters
        if (mod, name) == ("weierstrass", "get_context"):
            # the lru_cache statistics tell a build from a hit
            state = {}

            def before(*args, **kwargs):
                state["info"] = fn.cache_info()
                return fn(*args, **kwargs)

            def after(args, kwargs, result, dt):
                old, new = state["info"], fn.cache_info()
                c["weierstrass.context_hits"] += new.hits - old.hits
                built = new.misses - old.misses
                c["weierstrass.context_builds"] += built
                if built:
                    c["weierstrass.context_build_s"] += dt

            return before, after
        if (mod, name) == ("structures", "map_batch"):
            def after(args, kwargs, result, dt):
                c["structures.map_batch.points"] += int(np.size(args[1]))
            return fn, after
        if (mod, name) == ("relations", "find_relation"):
            def with_samplers(samplers, *args, **kwargs):
                return fn([self._wrap_sampler(s) for s in samplers], *args, **kwargs)

            def after(args, kwargs, result, dt):
                max_degree = args[1] if len(args) > 1 else kwargs["max_degree"]
                c["relations.degrees_tried"] += result.max_degree if result else max_degree
            return with_samplers, after
        if mod == "classify":
            def after(args, kwargs, result, dt):
                if getattr(result, "outcome", None) == "undetermined":
                    c["classify.undetermined"] += 1
            return fn, after
        if (mod, name) == ("cli", "main"):
            def after(args, kwargs, result, dt):
                argv = args[0] if args else kwargs["argv"]
                c[f"cli.calls.{argv[0]}"] += 1
                if "--out" in argv:
                    out = argv[argv.index("--out") + 1]
                    stem = out[:-4] if out.endswith(".csv") else out
                    for path in (out, f"{stem}_c1.csv", f"{stem}_c2.csv"):
                        if os.path.exists(path):
                            c["cli.bytes_out"] += os.path.getsize(path)
            return fn, after
        return fn, None

    def _wrap_sampler(self, sampler):
        c = self.counters

        def after(args, kwargs, result, dt):
            c["relations.sampler.points"] += int(np.size(args[0]))
            v = np.asarray(result)
            c["relations.sampler.finite"] += int(np.count_nonzero(np.isfinite(v)))

        return self.wrap("relations.sampler", sampler, after)

    def _eval_after(self, kind: str):
        c = self.counters

        def after(args, kwargs, result, dt):
            n = int(np.size(args[1]))
            c[f"weierstrass.points.{kind}"] += n
            c[f"weierstrass.eval_s.{kind}"] += dt
            poles = result.pole_flag if hasattr(result, "pole_flag") else result[2]
            c["weierstrass.poles"] += int(np.count_nonzero(poles))

        return after

    # -- installation --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Rebind the cross-module call sites; returns the traced API namespace."""
        import importlib

        mods = {m: importlib.import_module(f"locnash.{m}") for m in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "locnash" or n.startswith("locnash.")) and m is not None]
        by_name = {}
        for mod, module in mods.items():
            for name, obj in list(vars(module).items()):
                if (isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                call, after = self._after(mod, name, obj)
                traced = by_name[mod, name] = self.wrap(f"{mod}.{name}", call, after)
                for ns in namespaces:
                    if ns is module and name not in INTRA_MODULE.get(mod, ()):
                        continue
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            self._set(ns, attr, traced)
        ctx_cls = mods["weierstrass"].WeierstrassContext
        for meth, kind in EVAL_METHODS.items():
            fn = getattr(ctx_cls, meth)
            self._set(ctx_cls, meth, self.wrap(f"weierstrass.{meth}", fn, self._eval_after(kind)))
        return SimpleNamespace(**{name: by_name[mod, name] for mod, name in API})

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summary ----------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-module calls, inclusive time and self time, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        fn_incl: dict = defaultdict(float)
        fn_self: dict = defaultdict(float)
        wall = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            mod = name.split(".")[0]
            self_s[mod] += dur - child[i]
            fn_self[name] += dur - child[i]
            if name == "task":
                wall += dur
                continue
            calls[mod] += 1
            calls[name] += 1
            fn_incl[name] += dur
            if parent < 0 or self.spans[parent][0].split(".")[0] != mod:
                incl[mod] += dur
        out = {"wall_s": wall, "remainder_s": self_s.pop("task", 0.0), "modules": {}}
        for mod in LAYERS:
            out["modules"][mod] = {"calls": calls[mod], "s": incl[mod], "self_s": self_s[mod]}
        out["functions"] = {
            name: {"calls": calls[name], "s": fn_incl[name], "self_s": fn_self[name]}
            for name in sorted(fn_incl)
        }
        out["counters"] = dict(sorted(self.counters.items()))
        out["us_per_point"] = {
            kind: 1e6 * self.counters[f"weierstrass.eval_s.{kind}"] / n
            for kind in EVAL_KINDS if (n := self.counters[f"weierstrass.points.{kind}"])
        }
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
