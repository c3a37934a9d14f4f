"""Span tracing of nhdeg's public functions, from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
nhdeg modules with a wrapper that records a span (name, start, end, parent,
thread) plus a few counts taken from the call's arguments or result.  A
function is replaced at every name it is bound under: ``from .model import
f`` copies ``f`` into the importing module, so each nhdeg module's globals
(and the package namespace) are searched for the original object.
``uninstall`` puts the originals back, so untraced jobs run unwrapped code.

Spans stay in memory; ``write_csv`` dumps them when the run ends, and
``layer_metrics`` reduces them to the per-layer metrics that BENCHMARK.json
names.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import os
import threading
import time

import numpy as np

TRACED_MODULES = ("model", "linalg", "scanner", "theorem", "symmetry",
                  "ribbon", "serialize", "cli")


def _attrs(name, args, kwargs, result):
    """Counts recorded on a span, read from the call or its result."""
    if name == "model.discriminant_function":
        return {"points": int(np.size(result))}
    if name == "model.dispersion":
        return {"points": int(np.size(result[0]))}
    if name == "linalg.eigensystem_n":
        dim = int(np.shape(args[0] if args else kwargs["H"])[0])
        return {"dim3": dim ** 3}
    if name == "scanner.find_degeneracies":
        return {"candidates": result.n_candidates, "points": len(result.points),
                "dropped": result.n_dropped}
    if name == "scanner.zero_curves":
        return {"polylines": len(result.polylines),
                "point_zeros": len(result.point_zeros)}
    if name == "theorem.run_ensemble":
        return {"trials": result["trials"],
                "passed_trials": result["trials"] - len(result["failures"])}
    if name.startswith("serialize.write_"):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    if name == "cli.cmd_ribbon":
        return {"k_samples": args[0].k_samples}
    return None


class Tracer:
    """Wraps nhdeg's public functions and collects spans while installed."""

    def __init__(self):
        self.spans = []      # (id, parent, name, thread, start, end, attrs, job)
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []   # (namespace dict, key, original, wrapper)
        modules = [importlib.import_module(f"nhdeg.{m}") for m in TRACED_MODULES]
        namespaces = [vars(m) for m in modules] + [vars(importlib.import_module("nhdeg"))]
        for short, mod in zip(TRACED_MODULES, modules):
            for key, fn in list(vars(mod).items()):
                if (key.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{key}", fn)
                for ns in namespaces:
                    for alias, obj in list(ns.items()):
                        if obj is fn:
                            self._patches.append((ns, alias, fn, wrapper))

    def install(self):
        for ns, key, _, wrapper in self._patches:
            ns[key] = wrapper

    def uninstall(self):
        for ns, key, original, _ in self._patches:
            ns[key] = original

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's first span hangs under the main thread's open span
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, sid, parent, name, start, None)
                raise
            tracer._close(stack, sid, parent, name, start,
                          lambda: _attrs(name, args, kwargs, result))
            return result

        return wrapper

    def _close(self, stack, sid, parent, name, start, attrs):
        end = time.perf_counter()
        stack.pop()
        self.spans.append((sid, parent, name, threading.get_ident(), start, end,
                           attrs() if attrs else None, self.job))

    def write_csv(self, path, origin):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["job", "id", "parent", "name", "thread", "start_s",
                          "end_s", "attrs"])
            for sid, parent, name, thread, start, end, attrs, job in self.spans:
                out.writerow([job, sid, parent, name, thread, f"{start - origin:.9f}",
                              f"{end - origin:.9f}", attrs or ""])


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans):
    """Per span name: calls, total_s, self_s and summed attrs."""
    children = {}
    for sid, parent, name, thread, start, end, attrs, job in spans:
        children.setdefault(parent, []).append((start, end))
    stats = {}
    for sid, parent, name, thread, start, end, attrs, job in spans:
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += (end - start) - _covered(children.get(sid, ()))
        for key, value in (attrs or {}).items():
            st[key] = st.get(key, 0) + value
    return stats


def _eig_per_momentum(spans):
    """eigensystem_n calls under `nhdeg ribbon` per requested momentum."""
    by_id = {s[0]: s for s in spans}
    ribbon_ids = {s[0] for s in spans if s[2] == "cli.cmd_ribbon"}
    k_total = sum(by_id[i][6]["k_samples"] for i in ribbon_ids)
    if not k_total:
        return 0.0
    eig = 0
    for s in spans:
        if s[2] != "linalg.eigensystem_n":
            continue
        parent = s[1]
        while parent and parent not in ribbon_ids:
            parent = by_id[parent][1] if parent in by_id else 0
        eig += bool(parent)
    return eig / k_total


# per-layer metrics whose span or statistic is not "<span>.<statistic>"
_RENAMED = {
    "scanner.candidates": ("scanner.find_degeneracies", "candidates"),
    "scanner.points": ("scanner.find_degeneracies", "points"),
    "scanner.dropped": ("scanner.find_degeneracies", "dropped"),
    "scanner.polylines": ("scanner.zero_curves", "polylines"),
    "scanner.point_zeros": ("scanner.zero_curves", "point_zeros"),
}


def _span_stat(metric):
    """(span name, statistic) that a per-layer metric name reads."""
    if metric in _RENAMED:
        return _RENAMED[metric]
    span, _, stat = metric.rpartition(".")
    if stat == "dim3_sum":
        stat = "dim3"
    if span.startswith("cli."):
        span = "cli.cmd_" + span[len("cli."):]
    return span, stat


def span_cost_s(calls=20000):
    """Seconds one traced call adds to an untraced one, timed on a no-op."""
    probe = Tracer()

    def noop():
        return None

    wrapped = probe._wrap("probe", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def layer_metrics(spans, n_jobs, names, span_cost):
    """The named per-layer metrics, per traced job.

    Layers a workload never reaches read 0.  ``trace.overhead_s`` is the
    measured cost of one span times the spans of a traced job.
    """
    stats = aggregate(spans)
    fd = stats.get("scanner.find_degeneracies", {})
    ens = stats.get("theorem.run_ensemble", {})
    derived = {
        "scanner.points_per_candidate": (fd["points"] / fd["candidates"]
                                         if fd.get("candidates") else 0.0),
        "ribbon.eig_per_momentum": _eig_per_momentum(spans),
        "theorem.trials_passed_frac": (ens["passed_trials"] / ens["trials"]
                                       if ens.get("trials") else 0.0),
        "trace.overhead_s": span_cost * len(spans) / n_jobs,
    }
    out = {}
    for metric in names:
        if metric in derived:
            out[metric] = derived[metric]
        else:
            span, stat = _span_stat(metric)
            out[metric] = stats.get(span, {}).get(stat, 0) / n_jobs
    return out
