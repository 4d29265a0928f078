"""Span tracing of nilcoh's public functions, installed from outside the package.

`Tracer.install()` replaces each target in TARGETS with a wrapper that records
a span (id, case id, parent id, name, start, end) and the target's work
counts.  A function that another module imported by name is replaced in every
loaded `nilcoh` module that holds it, so no call site escapes the wrapper; a
class target wraps the class's `__init__`, which every construction goes
through.  `Tracer.uninstall()` puts every original back.

Spans stay in memory; `write_spans` dumps them once the pass is over and
`aggregate` turns them into per-layer metrics.  Nothing here is imported by
an untraced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import logging
import os
import sys
import time
from collections import defaultdict
from typing import Callable

WRAPPED_MARK = "__perfbench_wrapped__"


def _bind(fn: Callable, args: tuple, kwargs: dict) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _generator_count(J, elements: tuple[int, ...]) -> int:
    """Length of the greedy smallest-first generating sequence of a subgroup
    of J, the exponent d in the |N|^d candidate count of generator-based
    cocycle enumeration."""
    gens: list[int] = []
    closure = {0}
    for x in elements:
        if x in closure:
            continue
        gens.append(x)
        closure.add(x)
        frontier = list(closure)
        while frontier:
            nxt = []
            for y in frontier:
                for g in gens:
                    z = J.mul[y][g]
                    if z not in closure:
                        closure.add(z)
                        nxt.append(z)
            frontier = nxt
    return len(gens)


# -- work counts, computed from each call's arguments and result ----------------


def _count_group(fn, args, kwargs, result):
    return {"cells": args[0].order ** 2}


def _count_subgroup(fn, args, kwargs, result):
    return {"elements": args[0].order}


def _count_conjugate(fn, args, kwargs, result):
    return {"hits": int(result is not None)}


def _count_semidirect(fn, args, kwargs, result):
    return {"elements": args[0].group.order}


def _count_gset(fn, args, kwargs, result):
    return {"points": args[0].size}


def _count_found(fn, args, kwargs, result):
    return {"found": len(result)}


class _CocycleCounter:
    """Candidates |N|^d and cocycles found; d is cached per (J, K)."""

    def __init__(self) -> None:
        self._gens: dict[tuple[int, tuple[int, ...]], int] = {}

    def __call__(self, fn, args, kwargs, result):
        a = _bind(fn, args, kwargs)
        action, K = a["action"], a["K"]
        J = action.actor
        elements = K.elements if K is not None else tuple(range(J.order))
        key = (id(J), elements)
        if key not in self._gens:
            self._gens[key] = _generator_count(J, elements)
        return {"candidates": action.target.order ** self._gens[key],
                "found": len(result)}


class _H1Counter:
    """Classes returned, and cache hits: a result object already returned by
    an earlier call can only have come from the action's cache."""

    def __init__(self) -> None:
        self._seen: dict[int, object] = {}

    def __call__(self, fn, args, kwargs, result):
        hit = self._seen.get(id(result)) is result
        self._seen[id(result)] = result
        return {"classes": result.size, "cache_hits": int(hit)}


def _count_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bind(fn, args, kwargs)["path"])}


# Layer (module under nilcoh), attribute path, work-count names, and the
# function computing those counts (a class when it keeps state, instantiated
# per tracer).  A class target is traced through its __init__;
# `ActionInstance.action` is a method.
TARGETS: tuple[tuple[str, str, tuple[str, ...], Callable | None], ...] = (
    ("groups", "Group", ("cells",), _count_group),
    ("groups", "Subgroup", ("elements",), _count_subgroup),
    ("groups", "subgroup_generated", (), None),
    ("groups", "are_conjugate_subgroups", ("hits",), _count_conjugate),
    ("groups", "GroupHom", (), None),
    ("groups", "quotient", (), None),
    ("groups", "normalizer", (), None),
    ("actions", "SemidirectProduct", ("elements",), _count_semidirect),
    ("actions", "GSet", ("points",), _count_gset),
    ("actions", "coset_gset", (), None),
    ("actions", "action_from_generator_images", (), None),
    ("structure", "enumerate_subgroups_of_order", ("found",), _count_found),
    ("structure", "complements", ("found",), _count_found),
    ("structure", "subgroup_conjugacy_classes", (), None),
    ("structure", "locally_conjugate", (), None),
    ("structure", "sylow_subgroup", (), None),
    ("structure", "is_nilpotent", (), None),
    ("cohomology", "cocycles", ("candidates", "found", "yield"), _CocycleCounter),
    ("cohomology", "h1", ("classes", "cache_hits"), _H1Counter),
    ("cohomology", "decomposition_map", (), None),
    ("cohomology", "extend_from_sylow", (), None),
    ("cohomology", "eq3_check", (), None),
    ("theorems", "verify_lemma1", (), None),
    ("theorems", "verify_prop2", (), None),
    ("theorems", "verify_prop3", (), None),
    ("theorems", "verify_prop5", (), None),
    ("theorems", "verify_thm4", (), None),
    ("theorems", "find_conjugator", (), None),
    ("harness.scenario", "load_scenario", ("bytes",), _count_bytes),
    ("harness.catalog", "ActionInstance.action", (), None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Warnings whose count is a per-layer metric: (logger, message prefix, metric).
LOG_COUNTERS = (
    ("nilcoh.theorems", "proof_guided: falling back", "theorems.fallbacks"),
    ("nilcoh.cohomology", "extend_from_sylow: direct recipe failed",
     "cohomology.extend_search_routes"),
)


def target_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr}"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for layer, attr, counts, _ in TARGETS:
        base = target_name(layer, attr)
        names += [f"{base}.calls", f"{base}.self_s"]
        names += [f"{base}.{c}" for c in counts]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["unwrapped.self_s"]
    names += [metric for _, _, metric in LOG_COUNTERS]
    names += ["trace.spans", "trace.run_s", "trace.overhead_s"]
    return names


def _resolve(layer: str, attr: str):
    """(owner, attribute name, original) for a target; class targets resolve
    to the class and its __init__."""
    owner = importlib.import_module(f"nilcoh.{layer}")
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    obj = getattr(owner, last)
    if inspect.isclass(obj):
        return obj, "__init__", obj.__dict__["__init__"]
    return owner, last, obj


def _nilcoh_modules():
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "nilcoh" or modname.startswith("nilcoh.")):
            yield modname, mod


def wrapped_sites() -> list[str]:
    """Module and class attributes inside nilcoh that currently hold a wrapper."""
    found = []
    for modname, mod in _nilcoh_modules():
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{modname}.{attr}")
            if inspect.isclass(value) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, WRAPPED_MARK, False):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found


class _LogCounter(logging.Handler):
    def __init__(self, counts: dict, prefix: str, metric: str):
        super().__init__(logging.WARNING)
        self._counts, self._prefix, self._metric = counts, prefix, metric

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith(self._prefix):
            self._counts[self._metric] += 1


class Tracer:
    """Records spans around every target; one case id per case."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []       # (id, case, parent, name, start, end)
        self.counts: dict[str, float] = defaultdict(float)
        self.case_id: int | None = None
        self._ids = itertools.count()
        self._cases = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._handlers: list[tuple[logging.Logger, logging.Handler]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, attr, _, counter in TARGETS:
            owner, slot, original = _resolve(layer, attr)
            if inspect.isclass(counter):
                counter = counter()
            wrapper = self._wrap(target_name(layer, attr), original, counter)
            if inspect.isclass(owner):
                self._patch(owner, slot, wrapper)
            else:
                for _, mod in _nilcoh_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        for logger_name, prefix, metric in LOG_COUNTERS:
            logger = logging.getLogger(logger_name)
            handler = _LogCounter(self.counts, prefix, metric)
            logger.addHandler(handler)
            self._handlers.append((logger, handler))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        for logger, handler in self._handlers:
            logger.removeHandler(handler)
        self._handlers.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, self.case_id, parent, name, start, end))
            if count is not None:
                for key, value in count(fn, args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # -- cases ------------------------------------------------------------------

    def run_case(self, fn: Callable[[], object]):
        """Run one case under a fresh case id, inside a root span "case"."""
        self.case_id = next(self._cases)
        return self._wrap("case", fn, None)()

    # -- output -----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, case, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "case": case, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")

    def aggregate(self) -> dict[str, float]:
        """Per-target calls and self time, layer self-time totals and counts."""
        selfs = self_times([(s[0], s[2], s[4], s[5]) for s in self.spans])
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for sid, _, _, name, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
        out: dict[str, float] = {}
        for layer, attr, counts, _ in TARGETS:
            base = target_name(layer, attr)
            out[f"{base}.calls"] = calls[base]
            out[f"{base}.self_s"] = self_s[base]
            for c in counts:
                out[f"{base}.{c}"] = self.counts[f"{base}.{c}"]
        cand = out["cohomology.cocycles.candidates"]
        out["cohomology.cocycles.yield"] = (
            out["cohomology.cocycles.found"] / cand if cand else 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self_s[target_name(lay, attr)] for lay, attr, _, _ in TARGETS if lay == layer)
        out["unwrapped.self_s"] = self_s["case"]
        for _, _, metric in LOG_COUNTERS:
            out[metric] = self.counts[metric]
        out["trace.spans"] = len(self.spans)
        return out


def self_times(spans: list[tuple[int, int | None, float, float]]) -> dict[int, float]:
    """Self time of each span (id, parent id, start, end): its duration minus
    the part of its interval that the union of its children's intervals
    covers."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out
