"""In-memory span tracing around ccmax's public functions.

The benchmark never edits the package: it wraps functions where callers
look them up.  `ccmax.curves` calls `gamma_rho` through its own module
global, `ccmax.sdp` calls `greedy_assignment` through its own, and so
on, so installing a probe means replacing every `ccmax.*` module
attribute that is the original function object (and, for methods, the
class attribute).  `Tracer.install` returns the list of replacements and
`Tracer.restore` puts every original back.

A span is (name, start, end, parent, item).  Spans are kept in compact
arrays while the traced pass runs and written out once at the end.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "gaussian", "curves", "instance", "sdp", "rounding", "gadget")

CountHook = Callable[[dict, tuple, dict, Any], None]


def _points(counts, a, kw, result):
    counts["gaussian.gamma_rho_vec.points"] += np.size(result)


def _curve_points(counts, a, kw, result):
    counts["curves.hardness_curve.points"] += len(result)


def _assignments(counts, a, kw, result):
    inst = a[0]
    counts["instance.brute_force_opt.assignments"] += math.comb(inst.n, inst.k)


def _rows(counts, a, kw, result):
    counts["instance.evaluate_many.rows"] += np.shape(result)[0]


def _sdp_solve(counts, a, kw, result):
    opts = a[1] if len(a) > 1 else kw.get("opts")
    counts["sdp.solve.restarts"] += opts.restarts if opts is not None else 3
    counts["sdp.solve.converged"] += int(result.converged)


def _repair(counts, a, kw, result):
    raw = np.asarray(a[0] if a else kw["raw"])
    target_k = a[2] if len(a) > 2 else kw["target_k"]
    flips = abs(int(np.sum(raw == 1)) - int(target_k))
    counts["rounding.repair.flips"] += flips
    counts["rounding.repair.raw_feasible"] += int(flips == 0)


def _entries(counts, a, kw, result):
    counts["gadget.build_gadget.edge_entries"] += result.edge_w.size


def _density(counts, a, kw, result):
    graph = a[0]
    if kw.get("mode", "exact") == "exact":
        counts["gadget.density_exact.subsets"] += 2 ** graph.n_vertices
    else:
        restarts = kw.get("restarts", 10)
        counts["gadget.density_search.attempts"] += restarts * len(result.samples)
        counts["gadget.density_search.found"] += sum(s.n_candidates for s in result.samples)


def _density_name(a, kw) -> str:
    return "gadget.density_exact" if kw.get("mode", "exact") == "exact" else "gadget.density_search"


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it is defined and how its span is named."""

    module: str
    attr: str
    name: str | Callable[[tuple, dict], str]
    hook: CountHook | None = None
    owner_class: str | None = None


PROBES: tuple[Probe, ...] = (
    Probe("ccmax.cli", "main", "cli.main"),
    Probe("ccmax.gaussian", "gamma_rho", "gaussian.gamma_rho"),
    Probe("ccmax.gaussian", "gamma_rho_vec", "gaussian.gamma_rho_vec", _points),
    Probe("ccmax.gaussian", "std_normal_inv_vec", "gaussian.std_normal_inv_vec"),
    Probe("ccmax.curves", "hardness_curve", "curves.hardness_curve", _curve_points),
    Probe("ccmax.curves", "minimize_over_rho", "curves.minimize_over_rho"),
    Probe("ccmax.curves", "approx_curve", "curves.approx_curve"),
    Probe("ccmax.curves", "full_conf_alpha_cut", "curves.full_conf_alpha_cut"),
    Probe("ccmax.instance", "parse_instance", "instance.parse_instance"),
    Probe("ccmax.instance", "brute_force_opt", "instance.brute_force_opt", _assignments),
    Probe("ccmax.instance", "greedy_assignment", "instance.greedy_assignment"),
    Probe("ccmax.instance", "evaluate", "instance.evaluate"),
    Probe("ccmax.instance", "evaluate_many", "instance.evaluate_many", _rows),
    Probe("ccmax.sdp", "relax", "sdp.relax"),
    Probe("ccmax.sdp", "solve", "sdp.solve", _sdp_solve),
    Probe("ccmax.rounding", "round_best_of", "rounding.round_best_of"),
    Probe("ccmax.rounding", "round_once", "rounding.round_once"),
    Probe("ccmax.rounding", "repair", "rounding.repair", _repair),
    Probe("ccmax.gadget", "parse_ug", "gadget.parse_ug"),
    Probe("ccmax.gadget", "build_gadget", "gadget.build_gadget", _entries),
    Probe("ccmax.gadget", "completeness_set", "gadget.completeness_set"),
    Probe("ccmax.gadget", "format_graph", "gadget.format_graph"),
    Probe("ccmax.gadget", "parse_graph", "gadget.parse_graph"),
    Probe("ccmax.gadget", "density_profile", _density_name, _density),
    Probe("ccmax.gadget", "internal_weight", "gadget.internal_weight",
          owner_class="WeightedGraph"),
)


class Tracer:
    """Span recorder plus the probe installer."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.current_item = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        fixed = probe.name if isinstance(probe.name, str) else None
        hook = probe.hook

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            idx = self.open(fixed or probe.name(a, kw))
            try:
                result = fn(*a, **kw)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self.counts, a, kw, result)
            return result

        return wrapper

    def install(self, probes: tuple[Probe, ...] = PROBES) -> list[tuple[object, str, object]]:
        """Replace every lookup site of each probed function with a wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ccmax" or n.startswith("ccmax."))]
        for probe in probes:
            home = sys.modules[probe.module]
            if probe.owner_class is not None:
                cls = getattr(home, probe.owner_class)
                original = cls.__dict__[probe.attr]
                self._patch(cls, probe.attr, self.wrap(probe, original))
                continue
            original = getattr(home, probe.attr)
            wrapper = self.wrap(probe, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return list(self._patched)

    def _patch(self, owner: object, key: str, new: object) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,item\n")
            names = self.names
            for n, s, e, p, i in zip(self.name_id, self.start, self.end, self.parent, self.item):
                fh.write(f"{names[n]},{s!r},{e!r},{p},{i}\n")


def self_times(name_id: np.ndarray, start: np.ndarray, end: np.ndarray,
               parent: np.ndarray, n_names: int) -> tuple[np.ndarray, np.ndarray]:
    """(self seconds, calls) per name id; self = duration minus direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    return (np.bincount(name_id, weights=own, minlength=n_names),
            np.bincount(name_id, minlength=n_names))


def top_level_seconds(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> float:
    """Wall time covered by root spans."""
    roots = parent < 0
    return float(np.sum(end[roots] - start[roots]))
