"""The four benchmark workloads: seeded inputs, items, checks and quality.

An item is one `ccmax` command line run in process through
`ccmax.cli.main`, or one `curves.full_conf_alpha_cut(32)` call.  Every
workload writes its inputs into the current directory and names files
relatively, so two interpreters that run the same item print and write
the same bytes.

Instance seeds are derived as 100000 + 1000 * seed + j (solve-small) and
200000 + 1000 * seed + j (solve-large, gadget), which keeps them clear of
the fixed seeds the test suite uses (1000-1049, 300-309, 41-42).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import ccmax.cli
import ccmax.curves
from ccmax.curves import extremal_rho
from ccmax.gadget import format_ug, random_ug
from ccmax.instance import (
    brute_force_opt,
    evaluate,
    format_instance,
    greedy_assignment,
    random_instance,
)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Tolerances against the frozen seed-code reference values.
CURVE_RATIO_TOL = 1e-9
CURVE_RHO_TOL = 1e-6
FULL_CONF_VALUE_TOL = 1e-9
FULL_CONF_POINT_TOL = 1e-4
GADGET_TOL = 1e-12
# A solve report prints values with 12 significant digits.
REPORT_REL_TOL = 1e-9


@dataclass
class Item:
    key: str
    argv: list[str] | None  # None: the full_conf_alpha_cut library call
    outputs: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


@dataclass
class ItemRun:
    key: str
    rc: int
    latency: float
    stdout: str
    digest: str
    out_bytes: int
    errors: list[str] = field(default_factory=list)
    quality: dict | None = None


def run_item(item: Item) -> ItemRun:
    """Run one item, timing only the call into ccmax."""
    for name in item.outputs:
        Path(name).unlink(missing_ok=True)
    buf = io.StringIO()
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            if item.argv is None:
                res = ccmax.curves.full_conf_alpha_cut(32)
                cfg = res.configuration
                print(json.dumps({"value": res.value, "configuration": [cfg.mu1, cfg.mu2, cfg.rho]}))
                rc = 0
            else:
                rc = ccmax.cli.main(item.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an item that raises counts as failed, the run goes on
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = -1
    latency = time.perf_counter() - t0
    h = hashlib.sha256(buf.getvalue().encode())
    size = 0
    for name in item.outputs:
        p = Path(name)
        if p.is_file():
            data = p.read_bytes()
            size += len(data)
            h.update(name.encode() + b"\0" + data)
    run = ItemRun(item.key, rc, latency, buf.getvalue(), h.hexdigest(), size)
    if rc != 0:
        run.errors.append(f"exit code {rc}: {err.getvalue().strip()[:200]}")
    return run


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(" ")
        out[key] = val.strip()
    return out


class Workload:
    """A fixed, seeded list of items; a run repeats the list in passes."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list[Item] = []

    def generate(self) -> None:
        raise NotImplementedError

    @functools.cached_property
    def reference(self) -> dict:
        return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))

    def check(self, item: Item, run: ItemRun) -> None:
        """Append failures to run.errors; set run.quality where it applies."""

    def quality(self, runs: list[ItemRun]) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------- curves

CURVE_STEP = 0.004
CURVE_CHUNK = 8
HARDNESS_RANGES = {"cut": (0.2, 0.8), "vc": (0.2, 0.996), "2sat": (0.3, 0.7)}
ALPHA_RANGE = (0.05, 0.95)
FULL_CONF_KEY = "full_conf_alpha_cut:32"


def curve_catalogue() -> dict[str, list[Item]]:
    """Every curves item, grouped into the strata a run draws from."""
    strata: dict[str, list[Item]] = {}
    for problem, (lo, hi) in HARDNESS_RANGES.items():
        n = round((hi - lo) / CURVE_STEP) + 1
        for flat in (False, True):
            group = strata.setdefault(f"hardness:{problem}:{'flat' if flat else 'raw'}", [])
            for s in range(0, n, CURVE_CHUNK):
                e = min(n, s + CURVE_CHUNK) - 1
                q0, q1 = round(lo + s * CURVE_STEP, 6), round(lo + e * CURVE_STEP, 6)
                group.append(_curve_item("hardness", problem, q0, q1, flat))
    strata["alpha"] = [_curve_item("alpha", p, *ALPHA_RANGE, flat)
                       for p in ("cut", "vc", "2sat") for flat in (False, True)]
    return strata


def _curve_item(kind: str, problem: str, q0: float, q1: float, flat: bool) -> Item:
    key = f"{kind}:{problem}:{q0!r}:{q1!r}:{'flat' if flat else 'raw'}"
    argv = ["curves", "--problem", problem, "--kind", kind, "--q-min", repr(q0),
            "--q-max", repr(q1), "--step", repr(CURVE_STEP), "--out", "curve.csv"]
    if flat:
        argv.append("--flatten")
    return Item(key, argv, ["curve.csv"])


def parse_curve_csv(text: str) -> list[list]:
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("q,"):
            continue
        q, ratio, rho, flat = line.split(",")
        rows.append([float(q), float(ratio), float(rho) if rho else None, int(flat)])
    return rows


class Curves(Workload):
    name = "curves"
    rounds = 6  # of the seven strata, about 6 s in all with full_conf

    def generate(self) -> None:
        rng = random.Random(self.seed)
        strata = curve_catalogue()
        for group in strata.values():
            rng.shuffle(group)
        for r in range(self.rounds):
            self.items.extend(group[r % len(group)] for group in strata.values())
            if r == 0:
                self.items.append(Item(FULL_CONF_KEY, None))

    def check(self, item: Item, run: ItemRun) -> None:
        if run.rc != 0:
            return
        if item.argv is None:
            ref = self.reference["full_conf"][item.key]
            got = json.loads(run.stdout)
            if not _close(got["value"], ref["value"], FULL_CONF_VALUE_TOL):
                run.errors.append(f"full_conf value {got['value']!r} != {ref['value']!r}")
            if any(not _close(a, b, FULL_CONF_POINT_TOL)
                   for a, b in zip(got["configuration"], ref["configuration"])):
                run.errors.append("full_conf configuration moved")
            return
        ref = self.reference["curves"][item.key]
        got = parse_curve_csv(Path(item.outputs[0]).read_text(encoding="utf-8"))
        if len(got) != len(ref):
            run.errors.append(f"{len(got)} curve rows, reference has {len(ref)}")
            return
        for g, r in zip(got, ref):
            ok = (_close(g[0], r[0], 1e-12) and _close(g[1], r[1], CURVE_RATIO_TOL)
                  and g[3] == r[3] and (g[2] is None) == (r[2] is None)
                  and (g[2] is None or _close(g[2], r[2], CURVE_RHO_TOL)))
            if not ok:
                run.errors.append(f"curve row {g} differs from reference {r}")
                return


# ---------------------------------------------------------------- solve

class _Solve(Workload):
    n = m = count = 0
    k_ladder: tuple[int, ...] = ()
    # Acceptance criterion 7 runs 2 x 8000 iterations, 2-6 s an item: too
    # few items fit a 20 s window for a steady mean.  At 2000 the SDP
    # still stops at its cap and still takes most of an item.
    restarts, max_iters = "2", "2000"
    seed_base = 0
    small = False

    def generate(self) -> None:
        self.instances = {}
        for j in range(self.count):
            k = self.k_ladder[j % len(self.k_ladder)]
            problem = ("cut", "2sat")[j % 2]
            iseed = self.seed_base + 1000 * self.seed + j
            inst = random_instance(self.n, k, self.m, problem=problem, seed=iseed)
            name = f"inst{j}.ccmax"
            Path(name).write_text(format_instance(inst), encoding="utf-8")
            key = f"solve:{self.n}:{j}"
            meta = {"k": k, "n": self.n, "total_weight": inst.total_weight,
                    "opt": brute_force_opt(inst)[1] if self.small else None}
            self.instances[key] = inst
            self.items.append(Item(key, [
                "solve", "--input", name, "--restarts", self.restarts, "--max-iters", self.max_iters,
                "--rounds", "200", "--seed", str(iseed), "--report", f"report{j}.txt"],
                [f"report{j}.txt"], meta))
        self._greedy: dict[str, float] = {}

    def best_integral(self, item: Item, rounded: float) -> float:
        if self.small:
            return item.meta["opt"]
        if item.key not in self._greedy:
            inst = self.instances[item.key]
            self._greedy[item.key] = evaluate(inst, greedy_assignment(inst))
        return max(self._greedy[item.key], rounded)

    def check(self, item: Item, run: ItemRun) -> None:
        if run.rc != 0:
            return
        kv = parse_report(run.stdout)
        try:
            best = float(kv["best_value"])
            assignment = [1 if c == "+" else -1 for c in kv["best_assignment"]]
            card = int(kv["cardinality"])
            sdp_obj = float(kv["sdp_objective"])
            res_b = float(kv["sdp_residual_balance"])
            res_t = float(kv["sdp_residual_triangle"])
        except (KeyError, ValueError) as exc:
            run.errors.append(f"unreadable solve report: {exc}")
            return
        k, n = item.meta["k"], item.meta["n"]
        if card != k or len(assignment) != n or assignment.count(1) != k:
            run.errors.append(f"cardinality {card} / assignment does not match k={k}")
            return
        value = evaluate(self.instances[item.key], assignment)
        if abs(value - best) > REPORT_REL_TOL * max(1.0, abs(value)):
            run.errors.append(f"best_value {best!r} but the assignment evaluates to {value!r}")
        if self.small and best > item.meta["opt"] + 1e-9:
            run.errors.append(f"best_value {best!r} exceeds the optimum {item.meta['opt']!r}")
        total = item.meta["total_weight"]
        run.quality = {
            "ratio": best / item.meta["opt"] if self.small else None,
            "dominates": float(sdp_obj >= self.best_integral(item, best) - 1e-4),
            "feasible": float(res_b <= 1e-5 and res_t <= 1e-5),
            "sdp_obj_norm": sdp_obj / total,
            "rounded_norm": best / total,
        }

    def quality(self, runs: list[ItemRun]) -> dict[str, float]:
        qs = [r.quality for r in runs if r.quality is not None]
        if not qs:
            return {}
        mean = lambda key: math.fsum(q[key] for q in qs) / len(qs)  # noqa: E731
        out = {
            "sdp_dominance_frac": mean("dominates"),
            "sdp_feasible_frac": mean("feasible"),
            "sdp_obj_norm_mean": mean("sdp_obj_norm"),
            "rounded_norm_mean": mean("rounded_norm"),
        }
        if self.small:
            out["ratio_mean"] = mean("ratio")
            out["ratio_min"] = min(q["ratio"] for q in qs)
        return out


class SolveSmall(_Solve):
    name = "solve-small"
    n, m = 14, 40
    k_ladder = (4, 10, 7, 5, 9, 6, 8)
    seed_base = 100_000
    small = True
    count = 14


class SolveLarge(_Solve):
    name = "solve-large"
    n, m = 60, 300
    # At 2000 iterations neither restart finds a feasible point better
    # than the greedy seed, so rounding sees an integral point and repair
    # makes no flips.  At 1 x 4000 repair runs, but its exhaustive path
    # moved the tail latency by 34% (quartile spread) from seed to seed.
    k_ladder = (12, 36, 24, 18)
    seed_base = 200_000
    count = 6


# ---------------------------------------------------------------- gadget

# (n_left, n_right, labels, degree); edge entries run from 9 to 196608
GADGET_SHAPES = ((1, 1, 2, 1), (2, 2, 3, 2), (2, 1, 4, 1), (3, 3, 5, 2), (3, 3, 6, 2), (3, 2, 7, 2))
GADGET_PAIRS = ((0.365, extremal_rho(0.365)), (0.5, -0.5))
DENSITY_EXACT_MAX = 20
DENSITY_SEARCH_MAX = 200


def format_labeling(z) -> str:
    rows = ["labeling v1"]
    rows += [f"u {i + 1} {lab + 1}" for i, lab in enumerate(z.left)]
    rows += [f"v {i + 1} {lab + 1}" for i, lab in enumerate(z.right)]
    return "\n".join(rows) + "\n"


def gadget_items() -> list[Item]:
    """One pass over the shape ladder: gadget, density, completeness."""
    items = []
    for s, (nl, nr, labels, deg) in enumerate(GADGET_SHAPES):
        for p, (q, rho) in enumerate(GADGET_PAIRS):
            tag = f"{nl}x{nr}L{labels}d{deg}:{q!r}"
            graph = f"g{s}_{p}.graph"
            common = ["--q", repr(q), "--rho", repr(rho)]
            meta = {"shape": (nl, nr, labels, deg), "q": q, "rho": rho, "graph": graph}
            items.append(Item(f"gadget:{tag}", ["gadget", "--ug", f"u{s}.ug", *common,
                                                "--out", graph], [graph], meta))
            n_vertices = nr << labels
            mode = ("exact" if n_vertices <= DENSITY_EXACT_MAX
                    else "search" if n_vertices <= DENSITY_SEARCH_MAX else None)
            if mode:
                items.append(Item(f"density:{tag}", [
                    "density", "--graph", graph, "--mode", mode, "--eps", "0.01",
                    "--rho", repr(rho), "--seed", "0"], [], meta))
            items.append(Item(f"completeness:{tag}", [
                "completeness", "--ug", f"u{s}.ug", "--labeling", f"u{s}.labeling", *common],
                [], meta))
    return items


def graph_stats(text: str) -> dict[str, float]:
    vw, ew = [], []
    for line in text.splitlines():
        if line.startswith("vertex "):
            vw.append(float(line.rsplit(" ", 1)[1]))
        elif line.startswith("edge "):
            ew.append(float(line.rsplit(" ", 1)[1]))
    return {"vertices": len(vw), "edge_entries": len(ew), "vertex_total": math.fsum(vw),
            "edge_total": math.fsum(ew), "max_vertex_weight": max(vw, default=0.0)}


def parse_density(stdout: str) -> list[dict]:
    rows = []
    for line in stdout.splitlines():
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        rows.append({"r": float(fields["r"]), "min_density": float(fields["min_density"]),
                     "threshold": float(fields["threshold"]),
                     "candidates": int(fields["candidates"])})
    return rows


class Gadget(Workload):
    name = "gadget"

    def generate(self) -> None:
        for s, (nl, nr, labels, deg) in enumerate(GADGET_SHAPES):
            ug, z = random_ug(nl, nr, labels, deg, seed=200_000 + 1000 * self.seed + s)
            Path(f"u{s}.ug").write_text(format_ug(ug), encoding="utf-8")
            Path(f"u{s}.labeling").write_text(format_labeling(z), encoding="utf-8")
        self.items = gadget_items()
        self._graphs: dict[str, dict] = {}

    def check(self, item: Item, run: ItemRun) -> None:
        if run.rc != 0:
            return
        ref = self.reference["gadget"][item.key]
        kind = item.key.split(":", 1)[0]
        q, rho = item.meta["q"], item.meta["rho"]
        err = run.errors
        if kind == "gadget":
            stats = graph_stats(Path(item.meta["graph"]).read_text(encoding="utf-8"))
            self._graphs[item.meta["graph"]] = stats
            if (stats["vertices"], stats["edge_entries"]) != (ref["vertices"], ref["edge_entries"]):
                err.append(f"graph size {stats['vertices']}/{stats['edge_entries']} != reference")
            for key in ("vertex_total", "edge_total"):
                if not _close(stats[key], 1.0, GADGET_TOL):
                    err.append(f"{key} = {stats[key]!r}, not 1")
        elif kind == "density":
            stats = self._graphs.get(item.meta["graph"])
            rows = parse_density(run.stdout)
            if stats is None or len(rows) != len(ref["thresholds"]):
                err.append("density output missing rows or its graph")
                return
            for row, thr in zip(rows, ref["thresholds"]):
                if not _close(row["threshold"], thr, GADGET_TOL):
                    err.append(f"density threshold {row['threshold']!r} != {thr!r}")
                upper = row["r"] + stats["max_vertex_weight"]
                if row["candidates"] < 1 or not (0.0 <= row["min_density"] <= upper):
                    err.append(f"min density {row['min_density']!r} outside [0, {upper!r}]")
        else:
            kv = parse_report(run.stdout)
            two_t = 2 * (q - q * q) * (1 - rho)
            nr, labels = item.meta["shape"][1], item.meta["shape"][2]
            if float(kv["ug_value"]) != 1.0 or int(kv["set_size"]) != nr << (labels - 1):
                err.append("completeness set does not come from a satisfying labeling")
            if not _close(float(kv["set_weight"]), q, GADGET_TOL):
                err.append(f"set weight {kv['set_weight']} != q")
            if not _close(float(kv["cut_weight"]), two_t, GADGET_TOL):
                err.append(f"cut weight {kv['cut_weight']} != 2t = {two_t!r}")
            if not _close(float(kv["two_t"]), ref["two_t"], GADGET_TOL):
                err.append(f"two_t {kv['two_t']} != reference {ref['two_t']!r}")


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    w.name: w for w in (Curves, SolveSmall, SolveLarge, Gadget)
}
