"""ccmax benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload solve-small --seed 17 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with no probes installed;
--trace 1 runs the workload's fixed item set untraced and then traced
and reports the per-layer metrics.  Every workload runs in fresh
interpreters (worker.py).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it list
every metric with its unit and direction, the environment, and where
the full result was written (perfbench/out/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "ccmax"
OUT = HERE / "out"

WORKLOADS = ("curves", "solve-small", "solve-large", "gadget")
DEFAULT_SEED = 17
HELD_OUT_SEED = 29
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
# Traced wall time not covered by root spans, as a share of it.
UNACCOUNTED_TOL = 0.02
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Host probe time (worker.host_probe) on an unloaded 2-vCPU x86_64 VM.
# Timings are reported scaled by PROBE_REF_S / probe time next to them.
PROBE_REF_S = 0.011

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_p50_ms": ("ms", "lower"),
    "item_tail_ms": ("ms", "lower"),
}
# Printed and recorded, not in BENCHMARK.json: peak RSS is bimodal across
# seeds on solve-large, fail_frac is 0, and the quality metrics exist on
# the solve workloads only.
EXTRA = {"peak_rss_mb": ("MB", "lower"), "fail_frac": ("frac", "lower")}
QUALITY = {
    "ratio_mean": ("frac", "higher"),
    "ratio_min": ("frac", "higher"),
    "sdp_dominance_frac": ("frac", "higher"),
    "sdp_feasible_frac": ("frac", "higher"),
    "sdp_obj_norm_mean": ("frac", "higher"),
    "rounded_norm_mean": ("frac", "higher"),
}

# Per-layer metrics of the traced run: name -> (unit, better).
LAYER_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower")}
PER_LAYER_FUNCS = {
    "cli.main": ("calls", "self_s"),
    "gaussian.gamma_rho": ("calls", "self_s"),
    "gaussian.gamma_rho_vec": ("calls", "self_s"),
    "gaussian.std_normal_inv_vec": ("calls", "self_s"),
    "curves.hardness_curve": ("calls", "self_s"),
    "curves.minimize_over_rho": ("calls", "self_s"),
    "curves.approx_curve": ("self_s",),
    "curves.full_conf_alpha_cut": ("self_s",),
    "instance.parse_instance": ("self_s",),
    "instance.brute_force_opt": ("calls", "self_s"),
    "instance.greedy_assignment": ("calls", "self_s"),
    "instance.evaluate": ("calls", "self_s"),
    "sdp.relax": ("self_s",),
    "sdp.solve": ("calls", "self_s"),
    "rounding.round_best_of": ("calls", "self_s"),
    "rounding.round_once": ("calls", "self_s"),
    "rounding.repair": ("calls", "self_s"),
    "gadget.parse_ug": ("self_s",),
    "gadget.build_gadget": ("calls", "self_s"),
    "gadget.completeness_set": ("self_s",),
    "gadget.format_graph": ("self_s",),
    "gadget.parse_graph": ("self_s",),
    "gadget.density_exact": ("self_s",),
    "gadget.density_search": ("self_s",),
    "gadget.internal_weight": ("calls",),
}
PER_LAYER_DERIVED = {
    "cli.write_bytes": ("B", "lower"),
    "gaussian.gamma_rho_vec.points": ("count", "lower"),
    "curves.hardness_curve.points": ("count", "lower"),
    "curves.minimize_per_point": ("ms", "lower"),
    "instance.brute_force_opt.assignments": ("count", "lower"),
    "instance.evaluate_many.rows": ("count", "lower"),
    "sdp.solve.ms_per_restart": ("ms", "lower"),
    "sdp.solve.converged_frac": ("frac", "higher"),
    "rounding.repair.flips": ("count", "lower"),
    "rounding.raw_feasible_frac": ("frac", "higher"),
    "gadget.build_gadget.edge_entries": ("count", "lower"),
    "gadget.build_gadget.ns_per_entry": ("ns", "lower"),
    "gadget.density_exact.subsets": ("count", "lower"),
    "gadget.density_search.found_frac": ("frac", "higher"),
    **{f"{layer}.self_s": ("s", "lower") for layer in
       ("cli", "gaussian", "curves", "instance", "sdp", "rounding", "gadget", "bench")},
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unaccounted_frac": ("frac", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.items": ("count", "higher"),
    **{f"quality.{k}": v for k, v in QUALITY.items()},
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    spec = {f"{fn}.{m}": LAYER_UNITS[m] for fn, ms in PER_LAYER_FUNCS.items() for m in ms}
    spec.update(PER_LAYER_DERIVED)
    return spec


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    That is the 11th largest sample, at percentile 100 * (n - 10) / n.
    Below 20 samples it would lie under the median, so the maximum is
    reported instead, with percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def timing_metrics(latencies: list[float], setups: list[float]) -> dict[str, float]:
    """End-to-end metrics from per-item latencies (s) and set-up times (s)."""
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(latencies) / math.fsum(latencies),
        "item_p50_ms": 1000.0 * statistics.median(latencies),
        "item_tail_ms": 1000.0 * tail(latencies)[0],
    }


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metrics from a worker's trace result."""
    by = {name: i for i, name in enumerate(res["names"])}
    own = lambda n: res["self_s"][by[n]] if n in by else 0.0  # noqa: E731
    calls = lambda n: res["calls"][by[n]] if n in by else 0  # noqa: E731
    counts = res["counts"]
    c = lambda k: counts.get(k, 0.0)  # noqa: E731
    out: dict[str, float] = {}
    for fn, ms in PER_LAYER_FUNCS.items():
        for m in ms:
            out[f"{fn}.{m}"] = own(fn) if m == "self_s" else calls(fn)
    for layer in ("cli", "gaussian", "curves", "instance", "sdp", "rounding", "gadget", "bench"):
        out[f"{layer}.self_s"] = sum(own(n) for n in res["names"] if n.split(".")[0] == layer)
    incl_min = res["incl_s"][by["curves.minimize_over_rho"]] if "curves.minimize_over_rho" in by else 0.0
    out.update({
        "cli.write_bytes": res["out_bytes"],
        "gaussian.gamma_rho_vec.points": c("gaussian.gamma_rho_vec.points"),
        "curves.hardness_curve.points": c("curves.hardness_curve.points"),
        "curves.minimize_per_point": 1000.0 * _div(incl_min, calls("curves.minimize_over_rho")),
        "instance.brute_force_opt.assignments": c("instance.brute_force_opt.assignments"),
        "instance.evaluate_many.rows": c("instance.evaluate_many.rows"),
        "sdp.solve.ms_per_restart": 1000.0 * _div(own("sdp.solve"), c("sdp.solve.restarts")),
        "sdp.solve.converged_frac": _div(c("sdp.solve.converged"), calls("sdp.solve")),
        "rounding.repair.flips": c("rounding.repair.flips"),
        "rounding.raw_feasible_frac": _div(c("rounding.repair.raw_feasible"), calls("rounding.repair")),
        "gadget.build_gadget.edge_entries": c("gadget.build_gadget.edge_entries"),
        "gadget.build_gadget.ns_per_entry":
            1e9 * _div(own("gadget.build_gadget"), c("gadget.build_gadget.edge_entries")),
        "gadget.density_exact.subsets": c("gadget.density_exact.subsets"),
        "gadget.density_search.found_frac":
            _div(c("gadget.density_search.found"), c("gadget.density_search.attempts")),
        "trace.overhead_frac": res["overhead_frac"],
        "trace.unaccounted_frac": _div(res["wall_s"] - res["covered_s"], res["wall_s"]),
        "trace.wall_s": res["wall_s"],
        "trace.items": res["attempted"] // 2,
    })
    for k in QUALITY:
        out[f"quality.{k}"] = res["quality"].get(k, 0.0)
    return out


def tree_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": tree_digest(sorted(SRC.glob("*.py"))),
        "bench_sha256": tree_digest(sorted(HERE.glob("*.py")) + [HERE / "reference.json"]),
        "machine": platform.machine(),
    }


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, work: Path, deadline: float, spans: Path | None = None):
    """Start worker.py; return (seconds until it was ready, ready event, result event).

    The ready event carries the median host probe taken right after set-up.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work", str(work)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        probe_line = proc.stdout.readline()
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or not probe_line:
        raise WorkerError(f"{mode} worker exited with code {rc}")
    ready = json.loads(ready_line)
    ready["probe_s"] = json.loads(probe_line)["seconds"]
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return ready_s, ready, result


def check_determinism(path: Path, digests: dict, quality: dict) -> list[str]:
    """Compare with earlier runs of the same code and seed; store the union."""
    try:
        old = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        old = {"digests": {}, "quality": None}
    bad = [k for k, d in digests.items() if old["digests"].get(k, d) != d]
    if quality and old["quality"] is not None and old["quality"] != quality:
        bad.append("quality")
    if not bad:
        merged = {**old["digests"], **digests}
        path.write_text(json.dumps({"digests": merged, "quality": old["quality"] or quality or None},
                                   sort_keys=True), encoding="utf-8")
    return bad


def fmt(v: float) -> str:
    return repr(v) if isinstance(v, int) else f"{v:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held out for claims: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "__init__.py").is_file():
        print(f"error: no ccmax sources under {SRC.relative_to(ROOT)}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    errors: list[str] = []
    try:
        setup_times, setup_probes, warm = [], [], []
        if args.trace == 0:
            for s in range(SETUP_SAMPLES - 1):
                (scratch / f"s{s}").mkdir()
                t, ready, _ = run_worker(args, "setup", scratch / f"s{s}", deadline)
                setup_times.append(t)
                setup_probes.append(ready["probe_s"])
                warm.append(ready["warmup"])
        (scratch / "main").mkdir()
        mode = "trace" if args.trace else "measure"
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv" if args.trace else None
        t, ready, res = run_worker(args, mode, scratch / "main", deadline, spans)
        setup_times.append(t)
        setup_probes.append(ready["probe_s"])
        warm.append(ready["warmup"])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(warm) + res["attempted"]
    failed = sum(1 for w in warm if w["errors"]) + res["failed"]
    errors += [f"warm-up {w['key']}: {e}" for w in warm for e in w["errors"]] + res["errors"]
    if len({w["digest"] for w in warm}) != 1:
        errors.append("warm-up outputs differ between interpreters")
    if args.trace:
        if res["trace_mismatches"]:
            errors.append(f"traced run changed results: {res['trace_mismatches'][:5]}")
    elif res["repeat_mismatches"]:
        errors.append(f"repeated items changed results: {res['repeat_mismatches'][:5]}")
    env = environment()
    store = OUT / "digests"
    store.mkdir(exist_ok=True)
    code = f"{env['src_sha256'][:12]}-{env['bench_sha256'][:12]}"
    bad = check_determinism(store / f"{code}-{args.workload}-seed{args.seed}.json",
                            res["digests"], res["quality"])
    if bad:
        errors.append(f"results differ from an earlier run of this code and seed: {bad[:5]}")

    quality = {"peak_rss_mb": res["peak_rss_mb"], "fail_frac": failed / attempted, **res["quality"]}
    if args.trace:
        spec = per_layer_spec()
        values = layer_metrics(res)
        if values["trace.unaccounted_frac"] > UNACCOUNTED_TOL:
            errors.append(f"spans cover too little of the traced wall time: "
                          f"{values['trace.unaccounted_frac']:.4f} > {UNACCOUNTED_TOL}")
        extra = {"spans": res["spans"], "spans_file": str(spans.relative_to(ROOT)),
                 "self_s": dict(zip(res["names"], res["self_s"])),
                 "incl_s": dict(zip(res["names"], res["incl_s"])),
                 "calls": dict(zip(res["names"], res["calls"]))}
    else:
        spec = dict(END_TO_END)
        raw = [statistics.median(ts) for ts in res["latencies"].values()]
        lat = [statistics.median(t * PROBE_REF_S / p for t, p in zip(ts, ps))
               for ts, ps in zip(res["latencies"].values(), res["probes"].values())]
        setup = [t * PROBE_REF_S / p for t, p in zip(setup_times, setup_probes)]
        values = timing_metrics(lat, setup)
        t_val, t_pct, t_n = tail(lat)
        extra = {"raw": timing_metrics(raw, setup_times),
                 "setup_samples_s": setup_times, "setup_probes_s": setup_probes,
                 "tail_percentile": t_pct, "tail_n": t_n, "passes": res["passes"],
                 "latencies": res["latencies"], "probes": res["probes"]}

    correct = not errors and failed == 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
              "errors": errors, "metrics": values, "quality": quality, "env": env, **extra}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (unit, better) in spec.items():
        print(f"metric {name} {fmt(values[name])} {unit} {better}")
    for name, val in quality.items():
        unit, better = {**EXTRA, **QUALITY}[name]
        print(f"quality {name} {fmt(val)} {unit} {better}")
    if not args.trace:
        print(f"tail item_tail_ms is p{extra['tail_percentile']:.4g} of n={extra['tail_n']}; "
              f"{extra['passes']:.3g} passes")
        for name, (unit, better) in spec.items():
            print(f"raw {name} {fmt(extra['raw'][name])} {unit} {better}")
    for e in errors[:20]:
        print(f"FAIL {e}")
    print(f"wrote {(OUT / f'result-{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, (u, _) in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
