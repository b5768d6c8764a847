"""One fresh interpreter running one workload; started by run.py.

Modes:
  setup    import ccmax, generate the inputs, run item 0 once, report.
  measure  setup, then run items in order until their summed run time
           reaches --seconds (and the fixed quality set is covered).
  trace    setup, then run the fixed quality set untraced and again
           traced, and report per-layer metrics from the traced pass.

Protocol: one JSON object per stdout line, {"event": "ready"} after
set-up and {"event": "result"} at the end.  The items' own stdout is
captured in memory and never reaches this stream.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from spans import Tracer, self_times, top_level_seconds  # noqa: E402
from workloads import WORKLOADS, run_item  # noqa: E402


MIN_PASSES = 2
SETUP_PROBES = 7

_M = np.linspace(-1.0, 1.0, 61 * 61).reshape(61, 61) / 61
_V0 = np.linspace(-1.0, 1.0, 61 * 9).reshape(61, 9)
_H = np.linspace(0.01, 0.99, 512)[:, None]
_W = np.linspace(0.01, 0.99, 96)


def host_probe() -> float:
    """Seconds for fixed work in the interpreter, small matrices and wide vectors.

    The three parts stand for the kinds of work ccmax does.  The probe
    runs next to every measured item, so an item's latency can be read
    against how fast the host ran at that moment.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    v = _V0
    for _ in range(250):
        v = v - 1e-3 * (_M @ v)
        v /= np.sqrt(np.sum(v * v, axis=1))[:, None]
    for _ in range(4):
        np.sum(np.exp((np.sin(_H * _W) - _H) / (1.1 - _W)) * _W, axis=-1)
    return time.perf_counter() - t0


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _summary(run) -> dict:
    return {"key": run.key, "digest": run.digest, "errors": run.errors}


def measure(wl, seconds: float) -> dict:
    """Run the item list in passes until the summed item time reaches `seconds`
    and every item ran at least MIN_PASSES times.

    Every pass must reproduce the first pass's bytes.  Each item's
    latency is stored with the mean of the host probes taken right
    before and right after it.
    """
    first: dict = {}
    latencies: dict[str, list[float]] = {item.key: [] for item in wl.items}
    probes: dict[str, list[float]] = {item.key: [] for item in wl.items}
    mismatched, failed, errors = [], 0, []
    busy, done = 0.0, 0
    before = host_probe()
    while busy < seconds or done < MIN_PASSES * len(wl.items):
        item = wl.items[done % len(wl.items)]
        run = run_item(item)
        after = host_probe()
        probes[item.key].append(0.5 * (before + after))
        before = after
        ref = first.setdefault(item.key, run)
        if ref is run or run.digest != ref.digest:
            wl.check(item, run)
        if run.digest != ref.digest:
            mismatched.append(item.key)
        if ref.errors or run.errors:
            failed += 1
            errors += [f"{item.key}: {e}" for e in ref.errors + run.errors]
        latencies[item.key].append(run.latency)
        busy += run.latency
        done += 1
    return {
        "latencies": latencies,
        "probes": probes,
        "passes": done / len(wl.items),
        "attempted": done,
        "failed": failed,
        "errors": errors[:20],
        "digests": {k: r.digest for k, r in first.items()},
        "repeat_mismatches": mismatched,
        "quality": wl.quality(list(first.values())),
    }


def trace(wl, spans_path: str) -> dict:
    """Run the item list once untraced and once traced.

    Both passes time the host probe after every item, so the tracing
    overhead is read from host-normalised latencies.
    """
    plain, plain_norm = [], 0.0
    before = host_probe()
    for item in wl.items:
        run = run_item(item)
        after = host_probe()
        plain_norm += run.latency / (before + after)
        before = after
        wl.check(item, run)
        plain.append(run)

    tracer = Tracer()
    traced, traced_norm = [], 0.0
    tracer.install()
    try:
        t0 = time.perf_counter()
        before = host_probe()
        for i, item in enumerate(wl.items):
            tracer.current_item = i
            idx = tracer.open("bench.item")
            run = run_item(item)
            tracer.close(idx)
            idx = tracer.open("bench.check")
            after = host_probe()
            traced_norm += run.latency / (before + after)
            before = after
            wl.check(item, run)
            tracer.close(idx)
            traced.append(run)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.write_csv(spans_path)

    arr = tracer.span_arrays()
    own, calls = self_times(arr["name_id"], arr["start"], arr["end"], arr["parent"],
                            len(tracer.names))
    incl = np.bincount(arr["name_id"], weights=arr["end"] - arr["start"],
                       minlength=len(tracer.names))
    mismatched = [p.key for p, t in zip(plain, traced) if p.digest != t.digest]
    q_plain, q_traced = wl.quality(plain), wl.quality(traced)
    return {
        "names": tracer.names,
        "self_s": own.tolist(),
        "incl_s": incl.tolist(),
        "calls": calls.tolist(),
        "counts": dict(tracer.counts),
        "wall_s": wall,
        "covered_s": top_level_seconds(arr["start"], arr["end"], arr["parent"]),
        "spans": int(arr["start"].size),
        "overhead_frac": traced_norm / plain_norm - 1.0,
        "out_bytes": sum(r.out_bytes for r in traced),
        "failed": sum(1 for r in plain + traced if r.errors),
        "attempted": len(plain) + len(traced),
        "errors": [f"{r.key}: {e}" for r in plain + traced for e in r.errors][:20],
        "digests": {r.key: r.digest for r in plain},
        "trace_mismatches": mismatched + (["quality"] if q_plain != q_traced else []),
        "quality": q_plain,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    spans_path = os.path.abspath(args.spans) if args.spans else ""

    os.chdir(args.work)
    wl = WORKLOADS[args.workload](args.seed)
    wl.generate()
    warm = run_item(wl.items[0])
    wl.check(wl.items[0], warm)
    emit({"event": "ready", "warmup": _summary(warm)})
    emit({"event": "probe", "seconds": sorted(host_probe() for _ in range(SETUP_PROBES))[SETUP_PROBES // 2]})
    if args.mode == "setup":
        return 0

    if args.mode == "measure":
        result = measure(wl, args.seconds)
    else:
        result = trace(wl, spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit({"event": "result", **result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
