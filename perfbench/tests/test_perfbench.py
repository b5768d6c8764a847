"""Tests of the benchmark's own arithmetic and of its probes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ccmax  # noqa: E402
import ccmax.cli  # noqa: E402
import ccmax.gadget  # noqa: E402
import run  # noqa: E402
from run import tail  # noqa: E402
from spans import PROBES, Tracer, self_times, top_level_seconds  # noqa: E402
from workloads import WORKLOADS, curve_catalogue, run_item  # noqa: E402


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_spec()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]  # 1..100, shuffled order must not matter
    value, pct, n = tail(xs[::-1])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(x > value for x in xs) == 10

    value, pct, n = tail([float(i) for i in range(20)])
    assert (value, pct, n) == (9.0, 50.0, 20)

    value, pct, n = tail([float(i) for i in range(25)])
    assert (value, pct, n) == (14.0, 60.0, 25)


def test_tail_falls_back_to_the_maximum_below_twenty_samples():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([float(i) for i in range(19)]) == (18.0, 100.0, 19)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] -> b [1, 4], c [5, 9] -> d [6, 7];  e [10, 12] is a second root named b
    names = ["a", "b", "c", "d"]
    name_id = np.array([0, 1, 2, 3, 1])
    start = np.array([0.0, 1.0, 5.0, 6.0, 10.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 12.0])
    parent = np.array([-1, 0, 0, 2, -1])
    own, calls = self_times(name_id, start, end, parent, len(names))
    assert own.tolist() == [3.0, 5.0, 3.0, 1.0]  # a: 10-3-4; b: 3 + 2; c: 4-1; d: 1
    assert calls.tolist() == [1, 2, 1, 1]
    assert own.sum() == pytest.approx(top_level_seconds(start, end, parent)) == 12.0


def _lookup_sites() -> dict[tuple[str, str], object]:
    sites = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "ccmax" or name.startswith("ccmax.")):
            sites.update({(name, k): v for k, v in vars(mod).items()})
    sites.update({("WeightedGraph", k): v
                  for k, v in vars(ccmax.gadget.WeightedGraph).items()})
    return sites


def test_install_wraps_every_lookup_site_and_restore_puts_back_every_original():
    before = _lookup_sites()
    tracer = Tracer()
    tracer.install()
    try:
        now = _lookup_sites()
        sites = [(p.owner_class or p.module, p.attr) for p in PROBES]
        assert all(now[site] is not before[site] for site in sites)
        assert ccmax.sdp.greedy_assignment is ccmax.instance.greedy_assignment
        assert ccmax.sdp.greedy_assignment is not before[("ccmax.sdp", "greedy_assignment")]
        assert ccmax.curves.gamma_rho is ccmax.gaussian.gamma_rho is ccmax.rounding.gamma_rho
        with contextlib.redirect_stdout(io.StringIO()):
            assert ccmax.cli.main(["gamma", "--rho", "-0.5", "--x", "0.3", "--y", "0.4"]) == 0
        with pytest.raises(ccmax.errors.DomainError):
            ccmax.gaussian.gamma_rho(2.0, 0.3, 0.4)
    finally:
        tracer.restore()
    assert _lookup_sites() == before
    assert tracer.names[:3] == ["cli.main", "gaussian.gamma_rho", "gaussian.gamma_rho_vec"]
    assert all(np.isfinite(tracer.end))  # the span that raised was closed too


def test_traced_item_writes_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    item = curve_catalogue()["hardness:2sat:flat"][0]
    plain = run_item(item)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_item(item)
    finally:
        tracer.restore()
    assert plain.rc == traced.rc == 0
    assert plain.digest == traced.digest
    assert tracer.counts["curves.hardness_curve.points"] == 8
