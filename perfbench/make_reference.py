"""Freeze the curve and gadget reference values from the current ccmax.

    python3 perfbench/make_reference.py

writes perfbench/reference.json.  The committed file was produced from
the package as it stood when the benchmark was added; regenerate it only
when a change is meant to alter curve or gadget outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    FULL_CONF_KEY,
    REFERENCE_PATH,
    Gadget,
    Item,
    curve_catalogue,
    graph_stats,
    parse_curve_csv,
    parse_density,
    parse_report,
    run_item,
)


def dump(reference: dict[str, dict]) -> str:
    """JSON with one reference entry per line."""
    sections = []
    for name, entries in reference.items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
        sections.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def _run(item: Item):
    run = run_item(item)
    if run.rc != 0:
        raise SystemExit(f"{item.key}: {run.errors}")
    return run


def main() -> int:
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / ".work"))
    os.chdir(work)
    try:
        curves = {}
        for group in curve_catalogue().values():
            for item in group:
                _run(item)
                curves[item.key] = parse_curve_csv(Path(item.outputs[0]).read_text())
        full_conf = {FULL_CONF_KEY: json.loads(_run(Item(FULL_CONF_KEY, None)).stdout)}

        gadget: dict[str, dict] = {}
        for seed in (0, 1):
            ref = {}
            wl = Gadget(seed)
            wl.generate()
            for item in wl.items:
                run = _run(item)
                kind = item.key.split(":", 1)[0]
                if kind == "gadget":
                    stats = graph_stats(Path(item.meta["graph"]).read_text())
                    ref[item.key] = {"vertices": stats["vertices"],
                                     "edge_entries": stats["edge_entries"]}
                elif kind == "density":
                    ref[item.key] = {"thresholds": [r["threshold"] for r in parse_density(run.stdout)]}
                else:
                    ref[item.key] = {"two_t": float(parse_report(run.stdout)["two_t"])}
            if gadget and ref != gadget:
                raise SystemExit("gadget reference values depend on the seed")
            gadget = ref
    finally:
        os.chdir(HERE)
        shutil.rmtree(work)
    REFERENCE_PATH.write_text(
        dump({"curves": curves, "full_conf": full_conf, "gadget": gadget}), encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}: {len(curves)} curve items, {len(gadget)} gadget items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
