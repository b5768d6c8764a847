"""The four hand-written parsers that `read_lines` and `read_columns` replaced.

Each reads its format line by line, as the package did before its four
formats shared one reader.  The tests compare the package's parsers with
these on generated and on damaged texts; `agrees` states the rule.
"""

from __future__ import annotations

import numpy as np

from ccmax.errors import CcmaxError, DomainError, FormatError
from ccmax.gadget import Labeling, UGInstance, WeightedGraph
from ccmax.instance import _TAG_TO_KIND, CCInstance, Constraint


def agrees(parse, oracle, text: str, same=lambda a, b: a == b) -> None:
    """`parse` refuses `text` with a CcmaxError, or returns what `oracle` returns."""
    try:
        got = parse(text)
    except CcmaxError:
        return
    assert same(got, oracle(text))


def same_graph(a: WeightedGraph, b: WeightedGraph) -> bool:
    """Equal bit for bit: every array's dtype and bytes."""
    pairs = [(a.vertex_weights, b.vertex_weights), (a.edge_a, b.edge_a),
             (a.edge_b, b.edge_b), (a.edge_w, b.edge_w)]
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in pairs)


def parse_instance_oracle(text: str) -> CCInstance:
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines or lines[0].split() != ["ccmax", "v1"]:
        raise FormatError("missing 'ccmax v1' header")

    header: dict[str, str] = {}
    body_start = 1
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "c":
            break
        if parts[0] not in ("problem", "vars", "card") or len(parts) != 2:
            raise FormatError(f"unexpected header line: {ln!r}")
        header[parts[0]] = parts[1]
        body_start += 1
    for key in ("problem", "vars", "card"):
        if key not in header:
            raise FormatError(f"missing '{key}' line")
    try:
        n = int(header["vars"])
        k = int(header["card"])
    except ValueError as exc:
        raise FormatError(f"vars/card must be integers: {exc}") from exc
    problem = header["problem"]

    constraints = []
    for ln in lines[body_start:]:
        parts = ln.split()
        if parts[0] != "c" or len(parts) != 5:
            raise FormatError(f"bad constraint line: {ln!r}")
        try:
            i = int(parts[1])
            j = int(parts[2])
            w = float(parts[3])
        except ValueError as exc:
            raise FormatError(f"bad constraint line {ln!r}: {exc}") from exc
        if parts[4] not in _TAG_TO_KIND:
            raise FormatError(f"unknown constraint tag {parts[4]!r} in line {ln!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise FormatError(f"constraint indices out of range in line {ln!r}")
        constraints.append(Constraint(i - 1, j - 1, w, _TAG_TO_KIND[parts[4]]))
    try:
        return CCInstance(n=n, k=k, constraints=tuple(constraints), problem=problem)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def parse_ug_oracle(text: str) -> UGInstance:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split() != ["ug", "v1"]:
        raise FormatError("missing 'ug v1' header")
    header: dict[str, int] = {}
    idx = 1
    for key in ("left", "right", "labels", "degree"):
        if idx >= len(lines):
            raise FormatError(f"missing '{key}' line")
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <int>', got {lines[idx]!r}")
        try:
            header[key] = int(parts[1])
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        idx += 1
    edges = []
    for ln in lines[idx:]:
        parts = ln.split()
        if parts[0] != "e" or len(parts) != 3 + header["labels"]:
            raise FormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            perm = tuple(int(p) - 1 for p in parts[3:])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}: {exc}") from exc
        edges.append((u, v, perm))
    try:
        ug = UGInstance(header["left"], header["right"], header["labels"], tuple(edges))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
    if ug.degree != header["degree"]:
        raise FormatError(f"declared degree {header['degree']} but edges imply {ug.degree}")
    return ug


def parse_labeling_oracle(text: str, ug: UGInstance) -> Labeling:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split() != ["labeling", "v1"]:
        raise FormatError("missing 'labeling v1' header")
    left = [-1] * ug.n_left
    right = [-1] * ug.n_right
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in ("u", "v"):
            raise FormatError(f"bad labeling line: {ln!r}")
        try:
            idx, lab = int(parts[1]) - 1, int(parts[2]) - 1
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        side = left if parts[0] == "u" else right
        if not (0 <= idx < len(side)) or not (0 <= lab < ug.n_labels):
            raise FormatError(f"labeling entry out of range: {ln!r}")
        side[idx] = lab
    if -1 in left or -1 in right:
        raise FormatError("labeling does not cover every vertex")
    return Labeling(left=tuple(left), right=tuple(right))


def parse_graph_oracle(text: str) -> WeightedGraph:
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split() != ["graph", "v1"]:
        raise FormatError("missing 'graph v1' header")
    vw: dict[int, float] = {}
    edges: list[tuple[int, int, float]] = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            if parts[0] == "vertex" and len(parts) == 3:
                vw[int(parts[1]) - 1] = float(parts[2])
            elif parts[0] == "edge" and len(parts) == 4:
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1, float(parts[3])))
            else:
                raise FormatError(f"bad graph line: {ln!r}")
        except (ValueError, IndexError) as exc:
            raise FormatError(f"bad graph line {ln!r}: {exc}") from exc
    n = max(vw) + 1 if vw else 0
    if sorted(vw) != list(range(n)):
        raise FormatError("vertex ids must cover 1..n")
    weights = np.array([vw[i] for i in range(n)])
    ea = np.array([a for a, _, _ in edges], dtype=np.int64)
    eb = np.array([b for _, b, _ in edges], dtype=np.int64)
    ew = np.array([w for _, _, w in edges])
    try:
        return WeightedGraph(vertex_weights=weights, edge_a=ea, edge_b=eb, edge_w=ew)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
