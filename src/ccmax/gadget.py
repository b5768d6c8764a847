"""Unique-games gadget graphs: construction, completeness, density.

From a bipartite unique-games instance with label permutations, and
parameters (q, rho), the reduction builds a vertex- and edge-weighted
multigraph on right-vertices times L-bit strings:

  vertex (v, x) has weight pi_q(x) / |right|, the q-biased product
  measure of the bit string x;

  for every left vertex u and every ordered pair of edges e1 = (u, v1),
  e2 = (u, v2), and all bit strings (x, y), there is an edge between
  (v1, x) and (v2, y) with weight

      nu_tensor(x o pi_e1, y o pi_e2) / (|left| * D^2),

  where nu is the distribution of two rho-correlated q-biased bits,
  with off-diagonal mass t = (q - q^2)(1 - rho):

      nu(0,0) = 1 - q - t,  nu(0,1) = nu(1,0) = t,  nu(1,1) = q - t,

  and (x o pi)_i = x_{pi(i)}.

Total vertex weight and total edge weight are both 1, and each vertex
weight equals half its incident edge weight (self-loops counted twice)
whenever the instance is bipartite-regular; the identity

    w(S, V) = w(S) + w(S, S^c) / 2                               (*)

then holds for every vertex subset S.

A labeling z that satisfies every constraint gives the set
S = {(v, x) : x_{z(v)} = 1} with w(S) = q and w(S, S^c) = 2t exactly;
the same set has internal weight w(S, S) = nu(1,1) = q - t, which for
rho < 0 is strictly below gamma_rho(rho, q, q) -- the density level
that unsatisfiable instances would guarantee.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import DomainError, FormatError, SizeGuardError
from .instance import CCInstance, Constraint, Or, Xor

MAX_LABELS = 14
MAX_EXACT_DENSITY_VERTICES = 24
MAX_EDGE_ENTRIES = 5_000_000


@dataclass(frozen=True)
class UGInstance:
    """Bipartite unique games: edges carry left-to-right label bijections."""

    n_left: int
    n_right: int
    n_labels: int
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.n_left < 1 or self.n_right < 1 or self.n_labels < 1:
            raise DomainError("unique games instance needs nonempty sides and labels")
        degs = [0] * self.n_left
        for u, v, perm in self.edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise DomainError(f"edge ({u}, {v}) out of range")
            if sorted(perm) != list(range(self.n_labels)):
                raise DomainError(f"edge ({u}, {v}) permutation is not a bijection: {perm}")
            degs[u] += 1
        if len(set(degs)) != 1:
            raise DomainError(f"left side must be regular, got degrees {sorted(set(degs))}")
        rdegs = [0] * self.n_right
        for _, v, _ in self.edges:
            rdegs[v] += 1
        if len(set(rdegs)) != 1:
            warnings.warn(
                "unique games instance is not right-regular; gadget half-incidence "
                "invariants will not hold exactly", stacklevel=2)

    @property
    def degree(self) -> int:
        return len(self.edges) // self.n_left


@dataclass(frozen=True)
class Labeling:
    left: tuple[int, ...]
    right: tuple[int, ...]


def ug_value(ug: UGInstance, z: Labeling) -> float:
    """Fraction of constraints satisfied: perm[z_left] == z_right."""
    if len(z.left) != ug.n_left or len(z.right) != ug.n_right:
        raise DomainError("labeling size mismatch")
    good = sum(1 for u, v, perm in ug.edges if perm[z.left[u]] == z.right[v])
    return good / len(ug.edges)


@dataclass(frozen=True)
class NuDistribution:
    """Joint law of two rho-correlated q-biased bits."""

    q: float
    rho: float
    t: float
    p00: float
    p01: float
    p10: float
    p11: float

    def table(self) -> dict[tuple[int, int], float]:
        return {(0, 0): self.p00, (0, 1): self.p01, (1, 0): self.p10, (1, 1): self.p11}


def nu(q: float, rho: float) -> NuDistribution:
    """Correlated-bit table with off-diagonal mass t = (q - q^2)(1 - rho).

    Accepts any rho for which the table is a distribution: at or above
    the extremal negative correlation -min(q, 1-q)/(1 - min(q, 1-q)),
    up to +1 (independence at 0 included).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must be inside (0, 1), got {q!r}")
    lo = -min(q, 1.0 - q) / (1.0 - min(q, 1.0 - q))
    if not (math.isfinite(rho) and lo - 1e-12 <= rho <= 1.0):
        raise DomainError(
            f"rho={rho!r} gives a negative cell; need {lo:.12g} <= rho <= 1 at q={q}")
    t = (q - q * q) * (1.0 - rho)
    table = NuDistribution(q=q, rho=rho, t=t,
                           p00=1.0 - q - t, p01=t, p10=t, p11=q - t)
    if min(table.p00, table.p11) < -1e-15:
        raise DomainError(f"rho={rho} yields negative mass at q={q}")
    return table


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex- and edge-weighted multigraph; parallel edges and loops allowed."""

    vertex_weights: np.ndarray
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_w: np.ndarray
    labels: tuple[tuple[int, int], ...] | None = None  # (right-vertex, bitmask)

    def __post_init__(self):
        n = self.vertex_weights.size
        if self.edge_a.size != self.edge_b.size or self.edge_a.size != self.edge_w.size:
            raise DomainError("edge arrays must have equal length")
        if self.edge_a.size and (self.edge_a.min() < 0 or self.edge_a.max() >= n
                                 or self.edge_b.min() < 0 or self.edge_b.max() >= n):
            raise DomainError("edge endpoint out of range")
        if n == 0:
            raise DomainError("graph must have at least one vertex")
        if not (np.all(np.isfinite(self.vertex_weights)) and np.all(np.isfinite(self.edge_w))):
            raise DomainError("weights must be finite")
        if np.any(self.vertex_weights < 0) or np.any(self.edge_w < 0):
            raise DomainError("weights must be nonnegative")

    @property
    def n_vertices(self) -> int:
        return int(self.vertex_weights.size)

    def total_vertex_weight(self) -> float:
        return float(np.sum(self.vertex_weights))

    def total_edge_weight(self) -> float:
        return float(np.sum(self.edge_w))

    def incident_weights(self) -> np.ndarray:
        """Per-vertex incident edge weight; self-loops counted twice."""
        inc = np.zeros(self.n_vertices)
        np.add.at(inc, self.edge_a, self.edge_w)
        np.add.at(inc, self.edge_b, self.edge_w)
        return inc

    def subset_weight(self, mask: np.ndarray) -> float:
        return float(np.sum(self.vertex_weights[np.asarray(mask, dtype=bool)]))

    def w_between(self, s_mask: np.ndarray, t_mask: np.ndarray) -> float:
        """Weight of edges with one endpoint in S and the other in T."""
        s = np.asarray(s_mask, dtype=bool)
        t = np.asarray(t_mask, dtype=bool)
        a_in_s = s[self.edge_a]
        b_in_s = s[self.edge_b]
        a_in_t = t[self.edge_a]
        b_in_t = t[self.edge_b]
        hit = (a_in_s & b_in_t) | (a_in_t & b_in_s)
        return float(np.sum(self.edge_w[hit]))

    def internal_weight(self, mask: np.ndarray) -> float:
        """w(S, S); the S = T case of `w_between` with one gather per side."""
        s = np.asarray(mask, dtype=bool)
        return float(np.sum(self.edge_w[s[self.edge_a] & s[self.edge_b]]))

    def cut_weight(self, mask: np.ndarray) -> float:
        m = np.asarray(mask, dtype=bool)
        return self.w_between(m, ~m)

    def coverage_weight(self, mask: np.ndarray) -> float:
        """w(S, V): total weight of edges touching S."""
        m = np.asarray(mask, dtype=bool)
        return self.w_between(m, np.ones(self.n_vertices, dtype=bool))


def biased_product_weights(q: float, n_labels: int) -> np.ndarray:
    """pi_q of every bitmask 0 .. 2^L - 1 (bit j = label j)."""
    by_ones = np.array([(q ** j) * ((1.0 - q) ** (n_labels - j))
                        for j in range(n_labels + 1)])
    xs = np.arange(1 << n_labels)
    ones = ((xs[:, None] >> np.arange(n_labels)) & 1).sum(axis=1)
    return by_ones[ones]


def build_gadget(ug: UGInstance, q: float, rho: float) -> WeightedGraph:
    """Materialize the reduction graph for (q, rho); zero cells pruned.

    Edge entries come pair by pair -- for u, for (v1, v2) in its
    incident edges -- each pair listing the surviving tensor cells in
    `itertools.product` order.  The weights are L outer products with
    the cell weights, taken left to right from 1 / (number of edge
    pairs): the same multiplication order as one scalar `weight *= cw`
    per coordinate, so every weight equals the scalar loop's bit for bit.
    """
    L = ug.n_labels
    if L > MAX_LABELS:
        raise SizeGuardError(
            f"refusing to build gadget with {L} labels (> {MAX_LABELS}): "
            f"{ug.n_right} * 2^{L} = {ug.n_right * (1 << L)} vertices")
    dist = nu(q, rho)
    cells = [(cx, cy, w) for (cx, cy), w in dist.table().items() if w > 0.0]
    degree = ug.degree
    n_pairs = ug.n_left * degree * degree  # the left side is regular
    est = n_pairs * len(cells) ** L
    if est > MAX_EDGE_ENTRIES:
        raise SizeGuardError(
            f"refusing to enumerate ~{est} edge entries (> {MAX_EDGE_ENTRIES}); "
            f"{n_pairs} edge pairs x {len(cells)}^{L} tensor cells")

    base = biased_product_weights(q, L)
    vertex_w = np.tile(base / ug.n_right, ug.n_right)
    labels = tuple((v, x) for v in range(ug.n_right) for x in range(1 << L))

    cx, cy, cw = (np.array(col) for col in zip(*cells))
    w = np.array([1.0 / n_pairs])
    # edges grouped by left vertex, in instance order within each group
    edges = sorted(ug.edges, key=lambda e: e[0])
    n_edges = len(edges)
    v_of = np.array([v for _, v, _ in edges], dtype=np.int64)
    perms = np.array([p for _, _, p in edges], dtype=np.int64).reshape(n_edges, L)
    x = np.zeros((n_edges, 1), dtype=np.int64)
    y = np.zeros((n_edges, 1), dtype=np.int64)
    for i in range(L):
        w = (w[:, None] * cw).ravel()
        shift = perms[:, i, None, None]
        x = (x[:, :, None] | (cx << shift)).reshape(n_edges, -1)
        y = (y[:, :, None] | (cy << shift)).reshape(n_edges, -1)
    # pair (e1, e2) at u: endpoints (v1, x) from e1 and (v2, y) from e2
    shape = (ug.n_left, degree, degree, w.size)
    ends_a = ((v_of[:, None] << L) | x).reshape(ug.n_left, degree, 1, w.size)
    ends_b = ((v_of[:, None] << L) | y).reshape(ug.n_left, 1, degree, w.size)
    return WeightedGraph(
        vertex_weights=vertex_w,
        edge_a=np.broadcast_to(ends_a, shape).ravel(),
        edge_b=np.broadcast_to(ends_b, shape).ravel(),
        edge_w=np.tile(w, n_pairs),
        labels=labels,
    )


def completeness_set(
    ug: UGInstance, z: Labeling, graph: WeightedGraph, q: float, rho: float
) -> tuple[np.ndarray, float, float]:
    """Set {(v, x): x_{z(v)} = 1}; returns (mask, weight, cut weight).

    For a labeling satisfying every constraint the cut weight equals
    2t = 2 q (1-q)(1-rho) exactly; a fraction gamma of violated
    constraints degrades it to at least 2t(1-gamma)^2.
    """
    if len(z.right) != ug.n_right:
        raise DomainError("labeling size mismatch")
    L = ug.n_labels
    mask = np.zeros(graph.n_vertices, dtype=bool)
    xs = np.arange(1 << L)
    for v in range(ug.n_right):
        lab = z.right[v]
        if not (0 <= lab < L):
            raise DomainError(f"label {lab} out of range for vertex {v}")
        mask[v << L: (v + 1) << L] = (xs >> lab) & 1
    _ = nu(q, rho)  # parameter validation
    return mask, graph.subset_weight(mask), graph.cut_weight(mask)


@dataclass(frozen=True)
class DensitySample:
    r: float
    min_density_found: float
    method: Literal["exact", "local_search"]
    n_candidates: int


@dataclass(frozen=True)
class DensityProfile:
    samples: tuple[DensitySample, ...]
    epsilon: float
    tol_r: float


def _all_subset_stats(graph: WeightedGraph, chunk: int = 1 << 18) -> tuple[np.ndarray, np.ndarray]:
    """(subset weight, internal weight) for every vertex subset bitmask."""
    n = graph.n_vertices
    M = np.zeros((n, n))
    for a, b, w in zip(graph.edge_a, graph.edge_b, graph.edge_w):
        if a == b:
            M[a, a] += 2.0 * w
        else:
            M[a, b] += w
            M[b, a] += w
    weights = graph.vertex_weights
    total = 1 << n
    ws = np.empty(total)
    wss = np.empty(total)
    bits_template = np.arange(n, dtype=np.uint32)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.uint64)[:, None]
        B = ((idx >> bits_template) & 1).astype(float)
        ws[start:stop] = B @ weights
        wss[start:stop] = 0.5 * np.einsum("ij,ij->i", B @ M, B)
    return ws, wss


def density_profile(
    graph: WeightedGraph,
    r_grid: Sequence[float],
    mode: Literal["exact", "local_search"] = "exact",
    seed: int = 0,
    epsilon: float = 0.0,
    tol_r: float | None = None,
    restarts: int = 10,
) -> DensityProfile:
    """Minimum internal edge weight among subsets near each target weight.

    exact mode enumerates all subsets (guarded at 24 vertices) and is a
    true minimum over the weight window; local_search mode reports the
    best found by seeded swap descent, an upper bound only.  Each target
    r is a fraction of the unit total vertex weight, so it must lie in
    [0, 1].
    """
    rs = [float(r) for r in r_grid]
    if not rs:
        raise DomainError("r_grid must be nonempty")
    for r in rs:
        if not (0.0 <= r <= 1.0):
            raise DomainError(f"target weight r must lie in [0, 1], got {r!r}")
    if tol_r is None:
        tol_r = float(np.max(graph.vertex_weights))
    n = graph.n_vertices

    if mode == "exact":
        if n > MAX_EXACT_DENSITY_VERTICES:
            raise SizeGuardError(
                f"exact density enumeration refused for {n} vertices "
                f"(> {MAX_EXACT_DENSITY_VERTICES}); use mode='local_search'")
        ws, wss = _all_subset_stats(graph)
        samples = []
        for r in rs:
            hit = np.abs(ws - r) <= tol_r
            count = int(np.sum(hit))
            val = float(np.min(wss[hit])) if count else math.inf
            samples.append(DensitySample(r, val, "exact", count))
        return DensityProfile(tuple(samples), epsilon, tol_r)

    if mode != "local_search":
        raise DomainError(f"unknown mode {mode!r}")

    weights = graph.vertex_weights
    samples = []
    for r in rs:
        best = math.inf
        found = 0
        for rep in range(restarts):
            rng = np.random.Generator(np.random.Philox(key=[seed, rep]))
            order = rng.permutation(n)
            mask = np.zeros(n, dtype=bool)
            acc = 0.0
            for v in order:
                if acc + weights[v] <= r + tol_r:
                    mask[v] = True
                    acc += weights[v]
                if acc >= r - tol_r:
                    break
            if not (r - tol_r <= acc <= r + tol_r):
                continue
            found += 1
            cur = graph.internal_weight(mask)
            improved = True
            while improved:
                improved = False
                for v in range(n):
                    mask[v] = ~mask[v]
                    w_new = graph.subset_weight(mask)
                    if abs(w_new - r) <= tol_r:
                        cand = graph.internal_weight(mask)
                        if cand < cur - 1e-15:
                            cur = cand
                            improved = True
                            continue
                    mask[v] = ~mask[v]
            best = min(best, cur)
        samples.append(DensitySample(r, best, "local_search", found))
    return DensityProfile(tuple(samples), epsilon, tol_r)


def derive_cc_instance(
    graph: WeightedGraph,
    problem: Literal["cut", "kvc"],
    q: float,
    k: int | None = None,
) -> CCInstance:
    """Instance over the graph's vertices; edges become constraints.

    k defaults to round(q * n); gadget callers should pass the
    completeness set's cardinality instead, since vertex weights are
    unequal and the weight-q set rarely matches a count quantile.
    """
    if problem == "cut":
        kind = Xor(-1)
        label = "cut"
    elif problem == "kvc":
        kind = Or((1, 1, -1))
        label = "kvc"
    else:
        raise DomainError(f"unknown problem {problem!r}")
    n = graph.n_vertices
    if k is None:
        k = round(q * n)
    cons = tuple(
        Constraint(int(a), int(b), float(w), kind)
        for a, b, w in zip(graph.edge_a, graph.edge_b, graph.edge_w)
        if w > 0.0
    )
    return CCInstance(n=n, k=int(k), constraints=cons, problem=label)


def random_ug(
    n_left: int,
    n_right: int,
    n_labels: int,
    degree: int,
    seed: int = 0,
    satisfiable: bool = True,
) -> tuple[UGInstance, Labeling | None]:
    """Seeded biregular instance; optionally consistent with a hidden labeling."""
    if (n_left * degree) % n_right != 0:
        raise DomainError(
            f"cannot be right-regular: {n_left} * {degree} not divisible by {n_right}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    slots = np.repeat(np.arange(n_right), (n_left * degree) // n_right)
    slots = rng.permutation(slots)

    hidden = None
    if satisfiable:
        hidden = Labeling(
            left=tuple(int(x) for x in rng.integers(0, n_labels, n_left)),
            right=tuple(int(x) for x in rng.integers(0, n_labels, n_right)),
        )
    edges = []
    for u in range(n_left):
        for d in range(degree):
            v = int(slots[u * degree + d])
            perm = list(rng.permutation(n_labels))
            if hidden is not None:
                # force perm[z_u] = z_v by swapping images
                zu, zv = hidden.left[u], hidden.right[v]
                pos = perm.index(zv)
                perm[pos], perm[zu] = perm[zu], zv
            edges.append((u, v, tuple(int(p) for p in perm)))
    return UGInstance(n_left, n_right, n_labels, tuple(edges)), hidden


def parse_ug(text: str) -> UGInstance:
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


def format_ug(ug: UGInstance) -> str:
    out = ["ug v1", f"left {ug.n_left}", f"right {ug.n_right}",
           f"labels {ug.n_labels}", f"degree {ug.degree}"]
    for u, v, perm in ug.edges:
        out.append("e " + " ".join([str(u + 1), str(v + 1)] + [str(p + 1) for p in perm]))
    return "\n".join(out) + "\n"


def parse_labeling(text: str, ug: UGInstance) -> Labeling:
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


def format_graph(graph: WeightedGraph) -> str:
    """Text form, weights as `.17g`; each distinct edge weight formatted once."""
    out = ["graph v1"]
    out += [f"vertex {i} {w:.17g}"
            for i, w in enumerate(graph.vertex_weights.tolist(), start=1)]
    # dedupe on the bit pattern, so -0.0 and 0.0 keep their own strings
    ew = np.ascontiguousarray(graph.edge_w, dtype=np.float64)
    bits, which = np.unique(ew.view(np.uint64), return_inverse=True)
    text = [f"{w:.17g}" for w in bits.view(np.float64).tolist()]
    out += [f"edge {a} {b} {text[k]}" for a, b, k in
            zip((graph.edge_a + 1).tolist(), (graph.edge_b + 1).tolist(), which.tolist())]
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> WeightedGraph:
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
