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
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .curves import extremal_rho
from .errors import DomainError, FormatError, SizeGuardError
from .gaussian import stream
from .instance import (CUT_KIND, VERTEX_COVER_KIND, CCInstance, Constraint, by_id, read_columns,
                       read_lines)

MAX_LABELS = 14
MAX_EXACT_DENSITY_VERTICES = 24
MAX_EDGE_ENTRIES = 5_000_000
# seeded starts of each local_search density target
DENSITY_RESTARTS = 10
# subsets per block of the exact density window
WINDOW_BLOCK = 1 << 16


def _degrees(ends: Iterator[int], n: int) -> set[int]:
    """Distinct degrees of vertices 0..n-1, counted over the edge ends only.

    Nothing is sized by n, so a huge declared side costs no memory.
    """
    counts = Counter(ends)
    return set(counts.values()) | ({0} if len(counts) < n else set())


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
        if not self.edges:
            raise DomainError("unique games instance needs at least one edge")
        for u, v, perm in self.edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise DomainError(f"edge ({u}, {v}) out of range")
            if len(perm) != self.n_labels or sorted(perm) != list(range(self.n_labels)):
                raise DomainError(f"edge ({u}, {v}) permutation is not a bijection: {perm}")
        degs = _degrees((u for u, _, _ in self.edges), self.n_left)
        if len(degs) != 1:
            raise DomainError(f"left side must be regular, got degrees {sorted(degs)}")
        if len(_degrees((v for _, v, _ in self.edges), self.n_right)) != 1:
            warnings.warn(
                "unique games instance is not right-regular; gadget half-incidence "
                "invariants will not hold exactly", stacklevel=3)  # past the dataclass __init__

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

    Accepts 0 < q < 1 and any finite rho <= 1 whose diagonal cells
    p00 = 1 - q - t and p11 = q - t are at least -1e-15: rho from the
    extremal negative correlation lo = `curves.extremal_rho(q)`, up to
    rounding, to +1 (independence at 0 included).
    """
    lo = extremal_rho(q)
    need = f"need {lo!r} <= rho <= 1 at q={q!r}"
    if not (math.isfinite(rho) and rho <= 1.0):
        raise DomainError(f"rho={rho!r} must be finite and at most 1; {need}")
    t = (q - q * q) * (1.0 - rho)
    table = NuDistribution(q=q, rho=rho, t=t,
                           p00=1.0 - q - t, p01=t, p10=t, p11=q - t)
    if min(table.p00, table.p11) < -1e-15:
        raise DomainError(f"rho={rho!r} yields negative mass; {need}")
    return table


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex- and edge-weighted multigraph; parallel edges and loops allowed."""

    vertex_weights: np.ndarray
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_w: np.ndarray

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

    def internal_weight(self, mask: np.ndarray) -> float:
        """w(S, S): total weight of edges with both ends in S."""
        s = np.asarray(mask, dtype=bool)
        return float(np.sum(self.edge_w[s[self.edge_a] & s[self.edge_b]]))

    def cut_weight(self, mask: np.ndarray) -> float:
        """w(S, S^c): total weight of edges with one end in S and one outside."""
        s = np.asarray(mask, dtype=bool)
        return float(np.sum(self.edge_w[s[self.edge_a] != s[self.edge_b]]))

    def coverage_weight(self, mask: np.ndarray) -> float:
        """w(S, V): total weight of edges touching S."""
        s = np.asarray(mask, dtype=bool)
        return float(np.sum(self.edge_w[s[self.edge_a] | s[self.edge_b]]))


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
    if ug.n_right << L > MAX_EDGE_ENTRIES:
        raise SizeGuardError(f"refusing to build gadget with {ug.n_right} * 2^{L} = "
                             f"{ug.n_right << L} vertices (> {MAX_EDGE_ENTRIES})")
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
    vertex_w = np.tile(base / ug.n_right, ug.n_right)  # vertex (v, x) is v << L | x

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
    )


def completeness_set(ug: UGInstance, z: Labeling,
                     graph: WeightedGraph) -> tuple[np.ndarray, float, float]:
    """Set {(v, x): x_{z(v)} = 1}; returns (mask, weight, cut weight).

    `graph` is `build_gadget(ug, q, rho)`, which has validated (q, rho).
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


def _doubling(steps: Sequence, dtype: type) -> np.ndarray:
    """out[S] = the steps[k] of the members k of S, added in increasing k.

    out[S + {k}] = out[S] + steps[k] for every S below 1 << k: one add per subset.
    """
    out = np.empty(1 << len(steps), dtype)
    out[0] = 0
    for k, step in enumerate(steps):
        np.add(out[:1 << k], step, out=out[1 << k:2 << k])
    return out


def _all_subset_stats(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(subset weight, internal weight) for every vertex subset bitmask.

    Both are doublings over the vertices k = 0 .. n-1.  For every S below 1 << k,

        w(S + {k})          = w(S) + w_k,
        w(S + {k}, S + {k}) = w(S, S) + row_k(S),
        row_k(S)            = (..((loop_k + a_{k,j1}) + a_{k,j2}) + ..),

    over the members j1 < j2 < .. of S, where loop_k = a_{k,k} and a_{k,j}
    are the summed weights of k's loops and of the edges between k and j,
    in a dense table filled from `_neighbours`.  row_k is itself a doubling
    over every j < k, built in the upper half of the output before the one
    add; a j with no edge to k adds 0.0, which leaves a sum of nonnegative
    weights as it is.  So each subset's two sums are the scalar sums in
    vertex index order, bit for bit, at O(2^n) adds and no matrix product.

    Rounding (u = 2^-53, gamma_m = m u / (1 - m u)): w(S) adds at most n
    nonnegative floats in sequence, so it lies within gamma_{n-1} w(S) of
    the exact sum of its vertex weights.  Each edge weight reaches
    w(S, S) through at most E - 1 adds in `_neighbours` (E edge entries),
    k adds in row_k and n - 1 outer adds, so w(S, S) lies within
    gamma_{E+2n} w(S, S) <= (E + 2n + 1) u T of the exact internal weight
    of S, T the total edge weight.  Any other summation order has a bound
    of the same form.
    """
    n = graph.n_vertices
    ws = _doubling(graph.vertex_weights.tolist(), np.float64)
    owner, other, w = _neighbours(graph)
    a = np.zeros((n, n))
    a[owner, other] = w
    wss = np.empty(1 << n)
    wss[0] = 0.0
    for k, row in enumerate(a.tolist()):
        top = wss[1 << k:2 << k]
        top[0] = row[k]
        for j in range(k):
            np.add(top[:1 << j], row[j], out=top[1 << j:2 << j])
        np.add(wss[:1 << k], top, out=top)
    return ws, wss


def _exact_window(graph: WeightedGraph, ws: np.ndarray, wss: np.ndarray,
                  rs: Sequence[float], tol_r: float) -> list[DensitySample]:
    """Least internal weight and count over the subsets S with |w(S) - r| <= tol_r,
    the window decided in exact arithmetic on the given floats.

    e = fl(|fl(ws - r)| - tol_r) is the float test's own quantity (e <= 0 iff
    abs(ws - r) <= tol_r).  By `_all_subset_stats`' bound and one rounding
    in each of the two subtractions, e lies within

        (n - 1) u W + 2u (W + r) + u |tol_r| + O(u^2) < (n + 2) eps (W + r + |tol_r|)

    of the exact |w(S) - r| - tol_r (W the total vertex weight, eps = 2u),
    so outside that band the float test is exact.  A subset inside it is
    decided by its exact weight, which depends only on how many of its
    vertices carry each distinct vertex weight: an integer code of those
    counts comes from the same doubling, and each code is decided once, by
    the signs of fsum(its weights, -r, -tol_r) and fsum(its weights, -r,
    +tol_r).  fsum rounds the exact sum once, and rounding keeps the sign.
    A gadget has at most L + 1 distinct vertex weights.  The window is
    taken in blocks, so it adds O(block + codes) memory.
    """
    weights = graph.vertex_weights.tolist()
    values = sorted(set(weights))
    cls = [values.index(w) for w in weights]
    sizes = [cls.count(c) for c in range(len(values))]
    radix = [1]  # a subset's code is the sum of count_c * radix[c] over the values c
    for m in sizes:
        radix.append(radix[-1] * (m + 1))
    codes = _doubling([radix[c] for c in cls], np.int32)
    total = math.fsum(weights)
    eps = np.finfo(float).eps
    size = min(ws.size, WINDOW_BLOCK)
    e, hit, near = np.empty(size), np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    samples = []
    for r in rs:
        band = (graph.n_vertices + 2) * eps * (total + r + abs(tol_r))
        state = None  # per code: 0 undecided, 1 outside the window, 2 inside
        best, count = math.inf, 0
        for lo in range(0, ws.size, size):
            np.subtract(ws[lo:lo + size], r, out=e)
            np.abs(e, out=e)
            np.subtract(e, tol_r, out=e)  # e <= 0 iff abs(ws - r) <= tol_r
            np.less_equal(e, 0.0, out=hit)
            np.abs(e, out=e)
            np.less_equal(e, band, out=near)
            if near.any():
                at = near.nonzero()[0]
                code = codes[lo + at]
                if state is None:
                    state = np.zeros(radix[-1], dtype=np.int8)
                for c in set(code[state[code] == 0].tolist()):
                    terms = [v for v, k, m in zip(values, radix, sizes)
                             for _ in range(c // k % (m + 1))]
                    state[c] = 1 + (math.fsum(terms + [-r, -tol_r]) <= 0.0
                                    <= math.fsum(terms + [-r, tol_r]))
                hit[at] = state[code] == 2
            count += int(np.count_nonzero(hit))
            best = min(best, float(np.where(hit, wss[lo:lo + size], math.inf).min()))
        samples.append(DensitySample(r, best, "exact", count))
    return samples


def _neighbours(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each vertex's distinct neighbours and the summed weight of its edges to each.

    Returns (vertex, neighbour, weight) rows sorted by vertex, then by
    neighbour; a loop counts once, in its vertex's row.  Parallel edges
    are summed in edge order, those listed from the row's vertex first.  The
    exact kernel, the density local search and the tests' sequential oracle
    read their per-pair sums from here.
    """
    n = graph.n_vertices
    loop = graph.edge_a == graph.edge_b
    key = np.concatenate([graph.edge_a * n + graph.edge_b,
                          (graph.edge_b * n + graph.edge_a)[~loop]])
    pair, entry_pair = np.unique(key, return_inverse=True)
    w = np.concatenate([graph.edge_w, graph.edge_w[~loop]])
    return pair // n, pair % n, np.bincount(entry_pair, weights=w, minlength=pair.size)


def density_profile(
    graph: WeightedGraph,
    r_grid: Sequence[float],
    mode: Literal["exact", "local_search"] = "exact",
    seed: int = 0,
    tol_r: float | None = None,
) -> DensityProfile:
    """Minimum internal edge weight among subsets near each target weight.

    The window is |w(S) - r| <= tol_r (tol_r defaults to the largest vertex
    weight).  exact mode enumerates all subsets (guarded at 24 vertices)
    with `_all_subset_stats` and decides the window exactly on the given
    floats (`_exact_window`), so its count is the exact one.  Its minimum is
    the least internal weight in that window, each summed in
    `_all_subset_stats`' fixed vertex order, so it lies within that
    docstring's bound of the exact minimum.  local_search mode keeps its own
    float test, abs(`subset_weight` - r) <= tol_r, which its oracle pins bit
    for bit, and is an upper bound only: from each of `DENSITY_RESTARTS`
    seeded fills (vertices taken in a random order until the weight reaches
    the window) it sweeps the vertices in index order, keeping each
    single-vertex flip that stays in the window and lowers the internal
    weight, and sweeps again until a sweep keeps none.

    A sweep runs in rounds.  A round screens the flips of every vertex
    v >= start at once, at the current set, with array operations:
    `acc +- w_v` against the window widened by a bound on the rounding of
    any summation order; then the vertex's edges into the set, since with
    none the selected edges and so their sum stay the same; then, when
    adding, their weight, since one above the edge sum's rounding bound
    must raise that sum, in whatever order either is summed.  Each test
    drops only flips that the unscreened search would reject.  The flips
    left open are tried in index order with that search's own tests: the
    exact window sum when the band left the flip undecided, then the
    internal weight.  A kept flip ends the round and the next one starts
    at v + 1, so every kept flip and every minimum is that search's bit
    for bit.  Each target r is a fraction of the unit total vertex
    weight, so it must lie in [0, 1].
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
        return DensityProfile(tuple(_exact_window(graph, ws, wss, rs, tol_r)))

    if mode != "local_search":
        raise DomainError(f"unknown mode {mode!r}")

    vw = graph.vertex_weights
    weights = vw.tolist()
    owner, other, other_w = _neighbours(graph)
    row_start = np.searchsorted(owner, np.arange(n + 1)).tolist()
    loop = other == owner
    eps = np.finfo(float).eps
    # any order of summing n vertex weights (or E edge weights) is within this of any other
    w_band = 4 * (n + 1) * eps * graph.total_vertex_weight()
    rise = 4 * (graph.edge_w.size + 1) * eps * graph.total_edge_weight() + 1e-15

    def open_flips(mask: np.ndarray, acc: float, r: float,
                   start: int) -> Iterator[tuple[int, bool]]:
        """(v, band undecided) for each v >= start whose flip no screen drops."""
        adding = ~mask[start:]
        w = vw[start:]
        lo = np.where(adding, acc + w, acc - w) - w_band
        hi = lo + 2 * w_band
        lo_in, hi_in = np.abs(lo - r) <= tol_r, np.abs(hi - r) <= tol_r
        # the whole band lies on one side of the window
        outside = ~(lo_in | hi_in | ((lo <= r) & (r <= hi)))
        p = row_start[start]
        into = mask[other[p:]] | loop[p:]
        rows = owner[p:][into] - start
        no_edge = np.bincount(rows, minlength=n - start) == 0
        rises = adding & (np.bincount(rows, weights=other_w[p:][into], minlength=n - start) > rise)
        keep = np.flatnonzero(~(outside | no_edge | rises))
        return zip((keep + start).tolist(), (~(lo_in & hi_in))[keep].tolist())

    samples = []
    for r in rs:
        best = math.inf
        found = 0
        for rep in range(DENSITY_RESTARTS):
            rng = stream(seed, rep)
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
            acc = graph.subset_weight(mask)
            cur = graph.internal_weight(mask)
            improved = True
            while improved:
                improved = False
                start = 0
                while start < n:
                    for v, undecided in open_flips(mask, acc, r, start):
                        adding = not mask[v]
                        mask[v] = adding
                        if undecided and not abs(graph.subset_weight(mask) - r) <= tol_r:
                            mask[v] = not adding
                            continue
                        cand = graph.internal_weight(mask)
                        if cand < cur - 1e-15:
                            cur = cand
                            acc = graph.subset_weight(mask)
                            improved = True
                            start = v + 1
                            break
                        mask[v] = not adding
                    else:
                        break  # no open flip from start on was kept: the sweep ends
            best = min(best, cur)
        samples.append(DensitySample(r, best, "local_search", found))
    return DensityProfile(tuple(samples))


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
    kind = {"cut": CUT_KIND, "kvc": VERTEX_COVER_KIND}.get(problem)
    if kind is None:
        raise DomainError(f"unknown problem {problem!r}")
    n = graph.n_vertices
    if k is None:
        k = round(q * n)
    cons = tuple(
        Constraint(int(a), int(b), float(w), kind)
        for a, b, w in zip(graph.edge_a, graph.edge_b, graph.edge_w)
        if w > 0.0
    )
    return CCInstance(n=n, k=int(k), constraints=cons, problem=problem)


def random_ug(
    n_left: int,
    n_right: int,
    n_labels: int,
    degree: int,
    seed: int = 0,
) -> tuple[UGInstance, Labeling]:
    """Seeded biregular instance, always returned with a hidden labeling that
    satisfies every edge."""
    if (n_left * degree) % n_right != 0:
        raise DomainError(
            f"cannot be right-regular: {n_left} * {degree} not divisible by {n_right}")
    rng = stream(seed)
    slots = np.repeat(np.arange(n_right), (n_left * degree) // n_right)
    slots = rng.permutation(slots)

    hidden = Labeling(
        left=tuple(int(x) for x in rng.integers(0, n_labels, n_left)),
        right=tuple(int(x) for x in rng.integers(0, n_labels, n_right)),
    )
    edges = []
    for u in range(n_left):
        for d in range(degree):
            v = int(slots[u * degree + d])
            perm = list(rng.permutation(n_labels))
            # force perm[z_u] = z_v by swapping images
            zu, zv = hidden.left[u], hidden.right[v]
            pos = perm.index(zv)
            perm[pos], perm[zu] = perm[zu], zv
            edges.append((u, v, tuple(int(p) for p in perm)))
    return UGInstance(n_left, n_right, n_labels, tuple(edges)), hidden


def parse_ug(text: str) -> UGInstance:
    header, rows = read_lines(text, "ug", dict.fromkeys(("left", "right", "labels", "degree"), int),
                              ("e",))
    L = header["labels"]
    e = rows["e"]
    if e.widths and e.widths[0] != 3 + L:  # before a type tuple is sized by L
        raise FormatError(f"bad line: {e.line(0)!r}")
    u, v, *perm = read_columns(e, (int,) * (2 + L)) if e.widths and L > 0 else ([], [])
    edges = tuple((a - 1, b - 1, tuple(p - 1 for p in ps)) for a, b, ps in zip(u, v, zip(*perm)))
    try:
        ug = UGInstance(header["left"], header["right"], L, edges)
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
    _, rows = read_lines(text, "labeling", {}, ("u", "v"))
    sides = []
    for keyword, n in (("u", ug.n_left), ("v", ug.n_right)):
        ids, labels = read_columns(rows[keyword], (int, int))
        if labels and not 1 <= min(labels) <= max(labels) <= ug.n_labels:
            raise FormatError(f"'{keyword}' labels must lie in 1..{ug.n_labels}")
        sides.append(tuple(lab - 1 for lab in by_id(ids, labels, n, keyword)))
    return Labeling(left=sides[0], right=sides[1])


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
    _, rows = read_lines(text, "graph", {}, ("vertex", "edge"))
    ids, weights = read_columns(rows["vertex"], (int, float))
    a, b, w = read_columns(rows["edge"], (int, int, float))
    if a and not 1 <= min(a + b) <= max(a + b) <= len(ids):
        raise FormatError("edge endpoint out of range")
    try:
        return WeightedGraph(vertex_weights=np.array(by_id(ids, weights, len(ids), "vertex")),
                             edge_a=np.array(a, dtype=np.int64) - 1,
                             edge_b=np.array(b, dtype=np.int64) - 1, edge_w=np.array(w))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
