"""Former package code kept as oracles.

`local_search_oracle` is the `mode="local_search"` branch of
`gadget.density_profile` as it was when every tentative flip summed the
subset weight over all vertices and the internal weight over all edges.
The tests compare the package's screened search with it exactly.

`w_between` is the two-set edge sum that `WeightedGraph.cut_weight`
(T = S^c) and `coverage_weight` (T = V) called before each got its own
one-mask selection; with T = S it selects `internal_weight`'s edges.
Each selects the same edges in the same order, so the tests require
equal sums with `==`.

`blas_subset_stats` is the former `gadget._all_subset_stats`: every
subset's weight and internal weight from a chunked 0/1 matrix B as
`B @ weights` and `0.5 * einsum(B @ M, B)`, summed in BLAS order.  The
tests hold the doubling kernel within its derived rounding bound of it.
`sequential_subset_stats` sums each subset's weight and internal weight
one scalar at a time in vertex index order, and `fraction_window` is the
weight window in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from ccmax.gadget import (DENSITY_RESTARTS, DensityProfile, DensitySample, WeightedGraph,
                          _neighbours)
from ccmax.gaussian import stream


def local_search_oracle(graph: WeightedGraph, r_grid: Sequence[float], seed: int = 0,
                        tol_r: float | None = None) -> DensityProfile:
    rs = [float(r) for r in r_grid]
    if tol_r is None:
        tol_r = float(np.max(graph.vertex_weights))
    n = graph.n_vertices
    weights = graph.vertex_weights
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
    return DensityProfile(tuple(samples))


def w_between(graph: WeightedGraph, s_mask: np.ndarray, t_mask: np.ndarray) -> float:
    """Weight of edges with one endpoint in S and the other in T."""
    s = np.asarray(s_mask, dtype=bool)
    t = np.asarray(t_mask, dtype=bool)
    hit = (s[graph.edge_a] & t[graph.edge_b]) | (t[graph.edge_a] & s[graph.edge_b])
    return float(np.sum(graph.edge_w[hit]))


def blas_subset_stats(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(subset weight, internal weight) for every vertex subset bitmask."""
    chunk = 1 << 18  # subsets per block
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


def sequential_subset_stats(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each subset S: w(S) = w_k added over k in S in increasing order, and
    w(S, S) = the sum over k in S in increasing order of loop_k plus a[k, j]
    over the j < k in S in increasing order (a and loop from `_neighbours`)."""
    n = graph.n_vertices
    a = [[0.0] * n for _ in range(n)]
    for k, j, w in zip(*(col.tolist() for col in _neighbours(graph))):
        a[k][j] = w
    weights = graph.vertex_weights.tolist()
    ws, wss = np.empty(1 << n), np.empty(1 << n)
    for s in range(1 << n):
        members = [k for k in range(n) if s >> k & 1]
        w = internal = 0.0
        for i, k in enumerate(members):
            w += weights[k]
            row = a[k][k]
            for j in members[:i]:
                row += a[k][j]
            internal += row
        ws[s], wss[s] = w, internal
    return ws, wss


def fraction_window(graph: WeightedGraph, r: float, tol_r: float) -> np.ndarray:
    """Mask of the subsets S with |w(S) - r| <= tol_r in exact arithmetic."""
    exact = [Fraction(0)]
    for w in graph.vertex_weights.tolist():
        exact += [x + Fraction(w) for x in exact]
    return np.array([abs(x - Fraction(r)) <= Fraction(tol_r) for x in exact])
