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
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ccmax.gadget import DENSITY_RESTARTS, DensityProfile, DensitySample, WeightedGraph
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
