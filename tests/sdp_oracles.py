"""Loop forms of the relaxation, kept as oracles for `ccmax.sdp`.

`relax_oracle` builds the relaxation one constraint at a time, working
out each payload's coefficients again, and returns it as tuples.
`objective_from_vectors` and `residuals_from_vectors` evaluate an
`SDPProblem` at given vectors with one row dot product per term and
`curves.triangle_violation` per pair, apart from the solver's flat
Gram indices.  `dloss_dgram_oracle` is the two-penalty assembly
M_obj + (lam + sigma_bal h) B + scatter(sigma_tri), with the dense
balance pattern B (0.5 on row 0 and column 0 off the diagonal) built
out in full.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ccmax.curves import triangle_violation
from ccmax.instance import CCInstance, Xor
from ccmax.sdp import SDPProblem, _Pieces

_TRI_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)


class TupleProblem(NamedTuple):
    n: int
    dim: int
    objective: tuple[tuple[int, int, float], ...]  # (p, q, coeff) on <v_p, v_q>
    offset: float
    balance_target: float | None
    triangle_pairs: tuple[tuple[int, int], ...]  # vector indices, 1-based pairs


def relax_oracle(inst: CCInstance) -> TupleProblem:
    terms: dict[tuple[int, int], float] = {}
    offset = 0.0
    pairs: set[tuple[int, int]] = set()

    def add(p: int, q: int, coeff: float) -> None:
        if coeff == 0.0:
            return
        key = (min(p, q), max(p, q))
        terms[key] = terms.get(key, 0.0) + coeff

    for c in inst.constraints:
        vi, vj = c.i + 1, c.j + 1
        if isinstance(c.kind, Xor):
            if vi == vj:
                offset += c.weight * (1 + c.kind.parity) / 2
            else:
                offset += c.weight / 2
                add(vi, vj, c.weight * c.kind.parity / 2)
        else:
            p1, p2, p3 = c.kind.pattern
            if vi == vj:
                offset += c.weight * (3 + p3) / 4
                add(0, vi, c.weight * (p1 + p2) / 4)
            else:
                offset += c.weight * 3 / 4
                add(0, vi, c.weight * p1 / 4)
                add(0, vj, c.weight * p2 / 4)
                add(vi, vj, c.weight * p3 / 4)
        if vi != vj:
            pairs.add((min(vi, vj), max(vi, vj)))

    m = max(1, len(inst.constraints))
    return TupleProblem(
        n=inst.n,
        dim=min(inst.n + 1, max(3, math.ceil(math.sqrt(2 * m)) + 2)),
        objective=tuple((p, q, w) for (p, q), w in sorted(terms.items())),
        offset=offset,
        balance_target=inst.balance,
        triangle_pairs=tuple(sorted(pairs)),
    )


def objective_from_vectors(problem: SDPProblem, vectors: np.ndarray) -> float:
    val = problem.offset
    for p, q, coeff in zip(problem.obj_p.tolist(), problem.obj_q.tolist(),
                           problem.obj_c.tolist()):
        val += coeff * float(vectors[p] @ vectors[q])
    return val


def residuals_from_vectors(problem: SDPProblem, vectors: np.ndarray) -> dict[str, float]:
    v0 = vectors[0]
    mu = vectors[1:] @ v0
    bal = 0.0
    if problem.balance_target is not None:
        bal = abs(float(np.sum(mu)) - problem.balance_target)
    tri = 0.0
    for p, q in problem.tri.tolist():
        tri = max(tri, triangle_violation(float(mu[p - 1]), float(mu[q - 1]),
                                          float(vectors[p] @ vectors[q])))
    norms = np.linalg.norm(vectors, axis=1)
    return {
        "balance": bal,
        "triangle_max_violation": tri,
        "unit_norm_max_deviation": float(np.max(np.abs(norms - 1.0))),
    }


def dloss_dgram_oracle(problem: SDPProblem, lam: float, sigma_bal: float, sigma_tri: float,
                       cur: _Pieces) -> np.ndarray:
    M = problem.M_obj
    if problem.balance_target is not None:
        B = np.zeros((problem.n + 1, problem.n + 1))
        B[0, 1:] = B[1:, 0] = 0.5
        M = M + (lam + sigma_bal * cur.h) * B
    if cur.viol.size:
        half = 0.5 * ((-sigma_tri * cur.viol) @ _TRI_SIGNS).ravel()
        size = problem.n + 1
        M = M + np.bincount(problem.scatter_idx, weights=np.concatenate([half, half]),
                            minlength=size * size).reshape(size, size)
    return M
