"""Loop forms of the relaxation, kept as oracles for `ccmax.sdp`.

`relax_oracle` builds the relaxation one constraint at a time, working
out each payload's coefficients again, and returns it as tuples.
`objective_from_vectors` and `residuals_from_vectors` evaluate an
`SDPProblem` at given vectors with one row dot product per term and
`curves.triangle_violation` per pair, apart from the solver's flat
Gram indices.  `dloss_dgram_oracle` is the two-penalty assembly
M_obj + (lam + sigma_bal h) B + scatter(sigma_tri), with the dense
balance pattern B (0.5 on row 0 and column 0 off the diagonal) built
out in full.  `solve_oracle` is the solver loop that calls `pieces` and
`dloss_dgram` on every step, allocating its arrays afresh and computing
the gradient again after a rejected step.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

import numpy as np

from ccmax.curves import triangle_violation
from ccmax.errors import DomainError
from ccmax.gaussian import stream
from ccmax.instance import CCInstance, Xor, as_assignment
from ccmax.sdp import (
    STEP,
    TOL,
    SDPProblem,
    SDPSolution,
    SolveOptions,
    _integral_embedding,
    _Pieces,
)

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


def _normalize_rows(V: np.ndarray) -> np.ndarray:
    # np.linalg.norm(V, axis=1, keepdims=True) without its dispatch cost
    norms = np.sqrt(np.add.reduce(V * V, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return V / norms


def _perturb_tangential(V: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noise = 1e-3 * rng.standard_normal(V.shape)
    noise[0] = 0.0
    noise -= np.sum(noise * V, axis=1, keepdims=True) * V
    return _normalize_rows(V + noise)


def solve_oracle(
    problem: SDPProblem,
    opts: SolveOptions | None = None,
    integral_seed: np.ndarray | None = None,
) -> SDPSolution:
    """`sdp.solve` before its bound kernels: every step calls `pieces` and
    `dloss_dgram`, allocates its arrays afresh and computes the gradient
    again, also after a rejected step."""
    opts = opts or SolveOptions()
    if opts.restarts < 1:
        raise DomainError("need at least one restart")
    if opts.max_iters < 0:
        raise DomainError(f"max_iters must be >= 0, got {opts.max_iters}")
    if integral_seed is not None:
        integral_seed = as_assignment(integral_seed, problem.n)

    n, dim = problem.n, problem.dim
    best: tuple[tuple[bool, float], int, np.ndarray, _Pieces, bool] | None = None

    for r in range(opts.restarts):
        rng = stream(opts.seed, r)
        if r == 0 and integral_seed is not None:
            V_exact = _integral_embedding(integral_seed.astype(float), dim)
            V = _perturb_tangential(V_exact, rng)
        else:
            V_exact = None
            V = _normalize_rows(rng.standard_normal((n + 1, dim)))

        lam = 0.0
        sigma = 10.0
        eta = STEP
        prev_loss = math.inf
        stall = 0
        last_resid = math.inf
        converged = False
        obj_window: deque[float] = deque(maxlen=200)

        def loss_of(pc: _Pieces) -> float:
            return (-pc.obj + lam * pc.h + 0.5 * sigma * pc.h * pc.h
                    + 0.5 * sigma * pc.viol_sq)

        def feasible_to_tol(pc: _Pieces) -> bool:
            return abs(pc.h) <= TOL and pc.viol_max <= TOL

        snap: tuple[np.ndarray, _Pieces] | None = None  # best feasible-to-tol iterate

        def consider(Vc: np.ndarray, pc: _Pieces) -> None:
            nonlocal snap
            if feasible_to_tol(pc) and pc.obj > (snap[1].obj if snap else -math.inf):
                snap = (Vc.copy(), pc)

        if V_exact is not None:
            consider(V_exact, problem.pieces(V_exact))

        cur = problem.pieces(V)
        consider(V, cur)
        for it in range(opts.max_iters):
            grad = 2.0 * (problem.dloss_dgram(lam, sigma, cur) @ V)
            # project to the tangent of the unit spheres
            grad -= (grad * V).sum(axis=1, keepdims=True) * V

            V_new = _normalize_rows(V - eta * grad)
            new = problem.pieces(V_new)
            if loss_of(new) <= loss_of(cur):
                V, cur = V_new, new
                eta = min(eta * 1.05, 1.0)
                if (it + 1) % 50 == 0:
                    consider(V, cur)
            else:
                eta = max(eta * 0.5, 1e-12)

            if (it + 1) % 100 == 0:
                lam += sigma * cur.h
                resid = max(abs(cur.h), cur.viol_max)
                if resid > TOL and resid > 0.9 * last_resid:
                    stall += 100
                else:
                    stall = 0
                if stall >= 200:
                    sigma = min(sigma * 10, 1e8)
                    stall = 0
                last_resid = resid

            obj_window.append(cur.obj)
            if (it >= 200 and feasible_to_tol(cur)
                    and max(obj_window) - min(obj_window) < 1e-9 * max(1.0, abs(cur.obj))):
                converged = True
                break
            new_loss = loss_of(cur)
            if abs(prev_loss - new_loss) < 1e-15 and eta <= 1e-11:
                break
            prev_loss = new_loss

        consider(V, cur)
        V_rep, pc = snap or (V, cur)
        key = (True, pc.obj) if snap else (False, -(abs(pc.h) + pc.viol_max))
        if best is None or key > best[0]:
            best = (key, r, V_rep, pc, converged)

    _, r, V, pc, converged = best
    return SDPSolution(
        vectors=V,
        mu=V[1:] @ V[0],
        objective_value=pc.obj,
        residuals={
            "balance": abs(pc.h),
            "triangle_max_violation": pc.viol_max,
            "unit_norm_max_deviation": float(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0))),
        },
        converged=converged,
        restart_index=r,
    )
