"""Vector relaxation of cardinality-constrained 2-CSPs and its solver.

The relaxation replaces each +-1 variable x_i by a unit vector v_i and
the products x_i x_j by inner products, with an anchor unit vector v_0
so that mu_i = <v_0, v_i> plays the role of x_i:

    maximize    sum of constraint terms in mu_i, rho_ij
    subject to  sum_i mu_i = 2k - n            (balance)
                four triangle inequalities per constrained pair
                ||v_i|| = 1

Integral assignments embed exactly via v_i = a_i * v_0, satisfying the
balance equality and every triangle inequality, so the relaxation value
dominates the integral optimum.

The solver is a low-rank factorization optimized by projected gradient
descent with an augmented-Lagrangian multiplier on the balance equality
and squared-hinge penalties on triangle violations.  Row norms are
restored after every step.  It returns the best feasible-to-tolerance
iterate over restarts; the attained value is a lower bound on the true
relaxation optimum, not a certificate.  One restart is always seeded
from the best known integral assignment, so the attained value also
dominates that assignment's objective.

Everything constant is built once per problem (`_Operators`): the
objective part of dLoss/dGram, the balance pattern, and the flat Gram
indices of the objective terms and of each triangle pair's (mu_i, mu_j,
rho_ij) and their transposes.  One iteration then costs one Gram
product G = V V^T of the candidate, from which the objective, balance
residual and triangle forms are read by index; one np.bincount scatter
of the triangle multipliers into dLoss/dGram; and one product M V for
the gradient.  Loss, feasibility and stop tests are scalar arithmetic
on cached values, so the work per step is O(n^2 dim + #pairs) in a
fixed, small number of numpy calls.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

import numpy as np

from .curves import triangle_violation
from .errors import DomainError
from .instance import CCInstance, Xor, as_assignment, greedy_assignment

check_triangle = triangle_violation

# the four triangle forms as sign rows on (mu_i, mu_j, rho_ij)
_TRI_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)


@dataclass(frozen=True)
class SDPProblem:
    """Objective and constraint data over Gram entries of v_0 .. v_n."""

    n: int
    dim: int
    objective: tuple[tuple[int, int, float], ...]  # (p, q, coeff) on <v_p, v_q>
    offset: float
    balance_target: float | None
    triangle_pairs: tuple[tuple[int, int], ...]  # vector indices, 1-based pairs

    def __post_init__(self):
        for p, q, _ in self.objective:
            if not (0 <= p <= self.n and 0 <= q <= self.n):
                raise DomainError(f"objective index ({p}, {q}) out of range")
        if self.balance_target is not None and abs(self.balance_target) > self.n:
            raise DomainError(f"balance target {self.balance_target} outside [-n, n]")


@dataclass(frozen=True)
class SDPSolution:
    vectors: np.ndarray  # (n+1, dim), rows unit norm
    mu: np.ndarray  # (n,), mu[i] = <v_0, v_{i+1}>
    rho: Mapping[tuple[int, int], float]  # variable pairs (0-based, i < j)
    objective_value: float
    residuals: dict[str, float]
    converged: bool
    restart_index: int


@dataclass(frozen=True)
class SolveOptions:
    restarts: int = 3
    max_iters: int = 50_000
    tol: float = 1e-6
    seed: int = 0
    step: float = 0.02


def relax(inst: CCInstance) -> SDPProblem:
    """Build the relaxation; objective coefficients in Gram entries."""
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
    dim = min(inst.n + 1, max(3, math.ceil(math.sqrt(2 * m)) + 2))
    return SDPProblem(
        n=inst.n,
        dim=dim,
        objective=tuple((p, q, w) for (p, q), w in sorted(terms.items())),
        offset=offset,
        balance_target=inst.balance,
        triangle_pairs=tuple(sorted(pairs)),
    )


def objective_from_vectors(problem: SDPProblem, vectors: np.ndarray) -> float:
    val = problem.offset
    for p, q, coeff in problem.objective:
        val += coeff * float(vectors[p] @ vectors[q])
    return val


def residuals_from_vectors(problem: SDPProblem, vectors: np.ndarray) -> dict[str, float]:
    v0 = vectors[0]
    mu = vectors[1:] @ v0
    bal = 0.0
    if problem.balance_target is not None:
        bal = abs(float(np.sum(mu)) - problem.balance_target)
    tri = 0.0
    for p, q in problem.triangle_pairs:
        tri = max(tri, check_triangle(float(mu[p - 1]), float(mu[q - 1]),
                                      float(vectors[p] @ vectors[q])))
    norms = np.linalg.norm(vectors, axis=1)
    return {
        "balance": bal,
        "triangle_max_violation": tri,
        "unit_norm_max_deviation": float(np.max(np.abs(norms - 1.0))),
    }


def _normalize_rows(V: np.ndarray) -> np.ndarray:
    # np.linalg.norm(V, axis=1, keepdims=True) without its dispatch cost
    norms = np.sqrt(np.add.reduce(V * V, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return V / norms


def _integral_embedding(assignment: np.ndarray, dim: int) -> np.ndarray:
    """Exact embedding v_i = a_i v_0: feasible, objective = integral value."""
    n = assignment.size
    V = np.zeros((n + 1, dim))
    V[0, 0] = 1.0
    V[1:, 0] = assignment
    return V


def _perturb_tangential(V: np.ndarray, rng: np.random.Generator, scale: float = 1e-3) -> np.ndarray:
    noise = scale * rng.standard_normal(V.shape)
    noise[0] = 0.0
    noise -= np.sum(noise * V, axis=1, keepdims=True) * V
    return _normalize_rows(V + noise)


def _greedy_pm1(problem: SDPProblem, rng: np.random.Generator) -> np.ndarray:
    """Feasible +-1 point with decent objective, for integral seeding."""
    n = problem.n
    if problem.balance_target is None:
        x = np.where(rng.standard_normal(n) >= 0, 1, -1)
    else:
        k = round((problem.balance_target + n) / 2)
        x = -np.ones(n, dtype=np.int64)
        x[rng.permutation(n)[:k]] = 1

    lin = np.zeros(n)
    quad: list[tuple[int, int, float]] = []
    for p, q, c in problem.objective:
        if p == 0:
            lin[q - 1] += c
        else:
            quad.append((p - 1, q - 1, c))

    def value(y: np.ndarray) -> float:
        v = float(lin @ y)
        for a, b, c in quad:
            v += c * y[a] * y[b]
        return v

    best = value(x)
    for _ in range(20):
        improved = False
        if problem.balance_target is None:
            for u in range(n):
                x[u] = -x[u]
                cand = value(x)
                if cand > best + 1e-15:
                    best, improved = cand, True
                else:
                    x[u] = -x[u]
        else:
            ones = np.nonzero(x == 1)[0]
            zeros = np.nonzero(x == -1)[0]
            for u in ones:
                for v in zeros:
                    x[u], x[v] = -1, 1
                    cand = value(x)
                    if cand > best + 1e-15:
                        best, improved = cand, True
                        break
                    x[u], x[v] = 1, -1
                if improved:
                    break
        if not improved:
            break
    return x


class _Pieces(NamedTuple):
    """Loss terms of one iterate, computed once for the loss, feasibility and stop checks."""

    obj: float
    h: float  # balance residual sum(mu) - target (0 without balance)
    viol_max: float
    viol_sq: float  # sum of squared triangle violations
    viol: np.ndarray  # (#pairs, 4) violation of each triangle form


class _Operators:
    """Constants of the solver loop for one problem, built once.

    Flat indices address the row-major (n+1) x (n+1) Gram matrix
    G = V V^T.  dLoss/dG is the constant objective part `M_obj`, plus
    the balance pattern `B` scaled by (lam + sigma_bal h), plus the
    triangle multipliers scattered onto the entries of (mu_i, mu_j,
    rho_ij) and their transposes.
    """

    def __init__(self, problem: SDPProblem):
        size = problem.n + 1
        self.size = size
        self.offset = problem.offset
        self.target = problem.balance_target
        obj_p = np.array([p for p, _, _ in problem.objective], dtype=np.int64)
        obj_q = np.array([q for _, q, _ in problem.objective], dtype=np.int64)
        self.obj_c = np.array([c for _, _, c in problem.objective])
        self.obj_idx = obj_p * size + obj_q
        self.M_obj = np.zeros((size, size))
        np.add.at(self.M_obj, (obj_p, obj_q), -self.obj_c / 2)
        np.add.at(self.M_obj, (obj_q, obj_p), -self.obj_c / 2)
        self.B: np.ndarray | None = None
        if self.target is not None:
            self.B = np.zeros((size, size))
            self.B[0, 1:] = self.B[1:, 0] = 0.5
        tri = np.array(problem.triangle_pairs, dtype=np.int64).reshape(-1, 2)
        i, j = tri[:, 0], tri[:, 1]
        # G[0, i], G[0, j], G[i, j] per pair, then the transposed entries
        self.tri_idx = np.stack([i, j, i * size + j], axis=1)
        self.scatter_idx = np.concatenate(
            [self.tri_idx.ravel(), np.stack([i * size, j * size, j * size + i], axis=1).ravel()])

    def pieces(self, V: np.ndarray) -> _Pieces:
        g = (V @ V.T).ravel()
        obj = self.offset + float(self.obj_c @ g[self.obj_idx])
        h = float(g[1:self.size].sum()) - self.target if self.target is not None else 0.0
        if not self.tri_idx.size:
            return _Pieces(obj, h, 0.0, 0.0, np.zeros((0, 4)))
        viol = np.maximum(0.0, -1.0 - g[self.tri_idx] @ _TRI_SIGNS.T)
        return _Pieces(obj, h, float(viol.max()), float((viol * viol).sum()), viol)

    def dloss_dgram(self, lam: float, sigma_bal: float, sigma_tri: float,
                    cur: _Pieces) -> np.ndarray:
        """Symmetric M with d(loss)/dV = 2 M V."""
        M = self.M_obj
        if self.B is not None:
            M = M + (lam + sigma_bal * cur.h) * self.B
        if cur.viol.size:
            # d/dG of 0.5*sigma*sum v^2 = -sigma * v * dform/dG
            half = 0.5 * ((-sigma_tri * cur.viol) @ _TRI_SIGNS).ravel()
            M = M + np.bincount(self.scatter_idx, weights=np.concatenate([half, half]),
                                minlength=self.size * self.size).reshape(self.size, self.size)
        return M


def solve(
    problem: SDPProblem,
    opts: SolveOptions | None = None,
    integral_seed: np.ndarray | None = None,
) -> SDPSolution:
    """Best feasible-to-tolerance solution over seeded restarts.

    Restart 0 embeds `integral_seed` (or an internally built greedy
    +-1 point); the embedding itself is scored, so the returned
    objective never falls below the best known integral value by more
    than the embedding noise.  Remaining restarts are random.  Restart
    streams derive from (seed, restart_index); the result is
    deterministic for fixed options.
    """
    opts = opts or SolveOptions()
    if opts.tol <= 0:
        raise DomainError(f"tol must be positive, got {opts.tol!r}")
    if opts.restarts < 1:
        raise DomainError("need at least one restart")
    if integral_seed is not None:
        integral_seed = as_assignment(integral_seed, problem.n)

    n, dim = problem.n, problem.dim
    ops = _Operators(problem)

    best: tuple[int, float, float, np.ndarray, bool] | None = None
    # ordering key: feasible first, then objective, ties by restart index

    for r in range(opts.restarts):
        rng = np.random.Generator(np.random.Philox(key=[opts.seed, r]))
        if r == 0:
            a = integral_seed if integral_seed is not None else _greedy_pm1(problem, rng)
            V_exact = _integral_embedding(np.asarray(a, dtype=float), dim)
            V = _perturb_tangential(V_exact, rng)
        else:
            V_exact = None
            V = _normalize_rows(rng.standard_normal((n + 1, dim)))

        lam = 0.0
        sigma_bal = 10.0
        sigma_tri = 10.0
        eta = opts.step
        prev_loss = math.inf
        stall = 0
        last_resid = math.inf
        converged = False
        obj_window: deque[float] = deque(maxlen=200)

        def loss_of(pc: _Pieces) -> float:
            return (-pc.obj + lam * pc.h + 0.5 * sigma_bal * pc.h * pc.h
                    + 0.5 * sigma_tri * pc.viol_sq)

        def feasible_to_tol(pc: _Pieces) -> bool:
            return abs(pc.h) <= opts.tol and pc.viol_max <= opts.tol

        snap_obj = -math.inf
        snap_V: np.ndarray | None = None

        def consider(Vc: np.ndarray, pc: _Pieces) -> None:
            nonlocal snap_obj, snap_V
            if feasible_to_tol(pc) and pc.obj > snap_obj:
                snap_obj = pc.obj
                snap_V = Vc.copy()

        if V_exact is not None:
            consider(V_exact, ops.pieces(V_exact))

        cur = ops.pieces(V)
        consider(V, cur)
        for it in range(opts.max_iters):
            grad = 2.0 * (ops.dloss_dgram(lam, sigma_bal, sigma_tri, cur) @ V)
            # project to the tangent of the unit spheres
            grad -= (grad * V).sum(axis=1, keepdims=True) * V

            V_new = _normalize_rows(V - eta * grad)
            new = ops.pieces(V_new)
            if loss_of(new) <= loss_of(cur):
                V, cur = V_new, new
                eta = min(eta * 1.05, 1.0)
                if (it + 1) % 50 == 0:
                    consider(V, cur)
            else:
                eta = max(eta * 0.5, 1e-12)

            if (it + 1) % 100 == 0:
                lam += sigma_bal * cur.h
                resid = max(abs(cur.h), cur.viol_max)
                if resid > opts.tol and resid > 0.9 * last_resid:
                    stall += 100
                else:
                    stall = 0
                if stall >= 200:
                    sigma_bal = min(sigma_bal * 10, 1e8)
                    sigma_tri = min(sigma_tri * 10, 1e8)
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
        V_report = snap_V if snap_V is not None else V
        res = residuals_from_vectors(problem, V_report)
        feasible = (res["balance"] <= opts.tol * 10
                    and res["triangle_max_violation"] <= opts.tol * 10)
        final_obj = objective_from_vectors(problem, V_report)
        cand = (r, final_obj, res["balance"] + res["triangle_max_violation"],
                V_report.copy(), converged)
        if best is None:
            best = cand
        else:
            b_feas = best[2] <= opts.tol * 20
            if feasible and (not b_feas or final_obj > best[1]):
                best = cand
            elif not feasible and not b_feas and cand[2] < best[2]:
                best = cand

    r, final_obj, _, V, converged = best
    res = residuals_from_vectors(problem, V)
    v0 = V[0]
    mu = V[1:] @ v0
    rho = {
        (p - 1, q - 1): float(V[p] @ V[q])
        for p, q in problem.triangle_pairs
    }
    return SDPSolution(
        vectors=V,
        mu=mu,
        rho=rho,
        objective_value=final_obj,
        residuals=res,
        converged=converged,
        restart_index=r,
    )


def solve_instance(
    inst: CCInstance,
    opts: SolveOptions | None = None,
    use_brute_force_seed: bool = False,
    integral_seed: np.ndarray | None = None,
) -> SDPSolution:
    """Relax and solve; seeds restart 0 from a greedy (or exact) assignment.

    A caller that already holds an assignment (say, the brute-force
    optimum) passes it as `integral_seed` and none is computed here.
    """
    from .instance import brute_force_opt

    problem = relax(inst)
    if integral_seed is None:
        if use_brute_force_seed:
            integral_seed, _ = brute_force_opt(inst)
        else:
            integral_seed = greedy_assignment(inst)
    return solve(problem, opts, integral_seed=integral_seed)


def unconstrained(problem: SDPProblem) -> SDPProblem:
    """Copy of the problem without the balance equality."""
    return replace(problem, balance_target=None)


def gram_matrix(solution: SDPSolution) -> np.ndarray:
    return solution.vectors @ solution.vectors.T
