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
relaxation optimum, not a certificate.  `solve_instance` always seeds
restart 0 from an integral assignment (the caller's or the greedy one),
so the attained value also dominates that assignment's objective.

`SDPProblem` is the only form of the relaxation: coefficient arrays on
Gram entries, which `relax` reads off the instance's own arrays, and
the solver's constant operators, built on first use.  The solver holds
three dense (n+1)^2 arrays: `M_obj`, and in `dloss_dgram` the working M
and the triangle scatter.  One iteration costs one Gram product
G = V V^T of the candidate, from which `pieces` reads the objective,
balance residual and triangle forms by index; one np.bincount scatter
of the triangle multipliers, added into M in place; and one product M V
for the gradient.  The work per step is thus O(n^2 dim + #pairs) in a
fixed, small number of numpy calls, and the solution reports the
objective and residuals of its iterate's pieces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

from .errors import DomainError, SizeGuardError
from .gaussian import stream
from .instance import CCInstance, as_assignment, greedy_assignment

# first gradient step of every restart; it grows 5% after each accepted step
# and halves after each rejected one
STEP = 0.02
TOL = 1e-6  # feasibility tolerance on the balance residual and each triangle violation

# Bytes the dense (n+1)^2 float64 arrays may take.  The solver holds three at once
# (M_obj, and in dloss_dgram the working M and the triangle scatter), greedy_assignment
# two.  relax refuses 5 * 8 * (n+1)^2 > 1 GiB: n > 5180.
MAX_DENSE_BYTES = 1 << 30

# the four triangle forms as sign rows on (mu_i, mu_j, rho_ij)
_TRI_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)


class _Pieces(NamedTuple):
    """Loss terms of one iterate, computed once for the loss, feasibility and stop checks."""

    obj: float
    h: float  # balance residual sum(mu) - target (0 without balance)
    viol_max: float
    viol_sq: float  # sum of squared triangle violations
    viol: np.ndarray  # (#pairs, 4) violation of each triangle form


@dataclass(frozen=True, eq=False)
class SDPProblem:
    """The relaxation over Gram entries of v_0 .. v_n, and the solver's operators.

    The objective is offset + sum_t obj_c[t] <v_obj_p[t], v_obj_q[t]>, one
    term per Gram entry, obj_p < obj_q, in (p, q) order.  `tri` lists the
    constrained vector pairs (i, j), 1 <= i < j, in order; each carries the
    four triangle inequalities.  Flat indices address the row-major
    (n+1) x (n+1) Gram matrix G = V V^T.  dLoss/dG is the constant
    objective part `M_obj`, plus (lam + sigma h) / 2 on row 0 and column 0
    off the diagonal (the balance term), plus the triangle multipliers
    scattered onto the entries of (mu_i, mu_j, rho_ij) and their
    transposes.
    """

    n: int
    dim: int
    obj_p: np.ndarray
    obj_q: np.ndarray
    obj_c: np.ndarray
    offset: float
    balance_target: float | None
    tri: np.ndarray  # (#pairs, 2)

    def __post_init__(self):
        ends = np.concatenate([self.obj_p, self.obj_q])
        if ends.size and not (0 <= ends.min() and ends.max() <= self.n):
            raise DomainError(f"objective index outside 0..{self.n}")
        if self.balance_target is not None and abs(self.balance_target) > self.n:
            raise DomainError(f"balance target {self.balance_target} outside [-n, n]")

    @cached_property
    def obj_idx(self) -> np.ndarray:
        return self.obj_p * (self.n + 1) + self.obj_q

    @cached_property
    def M_obj(self) -> np.ndarray:
        M = np.zeros((self.n + 1, self.n + 1))
        np.add.at(M, (self.obj_p, self.obj_q), -self.obj_c / 2)
        np.add.at(M, (self.obj_q, self.obj_p), -self.obj_c / 2)
        return M

    @cached_property
    def tri_idx(self) -> np.ndarray:
        """G[0, i], G[0, j], G[i, j] per pair."""
        i, j = self.tri[:, 0], self.tri[:, 1]
        return np.stack([i, j, i * (self.n + 1) + j], axis=1)

    @cached_property
    def scatter_idx(self) -> np.ndarray:
        """`tri_idx`, then the transposed entries."""
        size = self.n + 1
        i, j = self.tri[:, 0], self.tri[:, 1]
        return np.concatenate(
            [self.tri_idx.ravel(), np.stack([i * size, j * size, j * size + i], axis=1).ravel()])

    def pieces(self, V: np.ndarray) -> _Pieces:
        g = (V @ V.T).ravel()
        obj = self.offset + float(self.obj_c @ g[self.obj_idx])
        target = self.balance_target
        h = float(g[1:self.n + 1].sum()) - target if target is not None else 0.0
        viol = np.maximum(0.0, -1.0 - g[self.tri_idx] @ _TRI_SIGNS.T)
        return _Pieces(obj, h, float(viol.max(initial=0.0)), float((viol * viol).sum()), viol)

    def dloss_dgram(self, lam: float, sigma: float, cur: _Pieces) -> np.ndarray:
        """Symmetric M with d(loss)/dV = 2 M V."""
        M = self.M_obj.copy()
        if self.balance_target is not None:
            M[0, 1:] += (lam + sigma * cur.h) / 2
            M[1:, 0] = M[0, 1:]  # M_obj is exactly symmetric: both halves add the same terms
        # d/dG of 0.5*sigma*sum v^2 = -sigma * v * dform/dG
        half = 0.5 * ((-sigma * cur.viol) @ _TRI_SIGNS).ravel()
        size = self.n + 1
        M += np.bincount(self.scatter_idx, weights=np.concatenate([half, half]),
                         minlength=size * size).reshape(size, size)
        return M


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
    seed: int = 0


def relax(inst: CCInstance) -> SDPProblem:
    """Build the relaxation from the instance's coefficient arrays.

    A constraint worth w (c0 + c1 x_i + c2 x_j + c3 x_i x_j) puts w c1 on
    G[0, i], w c2 on G[0, j] and w c3 on G[i, j], and w c0 into the
    offset.  On a self-loop x_i x_j = 1: w c3 joins the offset and
    w (c1 + c2) lands on G[0, i].  Zero terms are dropped; each Gram entry
    sums its terms, and the offset its terms, in constraint order.
    """
    dense = 5 * 8 * (inst.n + 1) ** 2
    if dense > MAX_DENSE_BYTES:
        raise SizeGuardError(f"relaxation refused: n={inst.n} needs 5 dense (n+1)^2 "
                             f"arrays, {dense} bytes (> {MAX_DENSE_BYTES})")
    size = inst.n + 1
    i, j, w, c0, c1, c2, c3 = inst._arrays
    vi, vj = i + 1, j + 1
    loop = vi == vj
    pair = np.minimum(vi, vj) * size + np.maximum(vi, vj)
    # the terms on G[0, i], G[0, j], G[i, j] of each constraint, in that order
    keys = np.stack([vi, vj, pair], axis=1).ravel()
    coeffs = np.stack([w * np.where(loop, c1 + c2, c1), np.where(loop, 0.0, w * c2),
                       np.where(loop, 0.0, w * c3)], axis=1).ravel()
    keep = coeffs != 0.0
    keys, slot = np.unique(keys[keep], return_inverse=True)
    # bincount adds in input order: each entry's terms in constraint order
    obj_c = np.bincount(slot, weights=coeffs[keep], minlength=keys.size)
    offset = np.cumsum(w * (c0 + np.where(loop, c3, 0.0)))  # a sequential sum
    pairs = np.unique(pair[~loop])

    m = max(1, len(inst.constraints))
    dim = min(inst.n + 1, max(3, math.ceil(math.sqrt(2 * m)) + 2))
    return SDPProblem(
        n=inst.n,
        dim=dim,
        obj_p=keys // size,
        obj_q=keys % size,
        obj_c=obj_c,
        offset=float(offset[-1]) if offset.size else 0.0,
        balance_target=inst.balance,
        tri=np.stack([pairs // size, pairs % size], axis=1),
    )


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


def _perturb_tangential(V: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noise = 1e-3 * rng.standard_normal(V.shape)
    noise[0] = 0.0
    noise -= np.sum(noise * V, axis=1, keepdims=True) * V
    return _normalize_rows(V + noise)


def solve(
    problem: SDPProblem,
    opts: SolveOptions | None = None,
    integral_seed: np.ndarray | None = None,
) -> SDPSolution:
    """Best feasible-to-tolerance solution over seeded restarts.

    When `integral_seed` is given, restart 0 embeds it; the embedding
    itself is scored, so the returned objective never falls below that
    assignment's value by more than the embedding noise.  Every other
    restart (restart 0 too, without a seed) starts at random.  Restart
    streams derive from (seed, restart_index); the result is
    deterministic for fixed options.  Each restart offers the best
    feasible-to-tolerance iterate it met, else its last one.  An offer
    whose residuals are both within 10 TOL counts as feasible and beats
    any other; then the higher objective, or among infeasible offers the
    smaller violation, wins, and ties go to the earlier restart.
    """
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
        feasible = max(abs(pc.h), pc.viol_max) <= 10 * TOL
        key = (True, pc.obj) if feasible else (False, -(abs(pc.h) + pc.viol_max))
        if best is None or key > best[0]:
            best = (key, r, V_rep, pc, converged)

    _, r, V, pc, converged = best
    rho = (V @ V.T).ravel()[problem.tri_idx[:, 2]]
    return SDPSolution(
        vectors=V,
        mu=V[1:] @ V[0],
        rho=dict(zip(map(tuple, (problem.tri - 1).tolist()), rho.tolist())),
        objective_value=pc.obj,
        residuals={
            "balance": abs(pc.h),
            "triangle_max_violation": pc.viol_max,
            "unit_norm_max_deviation": float(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0))),
        },
        converged=converged,
        restart_index=r,
    )


def solve_instance(
    inst: CCInstance,
    opts: SolveOptions | None = None,
    integral_seed: np.ndarray | None = None,
) -> SDPSolution:
    """Relax and solve; restart 0 embeds `integral_seed`.

    A caller that already holds an assignment (say, the brute-force
    optimum) passes it as `integral_seed`; otherwise the seed is
    `greedy_assignment(inst)`.
    """
    problem = relax(inst)
    if integral_seed is None:
        integral_seed = greedy_assignment(inst)
    return solve(problem, opts, integral_seed=integral_seed)


def gram_matrix(solution: SDPSolution) -> np.ndarray:
    return solution.vectors @ solution.vectors.T
