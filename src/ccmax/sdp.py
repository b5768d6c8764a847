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
restored after every step.  It returns the best iterate over restarts
whose balance residual and triangle violations are within `TOL`; the
attained value is a lower bound on the true relaxation optimum, not a
certificate.  The solution carries the vectors V: its Gram matrix is
V V^T, and rounding reads mu = V[1:] v_0 off V.  `solve_instance` always seeds
restart 0 from an integral assignment (the caller's or the greedy one),
so the attained value also dominates that assignment's objective.

`SDPProblem` is the only form of the relaxation: coefficient arrays on
Gram entries, which `relax` reads off `CCInstance.form`, and the
solver's constant operators, built on first use.  `pieces` and
`dloss_dgram` are the one home of the loss terms and of dLoss/dG; each
runs a kernel bound to buffers of its own.  `_restart` binds the two
kernels once per restart and keeps the loss terms in local floats, so a
step allocates no dense array, dispatches no method and builds no
tuple.  A step computes one Gram product G = V V^T of the candidate
into the Gram buffer, reads the objective, balance residual and
triangle forms off it by index, and costs about 30 numpy calls on
arrays of (n+1) x dim or #pairs x 4.  The gradient assembles dLoss/dG
in one working buffer (a copy of `M_obj`, the balance term, and one
np.bincount scatter of the triangle multipliers) and takes one product
M V.  It is computed only after an accepted step or a multiplier
update: a rejected step leaves the iterate and the multipliers, and so
the gradient, as they were.  The work per step is O(n^2 dim + #pairs),
and the solution reports the objective and residuals of its iterate's
pieces.

The restarts of one solve run side by side.  With w workers, one per
restart and per CPU the process may run on (`os.sched_getaffinity`),
capped so that their dense arrays together fit in `MAX_DENSE_BYTES`,
worker j runs restarts r = j (mod w): worker 0 is the calling process,
the others are `os.fork`ed children that pickle their offers back
through a pipe and leave by `os._exit`.  `solve` then picks among the
offers in restart order, as a serial loop would.  A restart reads only
the problem, the options, the seed assignment and `stream(seed, r)`, and
runs the same float operations on the same operands in any process, so
the solution's bits do not depend on w; w = 1, and any platform without
`fork`, runs the same `_restart` calls in one loop.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Callable, NamedTuple, NoReturn

import numpy as np

from .errors import DomainError, SizeGuardError
from .gaussian import stream
from .instance import CCInstance, as_assignment, greedy_assignment

# first gradient step of every restart; it grows 5% after each accepted step
# and halves after each rejected one
STEP = 0.02
TOL = 1e-6  # feasibility tolerance on the balance residual and each triangle violation

# Bytes the dense (n+1)^2 float64 arrays may take.  A restart holds four at once
# (M_obj, the Gram buffer, the working M buffer and the np.bincount triangle scatter),
# greedy_assignment two, before the solve.  relax refuses 5 * 8 * (n+1)^2 > 1 GiB: n > 5180.
# The bound holds for all processes of one solve together: `_workers` runs as many
# restarts side by side as hold their four arrays each within it, so n > 4095 runs serially.
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
        viol = np.empty((len(self.tri), 4))
        return _Pieces(*self._pieces_kernel()(V, viol), viol)

    def dloss_dgram(self, lam: float, sigma: float, cur: _Pieces) -> np.ndarray:
        """Symmetric M with d(loss)/dV = 2 M V."""
        return self._dloss_kernel()(lam, sigma, cur.h, cur.viol)

    def _pieces_kernel(self) -> Callable[[np.ndarray, np.ndarray], tuple[float, float, float, float]]:
        """`pieces` bound to its own Gram buffer: read(V, viol) writes the
        triangle violations into `viol` and returns (obj, h, viol_max, viol_sq)."""
        size = self.n + 1
        G = np.empty((size, size))
        g = G.reshape(-1)
        row0 = g[1:size]
        obj_idx, obj_c, offset, tri_idx = self.obj_idx, self.obj_c, self.offset, self.tri_idx
        target = self.balance_target
        sq = np.empty((len(self.tri), 4))
        signs_t = _TRI_SIGNS.T
        multiply, add_reduce, max_reduce = np.multiply, np.add.reduce, np.maximum.reduce

        def read(V: np.ndarray, viol: np.ndarray) -> tuple[float, float, float, float]:
            V.dot(V.T, out=G)
            obj = offset + float(obj_c.dot(g[obj_idx]))
            h = float(add_reduce(row0)) - target if target is not None else 0.0
            g[tri_idx].dot(signs_t, out=viol)
            np.subtract(-1.0, viol, out=viol)
            np.maximum(0.0, viol, out=viol)
            multiply(viol, viol, out=sq)
            return obj, h, float(max_reduce(viol, None, initial=0.0)), float(add_reduce(sq, None))

        return read

    def _dloss_kernel(self) -> Callable[[float, float, float, np.ndarray], np.ndarray]:
        """`dloss_dgram` bound to one working buffer: assemble(lam, sigma, h, viol)
        writes dLoss/dG into it and returns it."""
        size = self.n + 1
        M = np.empty((size, size))
        m = M.reshape(-1)
        row0, col0 = M[0, 1:], M[1:, 0]
        M_obj, scatter_idx = self.M_obj, self.scatter_idx
        balanced = self.balance_target is not None
        pairs = len(self.tri)
        scaled = np.empty((pairs, 4))
        form = np.empty((pairs, 3))
        halves = np.empty((2, pairs, 3))  # the weights of tri_idx, then of the transposes
        weights = halves.reshape(-1)
        add, multiply = np.add, np.multiply

        def assemble(lam: float, sigma: float, h: float, viol: np.ndarray) -> np.ndarray:
            np.copyto(M, M_obj)
            if balanced:
                add(row0, (lam + sigma * h) / 2, out=row0)
                np.copyto(col0, row0)  # M_obj is exactly symmetric: both halves add the same terms
            # d/dG of 0.5*sigma*sum v^2 = -sigma * v * dform/dG
            multiply(viol, -sigma, out=scaled)
            scaled.dot(_TRI_SIGNS, out=form)
            multiply(form, 0.5, out=halves)
            add(m, np.bincount(scatter_idx, weights=weights, minlength=size * size), out=m)
            return M

        return assemble


@dataclass(frozen=True)
class SDPSolution:
    vectors: np.ndarray  # (n+1, dim), rows unit norm
    objective_value: float
    residuals: dict[str, float]
    converged: bool
    restart_index: int


@dataclass(frozen=True)
class SolveOptions:
    restarts: int = 3
    max_iters: int = 50_000
    seed: int = 0


# (key, restart, V, obj, h, viol_max, converged): one restart's offer to `solve`
_Offer = tuple[tuple[bool, float], int, np.ndarray, float, float, float, bool]


def relax(inst: CCInstance) -> SDPProblem:
    """Build the relaxation of `inst.form`: its term c x_p x_q becomes
    c G[p, q], and every pair of distinct variables that a constraint
    joins carries the four triangle inequalities.

    The pairs come from the constraints, not the form, which drops zero
    terms: a pair whose constraints all weigh zero keeps its triangles.
    """
    dense = 5 * 8 * (inst.n + 1) ** 2
    if dense > MAX_DENSE_BYTES:
        raise SizeGuardError(f"relaxation refused: n={inst.n} needs 5 dense (n+1)^2 "
                             f"arrays, {dense} bytes (> {MAX_DENSE_BYTES})")
    size = inst.n + 1
    vi, vj = np.array([(con.i + 1, con.j + 1) for con in inst.constraints],
                      dtype=np.int64).reshape(-1, 2).T
    pairs = np.unique((np.minimum(vi, vj) * size + np.maximum(vi, vj))[vi != vj])
    p, q, c, offset = inst.form

    m = max(1, len(inst.constraints))
    dim = min(inst.n + 1, max(3, math.ceil(math.sqrt(2 * m)) + 2))
    return SDPProblem(n=inst.n, dim=dim, obj_p=p, obj_q=q, obj_c=c, offset=offset,
                      balance_target=inst.balance,
                      tri=np.stack([pairs // size, pairs % size], axis=1))


def _normalize_rows(V: np.ndarray, sq: np.ndarray | None = None,
                    norms: np.ndarray | None = None) -> np.ndarray:
    """Divide each nonzero row of V by its norm, in place; returns V.

    `sq` (V's shape) and `norms` (one column) are optional scratch buffers."""
    # np.linalg.norm(V, axis=1, keepdims=True) without its dispatch cost
    norms = np.add.reduce(np.multiply(V, V, out=sq), axis=1, keepdims=True, out=norms)
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    return np.divide(V, norms, out=V)


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


def _feasible(h: float, viol_max: float) -> bool:
    return abs(h) <= TOL and viol_max <= TOL


def _loss(obj: float, h: float, viol_sq: float, lam: float, sigma: float) -> float:
    """The augmented Lagrangian the solver descends: -objective, the balance
    multiplier and penalty, and the squared-hinge triangle penalty."""
    return -obj + lam * h + 0.5 * sigma * h * h + 0.5 * sigma * viol_sq


def _workers(n: int, restarts: int) -> int:
    """How many processes run one solve's restarts: the least of the restart
    count, the CPUs this process may run on, and the number of workers whose
    four dense (n+1)^2 arrays each fit in MAX_DENSE_BYTES together; 1 where
    the platform has no `os.fork` or `os.sched_getaffinity`."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    per_worker = 4 * 8 * (n + 1) ** 2
    return max(1, min(restarts, len(os.sched_getaffinity(0)), MAX_DENSE_BYTES // per_worker))


def _restart(problem: SDPProblem, opts: SolveOptions, integral_seed: np.ndarray | None,
             r: int) -> _Offer:
    """Run restart r from `stream(opts.seed, r)` and return its offer: the best
    iterate it met whose balance residual and triangle violations are all
    within TOL, else its last one, with `solve`'s selection key."""
    n, dim = problem.n, problem.dim
    read, assemble = problem._pieces_kernel(), problem._dloss_kernel()
    multiply, subtract, add_reduce = np.multiply, np.subtract, np.add.reduce

    rng = stream(opts.seed, r)
    if r == 0 and integral_seed is not None:
        V_exact = _integral_embedding(integral_seed.astype(float), dim)
        V = _perturb_tangential(V_exact, rng)
    else:
        V_exact = None
        V = _normalize_rows(rng.standard_normal((n + 1, dim)))
    # the iterate and the candidate swap buffers on every accepted step
    V_new = np.empty_like(V)
    viol, viol_new = np.empty((2, len(problem.tri), 4))
    grad, scratch, norms = np.empty_like(V), np.empty_like(V), np.empty((n + 1, 1))

    lam = 0.0
    sigma = 10.0
    eta = STEP
    prev_loss = math.inf
    stall = 0
    last_resid = math.inf
    converged = False
    obj_window: deque[float] = deque(maxlen=200)
    snap: tuple[np.ndarray, float, float, float] | None = None  # best feasible-to-tol iterate

    def consider(Vc: np.ndarray, obj: float, h: float, viol_max: float) -> None:
        nonlocal snap
        if _feasible(h, viol_max) and obj > (snap[1] if snap else -math.inf):
            snap = (Vc.copy(), obj, h, viol_max)

    if V_exact is not None:
        obj, h, viol_max, _ = read(V_exact, viol)
        consider(V_exact, obj, h, viol_max)

    obj, h, viol_max, viol_sq = read(V, viol)
    consider(V, obj, h, viol_max)
    loss = _loss(obj, h, viol_sq, lam, sigma)
    stale = True  # grad is the projected gradient at (V, viol, lam, sigma) unless stale
    for it in range(opts.max_iters):
        if stale:
            assemble(lam, sigma, h, viol).dot(V, out=grad)
            multiply(grad, 2.0, out=grad)
            # project to the tangent of the unit spheres
            add_reduce(multiply(grad, V, out=scratch), axis=1, keepdims=True, out=norms)
            subtract(grad, multiply(norms, V, out=scratch), out=grad)
            stale = False

        subtract(V, multiply(grad, eta, out=scratch), out=V_new)
        _normalize_rows(V_new, scratch, norms)
        obj_n, h_n, viol_max_n, viol_sq_n = read(V_new, viol_new)
        loss_n = _loss(obj_n, h_n, viol_sq_n, lam, sigma)
        if loss_n <= loss:
            V, V_new, viol, viol_new = V_new, V, viol_new, viol
            obj, h, viol_max, viol_sq, loss = obj_n, h_n, viol_max_n, viol_sq_n, loss_n
            stale = True
            eta = min(eta * 1.05, 1.0)
            if (it + 1) % 50 == 0:
                consider(V, obj, h, viol_max)
        else:
            eta = max(eta * 0.5, 1e-12)

        if (it + 1) % 100 == 0:
            lam += sigma * h
            resid = max(abs(h), viol_max)
            if resid > TOL and resid > 0.9 * last_resid:
                stall += 100
            else:
                stall = 0
            if stall >= 200:
                sigma = min(sigma * 10, 1e8)
                stall = 0
            last_resid = resid
            loss = _loss(obj, h, viol_sq, lam, sigma)
            stale = True

        obj_window.append(obj)
        if (it >= 200 and _feasible(h, viol_max)
                and max(obj_window) - min(obj_window) < 1e-9 * max(1.0, abs(obj))):
            converged = True
            break
        if abs(prev_loss - loss) < 1e-15 and eta <= 1e-11:
            break
        prev_loss = loss

    consider(V, obj, h, viol_max)
    offer = snap or (V, obj, h, viol_max)
    key = (True, offer[1]) if snap else (False, -(abs(h) + viol_max))
    return (key, r, *offer, converged)


def _child(share: Callable[[int], list[_Offer]], j: int, wfd: int) -> NoReturn:
    """Body of forked worker j: pickle (True, share(j)) or (False, the exception
    it raised) into the pipe `wfd`, then leave by `os._exit`, which runs no exit
    handler and flushes no stdio buffer inherited from the parent."""
    status = 1
    try:
        try:
            payload: tuple[bool, object] = (True, share(j))
        except BaseException as exc:  # the parent raises it again
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an exception that does not pickle
            data = pickle.dumps((False, RuntimeError(f"restart worker failed: {payload[1]!r} "
                                                     f"({exc!r})")))
        with os.fdopen(wfd, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _offers(problem: SDPProblem, opts: SolveOptions,
            integral_seed: np.ndarray | None) -> list[_Offer]:
    """The offers of restarts 0 .. restarts - 1, in restart order.

    Worker j of `_workers(...)` runs the restarts r = j (mod workers).
    Worker 0 is this process; every other is a forked child that sends its
    offers, or the exception it raised, back pickled through a pipe.  The
    parent reads each pipe to its end and reaps each child; if anything
    raises before that, it kills and reaps every child it has not reaped.
    """
    workers = _workers(problem.n, opts.restarts)

    def share(j: int) -> list[_Offer]:
        return [_restart(problem, opts, integral_seed, r)
                for r in range(j, opts.restarts, workers)]

    if workers == 1:
        return share(0)
    children: list[int] = []  # pids not yet reaped, in worker order
    readers: list[BinaryIO] = []  # the read end of each child's pipe
    try:
        for j in range(1, workers):
            rfd, wfd = os.pipe()
            readers.append(os.fdopen(rfd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(share, j, wfd)
            finally:
                os.close(wfd)  # the parent's copy; the child leaves by os._exit
            children.append(pid)
        shares = [share(0)]
        for reader in readers:
            data = reader.read()
            reader.close()
            pid = children[0]
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not data:
                raise RuntimeError(f"restart worker {pid} ended with wait status {status} "
                                   "and sent nothing")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            shares.append(value)
    finally:
        for reader in readers:
            reader.close()
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[r % workers][r // workers] for r in range(opts.restarts)]


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
    deterministic for fixed options, however the restarts are split
    across processes.  Each restart offers the best
    iterate it met whose balance residual and triangle violations are
    all within TOL, else its last one.  A feasible offer, one of the
    former kind, beats any other; then the higher objective, or among
    infeasible offers the smaller violation, wins, and ties go to the
    earlier restart.
    """
    opts = opts or SolveOptions()
    if opts.restarts < 1:
        raise DomainError("need at least one restart")
    if opts.max_iters < 0:
        raise DomainError(f"max_iters must be >= 0, got {opts.max_iters}")
    if integral_seed is not None:
        integral_seed = as_assignment(integral_seed, problem.n)

    best: _Offer | None = None
    for offer in _offers(problem, opts, integral_seed):
        if best is None or offer[0] > best[0]:
            best = offer

    _, r, V, obj, h, viol_max, converged = best
    return SDPSolution(
        vectors=V,
        objective_value=obj,
        residuals={
            "balance": abs(h),
            "triangle_max_violation": viol_max,
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
