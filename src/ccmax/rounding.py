"""Threshold hyperplane rounding with exact-cardinality repair.

One shared Gaussian vector g is drawn per round; variable i rounds to

    y_i = +1  iff  <g, w_i / ||w_i||> >= t_i,   t_i = Phi^{-1}((1 - mu_i)/2),

where w_i = v_i - mu_i v_0 is the component of v_i orthogonal to the
anchor.  Then Pr[y_i = +1] = (1 + mu_i)/2, so E[y_i] = mu_i and the
cardinality constraint holds in expectation.  The closed-form pair
expectation is

    E[y_1 y_2] = 4 * Gamma_rb((1-mu_1)/2, (1-mu_2)/2) + mu_1 + mu_2 - 1,
    rb = (rho - mu_1 mu_2) / sqrt((1-mu_1^2)(1-mu_2^2)),

clamped against floating point overshoot.  Exact cardinality is
restored per round by greedy minimum-loss flips, and the best repaired
assignment over a fixed number of rounds is reported.

Gaussians come from the package quantile function applied to a
counter-based uniform stream (`gaussian.stream(seed, round)`), which
keeps every report bit-reproducible from its seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import rho_bar
from .errors import DomainError
from .gaussian import gamma_rho, std_normal_inv_vec, stream
from .instance import (
    CCInstance,
    as_assignment,
    cardinality,
    evaluate,
    evaluate_many,
    flip_gains,
)
from .sdp import SDPSolution

_MU_DETERMINISTIC = 1.0 - 1e-9


def gaussian_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via inverse-CDF of the uniform stream."""
    u = np.clip(rng.random(size), 1e-16, 1.0 - 1e-16)
    return std_normal_inv_vec(u)


def round_once(sol: SDPSolution, rng: np.random.Generator) -> np.ndarray:
    """One raw threshold rounding; entries +-1, cardinality unrepaired.

    Assumes unit rows, as `SDPSolution` documents: ||w_i||^2 = 1 - mu_i^2 > 0
    on every row not pinned to sign(mu_i) (|mu_i| < 1 - 1e-9)."""
    V = sol.vectors
    n = V.shape[0] - 1
    v0 = V[0]
    mu = sol.mu

    g = gaussian_vector(rng, V.shape[1])
    raw = np.empty(n, dtype=np.int64)

    W = V[1:] - mu[:, None] * v0[None, :]
    norms = np.linalg.norm(W, axis=1)

    deterministic = np.abs(mu) >= _MU_DETERMINISTIC
    raw[deterministic] = np.where(mu[deterministic] > 0, 1, -1)

    free = ~deterministic
    if np.any(free):
        proj = (W[free] / norms[free, None]) @ g
        thresholds = std_normal_inv_vec((1.0 - mu[free]) / 2.0)
        raw[free] = np.where(proj >= thresholds, 1, -1)
    return raw


def expected_pair_product(mu1: float, mu2: float, rho: float) -> float:
    """Closed-form E[y_1 y_2] of the threshold rounding."""
    for name, v in (("mu1", mu1), ("mu2", mu2), ("rho", rho)):
        if not (math.isfinite(v) and -1.0 <= v <= 1.0):
            raise DomainError(f"{name} must be in [-1, 1], got {v!r}")
    if abs(mu1) >= 1.0 or abs(mu2) >= 1.0:
        # degenerate limit: a pinned variable factors out of the product
        return mu1 * mu2
    rb = rho_bar(mu1, mu2, rho)
    val = 4.0 * gamma_rho(rb, (1.0 - mu1) / 2.0, (1.0 - mu2) / 2.0) + mu1 + mu2 - 1.0
    return float(np.clip(val, -1.0, 1.0))


_REPAIR_EXACT_BUDGET = 20_000


def repair(raw: np.ndarray, inst: CCInstance, target_k: int) -> np.ndarray:
    """Restore exactly target_k ones with minimum objective loss.

    All repair flips go in one direction, so the repaired assignment is
    determined by which |gap| candidates get flipped.  When the
    candidate space is small the best flip set is found exactly
    (myopic flipping can lose badly on hub-shaped instances: on a star
    it flips the center first); otherwise flips are chosen greedily:
    each one scans the candidates' `flip_gains` at the current
    assignment in index order and moves to a later candidate only when
    it gains more than 1e-15 over the one held.  Either way exactly
    |cardinality(raw) - target_k| flips are performed and ties resolve
    lexicographically, so the result is deterministic.
    """
    a = as_assignment(raw, inst.n).copy()
    if not (0 <= target_k <= inst.n):
        raise DomainError(f"target cardinality {target_k} outside 0..{inst.n}")
    gap = cardinality(a) - target_k
    if gap == 0:
        return a
    sign = 1 if gap > 0 else -1  # flip +1s down, or -1s up
    r = abs(gap)
    candidates = [int(v) for v in np.nonzero(a == sign)[0]]

    if math.comb(len(candidates), r) <= _REPAIR_EXACT_BUDGET:
        combos = list(itertools.combinations(candidates, r))
        rows = np.repeat(a[None, :], len(combos), axis=0)
        flip_idx = np.array(combos, dtype=np.int64)
        np.put_along_axis(rows, flip_idx, -sign, axis=1)
        vals = evaluate_many(inst, rows)
        best = int(np.argmax(vals))  # argmax returns the first, lex-smallest combo
        return rows[best]

    for _ in range(r):
        pool = np.nonzero(a == sign)[0]
        gains = flip_gains(inst, a)[pool].tolist()
        best = 0
        for t in range(1, len(gains)):
            if gains[t] > gains[best] + 1e-15:
                best = t
        a[pool[best]] = -sign
    return a


@dataclass(frozen=True)
class RoundingReport:
    best_assignment: np.ndarray
    best_value: float
    best_round: int
    rounds: int
    pre_repair_gap_mean: float
    pre_repair_gap_max: float
    repair_flips: tuple[int, ...]


def round_best_of(
    sol: SDPSolution, inst: CCInstance, rounds: int, seed: int = 0
) -> RoundingReport:
    """Best feasible value over independent round+repair trials."""
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    best_val = -math.inf
    best_a: np.ndarray | None = None
    best_round = -1
    flips: list[int] = []
    for t in range(rounds):
        raw = round_once(sol, stream(seed, t))
        repaired = repair(raw, inst, inst.k)
        flips.append(abs(cardinality(raw) - inst.k))
        val = evaluate(inst, repaired)
        if val > best_val:
            best_val, best_a, best_round = val, repaired, t
    assert best_a is not None
    return RoundingReport(
        best_assignment=best_a,
        best_value=best_val,
        best_round=best_round,
        rounds=rounds,
        # the gap |sum(raw) - (2k - n)| is 2 |cardinality(raw) - k|, twice the flips
        pre_repair_gap_mean=2.0 * float(np.mean(flips)),
        pre_repair_gap_max=2.0 * max(flips),
        repair_flips=tuple(flips),
    )


def simulate_pair_products(
    mu1: float, mu2: float, rho: float, samples: int, seed: int = 0
) -> tuple[float, float, float]:
    """Monte-Carlo (mean y1, mean y2, mean y1*y2) on a synthetic pair.

    Builds the two-vector configuration explicitly and applies the
    threshold rule to sampled Gaussians; independent of the closed-form
    expectation, so it serves as its oracle.
    """
    for name, v in (("mu1", mu1), ("mu2", mu2)):
        if not -1.0 < v < 1.0:
            raise DomainError(f"{name} must be strictly inside (-1, 1), got {v!r}")
    rb = rho_bar(mu1, mu2, rho)
    # unit vectors for the centered parts: u1 = e1, u2 = rb e1 + sqrt(1-rb^2) e2
    rng = stream(seed)
    g = gaussian_vector(rng, 2 * samples).reshape(samples, 2)
    p1 = g[:, 0]
    p2 = rb * g[:, 0] + math.sqrt(max(0.0, 1.0 - rb * rb)) * g[:, 1]
    t1 = float(std_normal_inv_vec(np.asarray([(1.0 - mu1) / 2.0]))[0])
    t2 = float(std_normal_inv_vec(np.asarray([(1.0 - mu2) / 2.0]))[0])
    y1 = np.where(p1 >= t1, 1.0, -1.0)
    y2 = np.where(p2 >= t2, 1.0, -1.0)
    return float(np.mean(y1)), float(np.mean(y2)), float(np.mean(y1 * y2))
