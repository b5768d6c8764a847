"""Threshold hyperplane rounding with exact-cardinality repair.

One shared Gaussian vector g is drawn per round; variable i rounds to

    y_i = +1  iff  <g, w_i / ||w_i||> >= t_i,   t_i = Phi^{-1}((1 - mu_i)/2),

where mu_i = <v_0, v_i> and w_i = v_i - mu_i v_0 is the component of v_i
orthogonal to the anchor.  Then Pr[y_i = +1] = (1 + mu_i)/2, so E[y_i] =
mu_i and the cardinality constraint holds in expectation; E[y_1 y_2] is
`curves.pair_product_vec`.  Exact cardinality is restored per round by
greedy minimum-loss flips, and the best repaired assignment over a
fixed number of rounds is reported.

`_thresholds` computes a solution's constants once from its rows: mu,
the orthogonal parts w_i and their norms, the pinned rows, the
normalised free rows and the thresholds; `round_best_of` and
`simulate_pair_products` round with them.  Each round then takes one
draw, one matrix-vector product, one comparison and `repair`.  The
rounds are scored in blocks of `ROUND_BLOCK` rows, one `evaluate_many`
call each, so a report holds one block of rows whatever the number of
rounds; the earliest round with the maximum value wins.

Gaussians come from the package quantile function applied to a
counter-based uniform stream (`gaussian.stream(seed, round)`), which
keeps every report bit-reproducible from its seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import check_pair, pair_product_vec, rho_bar
from .errors import DomainError
# gamma_rho stays in this namespace: perfbench's probe test reads it here
from .gaussian import gamma_rho, std_normal_inv_vec, stream, stream_uniforms  # noqa: F401
from .instance import (
    CCInstance,
    as_assignment,
    cardinality,
    evaluate_many,
    flip_gains,
)
from .sdp import SDPSolution

_MU_DETERMINISTIC = 1.0 - 1e-9


def gaussian_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via inverse-CDF of the uniform stream."""
    return _normals(rng.random(size))


def _normals(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0, 1), elementwise, so a batch of
    draws gives each draw's own bits."""
    return std_normal_inv_vec(np.clip(u, 1e-16, 1.0 - 1e-16))


class _Thresholds(NamedTuple):
    """What a threshold rounding of one solution needs, computed once."""

    pinned: np.ndarray  # sign(mu_i), +1 only above 0; _round overwrites the free rows
    free: np.ndarray  # bool mask of the rows not pinned
    directions: np.ndarray  # w_i / ||w_i|| of the free rows
    thresholds: np.ndarray  # Phi^{-1}((1 - mu_i)/2) of the free rows


def _thresholds(V: np.ndarray) -> _Thresholds:
    v0 = V[0]
    mu = V[1:] @ v0
    W = V[1:] - mu[:, None] * v0[None, :]
    norms = np.linalg.norm(W, axis=1)
    pinned = np.where(mu > 0, 1, -1)
    free = np.abs(mu) < _MU_DETERMINISTIC
    return _Thresholds(pinned, free, W[free] / norms[free, None],
                       std_normal_inv_vec((1.0 - mu[free]) / 2.0))


def _round(th: _Thresholds, g: np.ndarray) -> np.ndarray:
    """The rounding by one Gaussian g of shape (dim,), or one per row of g."""
    raw = np.empty(g.shape[:-1] + th.pinned.shape, dtype=np.int64)
    raw[...] = th.pinned
    raw[..., th.free] = np.where(th.directions.dot(g.T).T >= th.thresholds, 1, -1)
    return raw


def round_once(sol: SDPSolution, rng: np.random.Generator) -> np.ndarray:
    """One raw threshold rounding; entries +-1, cardinality unrepaired.

    Assumes unit rows, as `SDPSolution` documents: ||w_i||^2 = 1 - mu_i^2 > 0
    on every row not pinned to sign(mu_i) (|mu_i| < 1 - 1e-9)."""
    return _round(_thresholds(sol.vectors), gaussian_vector(rng, sol.vectors.shape[1]))


def expected_pair_product(mu1: float, mu2: float, rho: float) -> float:
    """Closed-form E[y_1 y_2] of the threshold rounding, `curves.pair_product_vec`
    on a configuration that `curves.check_pair` accepts."""
    check_pair(mu1, mu2, rho)
    return float(pair_product_vec(mu1, mu2, rho))


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


# Rounds repaired and then scored by one `evaluate_many` call: a report holds
# one block of rows at a time, whatever the number of rounds.
ROUND_BLOCK = 256


def round_best_of(
    sol: SDPSolution, inst: CCInstance, rounds: int, seed: int = 0
) -> RoundingReport:
    """Best feasible value over independent round+repair trials.

    Round t rounds with the Gaussian of `stream(seed, t)`, as `round_once`
    does, then `repair`s to cardinality k.  The solution's directions and
    thresholds are computed once; a block of `ROUND_BLOCK` rounds draws its
    uniforms in one `stream_uniforms` call and turns them into normals in
    one call, and its repaired rows are scored by one `evaluate_many`
    call, which gives each row the bits `evaluate` gives it.
    The earliest round with the maximum value wins.
    """
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    th = _thresholds(sol.vectors)
    dim = sol.vectors.shape[1]
    best_val = -math.inf
    best_a: np.ndarray | None = None
    best_round = -1
    flips: list[int] = []
    for start in range(0, rounds, ROUND_BLOCK):
        block = range(start, min(start + ROUND_BLOCK, rounds))
        normals = _normals(stream_uniforms(seed, block, dim))
        rows = np.empty((len(block), inst.n), dtype=np.int64)
        for row, g in zip(rows, normals):
            raw = _round(th, g)
            row[:] = repair(raw, inst, inst.k)
            flips.append(abs(cardinality(raw) - inst.k))
        vals = evaluate_many(inst, rows)
        i = int(np.argmax(vals))  # the first maximum
        if vals[i] > best_val:
            best_val, best_a, best_round = float(vals[i]), rows[i].copy(), start + i
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
    """Monte-Carlo (mean y1, mean y2, mean y1*y2) of the package's rounding
    (`_thresholds`, `_round`) of v_0 = e_0 and v_i = mu_i e_0 + sqrt(1 - mu_i^2) u_i,
    u_1 = e_1, u_2 = rb e_1 + sqrt(1 - rb^2) e_2; independent of the closed form,
    so it serves as its oracle.  Sample s reads normals 2s, 2s + 1 of `stream(seed)`."""
    rb = rho_bar(mu1, mu2, rho)  # refuses |mu| = 1
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    s1, s2 = math.sqrt(1.0 - mu1 * mu1), math.sqrt(1.0 - mu2 * mu2)
    V = np.array([[1.0, 0.0, 0.0], [mu1, s1, 0.0],
                  [mu2, s2 * rb, s2 * math.sqrt(max(0.0, 1.0 - rb * rb))]])
    g = np.zeros((samples, 3))  # no direction reads the e_0 coordinate
    g[:, 1:] = gaussian_vector(stream(seed), 2 * samples).reshape(samples, 2)
    y = _round(_thresholds(V), g)
    return float(np.mean(y[:, 0])), float(np.mean(y[:, 1])), float(np.mean(y[:, 0] * y[:, 1]))
