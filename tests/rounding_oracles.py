"""The threshold rounding with its zero-direction perturbation, and the
round-by-round best-of loop, kept as oracles for `ccmax.rounding`.

`round_once_oracle` nudges every row whose orthogonal part w_i has norm
below 1e-9, and is not pinned, along a basis direction orthogonalized
against v_0.  On unit rows that branch never fires, so it rounds as
`round_once` does, bit for bit.  `round_best_of_oracle` rounds, repairs
and scores one round at a time, each with `evaluate`, and keeps a round
only when it beats every earlier one.
"""

from __future__ import annotations

import math

import numpy as np

from ccmax.errors import DomainError
from ccmax.gaussian import std_normal_inv_vec, stream
from ccmax.instance import CCInstance, cardinality, evaluate
from ccmax.rounding import _MU_DETERMINISTIC, RoundingReport, gaussian_vector, repair
from ccmax.sdp import SDPSolution


def round_once_oracle(sol: SDPSolution, rng: np.random.Generator) -> np.ndarray:
    V = sol.vectors
    n = V.shape[0] - 1
    dim = V.shape[1]
    v0 = V[0]
    mu = sol.mu

    g = gaussian_vector(rng, dim)
    raw = np.empty(n, dtype=np.int64)

    W = V[1:] - mu[:, None] * v0[None, :]
    norms = np.linalg.norm(W, axis=1)
    for i in np.nonzero(norms < 1e-9)[0]:
        if abs(mu[i]) >= _MU_DETERMINISTIC:
            continue  # handled by the deterministic branch below
        e = np.zeros(dim)
        e[int(i) % dim] = 1.0
        t = e - (e @ v0) * v0
        if np.linalg.norm(t) < 1e-12:
            e = np.zeros(dim)
            e[(int(i) + 1) % dim] = 1.0
            t = e - (e @ v0) * v0
        W[i] = 1e-9 * t / np.linalg.norm(t)
        norms[i] = np.linalg.norm(W[i])

    deterministic = np.abs(mu) >= _MU_DETERMINISTIC
    raw[deterministic] = np.where(mu[deterministic] > 0, 1, -1)

    free = ~deterministic
    if np.any(free):
        proj = (W[free] / norms[free, None]) @ g
        thresholds = std_normal_inv_vec((1.0 - mu[free]) / 2.0)
        raw[free] = np.where(proj >= thresholds, 1, -1)
    return raw


def round_best_of_oracle(
    sol: SDPSolution, inst: CCInstance, rounds: int, seed: int = 0
) -> RoundingReport:
    if rounds < 1:
        raise DomainError(f"rounds must be >= 1, got {rounds}")
    best_val = -math.inf
    best_a: np.ndarray | None = None
    best_round = -1
    flips: list[int] = []
    for t in range(rounds):
        raw = round_once_oracle(sol, stream(seed, t))
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
        pre_repair_gap_mean=2.0 * float(np.mean(flips)),
        pre_repair_gap_max=2.0 * max(flips),
        repair_flips=tuple(flips),
    )
