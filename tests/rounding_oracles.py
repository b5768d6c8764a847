"""The threshold rounding with its zero-direction perturbation, kept as an
oracle for `ccmax.rounding.round_once`.

`round_once_oracle` nudges every row whose orthogonal part w_i has norm
below 1e-9, and is not pinned, along a basis direction orthogonalized
against v_0.  On unit rows that branch never fires, so it rounds as
`round_once` does, bit for bit.
"""

from __future__ import annotations

import numpy as np

from ccmax.gaussian import std_normal_inv_vec
from ccmax.rounding import _MU_DETERMINISTIC, gaussian_vector
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
