"""Per-constraint forms of the objective, kept as oracles for `ccmax.instance`
and `ccmax.sdp.relax`.

`constraint_arrays` gives each constraint's coefficients (c0, c1, c2, c3)
with value = c0 + c1 xi + c2 xj + c3 xi xj.  `evaluate_oracle` and
`evaluate_many_oracle` are the two evaluators `CCInstance.form` replaced:
one sums the weighted constraint values with `np.sum`, the other takes
one product per coefficient.  They agree with the form to rounding, not
bit for bit.  `relax_arrays_oracle` is the relaxation's term builder as it
read these arrays, which the form must reproduce bit for bit.
`criterion_7_instances` are the 50 instances of acceptance criterion 7.
"""

from __future__ import annotations

import math

import numpy as np

from ccmax.instance import CCInstance, Xor, as_assignment, random_instance
from ccmax.sdp import SDPProblem


def constraint_arrays(inst: CCInstance) -> tuple[np.ndarray, ...]:
    """(i, j, w, c0, c1, c2, c3), one entry per constraint."""
    m = len(inst.constraints)
    i = np.zeros(m, dtype=np.int64)
    j = np.zeros(m, dtype=np.int64)
    w = np.zeros(m)
    c0 = np.zeros(m)
    c1 = np.zeros(m)
    c2 = np.zeros(m)
    c3 = np.zeros(m)
    for t, c in enumerate(inst.constraints):
        i[t], j[t], w[t] = c.i, c.j, c.weight
        if isinstance(c.kind, Xor):
            c0[t], c3[t] = 0.5, 0.5 * c.kind.parity
        else:
            p1, p2, p3 = c.kind.pattern
            c0[t], c1[t], c2[t], c3[t] = 0.75, 0.25 * p1, 0.25 * p2, 0.25 * p3
    return i, j, w, c0, c1, c2, c3


def evaluate_oracle(inst: CCInstance, values) -> float:
    a = as_assignment(values, inst.n)
    i, j, w, c0, c1, c2, c3 = constraint_arrays(inst)
    xi = a[i].astype(float)
    xj = a[j].astype(float)
    return float(np.sum(w * (c0 + c1 * xi + c2 * xj + c3 * xi * xj)))


def evaluate_many_oracle(inst: CCInstance, rows: np.ndarray) -> np.ndarray:
    i, j, w, c0, c1, c2, c3 = constraint_arrays(inst)
    xi = rows[:, i].astype(float)
    xj = rows[:, j].astype(float)
    return (w * c0).sum() + xi @ (w * c1) + xj @ (w * c2) + (xi * xj) @ (w * c3)


def relax_arrays_oracle(inst: CCInstance) -> SDPProblem:
    size = inst.n + 1
    i, j, w, c0, c1, c2, c3 = constraint_arrays(inst)
    vi, vj = i + 1, j + 1
    loop = vi == vj
    pair = np.minimum(vi, vj) * size + np.maximum(vi, vj)
    keys = np.stack([vi, vj, pair], axis=1).ravel()
    coeffs = np.stack([w * np.where(loop, c1 + c2, c1), np.where(loop, 0.0, w * c2),
                       np.where(loop, 0.0, w * c3)], axis=1).ravel()
    keep = coeffs != 0.0
    keys, slot = np.unique(keys[keep], return_inverse=True)
    obj_c = np.bincount(slot, weights=coeffs[keep], minlength=keys.size)
    offset = np.cumsum(w * (c0 + np.where(loop, c3, 0.0)))
    pairs = np.unique(pair[~loop])

    m = max(1, len(inst.constraints))
    return SDPProblem(
        n=inst.n,
        dim=min(inst.n + 1, max(3, math.ceil(math.sqrt(2 * m)) + 2)),
        obj_p=keys // size,
        obj_q=keys % size,
        obj_c=obj_c,
        offset=float(offset[-1]) if offset.size else 0.0,
        balance_target=inst.balance,
        tri=np.stack([pairs // size, pairs % size], axis=1),
    )


def criterion_7_instances() -> list[CCInstance]:
    return [random_instance(14, 4 + i % 7, 40, problem="cut" if i % 2 == 0 else "2sat",
                            seed=1000 + i) for i in range(50)]
