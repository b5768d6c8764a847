"""Machine-checkable invariant suites behind the `verify` subcommand.

Each suite returns rows (name, measured, bound, ok) where `measured`
must stay at or below `bound`.  Statistical rows use fixed seeds and
4-sigma bands so a correct build passes deterministically.

The acceptance tests check criteria 1, 5, 6, 8 and 9 through this
module: they read the rows of `suite_gamma` and `suite_curves`, and
loop over `draw_pair_configs`, `pair_rounding_errors` and
`gadget_deviations` with their own seeds and sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import curves, gadget, rounding
from .gaussian import (gamma_rho_vec, std_normal_cdf_vec, std_normal_inv_vec, std_normal_pdf,
                       stream)

# marginal levels 0.05 .. 0.95 and correlations -0.95 .. 0.95 of the gamma grid rows
GAMMA_XS = np.arange(0.05, 0.9501, 0.05)
GAMMA_RHOS = np.arange(-0.95, 0.9501, 0.1)
# (q, rho) of every gadget checked: the alpha_cut minimiser with its matching rho, and q = 1/2
GADGET_PARAMS = ((0.365, -0.365 / 0.635), (0.5, -0.5))
GADGET_INVARIANTS = ("total_vertex_weight", "total_edge_weight", "half_incidence",
                     "subset_weight_identity", "completeness_set_weight",
                     "completeness_cut_weight")
PAIR_SAMPLES = 100_000


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    measured: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound


def suite_gamma(seed: int = 0) -> list[CheckRow]:
    R, X, Y = np.meshgrid(GAMMA_RHOS, GAMMA_XS, GAMMA_XS, indexing="ij")
    reflected = gamma_rho_vec(R, 1.0 - X, 1.0 - Y) - 1.0 + X + Y
    reflection = float(np.max(np.abs(gamma_rho_vec(R, X, Y) - reflected)))

    X, Y = X[0], Y[0]
    closed = max(float(np.max(np.abs(gamma_rho_vec(0.0, X, Y) - X * Y))),
                 float(np.max(np.abs(gamma_rho_vec(1.0, X, Y) - np.minimum(X, Y)))),
                 float(np.max(np.abs(gamma_rho_vec(-1.0, X, Y) - np.maximum(0.0, X + Y - 1.0)))))

    # the 500 (rho, x, y) draws of the seeded stream, in draw order
    rng = stream(seed, 1)
    rho, x, y = rng.uniform([-1.0, 0.0, 0.0], 1.0, size=(500, 3)).T
    v = gamma_rho_vec(rho, x, y)
    frechet = max(0.0, float(np.max(np.maximum(0.0, x + y - 1) - v)),
                  float(np.max(v - np.minimum(x, y))))
    symmetry = float(np.max(np.abs(v - gamma_rho_vec(rho, y, x))))

    along_rho = gamma_rho_vec(np.linspace(-0.99, 0.99, 67),
                              np.array([[0.25], [0.5], [0.9]]), np.array([[0.7], [0.5], [0.15]]))
    monotone = max(0.0, float(np.max(along_rho[:, :-1] - along_rho[:, 1:])))

    xs = np.linspace(-5.4, 5.4, 55)
    p = std_normal_cdf_vec(xs)
    inv = std_normal_inv_vec(p)
    return [
        CheckRow("gamma", "reflection_identity_grid", reflection, 1e-9),
        CheckRow("gamma", "closed_forms_at_unit_rho", closed, 1e-12),
        CheckRow("gamma", "frechet_bounds_random", frechet, 0.0),
        CheckRow("gamma", "argument_symmetry_random", symmetry, 0.0),
        CheckRow("gamma", "monotone_in_rho", monotone, 1e-13),
        CheckRow("gamma", "quantile_round_trip_x", float(np.max(np.abs(inv - xs))), 1e-9),
        CheckRow("gamma", "quantile_round_trip_p",
                 float(np.max(np.abs(std_normal_cdf_vec(inv) - p))), 1e-10),
        CheckRow("gamma", "pdf_at_zero",
                 abs(std_normal_pdf(0.0) - 1.0 / math.sqrt(2 * math.pi)), 1e-15),
    ]


def suite_curves(seed: int = 0) -> list[CheckRow]:
    rows = []
    qs = np.linspace(0.02, 0.48, 200)
    worst_cut = max(abs(curves.alpha_cut(float(q)) - curves.beta_cut(float(q), -q / (1 - q)))
                    for q in qs)
    worst_2sat = max(abs(curves.alpha_2sat(float(q)) - curves.beta_vc(float(q), -q / (1 - q)))
                     for q in qs)
    rows.append(CheckRow("curves", "matching_identity_cut", worst_cut, 1e-10))
    rows.append(CheckRow("curves", "matching_identity_2sat", worst_2sat, 1e-10))

    sample = [0.3, 0.4, 0.45]
    worst = 0.0
    for q in sample:
        a = curves.hardness_value("cut", q)
        b = curves.hardness_value("cut", 1.0 - q)
        worst = max(worst, abs(a - b))
    rows.append(CheckRow("curves", "cut_curve_symmetry", worst, 1e-9))

    grid = list(np.linspace(0.3, 0.7, 21))
    raw = curves.hardness_curve("vc", grid, flatten=False)
    flat = curves.hardness_curve("vc", grid, flatten=True)
    dom = max(f.ratio - r.ratio for r, f in zip(raw, flat))
    mono = max(a.ratio - b.ratio for a, b in zip(flat, flat[1:]))
    rng_ok = max(max(0.0 - p.ratio, p.ratio - 1.0) for p in raw + flat)
    rows.append(CheckRow("curves", "flattened_dominates", dom, 1e-12))
    rows.append(CheckRow("curves", "flattened_vc_monotone", mono, 1e-12))
    rows.append(CheckRow("curves", "ratios_inside_unit_interval", rng_ok, 0.0))

    qm, vm = curves.find_local_min_q(curves.alpha_cut, 0.3, 0.45, tol=1e-7)
    rows.append(CheckRow("curves", "alpha_cut_min_value", abs(vm - 0.858), 1e-3))
    rows.append(CheckRow("curves", "alpha_cut_argmin", abs(qm - 0.365), 3e-3))
    qm2, vm2 = curves.find_local_min_q(curves.alpha_2sat, 0.3, 0.45, tol=1e-7)
    rows.append(CheckRow("curves", "alpha_2sat_min_value", abs(vm2 - 0.929), 1e-3))
    rows.append(CheckRow("curves", "alpha_2sat_argmin", abs(qm2 - 0.365), 3e-3))
    return rows


def gadget_deviations(ug: gadget.UGInstance, hidden: gadget.Labeling, q: float, rho: float,
                      rng: np.random.Generator) -> tuple[float, ...]:
    """Deviations of one gadget from its invariants, in `GADGET_INVARIANTS` order.

    Total vertex and edge weight 1; each vertex weight half its incident
    weight; coverage = subset weight + cut / 2 on 100 random subsets drawn
    from `rng`; the completeness set of `hidden` has weight q and cut
    weight 2 q (1-q) (1-rho).
    """
    g = gadget.build_gadget(ug, q, rho)
    eq1 = 0.0
    for _ in range(100):
        mask = rng.random(g.n_vertices) < rng.uniform(0.2, 0.8)
        lhs = g.coverage_weight(mask)
        rhs = g.subset_weight(mask) + 0.5 * g.cut_weight(mask)
        eq1 = max(eq1, abs(lhs - rhs))
    _, w_s, cut = gadget.completeness_set(ug, hidden, g)
    return (abs(g.total_vertex_weight() - 1.0), abs(g.total_edge_weight() - 1.0),
            float(np.max(np.abs(g.vertex_weights - g.incident_weights() / 2.0))),
            eq1, abs(w_s - q), abs(cut - 2 * q * (1 - q) * (1 - rho)))


def suite_graph_invariants(seed: int = 0) -> list[CheckRow]:
    worst = [0.0] * len(GADGET_INVARIANTS)
    rng = stream(seed, 7)
    for si, (U, V, L, D) in enumerate([(3, 3, 3, 2), (4, 2, 4, 2), (2, 4, 3, 2)]):
        ug, hidden = gadget.random_ug(U, V, L, D, seed=seed + si)
        for q, rho in GADGET_PARAMS:
            worst = list(map(max, worst, gadget_deviations(ug, hidden, q, rho, rng)))
    return [CheckRow("graph-invariants", name, w, 1e-12)
            for name, w in zip(GADGET_INVARIANTS, worst)]


def draw_pair_configs(rng: np.random.Generator, count: int) -> list[tuple[float, float, float]]:
    """`count` (mu1, mu2, rho) triples from `rng`, rho inside the triangle inequalities."""
    configs = []
    while len(configs) < count:
        m1, m2 = rng.uniform(-0.9, 0.9, 2)
        lo, hi = curves._rho_range(m1, m2)
        if hi > lo:
            configs.append((float(m1), float(m2), float(rng.uniform(lo, hi))))
    return configs


def pair_rounding_errors(configs: list[tuple[float, float, float]],
                         seeds: list[int]) -> tuple[float, float, float]:
    """(max marginal |z|, max pair-product |z|, ratio floor margin) of threshold rounding.

    Config i is simulated with `PAIR_SAMPLES` samples from `seeds[i]`.  The
    margin is the least (1 - E[y1 y2]) / (1 - rho) less (alpha_cut min - 1e-6)
    over the configs with rho < 1; it is inf when there are none.
    """
    z_mu = z_pair = 0.0
    for (m1, m2, rho), seed in zip(configs, seeds):
        s1, s2, s12 = rounding.simulate_pair_products(m1, m2, rho, PAIR_SAMPLES, seed=seed)
        for mu, emp in ((m1, s1), (m2, s2)):
            se = math.sqrt((1 - mu * mu) / PAIR_SAMPLES) + 1e-12
            z_mu = max(z_mu, abs(emp - mu) / se)
        e = rounding.expected_pair_product(m1, m2, rho)
        se = math.sqrt(max(1e-12, 1 - e * e) / PAIR_SAMPLES)
        z_pair = max(z_pair, abs(s12 - e) / se)

    _, alpha = curves.find_local_min_q(curves.alpha_cut, 0.3, 0.45, tol=1e-8)
    m1, m2, rho = np.array(configs, dtype=float).reshape(-1, 3).T
    live = rho < 1 - 1e-9
    ratio = curves._conf_ratio_cut(m1[live], m2[live], rho[live])
    return z_mu, z_pair, float(np.min(ratio, initial=math.inf)) - (alpha - 1e-6)


def suite_rounding_stats(seed: int = 0) -> list[CheckRow]:
    configs = draw_pair_configs(stream(seed, 3), 6)
    z_mu, z_pair, margin = pair_rounding_errors(configs, [seed + i for i in range(6)])
    return [
        CheckRow("rounding-stats", "marginal_mean_zscore", z_mu, 4.0),
        CheckRow("rounding-stats", "pair_product_zscore", z_pair, 4.0),
        CheckRow("rounding-stats", "per_constraint_ratio_floor", max(0.0, -margin), 0.0),
    ]


SUITES: dict[str, Callable[[int], list[CheckRow]]] = {
    "gamma": suite_gamma,
    "curves": suite_curves,
    "graph-invariants": suite_graph_invariants,
    "rounding-stats": suite_rounding_stats,
}


def run_suite(name: str, seed: int = 0) -> list[CheckRow]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)
