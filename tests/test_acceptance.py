"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (run with -s to see them); the
expensive pipelines are exposed as pure functions so the determinism
criterion can re-run them and compare byte-identical artifacts.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from ccmax import curves, gadget, rounding, sdp
from ccmax.gaussian import gamma_rho, gamma_rho_vec
from ccmax.instance import brute_force_opt, cardinality, random_instance

ACCEPT = "ACCEPTANCE {num} PASS: {msg}"


def q_grid(q_min: float, q_max: float, step: float = 0.004) -> list[float]:
    count = int(round((q_max - q_min) / step)) + 1
    return [round(q_min + i * step, 12) for i in range(count)]


def run_cut_curve() -> tuple[list[curves.CurvePoint], str]:
    pts = curves.hardness_curve("cut", q_grid(0.2, 0.8), flatten=True)
    lines = ["q,ratio,rho_star,flattened"]
    for p in pts:
        rho = f"{p.rho_star:.12g}" if p.rho_star is not None else ""
        lines.append(f"{p.q:.12g},{p.ratio:.12g},{rho},{int(p.flattened)}")
    return pts, "\n".join(lines) + "\n"


def run_solver_suite() -> tuple[dict, str]:
    lines = ["seed,problem,k,opt,sdp,best,ratio"]
    ratios = []
    sdp_ok = 0
    for i in range(50):
        problem = "cut" if i % 2 == 0 else "2sat"
        k = 4 + (i % 7)
        inst = random_instance(14, k, 40, problem=problem, seed=1000 + i)
        opt_a, opt = brute_force_opt(inst)
        sol = sdp.solve_instance(
            inst, sdp.SolveOptions(restarts=2, max_iters=8000, seed=i), integral_seed=opt_a)
        rep = rounding.round_best_of(sol, inst, rounds=200, seed=i)
        assert cardinality(rep.best_assignment) == k
        ratio = rep.best_value / opt
        ratios.append(ratio)
        sdp_ok += sol.objective_value >= opt - 1e-4
        lines.append(f"{1000 + i},{problem},{k},{opt:.12g},"
                     f"{sol.objective_value:.12g},{rep.best_value:.12g},{ratio:.12g}")
    stats = {
        "ratios": ratios,
        "n_above_floor": sum(r >= 0.858 for r in ratios),
        "mean_ratio": float(np.mean(ratios)),
        "sdp_dominates": sdp_ok,
    }
    return stats, "\n".join(lines) + "\n"


GADGET_SHAPES = [
    (2, 2, 2, 1), (3, 3, 3, 2), (4, 2, 4, 2), (2, 4, 3, 2), (5, 5, 2, 2),
    (6, 3, 3, 2), (3, 6, 4, 2), (4, 4, 5, 1), (6, 6, 6, 1), (2, 2, 6, 2),
]
GADGET_PARAMS = [(0.365, -0.365 / 0.635), (0.5, -0.5)]


def run_gadget_suite() -> tuple[dict, str]:
    worst = {"wv": 0.0, "we": 0.0, "half": 0.0, "eq1": 0.0, "ws": 0.0, "cut": 0.0}
    lines = ["shape,q,rho,wv_dev,we_dev,half_dev,eq1_dev,ws_dev,cut_dev"]
    rng = np.random.default_rng(99)
    for si, (U, V, L, D) in enumerate(GADGET_SHAPES):
        ug, hidden = gadget.random_ug(U, V, L, D, seed=300 + si)
        for q, rho in GADGET_PARAMS:
            g = gadget.build_gadget(ug, q, rho)
            d_wv = abs(g.total_vertex_weight() - 1.0)
            d_we = abs(g.total_edge_weight() - 1.0)
            d_half = float(np.max(np.abs(g.vertex_weights - g.incident_weights() / 2)))
            d_eq1 = 0.0
            for _ in range(100):
                mask = rng.random(g.n_vertices) < rng.uniform(0.2, 0.8)
                lhs = g.coverage_weight(mask)
                rhs = g.subset_weight(mask) + 0.5 * g.cut_weight(mask)
                d_eq1 = max(d_eq1, abs(lhs - rhs))
            _, w_s, cut = gadget.completeness_set(ug, hidden, g, q, rho)
            t = (q - q * q) * (1 - rho)
            d_ws = abs(w_s - q)
            d_cut = abs(cut - 2 * q * (1 - q) * (1 - rho))
            for key, val in zip(("wv", "we", "half", "eq1", "ws", "cut"),
                                (d_wv, d_we, d_half, d_eq1, d_ws, d_cut)):
                worst[key] = max(worst[key], val)
            lines.append(f"({U};{V};{L};{D}),{q},{rho:.12g},{d_wv:.3g},{d_we:.3g},"
                         f"{d_half:.3g},{d_eq1:.3g},{d_ws:.3g},{d_cut:.3g}")

    # exhaustive density study on <= 20-vertex gadgets
    density_lines = []
    density_ok = True
    for shape_seed, (U, V, L, D) in [(41, (1, 1, 4, 1)), (42, (2, 2, 3, 1))]:
        ug, hidden = gadget.random_ug(U, V, L, D, seed=shape_seed)
        for q, rho in GADGET_PARAMS:
            g = gadget.build_gadget(ug, q, rho)
            assert g.n_vertices <= 20
            mask, w_s, _ = gadget.completeness_set(ug, hidden, g, q, rho)
            t = (q - q * q) * (1 - rho)
            dict_internal = g.internal_weight(mask)
            threshold = gamma_rho(rho, q, q)
            prof = gadget.density_profile(g, [q], mode="exact", tol_r=1e-9)
            exact_min = prof.samples[0].min_density_found
            gap = threshold - (q - t)
            ok = (abs(dict_internal - (q - t)) <= 1e-12
                  and exact_min <= dict_internal + 1e-12
                  and gap > 1e-3)
            cleared = 0
            checked = 0
            srng = np.random.default_rng(500 + shape_seed)
            tol = float(np.max(g.vertex_weights))
            while checked < 40:
                m = srng.random(g.n_vertices) < q
                w_m = g.subset_weight(m)
                if abs(w_m - q) > tol or np.array_equal(m, mask):
                    continue
                checked += 1
                cleared += g.internal_weight(m) >= gamma_rho(rho, w_m, w_m) - 1e-12
            ok = ok and cleared >= 34
            density_ok = density_ok and ok
            density_lines.append(
                f"density,({U};{V};{L};{D}),{q},{rho:.12g},dict={dict_internal:.12g},"
                f"nu11={q - t:.12g},threshold={threshold:.12g},gap={gap:.12g},"
                f"cleared={cleared}/40,ok={int(ok)}")
    stats = {"worst": worst, "density_ok": density_ok}
    return stats, "\n".join(lines + density_lines) + "\n"


@pytest.fixture(scope="module")
def cut_curve_artifact():
    t0 = time.perf_counter()
    pts, text = run_cut_curve()
    return pts, text, time.perf_counter() - t0


@pytest.fixture(scope="module")
def solver_suite_artifact():
    t0 = time.perf_counter()
    stats, text = run_solver_suite()
    return stats, text, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gadget_suite_artifact():
    t0 = time.perf_counter()
    stats, text = run_gadget_suite()
    return stats, text, time.perf_counter() - t0


def test_criterion_1_gamma_engine():
    t0 = time.perf_counter()
    xs = np.arange(0.05, 0.9501, 0.05)
    rhos = np.arange(-0.95, 0.9501, 0.1)
    R, X, Y = np.meshgrid(rhos, xs, xs, indexing="ij")
    direct = gamma_rho_vec(R, X, Y)
    reflected = gamma_rho_vec(R, 1.0 - X, 1.0 - Y) - 1.0 + X + Y
    residual = float(np.max(np.abs(direct - reflected)))
    assert residual < 1e-9

    worst_closed = 0.0
    for x in xs:
        for y in xs:
            x, y = float(x), float(y)
            worst_closed = max(
                worst_closed,
                abs(gamma_rho(0.0, x, y) - x * y),
                abs(gamma_rho(1.0, x, y) - min(x, y)),
                abs(gamma_rho(-1.0, x, y) - max(0.0, x + y - 1.0)))
    assert worst_closed <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(ACCEPT.format(num=1, msg=f"identity residual {residual:.2e}, closed forms "
                                   f"{worst_closed:.2e}, {elapsed:.2f}s"))


def test_criterion_2_figure_cut(cut_curve_artifact):
    pts, _, elapsed = cut_curve_artifact
    got = {round(p.q, 3): p for p in pts}
    expect = {0.364: 0.858297, 0.4: 0.860599, 0.452: 0.873752,
              0.5: 0.878567, 0.6: 0.860599}
    for q, val in expect.items():
        assert got[q].ratio == pytest.approx(val, abs=1e-3), q
    assert got[0.5].rho_star == pytest.approx(-0.689, abs=5e-3)
    assert elapsed < 60.0
    print(ACCEPT.format(num=2, msg=f"cut curve matches at {sorted(expect)}, "
                                   f"rho*(0.5)={got[0.5].rho_star:.4f}, {elapsed:.1f}s"))


def test_criterion_3_figure_vc():
    pts = curves.hardness_curve("vc", q_grid(0.2, 0.996), flatten=True)
    got = {round(p.q, 3): p.ratio for p in pts}
    expect = {0.364: 0.929148, 0.6: 0.944240, 0.8: 0.977829, 0.9: 0.993112}
    for q, val in expect.items():
        assert got[q] == pytest.approx(val, abs=1e-3), q
    assert got[0.996] > 0.9999  # tends to 1 at q -> 1
    qm, _ = curves.find_local_min_q(lambda q: curves.hardness_value("vc", q),
                                    0.53, 0.62, tol=1e-5)
    assert qm == pytest.approx(0.574, abs=5e-3)
    print(ACCEPT.format(num=3, msg=f"vc curve matches, local min at q={qm:.4f}"))


def test_criterion_4_figure_2sat():
    grid = q_grid(0.3, 0.7)
    pts = curves.hardness_curve("2sat", grid, flatten=True)
    got = {round(p.q, 3): p.ratio for p in pts}
    assert got[0.4] == pytest.approx(0.930300, abs=1e-3)
    assert got[0.6] == pytest.approx(0.930300, abs=1e-3)
    flat_qs = [round(q, 3) for q in grid if 0.464 <= q <= 0.536]
    flat_vals = [got[q] for q in flat_qs]
    for v in flat_vals:
        assert v == pytest.approx(0.940310, abs=1e-3)
    assert max(flat_vals) - min(flat_vals) <= 1e-12  # genuinely flat
    sym = max(abs(got[round(q, 3)] - got[round(1.0 - q, 3)]) for q in grid)
    assert sym <= 1e-9
    print(ACCEPT.format(num=4, msg=f"2sat flat top {flat_vals[0]:.6f} on "
                                   f"[0.464, 0.536], symmetry dev {sym:.1e}"))


def test_criterion_5_global_minima():
    qm_cut, v_cut = curves.find_local_min_q(curves.alpha_cut, 0.3, 0.45, tol=1e-7)
    assert v_cut == pytest.approx(0.858, abs=1e-3)
    assert qm_cut == pytest.approx(0.365, abs=3e-3)
    mu_star = 1 - 2 * qm_cut
    assert mu_star == pytest.approx(0.27, abs=1e-2)
    assert -qm_cut / (1 - qm_cut) == pytest.approx(-0.575, abs=5e-3)

    qm_2s, v_2s = curves.find_local_min_q(curves.alpha_2sat, 0.3, 0.45, tol=1e-7)
    assert v_2s == pytest.approx(0.929, abs=1e-3)
    assert qm_2s == pytest.approx(0.365, abs=3e-3)

    res = curves.full_conf_alpha_cut(grid_density=32)
    assert res.value == pytest.approx(v_cut, abs=1e-3)
    cfg = res.configuration
    assert cfg.mu1 == pytest.approx(cfg.mu2, abs=1e-2)
    assert cfg.rho == pytest.approx(-1 + 2 * abs(cfg.mu1), abs=1e-2)
    print(ACCEPT.format(num=5, msg=f"alpha_cut min {v_cut:.6f}@{qm_cut:.4f}, "
                                   f"alpha_2sat min {v_2s:.6f}@{qm_2s:.4f}, "
                                   f"full-conf {res.value:.6f}@"
                                   f"({cfg.mu1:.3f},{cfg.mu2:.3f},{cfg.rho:.3f})"))


def test_criterion_6_matching_identities():
    qs = np.linspace(0.02, 0.48, 200)
    worst_cut = max(abs(curves.alpha_cut(float(q)) - curves.beta_cut(float(q), -q / (1 - q)))
                    for q in qs)
    worst_2s = max(abs(curves.alpha_2sat(float(q)) - curves.beta_vc(float(q), -q / (1 - q)))
                   for q in qs)
    assert worst_cut < 1e-10
    assert worst_2s < 1e-10
    print(ACCEPT.format(num=6, msg=f"identity residuals cut {worst_cut:.2e}, "
                                   f"2sat {worst_2s:.2e} over 200 samples"))


def test_criterion_7_sdp_rounding_suite(solver_suite_artifact):
    stats, _, elapsed = solver_suite_artifact
    assert stats["n_above_floor"] >= 48
    assert stats["mean_ratio"] >= 0.93
    assert stats["sdp_dominates"] == 50
    assert elapsed < 600.0
    print(ACCEPT.format(num=7, msg=f"{stats['n_above_floor']}/50 above 0.858, "
                                   f"mean ratio {stats['mean_ratio']:.4f}, "
                                   f"sdp dominates on 50/50, {elapsed:.0f}s"))


def test_criterion_8_rounding_statistics():
    rng = np.random.Generator(np.random.Philox(key=[77, 0]))
    configs = []
    while len(configs) < 20:
        m1, m2 = rng.uniform(-0.9, 0.9, 2)
        lo, hi = -1 + abs(m1 + m2), 1 - abs(m1 - m2)
        if hi > lo:
            configs.append((float(m1), float(m2), float(rng.uniform(lo, hi))))
    samples = 100_000
    worst_z_mu = worst_z_pair = 0.0
    for i, (m1, m2, rho) in enumerate(configs):
        s1, s2, s12 = rounding.simulate_pair_products(m1, m2, rho, samples, seed=600 + i)
        for mu, emp in ((m1, s1), (m2, s2)):
            se = math.sqrt((1 - mu * mu) / samples) + 1e-12
            worst_z_mu = max(worst_z_mu, abs(emp - mu) / se)
        e = rounding.expected_pair_product(m1, m2, rho)
        se = math.sqrt(max(1e-12, 1 - e * e) / samples)
        worst_z_pair = max(worst_z_pair, abs(s12 - e) / se)
    assert worst_z_mu <= 4.0
    assert worst_z_pair <= 4.0

    _, alpha = curves.find_local_min_q(curves.alpha_cut, 0.3, 0.45, tol=1e-8)
    worst_margin = math.inf
    for m1, m2, rho in configs:
        if rho >= 1 - 1e-9:
            continue
        ratio = (1 - rounding.expected_pair_product(m1, m2, rho)) / (1 - rho)
        worst_margin = min(worst_margin, ratio - (alpha - 1e-6))
    assert worst_margin >= 0.0
    print(ACCEPT.format(num=8, msg=f"max |z| marginal {worst_z_mu:.2f}, pair "
                                   f"{worst_z_pair:.2f}; ratio floor margin "
                                   f"{worst_margin:.2e}"))


def test_criterion_9_gadget_invariants(gadget_suite_artifact):
    stats, _, elapsed = gadget_suite_artifact
    for key, val in stats["worst"].items():
        assert val <= 1e-12, (key, val)
    assert stats["density_ok"]
    assert elapsed < 300.0
    print(ACCEPT.format(num=9, msg=f"worst deviation "
                                   f"{max(stats['worst'].values()):.2e} over 10 "
                                   f"instances x 2 params, density study ok, "
                                   f"{elapsed:.0f}s"))


def test_criterion_10_determinism(cut_curve_artifact, solver_suite_artifact,
                                  gadget_suite_artifact):
    _, text2_first, _ = cut_curve_artifact
    _, text7_first, _ = solver_suite_artifact
    _, text9_first, _ = gadget_suite_artifact
    assert run_cut_curve()[1] == text2_first
    assert run_solver_suite()[1] == text7_first
    assert run_gadget_suite()[1] == text9_first
    print(ACCEPT.format(num=10, msg="criteria 2, 7, 9 reruns byte-identical"))
