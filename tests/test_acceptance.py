"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line on success (run with -s to see them); the
expensive pipelines are exposed as pure functions so the determinism
criterion can re-run them and compare byte-identical artifacts.
Criteria 1, 5, 6, 8 and 9 measure through `ccmax.verify`: they read its
suite rows or call its measurement functions with their own seeds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from ccmax import curves, gadget, rounding, sdp, verify
from ccmax.gaussian import gamma_rho
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


def run_gadget_suite() -> tuple[dict, str]:
    worst = dict.fromkeys(verify.GADGET_INVARIANTS, 0.0)
    lines = ["shape,q,rho,wv_dev,we_dev,half_dev,eq1_dev,ws_dev,cut_dev"]
    rng = np.random.default_rng(99)
    for si, (U, V, L, D) in enumerate(GADGET_SHAPES):
        ug, hidden = gadget.random_ug(U, V, L, D, seed=300 + si)
        for q, rho in verify.GADGET_PARAMS:
            devs = verify.gadget_deviations(ug, hidden, q, rho, rng)
            for key, val in zip(verify.GADGET_INVARIANTS, devs):
                worst[key] = max(worst[key], val)
            lines.append(f"({U};{V};{L};{D}),{q},{rho:.12g},"
                         + ",".join(f"{d:.3g}" for d in devs))

    # exhaustive density study on <= 20-vertex gadgets
    density_lines = []
    density_ok = True
    for shape_seed, (U, V, L, D) in [(41, (1, 1, 4, 1)), (42, (2, 2, 3, 1))]:
        ug, hidden = gadget.random_ug(U, V, L, D, seed=shape_seed)
        for q, rho in verify.GADGET_PARAMS:
            g = gadget.build_gadget(ug, q, rho)
            assert g.n_vertices <= 20
            mask, w_s, _ = gadget.completeness_set(ug, hidden, g)
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


@pytest.fixture(scope="module")
def curves_rows():
    return {row.name: row for row in verify.suite_curves()}


def check_rows(rows: dict[str, verify.CheckRow], bounds: dict[str, float]) -> None:
    """Each named row is held to the criterion's own bound, and passes it."""
    for name, bound in bounds.items():
        assert rows[name].bound == bound and rows[name].ok, rows[name]


def test_criterion_1_gamma_engine():
    t0 = time.perf_counter()
    rows = {row.name: row for row in verify.suite_gamma()}
    elapsed = time.perf_counter() - t0
    check_rows(rows, {"reflection_identity_grid": 1e-9, "closed_forms_at_unit_rho": 1e-12})
    assert elapsed < 5.0
    print(ACCEPT.format(num=1, msg=f"identity residual "
                                   f"{rows['reflection_identity_grid'].measured:.2e}, closed "
                                   f"forms {rows['closed_forms_at_unit_rho'].measured:.2e}, "
                                   f"{elapsed:.2f}s"))


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


def test_criterion_5_global_minima(curves_rows):
    check_rows(curves_rows, {"alpha_cut_min_value": 1e-3, "alpha_cut_argmin": 3e-3,
                             "alpha_2sat_min_value": 1e-3, "alpha_2sat_argmin": 3e-3})
    qm_cut, v_cut = curves.find_local_min_q(curves.alpha_cut, 0.3, 0.45, tol=1e-7)
    mu_star = 1 - 2 * qm_cut
    assert mu_star == pytest.approx(0.27, abs=1e-2)
    assert -qm_cut / (1 - qm_cut) == pytest.approx(-0.575, abs=5e-3)

    res = curves.full_conf_alpha_cut(grid_density=32)
    assert res.value == pytest.approx(v_cut, abs=1e-3)
    cfg = res.configuration
    assert cfg.mu1 == pytest.approx(cfg.mu2, abs=1e-2)
    assert cfg.rho == pytest.approx(-1 + 2 * abs(cfg.mu1), abs=1e-2)
    dev_2s = curves_rows["alpha_2sat_min_value"].measured
    print(ACCEPT.format(num=5, msg=f"alpha_cut min {v_cut:.6f}@{qm_cut:.4f}, "
                                   f"alpha_2sat min 0.929 + {dev_2s:.1e}, "
                                   f"full-conf {res.value:.6f}@"
                                   f"({cfg.mu1:.3f},{cfg.mu2:.3f},{cfg.rho:.3f})"))


def test_criterion_6_matching_identities(curves_rows):
    check_rows(curves_rows, {"matching_identity_cut": 1e-10, "matching_identity_2sat": 1e-10})
    print(ACCEPT.format(num=6, msg=f"identity residuals cut "
                                   f"{curves_rows['matching_identity_cut'].measured:.2e}, 2sat "
                                   f"{curves_rows['matching_identity_2sat'].measured:.2e} "
                                   f"over 200 samples"))


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
    configs = verify.draw_pair_configs(np.random.Generator(np.random.Philox(key=[77, 0])), 20)
    assert verify.PAIR_SAMPLES == 100_000
    worst_z_mu, worst_z_pair, worst_margin = verify.pair_rounding_errors(
        configs, [600 + i for i in range(20)])
    assert worst_z_mu <= 4.0
    assert worst_z_pair <= 4.0
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
