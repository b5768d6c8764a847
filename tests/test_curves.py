"""Tests for the hardness / approximation curve machinery."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmax import curves
from ccmax.curves import (
    UNCONSTRAINED_2SAT_LEVEL,
    Configuration,
    CurvePoint,
    RhoInterval,
    alpha_2sat,
    alpha_cut,
    approx_curve,
    beta_cut,
    beta_vc,
    extremal_rho,
    find_local_min_q,
    full_conf_alpha_cut,
    hardness_curve,
    hardness_value,
    kappa,
    minimize_over_rho,
    rho_bar,
    triangle_violation,
)
from ccmax.errors import DomainError
from ccmax.gaussian import gamma_rho


class TestKappa:
    def test_quarter(self):
        iv = kappa(0.25)
        assert iv.lo == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert iv.lo_closed and str(iv) == "[-0.333333333333, 0)"

    def test_half(self):
        iv = kappa(0.5)
        assert iv.lo == -1.0 and not iv.lo_closed

    def test_three_quarters_symmetry(self):
        assert kappa(0.75).lo == kappa(0.25).lo

    def test_rejects_boundary(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                kappa(q)

    @settings(max_examples=500, derandomize=True)
    @given(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.sampled_from([0.5, 0.365, 0.635, 0.7, 1 - 2.0**-53, 2.0**-1074])))
    def test_lo_is_extremal_rho_bit_for_bit(self, q):
        # the endpoint by branches: for q >= 1/2, 1 - q is exact (Sterbenz),
        # so -(1-q)/(1-(1-q)) is -(1-q)/q to the bit
        branch = -1.0 if q == 0.5 else -q / (1.0 - q) if q < 0.5 else -(1.0 - q) / q
        assert kappa(q).lo == extremal_rho(q) == branch
        assert kappa(q).lo_closed == (q != 0.5)

    def test_contains(self):
        assert kappa(0.25).contains(-1.0 / 3.0)
        assert not kappa(0.25).contains(-0.5)
        assert not kappa(0.25).contains(0.0)
        assert not kappa(0.5).contains(-1.0)
        assert kappa(0.5).contains(-0.999999)


class TestBetaCut:
    def test_limit_at_zero_correlation(self):
        # Gamma_0(q) = q^2 makes the ratio tend to 1 as rho -> 0-
        for q in (0.3, 0.5, 0.7):
            assert beta_cut(q, -1e-7) == pytest.approx(1.0, abs=1e-5)

    def test_figure_point_half(self):
        assert beta_cut(0.5, -0.689) == pytest.approx(0.8786, abs=5e-4)

    def test_formula_composition(self):
        # direct formula evaluation through the separately validated
        # orthant-probability oracle
        q, rho = 0.4, -0.5
        expect = (1 - gamma_rho(rho, q, q) - gamma_rho(rho, 1 - q, 1 - q)) / (
            2 * (q - q * q) * (1 - rho))
        assert beta_cut(q, rho) == pytest.approx(expect, abs=1e-9)

    def test_range(self):
        for q in (0.3, 0.5, 0.64):
            lo = kappa(q).lo
            for rho in np.linspace(lo if q != 0.5 else lo + 1e-6, -1e-6, 9):
                assert 0.0 < beta_cut(q, float(rho)) <= 1.0 + 1e-12

    def test_rejects_rho_outside_kappa(self):
        with pytest.raises(DomainError, match=r"kappa"):
            beta_cut(0.25, -0.5)
        with pytest.raises(DomainError):
            beta_cut(0.25, 0.0)

    def test_array_matches_floats(self):
        rhos = np.linspace(kappa(0.3).lo, -1e-6, 7)
        for beta in (beta_cut, beta_vc):
            vals = beta(0.3, rhos)
            assert vals.shape == rhos.shape
            assert list(vals) == [beta(0.3, float(r)) for r in rhos]

    def test_rejects_array_with_one_rho_outside_kappa(self):
        for beta in (beta_cut, beta_vc):
            with pytest.raises(DomainError, match=r"rho=-0\.5 outside kappa"):
                beta(0.25, np.array([-0.2, -0.5, -0.1]))
            with pytest.raises(DomainError):
                beta(0.25, np.array([-0.2, np.nan]))


class TestBetaVc:
    def test_limit_q_to_one(self):
        q = 0.999
        rho = -0.5 * (1 - q) / q
        assert beta_vc(q, rho) == pytest.approx(1.0, abs=2e-3)

    def test_figure_point_worst_q(self):
        assert beta_vc(0.364, -0.364 / 0.636) == pytest.approx(0.929148, abs=1e-3)

    def test_figure_point_minimized(self):
        _, v = minimize_over_rho(lambda r: beta_vc(0.6, r), 0.6)
        assert v == pytest.approx(0.944240, abs=1e-3)


class TestMinimizeOverRho:
    def test_analytic_parabola(self):
        # kappa(4/9) = [-0.8, 0); shifted parabola has its minimum inside
        q = 4.0 / 9.0
        rho_star, value = minimize_over_rho(lambda r: (r + 0.45) ** 2 + 0.3, q)
        assert rho_star == pytest.approx(-0.45, abs=1e-6)
        assert value == pytest.approx(0.3, abs=1e-10)

    def test_minimum_at_closed_endpoint(self):
        q = 0.25  # kappa = [-1/3, 0); increasing function attains min at lo
        rho_star, value = minimize_over_rho(lambda r: r + 1.0, q)
        assert rho_star == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_cut_at_half(self):
        rho_star, value = minimize_over_rho(lambda r: beta_cut(0.5, r), 0.5)
        assert rho_star == pytest.approx(-0.689, abs=1e-3)
        assert value == pytest.approx(0.878567, abs=1e-3)

    def test_cut_at_worst_q_hits_extremal_rho(self):
        q = 0.364
        rho_star, value = minimize_over_rho(lambda r: beta_cut(q, r), q)
        assert rho_star == pytest.approx(kappa(q).lo, abs=1e-3)
        assert value == pytest.approx(0.858297, abs=1e-3)


class TestAlphaCurves:
    def test_matching_identity_cut(self):
        for q in np.linspace(0.05, 0.45, 21):
            q = float(q)
            assert abs(alpha_cut(q) - beta_cut(q, -q / (1 - q))) < 1e-10

    def test_matching_identity_2sat(self):
        for q in np.linspace(0.05, 0.45, 21):
            q = float(q)
            assert abs(alpha_2sat(q) - beta_vc(q, -q / (1 - q))) < 1e-10

    def test_cut_minimum(self):
        qm, vm = find_local_min_q(alpha_cut, 0.3, 0.45, tol=1e-7)
        assert vm == pytest.approx(0.858, abs=1e-3)
        assert qm == pytest.approx(0.365, abs=3e-3)
        mu = 1 - 2 * qm
        assert mu == pytest.approx(0.27, abs=1e-2)
        assert -qm / (1 - qm) == pytest.approx(-0.575, abs=2e-3)

    def test_2sat_minimum(self):
        qm, vm = find_local_min_q(alpha_2sat, 0.3, 0.45, tol=1e-7)
        assert vm == pytest.approx(0.929, abs=1e-3)
        assert qm == pytest.approx(0.365, abs=3e-3)

    def test_symmetry_map(self):
        # 1 - 0.7 is not bitwise 0.3, so allow fp slack through the map
        assert alpha_cut(0.7) == pytest.approx(alpha_cut(0.3), abs=1e-12)
        assert alpha_2sat(0.7) == pytest.approx(alpha_2sat(0.3), abs=1e-12)

    def test_composition(self):
        q = 0.45
        rb = -q / (1 - q)
        assert alpha_cut(q) == pytest.approx(
            (2 * q - 2 * gamma_rho(rb, q, q)) / (2 * q), abs=1e-14)
        q = 0.3
        rb = -q / (1 - q)
        assert alpha_2sat(q) == pytest.approx(
            (1 - gamma_rho(rb, 1 - q, 1 - q)) / (2 * q), abs=1e-14)

    def test_rejects_boundary(self):
        for q in (0.0, 1.0):
            with pytest.raises(DomainError):
                alpha_cut(q)
            with pytest.raises(DomainError):
                alpha_2sat(q)


class TestConfiguration:
    def test_triangle_violation_cases(self):
        assert triangle_violation(0.0, 0.0, -1.0) == 0.0
        assert triangle_violation(0.5, 0.5, -0.5) == pytest.approx(0.5)
        for a in (-1, 1):
            for b in (-1, 1):
                assert triangle_violation(a, b, a * b) == 0.0

    def test_configuration_validation(self):
        Configuration(0.2, -0.1, 0.05)
        with pytest.raises(DomainError):
            Configuration(0.5, 0.5, -0.5)
        with pytest.raises(DomainError):
            Configuration(1.5, 0.0, 0.0)

    def test_rho_bar_clamps(self):
        assert -1.0 <= rho_bar(0.9, -0.9, -0.9) <= 1.0
        assert rho_bar(0.0, 0.0, 0.3) == pytest.approx(0.3)
        with pytest.raises(DomainError):
            rho_bar(1.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def full_conf_result():
    return full_conf_alpha_cut(grid_density=32)


class TestFullConf:
    @pytest.fixture
    def result(self, full_conf_result):
        return full_conf_result

    def test_matches_diagonal_restriction(self, result):
        q = (1 - abs(result.configuration.mu1)) / 2
        assert result.value == pytest.approx(alpha_cut(q), abs=1e-6)
        assert result.value == pytest.approx(0.858, abs=1e-3)

    def test_minimizer_shape(self, result):
        cfg = result.configuration
        assert cfg.mu1 == pytest.approx(cfg.mu2, abs=1e-2)
        mu = abs(cfg.mu1)
        assert mu == pytest.approx(0.27, abs=1e-2)
        assert cfg.rho == pytest.approx(-1 + 2 * mu, abs=1e-2)

    def test_diagonal_equals_alpha_cut(self):
        from ccmax.curves import _conf_ratio_cut
        for mu in (0.1, 0.27, 0.5, 0.8):
            q = (1 - mu) / 2
            val = float(_conf_ratio_cut(mu, mu, -1 + 2 * mu))
            assert val == pytest.approx(alpha_cut(q), abs=1e-9)

    def test_degenerate_corner(self):
        from ccmax.curves import _conf_ratio_cut
        # (0, 0, -1): Gamma_-1(1/2, 1/2) = 0 so the ratio is exactly 1
        assert float(_conf_ratio_cut(0.0, 0.0, -1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_grid(self):
        with pytest.raises(DomainError):
            full_conf_alpha_cut(grid_density=10)


class TestHardnessCurve:
    def test_cut_flatten_acceptance_points(self):
        qs = list(np.arange(0.2, 0.8001, 0.004))
        pts = hardness_curve("cut", qs, flatten=True)
        got = {round(p.q, 3): p.ratio for p in pts}
        assert got[0.2] == pytest.approx(0.8583, abs=1e-3)
        assert got[0.364] == pytest.approx(0.8583, abs=1e-3)
        assert got[0.5] == pytest.approx(0.8786, abs=1e-3)
        assert got[0.636] == pytest.approx(0.8583, abs=1e-3)
        assert got[0.8] == pytest.approx(0.8583, abs=1e-3)

    def test_vc_flatten_acceptance_points(self):
        qs = sorted(set(list(np.arange(0.2, 0.9961, 0.004))))
        pts = hardness_curve("vc", qs, flatten=True)
        got = {round(p.q, 3): p.ratio for p in pts}
        assert got[0.2] == pytest.approx(0.9291, abs=1e-3)
        assert got[0.364] == pytest.approx(0.9291, abs=1e-3)
        assert got[0.6] == pytest.approx(0.9442, abs=1e-3)
        assert got[0.9] == pytest.approx(0.9931, abs=1e-3)
        assert got[0.996] > 0.9999

    def test_2sat_flatten_acceptance_points(self):
        pts = hardness_curve("2sat", [0.4, 0.5, 0.6], flatten=True)
        vals = [p.ratio for p in pts]
        assert vals[0] == pytest.approx(0.9303, abs=1e-3)
        assert vals[1] == pytest.approx(0.9403, abs=1e-3)
        assert vals[2] == pytest.approx(0.9303, abs=1e-3)
        assert abs(vals[0] - vals[2]) < 1e-9

    def test_cut_curve_symmetric(self):
        qs = [0.3, 0.42, 0.5, 0.58, 0.7]
        pts = hardness_curve("cut", qs, flatten=False)
        assert pts[0].ratio == pytest.approx(pts[4].ratio, abs=1e-9)
        assert pts[1].ratio == pytest.approx(pts[3].ratio, abs=1e-9)

    def test_flattened_dominates_and_monotone(self):
        qs = list(np.linspace(0.25, 0.75, 26))
        raw = hardness_curve("vc", qs, flatten=False)
        flat = hardness_curve("vc", qs, flatten=True)
        for r, f in zip(raw, flat):
            assert f.ratio <= r.ratio + 1e-12
            assert 0.0 < f.ratio <= 1.0
        vals = [f.ratio for f in flat]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_flattened_points_lack_rho_star(self):
        qs = list(np.arange(0.2, 0.8001, 0.004))
        for p in hardness_curve("cut", qs, flatten=True):
            if p.flattened:
                assert p.rho_star is None
            else:
                assert p.rho_star is not None

    def test_vc_local_min_location(self):
        qm, _ = find_local_min_q(lambda q: hardness_value("vc", q), 0.53, 0.62, tol=1e-5)
        assert qm == pytest.approx(0.574, abs=5e-3)

    def test_cut_local_min_location(self):
        qm, _ = find_local_min_q(lambda q: hardness_value("cut", q), 0.6, 0.67, tol=1e-5)
        assert qm == pytest.approx(0.635, abs=5e-3)

    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            hardness_curve("cut", [])
        with pytest.raises(DomainError):
            hardness_curve("cut", [0.4, 0.3])
        with pytest.raises(DomainError):
            hardness_curve("nope", [0.4])


class TestApproxCurve:
    def test_values_match_alpha(self):
        pts = approx_curve("cut", [0.3, 0.4], flatten=False)
        assert pts[0].ratio == pytest.approx(alpha_cut(0.3), abs=1e-15)
        assert pts[1].rho_star == pytest.approx(extremal_rho(0.4))

    def test_flatten_emits_constant(self):
        qs = list(np.linspace(0.3, 0.7, 17))
        pts = approx_curve("2sat", qs, flatten=True)
        vals = {p.ratio for p in pts}
        assert len(vals) == 1
        assert vals.pop() == pytest.approx(min(alpha_2sat(q) for q in qs), abs=1e-15)


def q_grid(q_min: float, q_max: float, step: float = 0.004) -> list[float]:
    count = int(round((q_max - q_min) / step)) + 1
    return [round(q_min + i * step, 12) for i in range(count)]


def hardness_curve_oracle(problem, q_grid, flatten=False):
    """The earlier two-path hardness_curve: a separate 2sat routine that
    evaluates every grid q twice and joins grid and mirrors by position."""
    qs = curves._validate_grid(q_grid)
    if problem == "2sat":
        return _curve_2sat_oracle(qs, flatten)
    raw = [curves._hardness_point(problem, q) for q in qs]
    if not flatten:
        return [CurvePoint(q, v, r, False) for q, (r, v) in zip(qs, raw)]
    vals = np.array([v for _, v in raw])
    if problem == "vc":
        flat = np.minimum.accumulate(vals[::-1])[::-1]
    else:
        flat = vals.copy()
        left = [i for i, q in enumerate(qs) if q <= 0.5]
        right = [i for i, q in enumerate(qs) if q >= 0.5]
        if left:
            seg = vals[left]
            flat[left] = np.minimum.accumulate(seg[::-1])[::-1]
        if right:
            flat[right] = np.minimum.accumulate(vals[right])
    out = []
    for i, (q, (r, v)) in enumerate(zip(qs, raw)):
        clipped = flat[i] < v - 1e-15
        out.append(CurvePoint(q, float(flat[i]), None if clipped else r, clipped))
    return out


def _curve_2sat_oracle(qs, flatten):
    raw = [curves._hardness_point("vc", q) for q in qs]
    if not flatten:
        return [CurvePoint(q, v, r, False) for q, (r, v) in zip(qs, raw)]
    combined: list[float] = []
    pos: dict[float, int] = {}
    mirror_of: list[float] = []
    for q in qs:
        m = 1.0 - q
        for cand in (q, m):
            match = next((c for c in combined if abs(c - cand) <= 1e-12), None)
            if match is None:
                pos[cand] = len(combined)
                combined.append(cand)
            else:
                pos[cand] = pos[match]
        mirror_of.append(m)
    order = np.argsort(combined)
    sorted_q = [combined[i] for i in order]
    sorted_vals = np.array([curves._hardness_point("vc", q)[1] for q in sorted_q])
    vcflat_sorted = np.minimum.accumulate(sorted_vals[::-1])[::-1]
    vcflat = np.empty(len(combined))
    vcflat[order] = vcflat_sorted
    out = []
    for q, m, (r, v) in zip(qs, mirror_of, raw):
        s = min(vcflat[pos[q]], vcflat[pos[m]])
        clamped = min(s, UNCONSTRAINED_2SAT_LEVEL)
        clipped = clamped < v - 1e-15
        out.append(CurvePoint(q, float(clamped), None if clipped else r, clipped))
    return out


def _as_tuples(points):
    return [(p.q, p.ratio, p.rho_star, p.flattened) for p in points]


FIGURE_GRIDS = {"cut": q_grid(0.2, 0.8), "vc": q_grid(0.2, 0.996), "2sat": q_grid(0.3, 0.7)}


@pytest.fixture(scope="module")
def point_cache():
    return {}


@pytest.fixture
def shared_points(point_cache, monkeypatch):
    """Let the curve and its oracle read one evaluation per (problem, q)."""
    point = curves._hardness_point

    def cached(problem, q):
        if (problem, q) not in point_cache:
            point_cache[problem, q] = point(problem, q)
        return point_cache[problem, q]

    monkeypatch.setattr(curves, "_hardness_point", cached)


class TestHardnessCurveOracle:
    @pytest.mark.parametrize("flatten", [False, True])
    @pytest.mark.parametrize("problem", ["cut", "vc", "2sat"])
    def test_figure_grids(self, problem, flatten, shared_points):
        grid = FIGURE_GRIDS[problem]
        assert _as_tuples(hardness_curve(problem, grid, flatten)) == _as_tuples(
            hardness_curve_oracle(problem, grid, flatten))

    @pytest.mark.parametrize("grid", [
        [0.21, 0.33, 0.5, 0.61, 0.62, 0.9],  # mirrors fall off the grid
        [0.55, 0.6, 0.75, 0.83],              # q > 1/2 only
    ])
    @pytest.mark.parametrize("flatten", [False, True])
    @pytest.mark.parametrize("problem", ["cut", "vc", "2sat"])
    def test_off_grid_mirrors_and_upper_half(self, problem, flatten, grid, shared_points):
        assert _as_tuples(hardness_curve(problem, grid, flatten)) == _as_tuples(
            hardness_curve_oracle(problem, grid, flatten))

    def test_flattened_2sat_evaluates_each_q_once(self, monkeypatch):
        calls = []
        point = curves._hardness_point

        def counted(problem, q):
            calls.append(q)
            return point(problem, q)

        monkeypatch.setattr(curves, "_hardness_point", counted)
        chunk = q_grid(0.3, 0.328)
        assert len(chunk) == 8
        hardness_curve("2sat", chunk, flatten=True)
        assert len(calls) == 16 == len(set(calls))
        calls.clear()
        hardness_curve_oracle("2sat", chunk, flatten=True)
        assert len(calls) == 24


class TestHardnessDomainEdges:
    @pytest.mark.parametrize("flatten", [False, True])
    @pytest.mark.parametrize("problem", ["cut", "vc", "2sat"])
    def test_q_near_zero_and_one(self, problem, flatten):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = hardness_curve(problem, [1e-6, 1.0 - 1e-6], flatten)
        for p in pts:
            assert 0.0 <= p.ratio <= 1.0
            if problem == "2sat" and flatten:
                assert p.ratio <= UNCONSTRAINED_2SAT_LEVEL
