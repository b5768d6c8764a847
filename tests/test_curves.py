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
from ccmax.gaussian import gamma_rho, gamma_rho_vec

import curves_oracles as oracles

EPS = float(np.finfo(float).eps)


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
        _, (v,) = minimize_over_rho(lambda q, r: beta_vc(0.6, r), [0.6])
        assert v == pytest.approx(0.944240, abs=1e-3)


class TestMinimizeOverRho:
    def test_analytic_parabola(self):
        # kappa(4/9) = [-0.8, 0); shifted parabola has its minimum inside
        q = 4.0 / 9.0
        (rho_star,), (value,) = minimize_over_rho(lambda q, r: (r + 0.45) ** 2 + 0.3, [q])
        assert rho_star == pytest.approx(-0.45, abs=1e-6)
        assert value == pytest.approx(0.3, abs=1e-10)

    def test_minimum_at_closed_endpoint(self):
        q = 0.25  # kappa = [-1/3, 0); increasing function attains min at lo
        (rho_star,), (value,) = minimize_over_rho(lambda q, r: r + 1.0, [q])
        assert rho_star == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_cut_at_half(self):
        (rho_star,), (value,) = minimize_over_rho(lambda q, r: beta_cut(0.5, r), [0.5])
        assert rho_star == pytest.approx(-0.689, abs=1e-3)
        assert value == pytest.approx(0.878567, abs=1e-3)

    def test_cut_at_worst_q_hits_extremal_rho(self):
        q = 0.364
        (rho_star,), (value,) = minimize_over_rho(lambda _, r: beta_cut(q, r), [q])
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

    def test_rho_bar_rejects_configurations_no_unit_vectors_realize(self):
        # (rho - mu1 mu2) / sqrt(d2) = 1.53 was clipped to 1
        with pytest.raises(DomainError, match="realized by no unit vectors"):
            rho_bar(0.5, -0.5, 0.9)


# mu's of the pair-law properties: |mu| = 1 and within 1e-12 of it
PAIR_MUS = (st.floats(-1.0, 1.0)
            | st.sampled_from([1.0, -1.0, 1.0 - 1e-16, -1.0 + 1e-16])
            | st.floats(0.0, 1e-12).map(lambda d: 1.0 - d)
            | st.floats(0.0, 1e-12).map(lambda d: d - 1.0))


class TestPairLawMatchesOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(PAIR_MUS, PAIR_MUS,
                              st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                    min_size=1, max_size=40))
    def test_conf_ratio_cut_within_the_numerators_rounding(self, rows):
        # Both numerators compute 2 - 4 G - mu1 - mu2 from the same G (the same rho_bar
        # where d2 > 1e-24; mu1 mu2 and the Frechet edge value where d2 = 0): the oracle
        # in three roundings of sizes below 4, 2 and 4 (<= 6u, u = eps/2), the new one in
        # four, 4G + mu1 <= 2 - mu1, then <= 2, <= 1 and 1 - E <= 2 (<= 7u).  Dividing by
        # the same 1 - rho adds a rounding of each quotient.  Where 0 < d2 <= 1e-24 the
        # oracle read G at rho_bar = 0: both G's lie in the same Frechet interval.
        m1, m2, t = (np.array(c) for c in zip(*rows))
        lo, hi = curves._rho_range(m1, m2)
        rho = np.clip(lo * (1.0 - t) + hi * t, -1.0, 1.0)
        got, want = curves._conf_ratio_cut(m1, m2, rho), oracles.conf_ratio_cut(m1, m2, rho)
        x, y = (1.0 - m1) / 2.0, (1.0 - m2) / 2.0
        d2 = (1.0 - m1 * m1) * (1.0 - m2 * m2)
        frechet = np.where((d2 > 0.0) & (d2 <= 1e-24),
                           4.0 * np.minimum(np.minimum(x, y), np.minimum(1.0 - x, 1.0 - y)), 0.0)
        live = 1.0 - rho >= 1e-12  # both rules give 1.0 elsewhere
        bound = ((6.5 * EPS + frechet) / np.where(live, 1.0 - rho, 1.0)
                 + 0.5 * EPS * (np.abs(got) + np.abs(want)))
        assert np.all(np.abs(got - want) <= np.where(live, bound, 0.0))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(PAIR_MUS, PAIR_MUS, st.floats(-1.0, 1.0))
    def test_triangle_violation_zero_inside_and_near_the_oracle_outside(self, m1, m2, rho):
        # outside, each side rounds three sums: the oracle's |.| < 2, 3, 2 (<= 7u), the
        # segment's |mu1 +- mu2| < 2, then -1 +- that and lo - rho or rho - hi (<= 5u)
        lo, hi = curves._rho_range(m1, m2)
        got = triangle_violation(m1, m2, rho)
        if lo <= rho <= hi:
            assert got == 0.0
        else:
            assert abs(got - oracles.triangle_violation(m1, m2, rho)) <= 6.0 * EPS
        for end in (lo, hi):
            if -1.0 <= end <= 1.0 and lo <= hi:
                assert triangle_violation(m1, m2, end) == 0.0


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

    def test_hardness_value_rejects_unknown_problem(self):
        # every name but "cut" used to read as vc
        with pytest.raises(DomainError, match="unknown problem 'nope'"):
            hardness_value("nope", 0.4)


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


def _as_tuples(points):
    return [(p.q, p.ratio, p.rho_star, p.flattened) for p in points]


FIGURE_GRIDS = {"cut": q_grid(0.2, 0.8), "vc": q_grid(0.2, 0.996), "2sat": q_grid(0.3, 0.7)}


@pytest.fixture(scope="module")
def point_cache():
    return {}


@pytest.fixture
def shared_points(point_cache, monkeypatch):
    """Let the oracle read one scalar evaluation per (problem, q) across tests."""
    point = oracles.hardness_point

    def cached(problem, q):
        if (problem, q) not in point_cache:
            point_cache[problem, q] = point(problem, q)
        return point_cache[problem, q]

    monkeypatch.setattr(oracles, "hardness_point", cached)


class TestHardnessCurveOracle:
    """The lane curve against the scalar two-path oracle, compared with ==."""

    @pytest.mark.parametrize("flatten", [False, True])
    @pytest.mark.parametrize("problem", ["cut", "vc", "2sat"])
    def test_figure_grids(self, problem, flatten, shared_points):
        grid = FIGURE_GRIDS[problem]
        assert _as_tuples(hardness_curve(problem, grid, flatten)) == _as_tuples(
            oracles.hardness_curve(problem, grid, flatten))

    @pytest.mark.parametrize("grid", [
        [0.21, 0.33, 0.5, 0.61, 0.62, 0.9],  # mirrors fall off the grid
        [0.55, 0.6, 0.75, 0.83],              # q > 1/2 only
    ])
    @pytest.mark.parametrize("flatten", [False, True])
    @pytest.mark.parametrize("problem", ["cut", "vc", "2sat"])
    def test_off_grid_mirrors_and_upper_half(self, problem, flatten, grid, shared_points):
        assert _as_tuples(hardness_curve(problem, grid, flatten)) == _as_tuples(
            oracles.hardness_curve(problem, grid, flatten))

    def test_flattened_2sat_evaluates_each_q_once(self, monkeypatch):
        # the curve hands every q to one minimize_over_rho call; the oracle
        # evaluates point by point
        batches = []
        minimize = curves.minimize_over_rho

        def recorded(f, qs):
            batches.append(list(qs))
            return minimize(f, qs)

        monkeypatch.setattr(curves, "minimize_over_rho", recorded)
        chunk = q_grid(0.3, 0.328)
        assert len(chunk) == 8
        hardness_curve("2sat", chunk, flatten=True)
        assert len(batches) == 1
        assert len(batches[0]) == 16 == len(set(batches[0]))
        calls = []
        point = oracles.hardness_point

        def counted(problem, q):
            calls.append(q)
            return point(problem, q)

        monkeypatch.setattr(oracles, "hardness_point", counted)
        oracles.hardness_curve("2sat", chunk, flatten=True)
        assert len(calls) == 24

    def test_lane_blocks(self, monkeypatch):
        # blocks of 3 lanes give what one block gives, and what q-by-q gives
        grid = [0.05, 0.2, 0.37, 0.5, 0.63, 0.8, 0.95]
        whole = minimize_over_rho(curves._beta_cut, grid)
        monkeypatch.setattr(curves, "_LANE_BLOCK", 3)
        blocked = minimize_over_rho(curves._beta_cut, grid)
        single = [oracles.hardness_point("cut", q) for q in grid]
        assert [list(map(float.hex, col)) for col in whole] == [
            list(map(float.hex, col)) for col in blocked] == [
            [float(r).hex() for r, _ in single], [float(v).hex() for _, v in single]]


SCAN_GRIDS = {
    "one": [0.37],
    "half": [0.5],  # kappa(1/2) is open at its left end
    "eight": q_grid(0.3, 0.328),
    "extreme": [1e-12, 1e-10, 2e-9, 0.5, 1 - 1e-10],  # kappa(q) short of -1e-9, and not
    "mirrored": curves._with_mirrors([0.21, 0.33, 0.5, 0.61, 0.62, 0.9])[0],
}


class TestBatchedScan:
    """A block's scans in one call against one scan call per q, compared with ==."""

    @pytest.mark.parametrize("grid", SCAN_GRIDS.values(), ids=SCAN_GRIDS.keys())
    @pytest.mark.parametrize("beta", [curves._beta_cut, curves._beta_vc], ids=["cut", "vc"])
    def test_matches_per_q_scans(self, beta, grid):
        got = minimize_over_rho(beta, grid)
        want = oracles.minimize_over_rho_per_q(beta, grid)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]

    def test_more_q_than_one_block(self):
        grid = np.linspace(0.01, 0.99, curves._LANE_BLOCK + 9).tolist()
        got = minimize_over_rho(curves._beta_vc, grid)
        want = oracles.minimize_over_rho_per_q(curves._beta_vc, grid)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]

    def test_one_call_per_block_scan(self):
        sizes = []

        def f(q, r):
            sizes.append(np.broadcast(q, r).size)
            return curves._beta_vc(q, r)

        minimize_over_rho(f, np.linspace(0.01, 0.99, curves._LANE_BLOCK + 9).tolist())
        block = curves._LANE_BLOCK * curves._SCAN_POINTS
        assert max(sizes) == block and sizes.count(block) == 1
        assert sizes.count(9 * curves._SCAN_POINTS) == 1


def _mirror_grids():
    """Strictly increasing grids in (0, 1) with points within 1e-12 of
    each other and of mirrors 1 - q."""
    base = st.floats(1e-3, 1 - 1e-3)
    near = st.tuples(base, st.sampled_from([0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, 3e-16]),
                     st.booleans()).map(lambda t: (1.0 - t[0] if t[2] else t[0]) + t[1])
    return st.lists(base | near, min_size=1, max_size=40).map(
        lambda xs: sorted({x for x in xs if 0.0 < x < 1.0})).filter(bool)


class TestWithMirrors:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_mirror_grids())
    def test_matches_linear_scan(self, qs):
        assert curves._with_mirrors(qs) == oracles.with_mirrors(qs)

    def test_first_match_wins(self):
        # 0.7 - 5e-13 and 0.7 + 4e-13 both lie within 1e-12 of 1 - 0.3
        qs = [0.3, 0.7 - 5e-13, 0.7 + 4e-13]
        assert curves._with_mirrors(qs) == (qs, [1, 0, 0])
        # an appended mirror serves the later q within 1e-12 of it
        qs = [0.3, 0.3 + 4e-13, 0.3 + 1.5e-12]
        assert curves._with_mirrors(qs) == (qs + [1 - 0.3, 1 - qs[2]], [3, 3, 4])


# one-element calls of the batched formulas give the same bits as element j
FINITE = dict(allow_nan=False, allow_infinity=False)


def _same_bits(batched, single):
    return [float(v).hex() for v in batched] == [float(v).hex() for v in single]


class TestBatchedBitForBit:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0, **FINITE) | st.sampled_from([-1.0, 0.0, 1.0]),
                              st.floats(0.0, 1.0, **FINITE) | st.sampled_from([0.0, 1.0]),
                              st.floats(0.0, 1.0, **FINITE)), min_size=1, max_size=40))
    def test_gamma_rho_vec(self, rows):
        rho, x, y = (np.array(c) for c in zip(*rows))
        batched = gamma_rho_vec(rho, x, y)
        assert _same_bits(batched, [gamma_rho_vec(*row) for row in rows])
        assert _same_bits(batched, [gamma_rho_vec(*map(np.array, ([r], [a], [b])))[0]
                                    for r, a, b in rows])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-6, 1 - 1e-6), st.floats(0.0, 1.0, exclude_max=True)),
                    min_size=1, max_size=40))
    def test_beta(self, rows):
        # rho = lo + t (0 - lo) sweeps kappa(q) from its left end
        q = np.array([r[0] for r in rows])
        rho = np.array([curves.extremal_rho(a) * (1.0 - t) for a, t in rows])
        for beta in (curves._beta_cut, curves._beta_vc):
            batched = beta(q, rho)
            assert _same_bits(batched, [beta(a, r) for a, r in zip(q.tolist(), rho.tolist())])
            # the scan form: one float q over an array of rhos
            q0 = q.tolist()[0]
            assert _same_bits(beta(q0, rho), [beta(q0, r) for r in rho.tolist()])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0, **FINITE) | st.sampled_from([-1.0, 1.0]),
                              st.floats(-1.0, 1.0, **FINITE) | st.sampled_from([-1.0, 1.0]),
                              st.floats(0.0, 1.0)), min_size=1, max_size=40))
    def test_conf_ratio_cut(self, rows):
        m1, m2, t = (np.array(c) for c in zip(*rows))
        lo, hi = curves._rho_range(m1, m2)
        rho = lo + (hi - lo) * t
        batched = curves._conf_ratio_cut(m1, m2, rho)
        assert _same_bits(batched, [curves._conf_ratio_cut(a, b, r) for a, b, r in
                                    zip(m1.tolist(), m2.tolist(), rho.tolist())])


def _objective(p, x):
    """By kind: a tilted double well, a staircase with many ties, or a
    kinked sum of distances; every operation is exactly rounded."""
    kind, u, v, w = p
    well = (x - u) * (x - u) * (x - v) * (x - v) + w * x
    stairs = np.floor(x * w * 10.0) % 3.0
    kinks = np.abs(x - u) + 0.5 * np.abs(x - v) - w * x
    return np.where(kind == 0, well, np.where(kind == 1, stairs, kinks))


PARAMS = st.tuples(st.sampled_from([0, 1, 2]), st.floats(-2, 2), st.floats(-2, 2),
                   st.floats(-2, 2))
# a tol of None stands for the bracket's own width: the loop must not step
LANE = st.tuples(PARAMS, st.floats(-3, 3), st.floats(-3, 3),
                 st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.1, 10.0, None])
                 | st.floats(1e-12, 1.0)).map(
    lambda t: t if t[3] is not None else (*t[:3], t[2] - t[1]))


def _in_polytope(m1, m2, t):
    """(mu1, mu2, rho) with rho a share t along its feasible segment."""
    lo, hi = curves._rho_range(m1, m2)
    return m1, m2, lo * (1.0 - t) + hi * t


POLYTOPE_POINTS = st.builds(_in_polytope, st.floats(-0.98, 0.98), st.floats(-0.98, 0.98),
                            st.floats(0.0, 1.0))


def _landscape(p, m1, m2, r):
    """By kind: a tilted plane (its minimum on an edge), a valley that
    takes coordinate descent a few dozen sweeps, a staircase of ties,
    or (kind 3) a valley narrow enough to use all 200 sweeps."""
    kind, u, v, w = p
    if kind == 0:
        return u * m1 + v * m2 + w * r
    if kind == 2:
        return np.floor((m1 + w * m2 + r) * 5.0)
    width = 10.0 if kind == 1 else 1e3
    return width * (m1 - m2) * (m1 - m2) + (m1 + m2 - u) * (m1 + m2 - u) + (r - v) * (r - v)


class TestGoldenLanes:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(LANE, min_size=1, max_size=12))
    def test_lanes_match_scalar_loop(self, lanes):
        params = [p for p, *_ in lanes]
        a, b, tol = (np.array(c) for c in zip(*[(lo, hi, t) for _, lo, hi, t in lanes]))
        columns = [np.array(c) for c in zip(*params)]

        def f(k, x):
            return _objective([c[k] for c in columns], x)

        m, fm = curves._golden_lanes(f, a, b, tol)
        for j, (p, lo, hi, t) in enumerate(lanes):
            pj = [np.float64(c[j]) for c in columns]
            om, ofm = oracles.golden_section(lambda x: _objective(pj, x), lo, hi, t)
            assert (float(m[j]).hex(), float(fm[j]).hex()) == (float(om).hex(), float(ofm).hex())

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(PARAMS, st.lists(POLYTOPE_POINTS, min_size=1, max_size=3))
    def test_descent_lanes_match_scalar_descent(self, p, starts):
        m1, m2, r = (np.array(c) for c in zip(*starts))
        got = curves._descend(lambda *x: _landscape(p, *x), m1, m2, r)
        for j, start in enumerate(starts):
            want = oracles.descend(lambda *x: _landscape(p, *x), *start)
            assert [float(x[j]).hex() for x in got] == [float(x).hex() for x in want]

    def test_descent_lanes_stop_at_the_sweep_cap(self):
        starts = [(0.9, -0.5, 0.0), (-0.8, 0.7, -0.3), (0.1, 0.1, -0.5)]
        p = (3, 0.3, 0.1, 0.0)
        m1, m2, r = (np.array(c) for c in zip(*starts))
        got = curves._descend(lambda *x: _landscape(p, *x), m1, m2, r)
        want = [oracles.descend(lambda *x: _landscape(p, *x), *start) for start in starts]
        assert [[float(v).hex() for v in x] for x in got] == [
            [float(w[i]).hex() for w in want] for i in range(4)]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(PARAMS, st.lists(st.floats(1e-3, 1 - 1e-3) | st.just(0.5), min_size=1, max_size=6))
    def test_minimize_over_rho_matches_one_q_at_a_time(self, p, qs):
        # flat and staircase families tie the refined point with the scan
        # and the closed endpoint: the first least value must win
        kind, u, v, w = p

        def f(q, r):
            if kind == 0:
                return 0.0 * r + w
            if kind == 1:
                return np.floor(r * w * 10.0) + u * q
            return (r - u * q) * (r - u * q) * (r - v) * (r - v) + w * r

        qs = sorted(set(qs))
        got = minimize_over_rho(f, qs)
        want = [oracles.minimize_over_rho(lambda r: f(q, r), q) for q in qs]
        assert [[float(x).hex() for x in col] for col in got] == [
            [float(r).hex() for r, _ in want], [float(v).hex() for _, v in want]]

    @pytest.mark.parametrize("fn", [alpha_cut, alpha_2sat])
    def test_find_local_min_q_is_the_scalar_loop(self, fn):
        assert find_local_min_q(fn, 0.3, 0.45, tol=1e-7) == oracles.golden_section(
            fn, 0.3, 0.45, 1e-7)

    def test_alpha_formulas_match_float_forms(self):
        qs = np.linspace(0.001, 0.999, 999)
        for curve, fn, oracle in (("cut", alpha_cut, oracles.alpha_cut),
                                  ("2sat", alpha_2sat, oracles.alpha_2sat)):
            want = [oracle(q) for q in qs.tolist()]
            assert [fn(q) for q in qs.tolist()] == want
            assert [p.ratio for p in approx_curve(curve, qs.tolist())] == want

    @pytest.mark.parametrize("grid_density", [20, 32])
    def test_full_conf_minima_match_scalar_descent(self, grid_density):
        minima = curves._full_conf_minima(grid_density)
        assert len(minima) == 18
        assert minima == oracles.full_conf_minima(grid_density)


class TestHardnessDomainEdges:
    @pytest.mark.parametrize("q", [1e-10, 1e-12, 1 - 1e-10])
    @pytest.mark.parametrize("problem", ["cut", "vc"])
    def test_rho_star_stays_in_kappa(self, problem, q):
        # kappa(1e-10) = [-1.0000000001e-10, 0) does not reach -1e-9
        (p,) = hardness_curve(problem, [q])
        assert kappa(q).lo <= p.rho_star < 0.0
        beta = beta_cut if problem == "cut" else beta_vc
        assert float(beta(q, p.rho_star)) == p.ratio == hardness_value(problem, q)
        # The numerator 2q' - 2G(q') (cut, q' = min(q, 1 - q), exact) or 2q - G(q)
        # (vc) reads its level exactly and each G to within `OWEN_ERROR_BOUND` =
        # 11 eps, so it errs by at most 22 eps (cut) or 11 eps (vc), plus its own
        # rounding, over a denominator of at least 2q(1 - q) (cut) or q (vc).
        # 16 eps / (q(1 - q)) leaves room for the quantile's few ulps.
        assert p.ratio <= 1.0 + 16.0 * EPS / (q * (1.0 - q))

    @pytest.mark.parametrize("q", [1e-10, 1e-12, 1 - 1e-10])
    @pytest.mark.parametrize("problem", ["cut", "vc"])
    def test_ratio_at_most_one(self, problem, q):
        # the infimum lies about q below 1, so the numerator may lose no digit to
        # cancellation
        assert hardness_value(problem, q) <= 1.0

    @pytest.mark.parametrize("q", [0.01, 0.2, 0.365, 0.5, 0.64, 0.9, 0.99])
    def test_numerators_match_the_one_minus_g_forms(self, q):
        # G(1 - q) = 1 - 2q + G(q) is exact, so the forms agree to rounding
        rhos = np.linspace(kappa(q).lo + (q == 0.5) * 1e-6, -1e-3, 9)
        g, g1 = gamma_rho_vec(rhos, q, q), gamma_rho_vec(rhos, 1 - q, 1 - q)
        assert np.allclose(beta_cut(q, rhos), (1 - g - g1) / (2 * (q - q * q) * (1 - rhos)),
                           rtol=0, atol=1e-12)
        assert np.allclose(beta_vc(q, rhos), (1 - g1) / (q * (1 + (1 - q) * (1 - rhos))),
                           rtol=0, atol=1e-12)
        qq, rb = min(q, 1 - q), extremal_rho(q)
        assert alpha_2sat(q) == pytest.approx(
            (1 - gamma_rho(rb, 1 - qq, 1 - qq)) / (2 * qq), rel=0, abs=1e-12)

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
