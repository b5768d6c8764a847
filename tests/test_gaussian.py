"""Tests for the normal / bivariate-normal kernel.

Expensive oracle values (40-digit mpmath quadrature) are frozen as
literals; cheap oracles (bisection, tail brackets, finite grids) run
live so they stay independent of the implementation path.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import erfc

import gaussian_oracles as oracles
from ccmax.errors import DomainError
from ccmax.gaussian import (
    gamma_rho,
    gamma_rho_vec,
    std_normal_cdf,
    std_normal_inv,
    std_normal_inv_vec,
    std_normal_pdf,
    stream,
    stream_uniforms,
)

# mpmath (dps=40): exp(-1/2)/sqrt(2*pi)
PDF_AT_1 = 0.24197072451914335
# mpmath (dps=40): Phi(1.959963985)
CDF_AT_Z975 = 0.97500000002688156
# mpmath (dps=40): 2-D tensor quadrature of the bivariate density
GAMMA_M05_03_04 = 0.053484529063614413
# mpmath (dps=50): Phi^{-1}(1 - 2^-k), keyed by k
INV_UPPER_TAIL = {
    20: 4.7630010342678135,
    30: 6.009353565530744,
    40: 7.047700256664409,
    50: 7.956038125481531,
}

# mpmath (dps=40): Gamma_rho(x, y) keyed by (rho, x, y), at the hard points of
# Owen's formula: h = 0 (x = 1/2), h = k = 0, h = -k (y = 1 - x), 1 - |rho|
# in {1e-6, 1e-8, 1e-10} at both signs, and x = 1e-6.  Quadrature over theta
# = asin(rho) and over the conditional law Phi((k - rho t) / sqrt(1 - rho^2))
# agree to 1e-41 at every point.
GAMMA_HARD = {
    (0.3, 0.5, 0.2): 0.13364733985253074,
    (-0.7, 0.5, 0.9): 0.4053130638939769,
    (1 - 1e-8, 0.5, 0.5): 0.49997749209202075,
    (0.4, 0.3, 0.7): 0.25610010056171667,
    (-0.9, 0.8, 0.2): 0.050067562058861946,
    (1 - 1e-6, 0.3, 0.3): 0.29980383543693734,
    (1 - 1e-8, 0.3, 0.3): 0.29998038354481804,
    (1 - 1e-10, 0.3, 0.3): 0.29999803835440675,
    (-(1 - 1e-6), 0.3, 0.7): 0.00019616456306264008,
    (-(1 - 1e-8), 0.3, 0.7): 1.9616455181924935e-05,
    (-(1 - 1e-10), 0.3, 0.7): 1.9616455932194363e-06,
    (-1 + 1.6e-10, 0.497, 0.497): 0.0,  # below 1e-40
    (0.5, 1e-6, 0.3): 9.874416305754355e-07,
    (-0.5, 1e-6, 0.999): 7.603514413054294e-07,
    (0.9, 1e-6, 1e-6): 2.5672167838891214e-07,
}

EPS = np.finfo(float).eps

# levels and correlations on and next to gamma_rho_vec's edge cases
EDGE_LEVELS = [0.0, -0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53]
EDGE_RHOS = [1.0, -1.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 0.0, -0.0]

# Acklam's rational approximation to Phi^{-1}, the seed of the package's
# quantile before it called scipy's ndtri.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _acklam_seed(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    p_low = 0.02425
    lo = p < p_low
    hi = p > 1.0 - p_low
    mid = ~(lo | hi)
    A, B, C, D = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]
        den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0
        out[mid] = q * num / den
    for mask, tail, sign in ((lo, p[lo], 1.0), (hi, 1.0 - p[hi], -1.0)):
        if np.any(mask):
            q = np.sqrt(-2.0 * np.log(tail))
            num = ((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5]
            den = (((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0
            out[mask] = sign * num / den
    return out


def std_normal_inv_oracle(p) -> np.ndarray:
    """The package's former Phi^{-1}: Acklam's seed and two Newton steps."""
    p = np.asarray(p, dtype=float)
    x = _acklam_seed(p)
    for _ in range(2):
        err = 0.5 * erfc(x / -math.sqrt(2.0)) - p
        x = x - err / ((1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x))
    return x


class TestPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.3])
    def test_symmetry(self, x):
        assert std_normal_pdf(x) == std_normal_pdf(-x)

    def test_against_high_precision_value(self):
        assert std_normal_pdf(1.0) == pytest.approx(PDF_AT_1, abs=1e-15)

    def test_positive(self):
        for x in np.linspace(-10, 10, 41):
            assert std_normal_pdf(float(x)) > 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_pdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_pdf(float("inf"))


class TestCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_quantile_point(self):
        assert std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
        assert std_normal_cdf(1.959963985) == pytest.approx(CDF_AT_Z975, abs=1e-14)

    def test_far_tail_bracket(self):
        # phi(8)*(1/8 - 1/8^3) < Phi(-8) < phi(8)/8, both below 1e-14.
        val = std_normal_cdf(-8.0)
        hi = std_normal_pdf(8.0) / 8.0
        lo = std_normal_pdf(8.0) * (1.0 / 8.0 - 1.0 / 512.0)
        assert lo < val < hi
        assert val < 1e-14

    def test_monotone_and_complement(self):
        xs = np.linspace(-8, 8, 201)
        vals = [std_normal_cdf(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for x in xs:
            assert abs(std_normal_cdf(float(x)) + std_normal_cdf(float(-x)) - 1.0) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("-inf"))


class TestInv:
    def test_median(self):
        assert std_normal_inv(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_grid(self):
        for x in np.arange(-3.0, 3.01, 0.25):
            assert std_normal_inv(std_normal_cdf(float(x))) == pytest.approx(float(x), abs=1e-9)

    def test_round_trip_wide(self):
        # |Phi(Phi^-1(p)) - p| <= 1e-10 on [-6, 6].  The x-space trip is
        # limited by the representation of p: near x = +6 the tail of p
        # is stored to ulp(1) ~ 2.2e-16, so no inverse can recover x
        # better than ulp(1)/pdf(x).  Assert 1e-9 or that floor.
        for x in np.linspace(-6.0, 6.0, 49):
            p = std_normal_cdf(float(x))
            floor = 4.0 * 2.3e-16 / std_normal_pdf(float(x))
            assert std_normal_inv(p) == pytest.approx(float(x), abs=max(1e-9, floor))
            assert abs(std_normal_cdf(std_normal_inv(p)) - p) <= 1e-10
        for x in np.linspace(-6.0, 5.4, 39):
            p = std_normal_cdf(float(x))
            assert std_normal_inv(p) == pytest.approx(float(x), abs=1e-9)

    def test_against_bisection_oracle(self):
        # Independent oracle: bisect std_normal_cdf to 1e-12.
        target = 0.975
        lo, hi = -10.0, 10.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if std_normal_cdf(mid) < target:
                lo = mid
            else:
                hi = mid
        assert std_normal_inv(target) == pytest.approx(0.5 * (lo + hi), abs=1e-8)
        assert std_normal_inv(target) == pytest.approx(1.959963985, abs=1e-8)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError, match="p <= 0"):
            std_normal_inv(0.0)
        with pytest.raises(DomainError, match="p >= 1"):
            std_normal_inv(1.0)
        with pytest.raises(DomainError, match="0 < p < 1, got nan"):
            std_normal_inv(math.nan)
        # NaN fails both p <= 0 and p >= 1, so the array check is written as not 0 < p < 1
        for p in ([0.3, math.nan], [[math.nan]], math.nan):
            with pytest.raises(DomainError, match=r"0 < p < 1, got np\.float64\(nan\)"):
                std_normal_inv_vec(np.asarray(p))

    def test_vectorized_matches_scalar(self):
        ps = np.linspace(0.001, 0.999, 57)
        vec = std_normal_inv_vec(ps)
        for p, v in zip(ps, vec):
            assert std_normal_inv(float(p)) == v

    @pytest.mark.parametrize("k", sorted(INV_UPPER_TAIL))
    def test_upper_tail_against_mpmath(self, k):
        assert std_normal_inv(1.0 - 2.0**-k) == pytest.approx(INV_UPPER_TAIL[k], abs=1e-14)

    @settings(max_examples=300, derandomize=True)
    @given(st.one_of(st.floats(1e-300, 1.0 - 1e-4), st.floats(-690.0, -0.7).map(math.exp)))
    def test_matches_acklam_newton_oracle(self, p):
        # The oracle stops improving x where its residual Phi(x) - p,
        # computed to about eps * p, no longer moves it: an error of
        # eps * p / phi(x) on top of the rounding of x itself.
        x = float(std_normal_inv_vec(p))
        tol = 8.0 * EPS * (abs(x) + p / std_normal_pdf(x))
        assert abs(x - float(std_normal_inv_oracle(p))) <= tol


class TestStream:
    def test_is_the_philox_pair_stream(self):
        for seed in (0, 17, -1, -5, 2**40 + 7, 2**63 - 1):
            for index in (0, 3):
                want = np.random.Generator(np.random.Philox(key=[seed, index])).random(4)
                assert np.array_equal(stream(seed, index).random(4), want)
            if seed >= 0:  # the key random_instance used to pass
                want = np.random.Generator(np.random.Philox(key=seed)).random(4)
                assert np.array_equal(stream(seed).random(4), want)

    def test_seeds_above_2_63_keep_their_own_streams(self):
        # Philox(key=[seed, index]) rounds these seeds through float64
        draws = {tuple(stream(seed).random(4)) for seed in (2**63, 2**63 + 1, 2**64 - 1)}
        assert len(draws) == 3


class TestStreamUniforms:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.one_of(st.sampled_from([-1, -17, 0, 2**63, 2**64 + 5, 3**90, -(2**70)]),
                     st.integers(-(2**130), 2**130)),
           st.lists(st.one_of(st.integers(0, 500), st.integers(2**63 - 2, 2**64 - 1)),
                    max_size=12),
           st.integers(0, 40))
    def test_rows_are_the_streams_bit_for_bit(self, seed, indices, size):
        # seeds past 2^64 and negative ones wrap to seed mod 2^64; indices
        # reach the largest key word
        got = stream_uniforms(seed, indices, size)
        assert got.shape == (len(indices), size)
        for row, t in zip(got, indices):
            assert row.tobytes() == stream(seed, t).random(size).tobytes()

    def test_three_hundred_rounds_of_one_seed(self):
        want = np.stack([stream(17, t).random(61) for t in range(300)])
        assert stream_uniforms(17, range(300), 61).tobytes() == want.tobytes()


class TestGammaRho:
    def test_independence(self):
        assert gamma_rho(0.0, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.4, 0.99])
    def test_marginal_boundary(self, rho):
        assert gamma_rho(rho, 0.35, 1.0) == 0.35
        assert gamma_rho(rho, 1.0, 0.8) == 0.8
        assert gamma_rho(rho, 0.0, 0.6) == 0.0
        assert gamma_rho(rho, 0.6, 0.0) == 0.0
        assert gamma_rho(rho, 1.0, 1.0) == 1.0

    def test_antithetic(self):
        assert gamma_rho(-1.0, 0.6, 0.7) == pytest.approx(0.3, abs=1e-12)
        assert gamma_rho(-1.0, 0.2, 0.3) == 0.0

    def test_comonotone(self):
        assert gamma_rho(1.0, 0.6, 0.7) == pytest.approx(0.6, abs=1e-12)

    def test_closed_forms_exact(self):
        for x in (0.1, 0.37, 0.5, 0.93):
            for y in (0.2, 0.5, 0.81):
                assert abs(gamma_rho(0.0, x, y) - x * y) <= 1e-12
                assert abs(gamma_rho(1.0, x, y) - min(x, y)) <= 1e-12
                assert abs(gamma_rho(-1.0, x, y) - max(0.0, x + y - 1.0)) <= 1e-12

    def test_against_frozen_double_integral(self):
        assert gamma_rho(-0.5, 0.3, 0.4) == pytest.approx(GAMMA_M05_03_04, abs=1e-8)
        # the quadrature does far better than the documented tolerance
        assert gamma_rho(-0.5, 0.3, 0.4) == pytest.approx(GAMMA_M05_03_04, abs=1e-12)

    def test_half_half_closed_form(self):
        # Gamma_rho(1/2, 1/2) = 1/4 + asin(rho) / (2*pi)
        for rho in (-0.999, -0.5, 0.123, 0.9, 0.9999):
            expect = 0.25 + math.asin(rho) / (2 * math.pi)
            assert gamma_rho(rho, 0.5, 0.5) == pytest.approx(expect, abs=1e-13)

    def test_reflection_identity_grid(self):
        # Gamma_rho(x, y) = Gamma_rho(1-x, 1-y) - 1 + x + y on a 10x10x9 grid
        xs = np.linspace(0.05, 0.95, 10)
        rhos = np.linspace(-0.99, 0.99, 9)
        worst = 0.0
        for rho in rhos:
            for x in xs:
                for y in xs:
                    a = gamma_rho(float(rho), float(x), float(y))
                    b = gamma_rho(float(rho), float(1 - x), float(1 - y)) - 1 + x + y
                    worst = max(worst, abs(a - b))
        assert worst <= 1e-9

    def test_monotone_in_rho(self):
        rhos = np.linspace(-0.99, 0.99, 67)
        for x, y in [(0.2, 0.6), (0.5, 0.5), (0.85, 0.1)]:
            vals = gamma_rho_vec(rhos, x, y)
            assert np.all(np.diff(vals) >= -1e-13)

    @settings(max_examples=200, derandomize=True)
    @given(
        rho=st.floats(-1.0, 1.0),
        x=st.floats(0.0, 1.0),
        y=st.floats(0.0, 1.0),
    )
    def test_frechet_bounds_and_symmetry(self, rho, x, y):
        v = gamma_rho(rho, x, y)
        assert max(0.0, x + y - 1.0) - 1e-12 <= v <= min(x, y) + 1e-12
        assert v == gamma_rho(rho, y, x)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        rhos = rng.uniform(-1, 1, 25)
        xs = rng.uniform(0, 1, 25)
        ys = rng.uniform(0, 1, 25)
        vec = gamma_rho_vec(rhos, xs, ys)
        for r, x, y, v in zip(rhos, xs, ys, vec):
            assert gamma_rho(float(r), float(x), float(y)) == v

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0) | st.sampled_from(EDGE_RHOS),
                              st.floats(0.0, 1.0) | st.sampled_from(EDGE_LEVELS),
                              st.floats(0.0, 1.0) | st.sampled_from(EDGE_LEVELS)),
                    min_size=1, max_size=12))
    def test_frechet_edges_match_branch_oracle_bit_for_bit(self, triples):
        rho, x, y = np.array(triples).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # edge lanes must not warn either
            got, want = gamma_rho_vec(rho, x, y), oracles.gamma_rho_branches(rho, x, y)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=300, derandomize=True)
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0) | st.sampled_from(EDGE_RHOS + [math.nan]),
                              st.floats(0.0, 1.0) | st.sampled_from(EDGE_LEVELS + [0.5]),
                              st.floats(0.0, 1.0)),
                    min_size=1, max_size=12))
    def test_diagonal_matches_two_t_formula_bit_for_bit(self, triples):
        # equal levels take one T term; the oracle takes both, and beta
        rho, x, y = np.array(triples).T
        cases = [
            (rho[0], x[0], x[0]),                        # scalars
            (rho, x, x.copy()),                          # equal values, two arrays
            (rho[:, None], x[None, :], x),               # x and y broadcast differently
            (rho, x[:1], np.full(rho.size, x[0])),       # one level against a full row
            (rho[:, None], x[None, :], y[None, :]),      # off the diagonal
        ]
        for args in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, want = gamma_rho_vec(*args), oracles.gamma_rho_two_t(*args)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("rho, x, y", list(GAMMA_HARD))
    def test_hard_points_against_mpmath(self, rho, x, y):
        # plus 2 eps for Phi^{-1}'s few ulps in h and k and the literal's rounding
        tol = oracles.OWEN_ERROR_BOUND + 2.0 * EPS
        assert abs(gamma_rho(rho, x, y) - GAMMA_HARD[(rho, x, y)]) <= tol

    @settings(max_examples=300, derandomize=True)
    @given(
        rho=st.floats(-(1.0 - 1e-4), 1.0 - 1e-4),
        x=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    st.sampled_from([0.5, 1e-6])),
        y=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    st.sampled_from([0.5, 1e-6]), st.just("1 - x")),
    )
    def test_matches_quadrature_oracle(self, rho, x, y):
        # the former 96-node rule agrees to the bound derived for both methods
        if y == "1 - x":
            y = 1.0 - x
            assume(y < 1.0)
        assert abs(gamma_rho(rho, x, y) - oracles.gamma_rho_quad(rho, x, y)) \
            <= oracles.agreement_bound(rho)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            gamma_rho(1.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            gamma_rho(0.0, -0.1, 0.5)
        with pytest.raises(DomainError):
            gamma_rho(0.0, 0.5, 1.1)
        with pytest.raises(DomainError):
            gamma_rho(float("nan"), 0.5, 0.5)
