"""The package's former orthant probability, kept as an oracle for `ccmax.gaussian`.

`gamma_rho_branches` is `gamma_rho_vec` as it was written before its
edge cases became its Frechet bounds: one masked branch per case.
`bvn_two_t` is Owen's general formula with both T terms and beta, as
`gaussian._bvn` evaluates it off the diagonal; `gamma_rho_two_t` is
`gamma_rho_vec` through it alone, before the diagonal took one T term.
`bvn_quad` is the 96-node Gauss-Legendre rule that `gamma_rho` used
before Owen's T: the correlation derivative of Pr[X <= h, Y <= k]
integrated from rho = 0 under the substitution rho = sin(theta).
`gamma_rho_quad` is `gamma_rho` on the interior through that rule.
`OWEN_ERROR_BOUND` and `agreement_bound(rho)` are derived bounds on
gamma_rho's own error and on how far the two may differ.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc, ndtri, owens_t

from ccmax.gaussian import _bvn

_NODES = 96
_GL_NODES, _GL_WEIGHTS = leggauss(_NODES)
EPS = float(np.finfo(float).eps)


def gamma_rho_branches(rho, x, y):
    """The four-branch `gamma_rho_vec`: marginal edges, rho = 1, rho = -1, interior."""
    rho, x, y = np.broadcast_arrays(
        np.asarray(rho, dtype=float), np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.empty(rho.shape, dtype=float)

    at_hi = rho >= 1.0
    at_lo = rho <= -1.0
    bnd = (x <= 0.0) | (y <= 0.0) | (x >= 1.0) | (y >= 1.0)
    interior = ~(at_hi | at_lo | bnd)

    if np.any(bnd):
        # Marginal limits; never send 0/1 through the quantile function.
        b = np.where((x <= 0.0) | (y <= 0.0), 0.0,
                     np.where(x >= 1.0, np.where(y >= 1.0, 1.0, y),
                              np.where(y >= 1.0, x, np.nan)))
        out[bnd] = b[bnd]
    hi_only = at_hi & ~bnd
    lo_only = at_lo & ~bnd
    if np.any(hi_only):
        out[hi_only] = np.minimum(x, y)[hi_only]
    if np.any(lo_only):
        out[lo_only] = np.maximum(0.0, x + y - 1.0)[lo_only]
    if np.any(interior):
        h = ndtri(x[interior])
        kk = ndtri(y[interior])
        val = _bvn(h, kk, rho[interior])
        lo_b = np.maximum(0.0, x[interior] + y[interior] - 1.0)
        hi_b = np.minimum(x[interior], y[interior])
        out[interior] = np.clip(val, lo_b, hi_b)
    return out


def bvn_two_t(h, k, rho):
    """Pr[X <= h, Y <= k] by Owen's T for |rho| < 1, h, k finite: both T terms and beta."""
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    sgn = np.where(rho < 0.0, -1.0, 1.0)
    c = 1.0 - sgn * rho
    num_h, num_k = (k - sgn * h) + sgn * c * h, (h - sgn * k) + sgn * c * k
    with np.errstate(divide="ignore", invalid="ignore"):
        th = np.where(h == 0.0, 0.25 * np.sign(num_h), owens_t(h, num_h / (h * s)))
        tk = np.where(k == 0.0, 0.25 * np.sign(num_k), owens_t(k, num_k / (k * s)))
    beta = np.where((h * k < 0.0) | ((h * k == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    val = 0.25 * (erfc(h / -math.sqrt(2.0)) + erfc(k / -math.sqrt(2.0))) - (th + tk) - beta
    return np.where((h == 0.0) & (k == 0.0), 0.25 + (1.0 / (2.0 * math.pi)) * np.arcsin(rho), val)


def gamma_rho_two_t(rho, x, y):
    """`gamma_rho_vec` with every interior point through `bvn_two_t`."""
    rho, x, y = np.broadcast_arrays(
        np.asarray(rho, dtype=float), np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    lo = np.maximum(0.0, x + y - 1.0)
    hi = np.minimum(x, y) + 0.0
    edge = (x <= 0.0) | (y <= 0.0) | (x >= 1.0) | (y >= 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.clip(bvn_two_t(ndtri(x), ndtri(y), rho), lo, hi)
    return np.where(edge | (rho >= 1.0), hi, np.where(rho <= -1.0, lo, val))


def bvn_quad(h, k, rho):
    """Pr[X <= h, Y <= k] by the 96-node rule on [0, asin(rho)]; |rho| <= 1, h, k finite."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    rho = np.asarray(rho, dtype=float)
    asr = np.arcsin(np.clip(rho, -1.0, 1.0))

    theta = 0.5 * (asr[..., None]) * (_GL_NODES + 1.0)
    sin_t = np.sin(theta)
    cos2_t = 1.0 - sin_t * sin_t
    hk = (h * k)[..., None]
    hk2 = (0.5 * (h * h + k * k))[..., None]
    integrand = np.exp((sin_t * hk - hk2) / cos2_t)
    integral = (0.5 * asr) * np.sum(integrand * _GL_WEIGHTS, axis=-1)

    base = (0.5 * erfc(h / -math.sqrt(2.0))) * (0.5 * erfc(k / -math.sqrt(2.0)))
    return base + (1.0 / (2.0 * math.pi)) * integral


def gamma_rho_quad(rho: float, x: float, y: float) -> float:
    """gamma_rho through the 96-node rule, for 0 < x, y < 1 and |rho| < 1."""
    val = float(bvn_quad(ndtri(x), ndtri(y), rho))
    return min(max(val, max(0.0, x + y - 1.0)), min(x, y))


# Bound on gamma_rho's error at any |rho| < 1, given its h and k.
#
# Library functions (erfc, owens_t, sin, exp, the pairwise sum) are taken
# to be within 2 ulps, eps = 2^-52; each arithmetic operation rounds by at
# most u = eps / 2, and the rounding terms are first order in eps.  With
# s = sqrt((1 - rho)(1 + rho)) and sigma = sign(rho), c = 1 - |rho|, the
# numerator of a_h = (k - rho h) / (h s) is computed as
# N = (k - sigma h) + sigma c h:
#   - c is exact for |rho| >= 1/2 (Sterbenz) and off by u c below;
#   - k - sigma h errs by u |k - sigma h| <= u (|N| + c |h|), since
#     k - sigma h = N - sigma c h;
#   - c h by 2 u c |h|, and the last sum by u |N|;
# so N errs by 2 u |N| + 3 u c |h|.  The denominator h s and the division
# add 4.5 u |a_h| (1 -+ rho, their product and the square root: 2.5 u;
# h s and the quotient: u each).  Divided by |h| s, and as c / s =
# sqrt(c / (2 - c)) <= 1, a_h errs by at most 3.25 eps |a_h| + 1.5 eps,
# with nothing that grows as |rho| -> 1.  |dT/da| <= 1 / (2 pi (1 + a^2))
# and |a| / (1 + a^2) <= 1/2, so each T term moves by at most
# (1.625 + 1.5) eps / (2 pi) < eps / 2, the pair by eps.  owens_t and erfc
# themselves, the quarter sums and the subtractions add 10 eps.  The same
# holds for a_k with h and k swapped.  The former numerator k - rho h
# rounded rho h, which cost eps / (pi s) more.
OWEN_ERROR_BOUND = 11.0 * EPS


def agreement_bound(rho: float) -> float:
    """Bound on |gamma_rho - gamma_rho_quad| at correlation rho, |rho| < 1.

    Both sides read the same h = Phi^{-1}(x), k = Phi^{-1}(y), and the
    shared Frechet clip only shrinks a difference, so the bound is
    `OWEN_ERROR_BOUND` plus the rule's error, with the same conventions:

    1. Truncation.  With s = sin(theta) the integrand is
       g = exp(-(h-k)^2 / (4(1-s)) - (h+k)^2 / (4(1+s))), so |g| <= 1
       wherever |Re sin(theta)| < 1.  Since cos(t)cosh(t) = 1 - t^4/6 +
       ... < 1 on (0, pi/2], that holds on the diamond |Re theta| +
       |Im theta| < pi/2.  The map theta = c(u + 1), c = asin|rho| / 2,
       takes the Bernstein ellipse E_r (semi-axes a, b, r = a + b) into
       the diamond while c(1 + sqrt(a^2 + b^2)) < pi/2, that is
       r^2 = A^2 + sqrt(A^4 - 1) with A = pi / asin|rho| - 1.  Gauss
       quadrature with n nodes then errs by at most
       (64/15) r^(-2n) / (r^2 - 1) on [-1, 1] (Trefethen, Approximation
       Theory and Approximation Practice, Thm 19.3), which the rule
       scales by c / (2 pi).
    2. Rounding.  cos^2 = 1 - sin^2 carries a relative error of
       3 eps / cos^2; the exponent's numerator h k s - (h^2 + k^2)/2 an
       absolute error of 2.5 eps (h^2 + k^2).  As g <= exp(-(h^2 +
       k^2)/4), g (h^2 + k^2) <= 4/e and g |exponent| <= 1/e, so each
       node errs by at most 5 eps / cos^2 + 4 eps, cos^2 >= 1 - rho^2.
       The weights sum to 2 and c / (2 pi) <= 1/8: 1.25 eps / (1 - rho^2)
       + eps.  The sum of 96 terms, the product of the two Phi and the
       last addition add at most 7 eps.
    """
    asr = math.asin(abs(rho))
    inv_a2 = (asr / (math.pi - asr)) ** 2  # 1 / A^2
    trunc = 0.0
    if inv_a2 > 0.0:
        r2 = (1.0 + math.sqrt(1.0 - inv_a2 * inv_a2)) / inv_a2
        trunc = asr / (4.0 * math.pi) * (64.0 / 15.0) * r2**-_NODES / (r2 - 1.0)
    rounding = 1.25 * EPS / ((1.0 - rho) * (1.0 + rho)) + 8.0 * EPS
    return trunc + rounding + OWEN_ERROR_BOUND
