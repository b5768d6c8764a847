"""The package's former orthant probability, kept as an oracle for `ccmax.gaussian`.

`bvn_quad` is the 96-node Gauss-Legendre rule that `gamma_rho` used
before Owen's T: the correlation derivative of Pr[X <= h, Y <= k]
integrated from rho = 0 under the substitution rho = sin(theta).
`gamma_rho_quad` is `gamma_rho` on the interior through that rule.
`owen_error_bound(rho)` and `agreement_bound(rho)` are derived bounds on
gamma_rho's own error and on how far the two may differ.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc, ndtri

_NODES = 96
_GL_NODES, _GL_WEIGHTS = leggauss(_NODES)
EPS = float(np.finfo(float).eps)


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


def owen_error_bound(rho: float) -> float:
    """Bound on gamma_rho's error at correlation rho, |rho| < 1, given its h and k.

    Library functions (erfc, owens_t, sin, exp, the pairwise sum) are
    taken to be within 2 ulps, eps = 2^-52, and the rounding terms are
    first order in eps.  a_h = (k - rho h) / (h sqrt(1 - rho^2)) errs by
    eps |rho| / sqrt(1 - rho^2) + 3 eps |a_h|, the first term from
    rounding rho h, and |dT/da| <= 1 / (2 pi (1 + a^2)), so the two T
    terms move by at most eps / (pi sqrt(1 - rho^2)) + 3 eps / (2 pi).
    owens_t and erfc themselves, the quarter sums and the subtractions
    add 10 eps.
    """
    return EPS / (math.pi * math.sqrt((1.0 - rho) * (1.0 + rho))) + 11.0 * EPS


def agreement_bound(rho: float) -> float:
    """Bound on |gamma_rho - gamma_rho_quad| at correlation rho, |rho| < 1.

    Both sides read the same h = Phi^{-1}(x), k = Phi^{-1}(y), and the
    shared Frechet clip only shrinks a difference, so the bound is
    `owen_error_bound` plus the rule's error, with the same conventions:

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
    return trunc + rounding + owen_error_bound(rho)
