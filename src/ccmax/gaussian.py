"""Standard-normal utilities and the correlated bivariate orthant probability.

Everything downstream (hardness curves, rounding expectations, gadget
density thresholds) reduces to four scalar functions:

    std_normal_pdf(x)        phi(x) = exp(-x^2/2) / sqrt(2*pi)
    std_normal_cdf(x)        Phi(x) = int_{-inf}^x phi
    std_normal_inv(p)        Phi^{-1}(p)
    gamma_rho(rho, x, y)     Pr[X <= Phi^{-1}(x), Y <= Phi^{-1}(y)]
                             for (X, Y) standard bivariate normal with
                             correlation rho.

Phi^{-1} is scipy.special.ndtri behind a domain check; it is accurate
to a few ulps over all of (0, 1), tails included.

gamma_rho is computed by Owen's reduction (Owen 1956) to his T function,

    Pr[X <= h, Y <= k] = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta,
    a_h = (k - rho*h) / (h * sqrt(1 - rho^2)),  a_k likewise with h, k swapped,

where beta = 1/2 when h*k < 0 (or h*k = 0 and h + k < 0), and T is
scipy.special.owens_t (Patefield & Tandy 2000).  At h = 0 the term
T(h, a_h) is its limit sign(k - rho*h) / 4; at h = k = 0 the value is
1/4 + asin(rho) / (2*pi).  To first order in eps the error is at most
eps / (pi * sqrt(1 - rho^2)) + 11 eps, the first term from rounding
rho*h in a_h (derived in tests/gaussian_oracles.py).  Against 40-digit
mpmath it measured at most 1.8e-15 at 1 - |rho| = 1e-4, 1.4e-13 at 1e-8
and 1.2e-12 at 1e-10.  Exact closed forms are used at rho in {-1, 1}
and on the marginal boundaries x, y in {0, 1}.

All functions are pure and accept floats; `*_vec` variants accept numpy
arrays (broadcasting) for the hot loops in the curve and rounding code.
`stream(seed, index)` is the package's one seeded generator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc as _erfc, ndtri, owens_t

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_2PI = 1.0 / (2.0 * math.pi)


def std_normal_pdf(x: float) -> float:
    """Density of the standard normal at x."""
    if not math.isfinite(x):
        raise DomainError(f"std_normal_pdf requires finite x, got {x!r}")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """Distribution function Phi(x), accurate to ~1e-15 via erfc."""
    if not math.isfinite(x):
        raise DomainError(f"std_normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_cdf_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise Phi over an array."""
    return 0.5 * _erfc(np.asarray(x, dtype=float) / -_SQRT2)


def std_normal_inv_vec(p: np.ndarray) -> np.ndarray:
    """Elementwise Phi^{-1} over an array of probabilities in (0, 1)."""
    p = np.asarray(p, dtype=float)
    bad = ~((p > 0.0) & (p < 1.0))  # NaN fails both comparisons
    if np.any(bad):
        raise DomainError(f"std_normal_inv requires 0 < p < 1, got {p[bad][0]!r}")
    return ndtri(p)


def std_normal_inv(p: float) -> float:
    """Quantile function Phi^{-1}(p) for 0 < p < 1."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"std_normal_inv requires 0 < p < 1, got {p!r}"
                          f" (offending bound: {'p <= 0' if p <= 0.0 else 'p >= 1'})")
    return float(std_normal_inv_vec(np.asarray([p]))[0])


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, index): Philox keyed by the 128-bit
    word with seed mod 2^64 low and index high.

    For |seed| < 2^63 that is the stream of Philox(key=[seed, index]); the
    list form goes through float64 for larger seeds, where distinct seeds
    share a stream.  Every seeded draw in the package comes from one of
    these streams, so a run is bit-reproducible from its seed.
    """
    return np.random.Generator(np.random.Philox(key=int(seed) % 2**64 + (index << 64)))


def _bvn(h, k, rho):
    """Pr[X <= h, Y <= k] for arrays of equal shape by Owen's T.

    Requires |rho| < 1 elementwise; h, k finite.  Elementwise, and
    symmetric in (h, k) to the bit: the T terms enter as one sum.
    """
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    num_h, num_k = k - rho * h, h - rho * k
    with np.errstate(divide="ignore", invalid="ignore"):  # h or k = 0 takes the limit
        th = np.where(h == 0.0, 0.25 * np.sign(num_h), owens_t(h, num_h / (h * s)))
        tk = np.where(k == 0.0, 0.25 * np.sign(num_k), owens_t(k, num_k / (k * s)))
    beta = np.where((h * k < 0.0) | ((h * k == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    val = 0.25 * (_erfc(h / -_SQRT2) + _erfc(k / -_SQRT2)) - (th + tk) - beta
    return np.where((h == 0.0) & (k == 0.0), 0.25 + _INV_2PI * np.arcsin(rho), val)


def gamma_rho_vec(rho, x, y):
    """Broadcasting orthant probability with boundary/limit handling.

    Fast path for curve grids; assumes arguments already validated to
    rho in [-1, 1] and x, y in [0, 1].
    """
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


def gamma_rho(rho: float, x: float, y: float) -> float:
    """Pr[X <= Phi^{-1}(x) and Y <= Phi^{-1}(y)] at correlation rho.

    x and y are marginal probability levels in [0, 1]; boundary levels
    resolve to the marginal limits without evaluating Phi^{-1} there.
    The result always respects the sharp bounds
    max(0, x + y - 1) <= result <= min(x, y).
    """
    if not (math.isfinite(rho) and -1.0 <= rho <= 1.0):
        raise DomainError(f"gamma_rho requires -1 <= rho <= 1, got {rho!r}")
    if not (math.isfinite(x) and 0.0 <= x <= 1.0):
        raise DomainError(f"gamma_rho requires 0 <= x <= 1, got x={x!r}")
    if not (math.isfinite(y) and 0.0 <= y <= 1.0):
        raise DomainError(f"gamma_rho requires 0 <= y <= 1, got y={y!r}")
    return float(gamma_rho_vec(rho, x, y))
