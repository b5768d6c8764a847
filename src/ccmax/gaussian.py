"""Standard-normal utilities and the correlated bivariate orthant probability:

    std_normal_pdf(x)        phi(x) = exp(-x^2/2) / sqrt(2*pi)
    std_normal_cdf(x)        Phi(x) = int_{-inf}^x phi
    std_normal_inv(p)        Phi^{-1}(p)
    gamma_rho(rho, x, y)     Pr[X <= Phi^{-1}(x), Y <= Phi^{-1}(y)]
                             for (X, Y) standard bivariate normal with
                             correlation rho,

and `*_vec` forms; the package reads gamma_rho_vec, std_normal_inv_vec, gamma_rho,
stream and stream_uniforms.

Phi^{-1} is scipy.special.ndtri behind a domain check; it is accurate
to a few ulps over all of (0, 1), tails included.

gamma_rho is computed by Owen's reduction (Owen 1956) to his T function,

    Pr[X <= h, Y <= k] = (Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta,
    a_h = (k - rho*h) / (h * sqrt(1 - rho^2)),  a_k likewise with h, k swapped,

where beta = 1/2 when h*k < 0 (or h*k = 0 and h + k < 0), and T is
scipy.special.owens_t (Patefield & Tandy 2000).  At h = 0 the term
T(h, a_h) is its limit sign(k - rho*h) / 4; at h = k = 0 the value is
1/4 + asin(rho) / (2*pi).  The numerator k - rho*h is computed as
(k - h) + (1 - rho)*h for rho >= 0 and (k + h) - (1 + rho)*h below,
where 1 -+ rho is exact near |rho| = 1; to first order in eps the error
is then at most 11 eps at every rho (derived in tests/gaussian_oracles.py),
and against 40-digit mpmath it measured at most 1.3e-16 at 1 - |rho|
from 1e-2 down to 1e-12.

On the diagonal x = y (h = k), which every ratio curve reads, the two T
terms are the same operations on the same numbers, beta is 0, and
(Phi(h) + Phi(h)) / 2 - (T + T) is Phi(h) - 2T to the bit, since doubling
and halving are exact; so gamma_rho_vec takes one quantile, one owens_t
and one erfc per point there and returns the general formula's bits.

gamma_rho's edge cases are its Frechet bounds
max(0, x + y - 1) <= gamma_rho <= min(x, y): the upper bound on the
marginal edges x, y in {0, 1} and at rho = 1, the lower at rho = -1.
Everywhere else Owen's value is clipped to the two bounds.

All functions are pure and accept floats; `*_vec` variants accept numpy
arrays (broadcasting) for the hot loops in the curve and rounding code.
`stream(seed, index)` is the package's one seeded generator;
`stream_uniforms` draws the uniforms of many of its streams at once.

scipy.special is imported at the first Phi, Phi^{-1} or Gamma call,
through the cached `_special()`, and not with this module: the import
costs about 0.2 s, which `ccmax gadget`, `completeness`, `brute`, `sdp`,
`density` without `--rho`, `verify --suite graph-invariants`, `--help`
and every usage or input error never pay.  Loading it rebinds no
attribute of this module.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_2PI = 1.0 / (2.0 * math.pi)


@functools.cache
def _special():
    """scipy.special, imported at the first Phi, Phi^{-1} or Gamma call."""
    import scipy.special

    return scipy.special


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
    return 0.5 * _special().erfc(np.asarray(x, dtype=float) / -_SQRT2)


def std_normal_inv_vec(p: np.ndarray) -> np.ndarray:
    """Elementwise Phi^{-1} over an array of probabilities in (0, 1)."""
    p = np.asarray(p, dtype=float)
    bad = ~((p > 0.0) & (p < 1.0))  # NaN fails both comparisons
    if np.any(bad):
        raise DomainError(f"std_normal_inv requires 0 < p < 1, got {p[bad][0]!r}")
    return _special().ndtri(p)


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


def stream_uniforms(seed: int, indices: Sequence[int], size: int) -> np.ndarray:
    """Rows `stream(seed, t).random(size)` for t in `indices`, stacked.

    One Philox is re-keyed per row through its state, key words
    [seed mod 2^64, t] at counter 0 with an empty buffer, which is the
    state `stream(seed, t)` starts in; so each row has that stream's bits
    without building a bit generator and a Generator per row.
    """
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    empty = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": empty, "key": empty},
             "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    low = int(seed) % 2**64
    out = np.empty((len(indices), size))
    for row, t in zip(out, indices):
        state["state"]["key"] = np.array([low, t], dtype=np.uint64)
        bits.state = state
        gen.random(out=row)
    return out


def _bvn(h, k, rho):
    """Pr[X <= h, Y <= k] for arrays of equal shape by Owen's T.

    Requires |rho| < 1 elementwise; h, k finite.  Elementwise, and
    symmetric in (h, k) to the bit: the T terms enter as one sum.  Passing
    the same array as h and k takes the diagonal, at one owens_t and one
    erfc per point, with the general formula's bits (see the module
    docstring).  Lanes with h or k = 0 divide by zero on the way to their
    limit, so callers run it with divide and invalid errors ignored.
    """
    sc = _special()
    erfc, owens_t = sc.erfc, sc.owens_t
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    # k - rho h as (k - h) + (1 - rho) h for rho >= 0 and (k + h) - (1 + rho) h below:
    # 1 -+ rho is exact near |rho| = 1, where rounding rho h would cost eps / s
    sgn = np.where(rho < 0.0, -1.0, 1.0)
    c = 1.0 - sgn * rho

    def t(h, k):  # T(h, a_h); h = 0 takes the limit
        num = (k - sgn * h) + sgn * c * h
        return np.where(h == 0.0, 0.25 * np.sign(num), owens_t(h, num / (h * s)))

    if k is h:
        val = 0.5 * erfc(h / -_SQRT2) - 2.0 * t(h, h)
    else:
        beta = np.where((h * k < 0.0) | ((h * k == 0.0) & (h + k < 0.0)), 0.5, 0.0)
        val = 0.25 * (erfc(h / -_SQRT2) + erfc(k / -_SQRT2)) - (t(h, k) + t(k, h)) - beta
    return np.where((h == 0.0) & (k == 0.0), 0.25 + _INV_2PI * np.arcsin(rho), val)


def gamma_rho_vec(rho, x, y):
    """Broadcasting orthant probability for rho in [-1, 1] and x, y in [0, 1].

    Gamma lies between its Frechet bounds lo = max(0, x + y - 1) and
    hi = min(x, y), and its edge cases are those bounds: hi on a marginal
    edge (x or y in {0, 1}) and at rho = 1, lo at rho = -1.  Everywhere
    else it is `_bvn` clipped to [lo, hi]; a NaN rho stays on that path.
    When x is y, or x and y hold equal values (after broadcasting), `_bvn`
    takes the diagonal, one owens_t per point in place of two, with the
    same bits.  Arguments are not validated.

    Each call pays a fixed cost in numpy calls, which the golden-section
    scans feel at a few dozen points per call: arrays are broadcast only
    when their shapes differ, the edge lanes are patched in only when
    there are any, and the clip to [lo, hi] is done in place.
    """
    diagonal = x is y
    rho, x, y = np.asarray(rho, dtype=float), np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not rho.shape == x.shape == y.shape:
        rho, x, y = np.broadcast_arrays(rho, x, y)
    lo = np.maximum(0.0, x + y - 1.0)
    hi = np.minimum(x, y) + 0.0  # a level of -0.0 gives 0.0
    to_hi = (x <= 0.0) | (y <= 0.0) | (x >= 1.0) | (y >= 1.0) | (rho >= 1.0)
    to_lo = rho <= -1.0
    # edge and |rho| = 1 lanes go unread; in `_bvn`, h or k = 0 takes its limit
    with np.errstate(divide="ignore", invalid="ignore"):
        ndtri = _special().ndtri
        h = ndtri(x)
        val = _bvn(h, h if diagonal or np.array_equal(x, y) else ndtri(y), rho)
    # np.clip(val, lo, hi) to the bit, NaN included
    np.minimum(hi, np.maximum(lo, val, out=val), out=val)
    if to_hi.any() or to_lo.any():
        val = np.where(to_hi, hi, np.where(to_lo, lo, val))
    return val


def gamma_rho(rho: float, x: float, y: float) -> float:
    """Pr[X <= Phi^{-1}(x) and Y <= Phi^{-1}(y)] at correlation rho.

    x and y are marginal probability levels in [0, 1].  The result always
    respects the sharp bounds max(0, x + y - 1) <= result <= min(x, y),
    and is one of them at the edge cases (see `gamma_rho_vec`).
    """
    if not (math.isfinite(rho) and -1.0 <= rho <= 1.0):
        raise DomainError(f"gamma_rho requires -1 <= rho <= 1, got {rho!r}")
    if not (math.isfinite(x) and 0.0 <= x <= 1.0):
        raise DomainError(f"gamma_rho requires 0 <= x <= 1, got x={x!r}")
    if not (math.isfinite(y) and 0.0 <= y <= 1.0):
        raise DomainError(f"gamma_rho requires 0 <= y <= 1, got y={y!r}")
    return float(gamma_rho_vec(rho, x, y))
