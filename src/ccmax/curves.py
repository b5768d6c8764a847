"""Hardness and approximation ratio curves over the cardinality q.

For a cut constraint the relaxation/rounding analysis yields, per
cardinality q in (0,1) and negative correlation rho, the ratio

    beta_cut(q, rho) = (1 - G(q) - G(1-q)) / (2 (q - q^2) (1 - rho))
    beta_vc(q, rho)  = (1 - G(1-q)) / (q (1 + (1-q)(1-rho)))

where G(z) = gamma_rho(rho, z, z).  The curves of interest take the
infimum over rho in kappa(q), the feasible interval of correlations of
two q-biased bits.  At the extremal rho = -q/(1-q) both denominators
collapse to 2q, which yields the closed approximation-ratio forms

    alpha_cut(q)  = (2q - 2 G(q)) / (2q)
    alpha_2sat(q) = (1 - G(1-q)) / (2q)        (rho = -q/(1-q))

so alpha_cut(q) == beta_cut(q, -q/(1-q)) and alpha_2sat(q) ==
beta_vc(q, -q/(1-q)) hold as identities; tests pin them to 1e-10.

Each beta formula is written once and takes a float or an array of
rhos.  `minimize_over_rho` takes one such callable: it calls it once on
the whole dense rho scan and on floats during golden section.

`full_conf_alpha_cut` solves the underlying three-variable problem: the
minimum over all configurations (mu1, mu2, rho) satisfying the four
triangle inequalities of the per-constraint cut rounding ratio.  The
diagonal restriction mu1 = mu2 = mu, rho = -1 + 2|mu| reproduces
alpha_cut under q = (1 - mu)/2.

Flattening (`hardness_curve(..., flatten=True)`) applies the padding
arguments that transfer hardness across cardinalities:
  * vc: hardness at q transfers to every q' <= q (isolated vertices),
    so the curve is replaced by its running minimum from the right.
  * cut: the same transfer is only valid within each half [0, 1/2] and
    [1/2, 1] (toward 1/2 from either side).
  * 2sat: negating variables maps cardinality q to 1-q, so the
    flattened vc curve is symmetrized by min(curve(q), curve(1-q));
    dummy variables additionally make the problem at any q at least as
    hard as unconstrained Max-2-Sat, clamping the center bump at
    UNCONSTRAINED_2SAT_LEVEL.
Each distinct q is evaluated once; the 2sat rule reads curve(1-q) from
the same evaluations.  All flattening operates on the evaluated grid;
callers who want the clipping to "see" a minimum must include it in the
grid range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import DomainError
from .gaussian import gamma_rho, gamma_rho_vec

# Approximation/hardness level of unconstrained Max-2-Sat (the
# Lewin-Livnat-Zwick ratio, ~0.9401, with a matching conditional lower
# bound).  Used only as the dummy-variable flattening floor for the
# 2sat hardness curve; it is external input, not derivable from the
# bivariate-normal machinery in this package.
UNCONSTRAINED_2SAT_LEVEL = 0.9401

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Points in the dense rho scan that seeds each minimization.
_SCAN_POINTS = 512
_RHO_TOL = 1e-8  # bracket width at which the golden section over rho stops

Problem = Literal["cut", "vc", "2sat"]


@dataclass(frozen=True)
class RhoInterval:
    """Feasible correlation interval [lo, 0) (open at lo iff q = 1/2)."""

    lo: float
    lo_closed: bool

    def contains(self, rho: float) -> bool:
        if rho >= 0.0:
            return False
        if self.lo_closed:
            return rho >= self.lo - 1e-12
        return rho > self.lo

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        return f"{left}{self.lo:.12g}, 0)"


def _check_q(q: float) -> None:
    if not (isinstance(q, (int, float)) and math.isfinite(q) and 0.0 < q < 1.0):
        raise DomainError(f"q must lie strictly inside (0, 1), got {q!r}")


def kappa(q: float) -> RhoInterval:
    """Feasible negative correlations of two q-biased bits; -1 is out of reach at q = 1/2."""
    return RhoInterval(lo=extremal_rho(q), lo_closed=q != 0.5)


def _check_rho_in_kappa(q: float, rho) -> None:
    iv = kappa(q)
    bad = [r for r in np.ravel(rho).tolist() if not iv.contains(r)]
    if bad:
        raise DomainError(f"rho={bad[0]!r} outside kappa({q}) = {iv}")


def _beta_cut(q: float, rho):
    g = gamma_rho_vec(rho, q, q) + gamma_rho_vec(rho, 1.0 - q, 1.0 - q)
    return (1.0 - g) / (2.0 * (q - q * q) * (1.0 - rho))


def _beta_vc(q: float, rho):
    return (1.0 - gamma_rho_vec(rho, 1.0 - q, 1.0 - q)) / (q * (1.0 + (1.0 - q) * (1.0 - rho)))


def beta_cut(q: float, rho):
    """Cut hardness ratio at cardinality q; rho is a float or an array inside kappa(q)."""
    _check_rho_in_kappa(q, rho)
    return _beta_cut(q, rho)


def beta_vc(q: float, rho):
    """Coverage hardness ratio at cardinality q; rho is a float or an array inside kappa(q)."""
    _check_rho_in_kappa(q, rho)
    return _beta_vc(q, rho)


def minimize_over_rho(f: Callable, q: float) -> tuple[float, float]:
    """Minimize a curve function over rho in kappa(q).

    f takes a float or an array of rhos.  It is called once on a dense
    scan of _SCAN_POINTS points, then on floats by golden-section
    refinement of the best bracket down to width _RHO_TOL; the scan
    hedges against non-unimodality.  The open right endpoint rho -> 0-
    has the analytic limit value 1 and is never a minimizer; the left
    endpoint is evaluated exactly when closed.  Returns (rho_star, value).
    """
    iv = kappa(q)
    span = -iv.lo
    start = iv.lo if iv.lo_closed else iv.lo + span / _SCAN_POINTS
    grid = np.linspace(start, -1e-9, _SCAN_POINTS)
    vals = f(grid)
    i = int(np.argmin(vals))

    m, fm = find_local_min_q(
        f, float(grid[max(0, i - 1)]), float(grid[min(_SCAN_POINTS - 1, i + 1)]), _RHO_TOL)
    candidates = [(float(fm), m), (float(vals[i]), float(grid[i]))]
    if iv.lo_closed:
        candidates.append((float(f(iv.lo)), iv.lo))
    value, rho_star = min(candidates, key=lambda t: t[0])
    return rho_star, value


def _hardness_point(problem: Problem, q: float) -> tuple[float, float]:
    """(rho_star, value) of the pointwise infimum for one q.

    Calls the unvalidated formula: the scan grid and every golden-section
    point lie inside kappa(q).
    """
    beta = _beta_cut if problem == "cut" else _beta_vc
    return minimize_over_rho(lambda r: beta(q, r), q)


def extremal_rho(q: float) -> float:
    """Left endpoint of kappa(q): -q/(1-q) for q <= 1/2, and -(1-q)/q above,
    where 1 - (1 - q) is q exactly."""
    _check_q(q)
    return -min(q, 1.0 - q) / (1.0 - min(q, 1.0 - q))


def alpha_cut(q: float) -> float:
    """Cut approximation ratio at cardinality q (symmetric in q, 1-q)."""
    rb = extremal_rho(q)
    qq = min(q, 1.0 - q)
    return (2.0 * qq - 2.0 * gamma_rho(rb, qq, qq)) / (2.0 * qq)


def alpha_2sat(q: float) -> float:
    """2sat/coverage approximation ratio at cardinality q."""
    rb = extremal_rho(q)
    qq = min(q, 1.0 - q)
    return (1.0 - gamma_rho(rb, 1.0 - qq, 1.0 - qq)) / (2.0 * qq)


@dataclass(frozen=True)
class Configuration:
    """Per-constraint data (mu1, mu2, rho) inside the triangle polytope."""

    mu1: float
    mu2: float
    rho: float

    def __post_init__(self):
        for name, v in (("mu1", self.mu1), ("mu2", self.mu2), ("rho", self.rho)):
            if not (math.isfinite(v) and -1.0 <= v <= 1.0):
                raise DomainError(f"Configuration.{name} must be in [-1, 1], got {v!r}")
        if triangle_violation(self.mu1, self.mu2, self.rho) > 1e-9:
            raise DomainError(
                f"({self.mu1}, {self.mu2}, {self.rho}) violates the triangle inequalities "
                f"by {triangle_violation(self.mu1, self.mu2, self.rho):.3g}")


def triangle_violation(mu1: float, mu2: float, rho: float) -> float:
    """Largest deficit below -1 among the four triangle forms (0 if none)."""
    worst = min(
        mu1 + mu2 + rho,
        mu1 - mu2 - rho,
        -mu1 + mu2 - rho,
        -mu1 - mu2 + rho,
    )
    return max(0.0, -1.0 - worst)


def rho_bar(mu1: float, mu2: float, rho: float) -> float:
    """Residual correlation of the centered, normalized vector pair."""
    d2 = (1.0 - mu1 * mu1) * (1.0 - mu2 * mu2)
    if d2 <= 0.0:
        raise DomainError("rho_bar undefined at |mu| = 1")
    return float(np.clip((rho - mu1 * mu2) / math.sqrt(d2), -1.0, 1.0))


def _conf_ratio_cut(mu1, mu2, rho):
    """(2 - 4 G((1-mu1)/2, (1-mu2)/2) - mu1 - mu2) / (1 - rho), arrays ok."""
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    rho = np.asarray(rho, dtype=float)
    d2 = (1.0 - mu1 * mu1) * (1.0 - mu2 * mu2)
    safe = d2 > 1e-24
    # at |mu_i| = 1 the marginal level (1 -+ mu_i)/2 hits 0 or 1 and the
    # orthant probability short-circuits, so the rb placeholder is inert
    rb = np.where(safe, np.clip((rho - mu1 * mu2) / np.sqrt(np.where(safe, d2, 1.0)), -1, 1), 0.0)
    g = gamma_rho_vec(rb, (1.0 - mu1) / 2.0, (1.0 - mu2) / 2.0)
    num = 2.0 - 4.0 * g - mu1 - mu2
    den = 1.0 - rho
    return np.where(den < 1e-12, 1.0, num / np.where(den < 1e-12, 1.0, den))


@dataclass(frozen=True)
class FullConfResult:
    configuration: Configuration
    value: float


def _rho_range(mu1, mu2):
    """Feasible segment of the third coordinate given two (floats or arrays)."""
    return -1.0 + abs(mu1 + mu2), 1.0 - abs(mu1 - mu2)


def full_conf_alpha_cut(grid_density: int = 40) -> FullConfResult:
    """Global minimum of the cut rounding ratio over the full polytope.

    Multi-start grid scan plus coordinate descent (golden section along
    each coordinate's feasible segment, until a sweep gains less than
    1e-9), and a line search along the rho-boundary diagonal.  Returns
    the best configuration found and its value.
    """
    if grid_density < 20:
        raise DomainError(f"grid_density must be >= 20, got {grid_density}")

    mus = np.linspace(-0.98, 0.98, grid_density)
    m1g, m2g = np.meshgrid(mus, mus, indexing="ij")
    lo, hi = _rho_range(m1g, m2g)
    ts = np.linspace(0.0, 1.0, grid_density)
    M1 = np.repeat(m1g[..., None], grid_density, axis=-1)
    M2 = np.repeat(m2g[..., None], grid_density, axis=-1)
    R = lo[..., None] + (hi - lo)[..., None] * ts
    vals = _conf_ratio_cut(M1.ravel(), M2.ravel(), R.ravel())

    order = np.argsort(vals)
    starts: list[tuple[float, float, float]] = []
    flat1, flat2, flatr = M1.ravel(), M2.ravel(), R.ravel()
    for idx in order:
        cand = (float(flat1[idx]), float(flat2[idx]), float(flatr[idx]))
        if all(max(abs(cand[0] - s[0]), abs(cand[1] - s[1]), abs(cand[2] - s[2])) > 0.15
               for s in starts):
            starts.append(cand)
        if len(starts) >= 16:
            break

    def scalar(m1: float, m2: float, r: float) -> float:
        return float(_conf_ratio_cut(m1, m2, r))

    minima: list[tuple[float, float, float, float]] = []

    # The rho-boundary diagonal (mu, mu, -1 + 2|mu|) is where the global
    # minimum empirically sits; refine along it directly so the
    # coordinate descent result is corroborated by a 1-D line search.
    for sign in (1.0, -1.0):
        mu_d, val_d = find_local_min_q(
            lambda t: scalar(sign * t, sign * t, -1.0 + 2.0 * t), 1e-6, 0.999, 1e-9)
        minima.append((val_d, sign * mu_d, sign * mu_d, -1.0 + 2.0 * mu_d))

    for m1, m2, r in starts:
        val = scalar(m1, m2, r)
        for _ in range(200):
            prev = val
            a1, b1 = _rho_range(m2, r)
            a1, b1 = max(-0.999999, a1), min(0.999999, b1)
            if b1 > a1:
                m1, _ = find_local_min_q(lambda t: scalar(t, m2, r), a1, b1, 1e-9)
            a2, b2 = _rho_range(m1, r)
            a2, b2 = max(-0.999999, a2), min(0.999999, b2)
            if b2 > a2:
                m2, _ = find_local_min_q(lambda t: scalar(m1, t, r), a2, b2, 1e-9)
            ar, br = _rho_range(m1, m2)
            r, val = find_local_min_q(lambda t: scalar(m1, m2, t), ar, br, 1e-9)
            # the polytope boundary in rho is often the minimizer; keep it reachable
            for edge in (ar, br):
                ev = scalar(m1, m2, edge)
                if ev < val:
                    r, val = edge, ev
            if prev - val < 1e-9:
                break
        minima.append((val, m1, m2, r))

    # the ratio is invariant under (mu1, mu2) -> (-mu1, -mu2); report the
    # nonnegative-sum representative of each minimum
    minima = [(v, m1, m2, r) if m1 + m2 >= 0 else (v, -m1, -m2, r)
              for v, m1, m2, r in minima]
    v0, m1, m2, r0 = min(minima)
    cfg = Configuration(m1, m2, float(np.clip(r0, *_rho_range(m1, m2))))
    return FullConfResult(configuration=cfg, value=v0)


@dataclass(frozen=True)
class CurvePoint:
    q: float
    ratio: float
    rho_star: float | None
    flattened: bool


def _validate_grid(q_grid: Sequence[float]) -> list[float]:
    qs = [float(q) for q in q_grid]
    if not qs:
        raise DomainError("q_grid must be nonempty")
    for q in qs:
        _check_q(q)
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise DomainError("q_grid must be strictly increasing")
    return qs


def hardness_curve(problem: Problem, q_grid: Sequence[float], flatten: bool = False) -> list[CurvePoint]:
    """Hardness ratio curve, optionally flattened by the padding rules.

    Each distinct q is evaluated once.  The points are the grid, then,
    for flattened 2sat, each mirror 1 - q not within 1e-12 of a point
    already listed, so min(curve(q), curve(1-q)) reads both sides from
    the same evaluations.
    """
    if problem not in ("cut", "vc", "2sat"):
        raise DomainError(f"unknown problem {problem!r}")
    qs = _validate_grid(q_grid)
    points = list(qs)
    mirror: list[int] = []
    if flatten and problem == "2sat":
        for q in qs:
            m = 1.0 - q
            j = next((j for j, p in enumerate(points) if abs(p - m) <= 1e-12), len(points))
            if j == len(points):
                points.append(m)
            mirror.append(j)
    rhos, vals = np.array([_hardness_point("cut" if problem == "cut" else "vc", p)
                           for p in points]).T
    n = len(qs)
    raw = vals[:n]
    flat = raw
    if flatten and problem == "cut":
        at = np.array(qs)
        left, right = at <= 0.5, at >= 0.5
        flat = raw.copy()
        flat[left] = np.minimum.accumulate(raw[left][::-1])[::-1]
        flat[right] = np.minimum.accumulate(raw[right])
    elif flatten:
        order = np.argsort(points)
        flat = np.empty_like(vals)
        flat[order] = np.minimum.accumulate(vals[order][::-1])[::-1]
        if mirror:
            flat = np.minimum(np.minimum(flat[:n], flat[mirror]), UNCONSTRAINED_2SAT_LEVEL)
        flat = flat[:n]
    clipped = flat < raw - 1e-15
    return [CurvePoint(q, float(f), None if c else float(r), bool(c))
            for q, f, r, c in zip(qs, flat, rhos, clipped)]


def approx_curve(problem: Problem, q_grid: Sequence[float], flatten: bool = False) -> list[CurvePoint]:
    """Approximation ratio curve (alpha_cut for cut, alpha_2sat otherwise).

    With flatten=True, emits the constant guarantee min over the grid
    (padding transfers the worst case everywhere), mirroring how the
    algorithm-side lines are usually drawn.
    """
    if problem not in ("cut", "vc", "2sat"):
        raise DomainError(f"unknown problem {problem!r}")
    qs = _validate_grid(q_grid)
    fn = alpha_cut if problem == "cut" else alpha_2sat
    vals = [fn(q) for q in qs]
    rbs = [extremal_rho(q) for q in qs]
    if not flatten:
        return [CurvePoint(q, v, rb, False) for q, v, rb in zip(qs, vals, rbs)]
    floor = min(vals)
    return [
        CurvePoint(q, floor, rb if v == floor else None, v != floor)
        for q, v, rb in zip(qs, vals, rbs)
    ]


def find_local_min_q(
    curve_value: Callable[[float], float], q_lo: float, q_hi: float, tol: float = 1e-6
) -> tuple[float, float]:
    """Golden-section argmin of a curve over a q bracket (assumes unimodal there).

    The package's one golden-section loop: `minimize_over_rho` and
    `full_conf_alpha_cut` refine over rho and mu brackets with it too.
    Returns (argmin, value).
    """
    a, b = q_lo, q_hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = curve_value(c), curve_value(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = curve_value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = curve_value(d)
    m = 0.5 * (a + b)
    return m, curve_value(m)


def hardness_value(problem: Problem, q: float) -> float:
    """Pointwise hardness infimum at one q (no flattening)."""
    if problem == "2sat":
        problem = "vc"
    return _hardness_point(problem, q)[1]
