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
The numerators are computed through the exact identity
G(1-q) = 1 - 2q + G(q), as 2q' - 2 G(q') (cut, q' = min(q, 1-q)),
2q - G(q) (vc) and 2q' - G(q') (2sat): 1 - G(1-q) cancels to O(q) and
reads the level 1 - q rounded, which left no digit near q = 0 and 1.

Each beta and alpha formula is written once and takes a float or an
array; the alpha formulas evaluate up to _LANE_BLOCK grid points per
call, and a rho scan up to _LANE_BLOCK x _SCAN_POINTS points.

The package's one golden-section loop, `_golden_lanes`, runs on lanes:
arrays of brackets, one per independent search.  Each step makes one
call to the objective over the lanes still open, and each lane repeats
the scalar loop's float arithmetic and stops on its own tolerance, so a
lane returns what the scalar loop would, bit for bit.  This rests on one
property, pinned by tests: element j of a batched formula call equals
the one-element call.  `minimize_over_rho` scans the rho intervals of
a block of q's in one call and refines the best brackets of every q of
the block as lanes;
`full_conf_alpha_cut` runs its line searches and its coordinate-descent
starts as lanes; `find_local_min_q` is one lane.

`full_conf_alpha_cut` searches the underlying three-variable problem: the
cut ratio (1 - `pair_product_vec`) / (1 - rho) over all configurations
(mu1, mu2, rho) satisfying the four triangle inequalities.  It returns the
least value its search finds, which nothing certifies as the global minimum.
The diagonal restriction mu1 = mu2 = mu, rho = -1 + 2|mu| reproduces
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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import DomainError
# gamma_rho stays in this namespace: perfbench's probe test wraps it here
from .gaussian import gamma_rho, gamma_rho_vec  # noqa: F401

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
# Most q's that share one formula call: the q's whose rho grids
# `minimize_over_rho` scans at once and then refines together as lanes,
# and the grid points `approx_curve` evaluates at once.  The block's scan
# is the largest call, so no call holds more than _LANE_BLOCK x
# _SCAN_POINTS points (131072), however long the grid.
_LANE_BLOCK = _SCAN_POINTS // 2

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


def _check_problem(problem: str) -> None:
    if problem not in ("cut", "vc", "2sat"):
        raise DomainError(f"unknown problem {problem!r}")


def kappa(q: float) -> RhoInterval:
    """Feasible negative correlations of two q-biased bits; -1 is out of reach at q = 1/2."""
    return RhoInterval(lo=extremal_rho(q), lo_closed=q != 0.5)


def _check_rho_in_kappa(q: float, rho) -> None:
    iv = kappa(q)
    bad = [r for r in np.ravel(rho).tolist() if not iv.contains(r)]
    if bad:
        raise DomainError(f"rho={bad[0]!r} outside kappa({q}) = {iv}")


def _beta_cut(q: float, rho):
    qq = np.minimum(q, 1.0 - q)
    return (2.0 * qq - 2.0 * gamma_rho_vec(rho, qq, qq)) / (2.0 * (qq - qq * qq) * (1.0 - rho))


def _beta_vc(q: float, rho):
    return (2.0 * q - gamma_rho_vec(rho, q, q)) / (q * (1.0 + (1.0 - q) * (1.0 - rho)))


def beta_cut(q: float, rho):
    """Cut hardness ratio at cardinality q; rho is a float or an array inside kappa(q)."""
    _check_rho_in_kappa(q, rho)
    return _beta_cut(q, rho)


def beta_vc(q: float, rho):
    """Coverage hardness ratio at cardinality q; rho is a float or an array inside kappa(q)."""
    _check_rho_in_kappa(q, rho)
    return _beta_vc(q, rho)


def minimize_over_rho(f: Callable, qs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Minimize a curve function over rho in kappa(q) for every q of qs.

    f(q, rho) takes a float q with an array of rhos, or two arrays that
    broadcast.  Each q gets a dense scan of _SCAN_POINTS points inside
    kappa(q), which hedges against non-unimodality.  A block of up to
    _LANE_BLOCK q's scans in one call, f(block[:, None], grid) on a
    (q, point) grid of at most _LANE_BLOCK x _SCAN_POINTS points, and each
    row's first least point is its best.  The best brackets of the block
    are then refined together by golden section down to width _RHO_TOL,
    one call per step.  The scan ends at -1e-9, or, where kappa(q) does
    not reach that far, as far inside 0 as the open left end lies inside
    lo.  The open right endpoint rho -> 0- has the analytic limit value 1
    and is never a minimizer; the left endpoint is evaluated exactly when
    closed.  Of the refined point, the scan's best and that endpoint, the
    first least value wins.  Returns the arrays
    (rho_star, value), aligned with qs.
    """
    qs = np.array(qs, dtype=float, ndmin=1)
    rho_star, value = np.empty(qs.size), np.empty(qs.size)
    for s in range(0, qs.size, _LANE_BLOCK):
        block = qs[s:s + _LANE_BLOCK]
        lo = _extremal(block)[1]
        closed = block != 0.5
        start = np.where(closed, lo, lo + -lo / _SCAN_POINTS)
        # the right end is -1e-9 wherever kappa(q) holds it, else as far inside
        # 0 as the open left end lies inside lo; -5e-324 keeps it below 0
        stop = np.where(lo <= -1e-9, -1e-9, np.minimum(lo / _SCAN_POINTS, -5e-324))
        # np.linspace's points for each row: i * step + start, and stop last.  One
        # np.linspace call over the rows would give every row its zero-step
        # arithmetic once any row's step underflowed.
        grid = np.arange(_SCAN_POINTS) * ((stop - start) / (_SCAN_POINTS - 1))[:, None] \
            + start[:, None]
        grid[:, -1] = stop
        vals = f(block[:, None], grid)
        rows = np.arange(block.size)
        i = np.argmin(vals, axis=1)
        a = grid[rows, np.maximum(0, i - 1)]
        b = grid[rows, np.minimum(_SCAN_POINTS - 1, i + 1)]
        scan_rho, scan_val = grid[rows, i], vals[rows, i]
        rho, val = _golden_lanes(lambda k, r: f(block[k], r), a, b, _RHO_TOL)
        take = scan_val < val
        rho[take], val[take] = scan_rho[take], scan_val[take]
        ends = np.flatnonzero(closed)
        if ends.size:
            end_val = f(block[ends], lo[ends])
            take = end_val < val[ends]
            rho[ends[take]], val[ends[take]] = lo[ends[take]], end_val[take]
        rho_star[s:s + block.size], value[s:s + block.size] = rho, val
    return rho_star, value


def _beta(problem: Problem) -> Callable:
    """The unvalidated formula of a hardness curve: every point that
    `minimize_over_rho` evaluates lies inside kappa(q)."""
    return _beta_cut if problem == "cut" else _beta_vc


def _extremal(q):
    """(min(q, 1-q), the left end of kappa(q)) for a float or an array."""
    qq = np.minimum(q, 1.0 - q)
    return qq, -qq / (1.0 - qq)


def extremal_rho(q: float) -> float:
    """Left endpoint of kappa(q): -q/(1-q) for q <= 1/2, and -(1-q)/q above,
    where 1 - (1 - q) is q exactly."""
    _check_q(q)
    return float(_extremal(q)[1])


def _alpha_cut(q):
    qq, rb = _extremal(q)
    return (2.0 * qq - 2.0 * gamma_rho_vec(rb, qq, qq)) / (2.0 * qq)


def _alpha_2sat(q):
    qq, rb = _extremal(q)
    return (2.0 * qq - gamma_rho_vec(rb, qq, qq)) / (2.0 * qq)


def alpha_cut(q: float) -> float:
    """Cut approximation ratio at cardinality q (symmetric in q, 1-q)."""
    _check_q(q)
    return float(_alpha_cut(q))


def alpha_2sat(q: float) -> float:
    """2sat/coverage approximation ratio at cardinality q."""
    _check_q(q)
    return float(_alpha_2sat(q))


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
        if (violation := triangle_violation(self.mu1, self.mu2, self.rho)) > 1e-9:
            raise DomainError(f"({self.mu1}, {self.mu2}, {self.rho}) violates the triangle "
                              f"inequalities by {violation:.3g}")


def triangle_violation(mu1: float, mu2: float, rho: float) -> float:
    """Distance of rho outside its feasible segment `_rho_range(mu1, mu2)`
    (0 inside): the largest deficit below -1 among the four triangle forms."""
    lo, hi = _rho_range(mu1, mu2)
    return max(0.0, lo - rho, rho - hi)


# `check_pair`'s slack on c^2 - d2 (squares: sqrt(1 - mu^2) loses low bits near |mu| = 1).
# With |c| <= 1 and u = 2^-53, fl(c)^2 errs by <= 5u and d2 by <= 3u; inputs one rounding
# off a realizable point add (|d/drho| + |d/dmu1| + |d/dmu2|) u <= 10u: 18u + O(u^2) < 10 eps.
_PAIR_SLACK = 10.0 * np.finfo(float).eps


def _residual(mu1, mu2, rho):
    """(c = rho - mu1 mu2, d2 = (1 - mu1^2)(1 - mu2^2), rb = c / sqrt(d2) clipped to [-1, 1]
    (c where d2 = 0, unread)); unit vectors realize (mu1, mu2, rho) iff c^2 <= d2."""
    c, d2 = rho - mu1 * mu2, (1.0 - mu1 * mu1) * (1.0 - mu2 * mu2)
    # minimum/maximum, not np.clip: its wrapper costs ~2 us more a call on lane arrays
    rb = np.minimum(np.maximum(c / np.sqrt(np.where(d2 <= 0.0, 1.0, d2)), -1.0), 1.0)
    return c, d2, rb


def pair_product_vec(mu1, mu2, rho):
    """E[y1 y2] of threshold rounding, floats or arrays, unvalidated:
    4 G_rb((1 - mu1)/2, (1 - mu2)/2) + mu1 + mu2 - 1 clipped to [-1, 1], or
    mu1 mu2 for a pinned pair (d2 = 0), whose pinned variable factors out."""
    _, d2, rb = _residual(mu1, mu2, rho)
    e = 4.0 * gamma_rho_vec(rb, (1.0 - mu1) / 2.0, (1.0 - mu2) / 2.0) + mu1 + mu2 - 1.0
    return np.where(d2 <= 0.0, mu1 * mu2, np.minimum(np.maximum(e, -1.0), 1.0))


def check_pair(mu1: float, mu2: float, rho: float) -> tuple:
    """`_residual` of a configuration inside [-1, 1]^3 that three unit vectors
    realize, up to `_PAIR_SLACK`; any other raises."""
    for name, v in (("mu1", mu1), ("mu2", mu2), ("rho", rho)):
        if not (math.isfinite(v) and -1.0 <= v <= 1.0):
            raise DomainError(f"{name} must be in [-1, 1], got {v!r}")
    c, d2, rb = _residual(mu1, mu2, rho)
    if c * c - d2 > _PAIR_SLACK:
        raise DomainError(f"({mu1}, {mu2}, {rho}) is realized by no unit vectors")
    return c, d2, rb


def rho_bar(mu1: float, mu2: float, rho: float) -> float:
    """Residual correlation of the centered, normalized vector pair."""
    _, d2, rb = check_pair(mu1, mu2, rho)
    if d2 <= 0.0:
        raise DomainError("rho_bar undefined at |mu| = 1")
    return float(rb)


def _conf_ratio_cut(mu1, mu2, rho):
    """(1 - E[y1 y2]) / (1 - rho), arrays ok; 1 where 1 - rho < 1e-12."""
    den = 1.0 - rho
    small = den < 1e-12
    return np.where(small, 1.0, (1.0 - pair_product_vec(mu1, mu2, rho)) / np.where(small, 1.0, den))


@dataclass(frozen=True)
class FullConfResult:
    configuration: Configuration
    value: float


def _rho_range(mu1, mu2):
    """Feasible segment of the third coordinate given two (floats or arrays)."""
    return -1.0 + abs(mu1 + mu2), 1.0 - abs(mu1 - mu2)


def _mu_segment(other, rho):
    """Feasible segment of one mu given the other and rho, kept off |mu| = 1."""
    a, b = _rho_range(other, rho)
    return np.maximum(-0.999999, a), np.minimum(0.999999, b)


def _full_conf_starts(grid_density: int) -> list[tuple[float, float, float]]:
    """The 16 best points of a grid over the polytope, pairwise more than
    0.15 apart in the max norm: the coordinate-descent starts."""
    mus = np.linspace(-0.98, 0.98, grid_density)
    m1g, m2g = np.meshgrid(mus, mus, indexing="ij")
    lo, hi = _rho_range(m1g, m2g)
    ts = np.linspace(0.0, 1.0, grid_density)
    flat1 = np.repeat(m1g[..., None], grid_density, axis=-1).ravel()
    flat2 = np.repeat(m2g[..., None], grid_density, axis=-1).ravel()
    flatr = (lo[..., None] + (hi - lo)[..., None] * ts).ravel()

    order = np.argsort(_conf_ratio_cut(flat1, flat2, flatr))
    starts: list[tuple[float, float, float]] = []
    for idx in order:
        cand = (float(flat1[idx]), float(flat2[idx]), float(flatr[idx]))
        if all(max(abs(cand[0] - s[0]), abs(cand[1] - s[1]), abs(cand[2] - s[2])) > 0.15
               for s in starts):
            starts.append(cand)
        if len(starts) >= 16:
            break
    return starts


def _full_conf_minima(grid_density: int) -> list[tuple[float, float, float, float]]:
    """(value, mu1, mu2, rho) of the two diagonal line searches, then of
    the coordinate descent from each start."""
    # The rho-boundary diagonal (mu, mu, -1 + 2|mu|) is where the global
    # minimum empirically sits; refine along it directly, one lane per
    # sign, so the coordinate descent result is corroborated by a 1-D
    # line search.
    sign = np.array([1.0, -1.0])
    mu, val = _golden_lanes(
        lambda k, t: _conf_ratio_cut(sign[k] * t, sign[k] * t, -1.0 + 2.0 * t),
        np.full(2, 1e-6), np.full(2, 0.999), 1e-9)
    minima = list(zip(val.tolist(), (sign * mu).tolist(), (sign * mu).tolist(),
                      (-1.0 + 2.0 * mu).tolist()))

    m1, m2, r = zip(*_full_conf_starts(grid_density))
    return minima + list(zip(*(x.tolist() for x in _descend(_conf_ratio_cut, m1, m2, r))))


def _descend(f: Callable, m1, m2, r) -> tuple[np.ndarray, ...]:
    """Coordinate descent of f(mu1, mu2, rho) over the polytope, one lane
    per start (m1[k], m2[k], r[k]).

    Each sweep runs golden section along mu1 and mu2, where the clamped
    segment is nonempty, and along rho, then tries both rho edges.  A lane
    stops when a sweep gains less than 1e-9, or after 200 sweeps.
    Returns the arrays (value, mu1, mu2, rho).
    """
    m1, m2, r = (np.array(x, dtype=float) for x in (m1, m2, r))
    val = f(m1, m2, r)
    live = np.arange(m1.size)
    for _ in range(200):
        if not live.size:
            break
        prev = val[live]
        a, b = _mu_segment(m2[live], r[live])
        ok = b > a
        on = live[ok]
        m1[on] = _golden_lanes(lambda k, t: f(t, m2[on[k]], r[on[k]]), a[ok], b[ok], 1e-9)[0]
        a, b = _mu_segment(m1[live], r[live])
        ok = b > a
        on = live[ok]
        m2[on] = _golden_lanes(lambda k, t: f(m1[on[k]], t, r[on[k]]), a[ok], b[ok], 1e-9)[0]
        ar, br = _rho_range(m1[live], m2[live])
        rl, vl = _golden_lanes(lambda k, t: f(m1[live[k]], m2[live[k]], t), ar, br, 1e-9)
        # the polytope boundary in rho is often the minimizer; keep it reachable
        for edge in (ar, br):
            ev = f(m1[live], m2[live], edge)
            take = ev < vl
            rl[take], vl[take] = edge[take], ev[take]
        r[live], val[live] = rl, vl
        live = live[~(prev - vl < 1e-9)]
    return val, m1, m2, r


def full_conf_alpha_cut(grid_density: int = 40) -> FullConfResult:
    """Least cut rounding ratio found over the full polytope.

    Multi-start grid scan plus coordinate descent (golden section along
    each coordinate's feasible segment, until a sweep gains less than
    1e-9), and a line search along the rho-boundary diagonal; the starts
    and the two diagonal signs run as lanes.  Returns the best
    configuration found and its value.  The value bounds the minimum over
    the polytope from above; nothing certifies it as the global minimum.
    """
    if grid_density < 20:
        raise DomainError(f"grid_density must be >= 20, got {grid_density}")
    # the ratio is invariant under (mu1, mu2) -> (-mu1, -mu2); report the
    # nonnegative-sum representative of each minimum
    minima = [(v, m1, m2, r) if m1 + m2 >= 0 else (v, -m1, -m2, r)
              for v, m1, m2, r in _full_conf_minima(grid_density)]
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


def _with_mirrors(qs: list[float]) -> tuple[list[float], list[int]]:
    """The grid followed by each mirror 1 - q not within 1e-12 of a point
    already listed, and for each q the index of the first listed point
    within 1e-12 of its mirror.

    fl(p - m) is monotone in p, so the grid points within 1e-12 of m form
    one run of the increasing grid, and a bisection finds its first, in
    O(log n).  Mirrors are appended in decreasing order, each more than
    1e-12 below the one before, so of those only the last can lie within
    1e-12 of a later (smaller) m.
    """
    added: list[float] = []
    mirror: list[int] = []
    for q in qs:
        m = 1.0 - q
        j = bisect_left(qs, -1e-12, key=lambda p: p - m)
        if not (j < len(qs) and abs(qs[j] - m) <= 1e-12):
            if not (added and abs(added[-1] - m) <= 1e-12):
                added.append(m)
            j = len(qs) + len(added) - 1
        mirror.append(j)
    return qs + added, mirror


def hardness_curve(problem: Problem, q_grid: Sequence[float], flatten: bool = False) -> list[CurvePoint]:
    """Hardness ratio curve, optionally flattened by the padding rules.

    Each distinct q is evaluated once, by one `minimize_over_rho` call.
    The points are the grid, then, for flattened 2sat, each mirror 1 - q
    not within 1e-12 of a point already listed, so
    min(curve(q), curve(1-q)) reads both sides from the same evaluations.
    """
    _check_problem(problem)
    qs = _validate_grid(q_grid)
    points, mirror = _with_mirrors(qs) if flatten and problem == "2sat" else (qs, [])
    rhos, vals = minimize_over_rho(_beta(problem), points)
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

    Each block of _LANE_BLOCK grid points is one formula call.  With
    flatten=True, emits the constant guarantee min over the grid (padding
    transfers the worst case everywhere), mirroring how the
    algorithm-side lines are usually drawn.
    """
    _check_problem(problem)
    qs = _validate_grid(q_grid)
    alpha = _alpha_cut if problem == "cut" else _alpha_2sat
    at = np.array(qs)
    vals = np.concatenate([alpha(at[s:s + _LANE_BLOCK])
                           for s in range(0, at.size, _LANE_BLOCK)]).tolist()
    rbs = _extremal(at)[1].tolist()
    if not flatten:
        return [CurvePoint(q, v, rb, False) for q, v, rb in zip(qs, vals, rbs)]
    floor = min(vals)
    return [
        CurvePoint(q, floor, rb if v == floor else None, v != floor)
        for q, v, rb in zip(qs, vals, rbs)
    ]


def _golden_lanes(f: Callable, a, b, tol) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section argmin on lanes: one bracket [a[k], b[k]] per search.

    f(k, x) evaluates lane k[i] at x[i] for an index array k and returns
    an array.  The first call takes every lane's two interior points, and
    each further step makes one call over the lanes still open.  Each
    lane repeats the scalar loop's arithmetic and stops once its bracket
    is no wider than its tol (a float or one per lane).  The caller
    bounds the lane count, and with it the size of each call.  Returns
    the arrays (argmin, value).
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    if not a.size:
        return np.empty(0), np.empty(0)
    lanes = np.arange(a.size)
    m = np.empty(a.size)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = np.split(np.asarray(f(np.tile(lanes, 2), np.concatenate([c, d])), dtype=float), 2)
    # the state of the open lanes only; a lane leaves it when its bracket closes
    live = lanes
    while True:
        open_ = b - a > tol
        if not open_.all():
            m[live[~open_]] = 0.5 * (a[~open_] + b[~open_])
            live, a, b, c, d, fc, fd, tol = (x[open_] for x in (live, a, b, c, d, fc, fd, tol))
            if not live.size:
                return m, np.asarray(f(lanes, m), dtype=float)
        # fc < fd keeps [a, d] and probes a new c, otherwise [c, b] and a new d
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = np.asarray(f(live, x), dtype=float)
        c, d, fc, fd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, fx, fd), np.where(left, fc, fx))


def find_local_min_q(
    curve_value: Callable[[float], float], q_lo: float, q_hi: float, tol: float = 1e-6
) -> tuple[float, float]:
    """Golden-section argmin of a curve over a q bracket (assumes unimodal there).

    One lane of the package's golden-section loop: curve_value takes and
    returns floats.  Returns (argmin, value).
    """
    m, fm = _golden_lanes(lambda _, x: [curve_value(t) for t in x.tolist()], q_lo, q_hi, tol)
    return float(m[0]), float(fm[0])


def hardness_value(problem: Problem, q: float) -> float:
    """Pointwise hardness infimum at one q (no flattening)."""
    _check_problem(problem)
    return float(minimize_over_rho(_beta(problem), [q])[1][0])
