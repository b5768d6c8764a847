"""Scalar forms of the curve code, kept as oracles for `ccmax.curves`.

`golden_section` is the one-bracket golden-section loop that
`curves._golden_lanes` runs on lanes.  `minimize_over_rho` and
`hardness_point` refine one q at a time with it; `minimize_over_rho_per_q`
is `curves.minimize_over_rho` as it was before a block's scans became one
call: one scan call per q, then the block's brackets as lanes.  Both
scan the grid `scan_grid(q)`. `full_conf_minima`
and `descend` run `full_conf_alpha_cut`'s line searches and coordinate
descent one start at a time, `alpha_cut` and `alpha_2sat` are the float
formulas through `gamma_rho`, and `with_mirrors` finds each mirror by a
linear scan.  `hardness_curve` is the earlier two-path curve: a separate 2sat
routine that evaluates every grid q twice and joins grid and mirrors by
position, reading every point through `hardness_point`.
`conf_ratio_cut` and `triangle_violation` are the per-constraint cut
ratio and the triangle deficit as they were before the pair law and the
feasible segment each got one home: the ratio as
(2 - 4 G - mu1 - mu2) / (1 - rho), with its own residual correlation, set
to 0 where d2 <= 1e-24; the deficit as the least of the four forms.
"""

from __future__ import annotations

import math

import numpy as np

from ccmax import curves
from ccmax.curves import UNCONSTRAINED_2SAT_LEVEL, CurvePoint
from ccmax.gaussian import gamma_rho, gamma_rho_vec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(curve_value, q_lo, q_hi, tol=1e-6):
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


def scan_grid(q):
    """np.linspace over kappa(q), from its left end (closed) or a 1/_SCAN_POINTS
    share of its span inside it (open), to -1e-9 or, where kappa(q) does not
    reach it, a 1/_SCAN_POINTS share of the span inside 0."""
    iv = curves.kappa(q)
    span = -iv.lo
    start = iv.lo if iv.lo_closed else iv.lo + span / curves._SCAN_POINTS
    stop = -1e-9 if iv.lo <= -1e-9 else min(iv.lo / curves._SCAN_POINTS, -5e-324)
    return np.linspace(start, stop, curves._SCAN_POINTS)


def minimize_over_rho(f, q):
    """(rho_star, value) for one q; f takes a float or an array of rhos."""
    iv = curves.kappa(q)
    grid = scan_grid(q)
    vals = f(grid)
    i = int(np.argmin(vals))
    m, fm = golden_section(
        f, float(grid[max(0, i - 1)]), float(grid[min(curves._SCAN_POINTS - 1, i + 1)]),
        curves._RHO_TOL)
    candidates = [(float(fm), m), (float(vals[i]), float(grid[i]))]
    if iv.lo_closed:
        candidates.append((float(f(iv.lo)), iv.lo))
    value, rho_star = min(candidates, key=lambda t: t[0])
    return rho_star, value


def minimize_over_rho_per_q(f, qs):
    """(rho_star, value) arrays over qs: one scan call f(q, grid) per q, then
    each block of _LANE_BLOCK q's refined as lanes."""
    qs = np.array(qs, dtype=float, ndmin=1)
    rho_star, value = np.empty(qs.size), np.empty(qs.size)
    for s in range(0, qs.size, curves._LANE_BLOCK):
        block = qs[s:s + curves._LANE_BLOCK]
        a, b, scan_rho, scan_val, lo = (np.empty(block.size) for _ in range(5))
        closed = np.empty(block.size, dtype=bool)
        for j, q in enumerate(block.tolist()):
            iv = curves.kappa(q)
            grid = scan_grid(q)
            vals = f(q, grid)
            i = int(np.argmin(vals))
            a[j], b[j] = grid[max(0, i - 1)], grid[min(curves._SCAN_POINTS - 1, i + 1)]
            scan_rho[j], scan_val[j] = grid[i], vals[i]
            lo[j], closed[j] = iv.lo, iv.lo_closed
        rho, val = curves._golden_lanes(lambda k, r: f(block[k], r), a, b, curves._RHO_TOL)
        take = scan_val < val
        rho[take], val[take] = scan_rho[take], scan_val[take]
        ends = np.flatnonzero(closed)
        if ends.size:
            end_val = f(block[ends], lo[ends])
            take = end_val < val[ends]
            rho[ends[take]], val[ends[take]] = lo[ends[take]], end_val[take]
        rho_star[s:s + block.size], value[s:s + block.size] = rho, val
    return rho_star, value


def hardness_point(problem, q):
    beta = curves._beta_cut if problem == "cut" else curves._beta_vc
    return minimize_over_rho(lambda r: beta(q, r), q)


def full_conf_minima(grid_density):
    def scalar(m1, m2, r):
        return float(curves._conf_ratio_cut(m1, m2, r))

    minima = []
    for sign in (1.0, -1.0):
        mu_d, val_d = golden_section(
            lambda t: scalar(sign * t, sign * t, -1.0 + 2.0 * t), 1e-6, 0.999, 1e-9)
        minima.append((val_d, sign * mu_d, sign * mu_d, -1.0 + 2.0 * mu_d))
    return minima + [descend(scalar, *start) for start in curves._full_conf_starts(grid_density)]


def descend(f, m1, m2, r):
    """Coordinate descent of f(mu1, mu2, rho) from one start; (value, mu1, mu2, rho)."""
    val = f(m1, m2, r)
    for _ in range(200):
        prev = val
        a1, b1 = curves._rho_range(m2, r)
        a1, b1 = max(-0.999999, a1), min(0.999999, b1)
        if b1 > a1:
            m1, _ = golden_section(lambda t: f(t, m2, r), a1, b1, 1e-9)
        a2, b2 = curves._rho_range(m1, r)
        a2, b2 = max(-0.999999, a2), min(0.999999, b2)
        if b2 > a2:
            m2, _ = golden_section(lambda t: f(m1, t, r), a2, b2, 1e-9)
        ar, br = curves._rho_range(m1, m2)
        r, val = golden_section(lambda t: f(m1, m2, t), ar, br, 1e-9)
        for edge in (ar, br):
            ev = f(m1, m2, edge)
            if ev < val:
                r, val = edge, ev
        if prev - val < 1e-9:
            break
    return val, m1, m2, r


def alpha_cut(q):
    rb = curves.extremal_rho(q)
    qq = min(q, 1.0 - q)
    return (2.0 * qq - 2.0 * gamma_rho(rb, qq, qq)) / (2.0 * qq)


def alpha_2sat(q):
    rb = curves.extremal_rho(q)
    qq = min(q, 1.0 - q)
    return (2.0 * qq - gamma_rho(rb, qq, qq)) / (2.0 * qq)


def with_mirrors(qs):
    points = list(qs)
    mirror = []
    for q in qs:
        m = 1.0 - q
        j = next((j for j, p in enumerate(points) if abs(p - m) <= 1e-12), len(points))
        if j == len(points):
            points.append(m)
        mirror.append(j)
    return points, mirror


def hardness_curve(problem, q_grid, flatten=False):
    qs = curves._validate_grid(q_grid)
    if problem == "2sat":
        return _curve_2sat(qs, flatten)
    raw = [hardness_point(problem, q) for q in qs]
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


def _curve_2sat(qs, flatten):
    raw = [hardness_point("vc", q) for q in qs]
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
    sorted_vals = np.array([hardness_point("vc", q)[1] for q in sorted_q])
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


def conf_ratio_cut(mu1, mu2, rho):
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    rho = np.asarray(rho, dtype=float)
    d2 = (1.0 - mu1 * mu1) * (1.0 - mu2 * mu2)
    safe = d2 > 1e-24
    rb = np.where(safe, np.clip((rho - mu1 * mu2) / np.sqrt(np.where(safe, d2, 1.0)), -1, 1), 0.0)
    g = gamma_rho_vec(rb, (1.0 - mu1) / 2.0, (1.0 - mu2) / 2.0)
    num = 2.0 - 4.0 * g - mu1 - mu2
    den = 1.0 - rho
    return np.where(den < 1e-12, 1.0, num / np.where(den < 1e-12, 1.0, den))


def triangle_violation(mu1, mu2, rho):
    worst = min(
        mu1 + mu2 + rho,
        mu1 - mu2 - rho,
        -mu1 + mu2 - rho,
        -mu1 - mu2 + rho,
    )
    return max(0.0, -1.0 - worst)
