"""Command line entry point.

Exit codes: 0 success, 2 usage or input error, 3 size-guard refusal,
4 verification failure.  Every output file starts with a comment header
recording tool version, subcommand, the full flag set, and the seed, so
identical invocations produce byte-identical artifacts (no timestamps;
all randomness is counter-based from the given seed).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, curves, gadget, rounding, sdp, verify
from .errors import CcmaxError, DomainError, SizeGuardError
from .gaussian import gamma_rho
from .instance import CCInstance, brute_force_opt, cardinality, parse_instance

_BRUTE_SEED_MAX_N = 18
MAX_CURVE_POINTS = 100_000  # the README's and the benchmark's `curves` grids hold under 250


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _header_lines(sub: str, args: argparse.Namespace) -> list[str]:
    skip = {"func", "out", "report", "dump_gram"}
    parts = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        parts.append(f"--{key.replace('_', '-')}={getattr(args, key)}")
    seed = getattr(args, "seed", "none")
    return [f"# ccmax {__version__} | {sub} | {' '.join(parts)} | seed={seed}"]


def _rho_arg(text: str) -> float | str:
    """A correlation, or `extremal`: the left end of kappa(q) at the command's q."""
    if text == "extremal":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid correlation {text!r}: give a number or 'extremal'") from None


def _rho_at(rho: float | str, q: float) -> float:
    return curves.extremal_rho(q) if rho == "extremal" else rho


def _write(path: str, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _assignment_str(a) -> str:
    return "".join("+" if v == 1 else "-" for v in a)


def _cmd_gamma(args) -> int:
    print(_fmt(gamma_rho(args.rho, args.x, args.y)))
    return 0


def _cmd_curves(args) -> int:
    if not (all(map(math.isfinite, (args.q_min, args.q_max, args.step))) and args.step > 0):
        raise DomainError("--q-min, --q-max and --step must be finite, and --step positive")
    if args.q_min > args.q_max + 1e-12:  # the grid loop's own slack
        raise DomainError(f"--q-min {args.q_min!r} is above --q-max {args.q_max!r}")
    # a step of at least the float spacing at the largest |q| moves every q of the loop
    if args.step < math.ulp(max(abs(args.q_min), abs(args.q_max + 1e-12))):
        raise DomainError(f"--step {args.step!r} is too small to move q")
    count = math.floor((args.q_max + 1e-12 - args.q_min) / args.step) + 1
    if count > MAX_CURVE_POINTS:
        raise SizeGuardError(f"curve grid refused: {count} points (> {MAX_CURVE_POINTS})")
    qs = []
    q = args.q_min
    while q <= args.q_max + 1e-12:
        qs.append(float(f"{q:.12g}"))  # the precision _fmt writes
        q += args.step
    if len(set(qs)) < len(qs):
        raise DomainError(f"--step {args.step!r} is below the grid's 12 significant digits")
    if args.kind == "hardness":
        pts = curves.hardness_curve(args.problem, qs, flatten=args.flatten)
    else:
        pts = curves.approx_curve(args.problem, qs, flatten=args.flatten)
    lines = _header_lines("curves", args)
    lines.append("q,ratio,rho_star,flattened")
    for p in pts:
        rho = _fmt(p.rho_star) if p.rho_star is not None else ""
        lines.append(f"{_fmt(p.q)},{_fmt(p.ratio)},{rho},{int(p.flattened)}")
    _write(args.out, lines)
    print(f"wrote {len(pts)} points to {args.out}")
    return 0


def _cmd_brute(args) -> int:
    inst = parse_instance(Path(args.input).read_text(encoding="utf-8"))
    a, val = brute_force_opt(inst)
    print(f"optval {_fmt(val)}")
    print(_assignment_str(a))
    return 0


def _relax_and_solve(args) -> tuple[CCInstance, float | None, sdp.SDPSolution]:
    """Parse the input and solve its relaxation, seeded with the brute-force optimum
    when n <= 18.  Returns the instance, that optimum (None for larger n), the solution."""
    inst = parse_instance(Path(args.input).read_text(encoding="utf-8"))
    opt_a, opt = brute_force_opt(inst) if inst.n <= _BRUTE_SEED_MAX_N else (None, None)
    opts = sdp.SolveOptions(
        restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    return inst, opt, sdp.solve_instance(inst, opts, integral_seed=opt_a)


def _cmd_sdp(args) -> int:
    _, _, sol = _relax_and_solve(args)
    print(f"objective {_fmt(sol.objective_value)}")
    print(f"converged {int(sol.converged)}")
    print(f"restart {sol.restart_index}")
    for key, val in sol.residuals.items():
        print(f"residual_{key} {val:.6g}")
    if args.dump_gram:
        lines = _header_lines("sdp", args)
        for row in sol.vectors @ sol.vectors.T:
            lines.append(",".join(f"{v:.17g}" for v in row))
        _write(args.dump_gram, lines)
        print(f"wrote gram matrix to {args.dump_gram}")
    return 0


def _cmd_solve(args) -> int:
    inst, opt, sol = _relax_and_solve(args)
    report = rounding.round_best_of(sol, inst, rounds=args.rounds, seed=args.seed)
    kv: list[tuple[str, str]] = [
        ("sdp_objective", _fmt(sol.objective_value)),
        ("sdp_converged", str(int(sol.converged))),
        ("sdp_residual_balance", f"{sol.residuals['balance']:.6g}"),
        ("sdp_residual_triangle", f"{sol.residuals['triangle_max_violation']:.6g}"),
        ("rounds", str(report.rounds)),
        ("best_value", _fmt(report.best_value)),
        ("best_round", str(report.best_round)),
        ("best_assignment", _assignment_str(report.best_assignment)),
        ("cardinality", str(cardinality(report.best_assignment))),
        ("pre_repair_gap_mean", _fmt(report.pre_repair_gap_mean)),
        ("pre_repair_gap_max", _fmt(report.pre_repair_gap_max)),
        ("repair_flips", ",".join(str(f) for f in report.repair_flips)),
    ]
    if opt is not None:
        kv.append(("brute_force_optval", _fmt(opt)))
        kv.append(("realized_ratio", _fmt(report.best_value / opt if opt > 0 else 1.0)))
    for key, val in kv:
        print(f"{key} {val}")
    if args.report:
        lines = _header_lines("solve", args) + [f"{k} {v}" for k, v in kv]
        _write(args.report, lines)
    return 0


def _cmd_gadget(args) -> int:
    ug = gadget.parse_ug(Path(args.ug).read_text(encoding="utf-8"))
    graph = gadget.build_gadget(ug, args.q, _rho_at(args.rho, args.q))
    lines = _header_lines("gadget", args)
    lines.append(gadget.format_graph(graph).rstrip("\n"))
    _write(args.out, lines)
    print(f"wrote {graph.n_vertices} vertices, {graph.edge_w.size} edge entries to {args.out}")
    return 0


def _cmd_density(args) -> int:
    if not math.isfinite(args.eps):
        raise DomainError(f"--eps must be finite, got {args.eps!r}")
    graph = gadget.parse_graph(Path(args.graph).read_text(encoding="utf-8"))
    mode = "exact" if args.mode == "exact" else "local_search"
    profile = gadget.density_profile(graph, args.r, mode=mode, seed=args.seed)
    # the threshold gamma_rho(r, r) reads each r as q; resolved before any row prints
    rhos = [None if args.rho is None else _rho_at(args.rho, s.r) for s in profile.samples]
    for s, rho in zip(profile.samples, rhos):
        line = (f"r={_fmt(s.r)} min_density={_fmt(s.min_density_found)} "
                f"method={s.method} candidates={s.n_candidates}")
        if rho is not None:
            threshold = gamma_rho(rho, s.r, s.r) - args.eps
            verdict = "DENSE" if s.min_density_found >= threshold else "SPARSE"
            line += f" threshold={_fmt(threshold)} {verdict}"
        print(line)
    return 0


def _cmd_completeness(args) -> int:
    ug = gadget.parse_ug(Path(args.ug).read_text(encoding="utf-8"))
    labeling = gadget.parse_labeling(Path(args.labeling).read_text(encoding="utf-8"), ug)
    rho = _rho_at(args.rho, args.q)
    graph = gadget.build_gadget(ug, args.q, rho)
    mask, w_s, cut = gadget.completeness_set(ug, labeling, graph)
    print(f"ug_value {_fmt(gadget.ug_value(ug, labeling))}")
    print(f"set_size {int(np.sum(mask))}")
    print(f"set_weight {_fmt(w_s)}")
    print(f"cut_weight {_fmt(cut)}")
    print(f"two_t {_fmt(2 * gadget.nu(args.q, rho).t)}")
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    for suite in args.suite:
        for row in verify.run_suite(suite, seed=args.seed):
            verdict = "PASS" if row.ok else "FAIL"
            print(f"{verdict} {row.suite}.{row.name} measured={row.measured:.6g} "
                  f"bound={row.bound:.6g}")
            failures += 0 if row.ok else 1
    if failures:
        print(f"{failures} invariant(s) failed", file=sys.stderr)
        return 4
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged, and its
    defaults are immutable, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="ccmax",
        description="Cardinality-constrained Max-2-CSP toolkit: ratio curves, "
                    "relaxation + rounding solver, reduction gadgets.")
    parser.add_argument("--version", action="version", version=f"ccmax {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="bivariate orthant probability")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("curves", help="hardness/approximation curve CSV")
    p.add_argument("--problem", choices=["cut", "vc", "2sat"], required=True)
    p.add_argument("--kind", choices=["hardness", "alpha"], required=True)
    p.add_argument("--q-min", type=float, required=True)
    p.add_argument("--q-max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.004)
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("brute", help="exact optimum by enumeration")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_brute)

    defaults = sdp.SolveOptions()
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--input", required=True)
    solver.add_argument("--restarts", type=int, default=defaults.restarts)
    solver.add_argument("--seed", type=int, default=defaults.seed)
    solver.add_argument("--max-iters", type=int, default=defaults.max_iters)

    p = sub.add_parser("sdp", parents=[solver], help="solve the vector relaxation")
    p.add_argument("--dump-gram")
    p.set_defaults(func=_cmd_sdp)

    p = sub.add_parser("solve", parents=[solver], help="relaxation + threshold rounding")
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_solve)

    extremal = "a correlation, or 'extremal' for the left end of kappa(q)"
    p = sub.add_parser("gadget", help="build the reduction graph")
    p.add_argument("--ug", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--rho", type=_rho_arg, required=True, help=extremal)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gadget)

    p = sub.add_parser("density", help="minimum subset density profile")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=["exact", "search"], required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--r", type=float, nargs="+", default=(0.25, 0.5, 0.75))
    p.add_argument("--rho", type=_rho_arg,
                   help="report the density threshold at this correlation; "
                        "'extremal' takes the left end of kappa(r) for each r")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("completeness", help="evaluate a labeling's gadget set")
    p.add_argument("--ug", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--rho", type=_rho_arg, required=True, help=extremal)
    p.set_defaults(func=_cmd_completeness)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=sorted(verify.SUITES), nargs="+", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            code = args.func(args)
        except SizeGuardError as exc:
            code, error = 3, f"refused: {exc}"
        except (CcmaxError, OSError, UnicodeDecodeError) as exc:
            code, error = 2, f"error: {exc}"
    # a warning names the input file (or the command), not the package line that raised it
    source = next((getattr(args, key) for key in ("input", "ug", "graph") if hasattr(args, key)),
                  args.command)
    for w in caught:
        print(f"warning: {source}: {w.message}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
