"""Tests for the relaxation builder and the low-rank solver."""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from instance_oracles import criterion_7_instances, relax_arrays_oracle
from sdp_oracles import (
    dloss_dgram_oracle,
    objective_from_vectors,
    relax_oracle,
    residuals_from_vectors,
    solve_oracle,
)

from ccmax.curves import triangle_violation
from ccmax.errors import DomainError, SizeGuardError
from ccmax.instance import (
    OR_PATTERNS,
    CCInstance,
    Constraint,
    Or,
    Xor,
    brute_force_opt,
    cardinality,
    constraint_value,
    evaluate,
    random_instance,
)
from ccmax.rounding import round_best_of
from ccmax import sdp
from ccmax.sdp import (
    MAX_DENSE_BYTES,
    TOL,
    SDPSolution,
    SolveOptions,
    _workers,
    relax,
    solve,
    solve_instance,
)


def cycle(n: int, k: int) -> CCInstance:
    cons = tuple(Constraint(i, (i + 1) % n, 1.0, Xor(-1)) for i in range(n))
    return CCInstance(n=n, k=k, constraints=cons, problem="cut")


KINDS = {
    "cut": [Xor(-1)],
    "2lin": [Xor(-1), Xor(1)],
    "kvc": [Or((1, 1, -1))],
    "2sat": [Or(p) for p in OR_PATTERNS],
}


@st.composite
def any_instances(draw) -> CCInstance:
    """Any of the four problems; self-loops, zero weights and no constraints included."""
    problem = draw(st.sampled_from(sorted(KINDS)))
    n = draw(st.integers(1, 9))
    ends = st.integers(0, n - 1)
    weights = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
    cons = draw(st.lists(st.builds(Constraint, ends, ends, weights,
                                   st.sampled_from(KINDS[problem])), max_size=30))
    assume(not cons or sum(c.weight for c in cons) > 0.0)
    return CCInstance(n=n, k=draw(st.integers(0, n)), constraints=tuple(cons), problem=problem)


def problem_bytes(p) -> tuple:
    arrays = (p.obj_p, p.obj_q, p.obj_c, np.float64(p.offset), p.tri)
    return (p.n, p.dim, p.balance_target,
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def embed(a: np.ndarray, dim: int) -> np.ndarray:
    V = np.zeros((a.size + 1, dim))
    V[0, 0] = 1.0
    V[1:, 0] = a
    return V


class TestRelax:
    def test_single_cut_edge(self):
        inst = CCInstance(n=2, k=1, constraints=(Constraint(0, 1, 1.0, Xor(-1)),), problem="cut")
        p = relax(inst)
        assert p.offset == 0.5
        assert (p.obj_p.tolist(), p.obj_q.tolist(), p.obj_c.tolist()) == ([1], [2], [-0.5])
        assert p.tri.tolist() == [[1, 2]]
        assert p.balance_target == 0.0  # 2k - n

    def test_dense_array_guard(self):
        # relax allocates nothing dense itself, so the accepted side of the bound runs too
        def wide(n):
            return CCInstance(n=n, k=1, constraints=(Constraint(0, 1, 1.0, Xor(-1)),),
                              problem="cut")
        assert relax(wide(5180)).n == 5180
        for n in (5181, 200_000, 10**20):
            with pytest.raises(SizeGuardError, match=f"n={n} needs 5 dense"):
                relax(wide(n))

    def test_balance_target_sign(self):
        inst = CCInstance(n=5, k=4, constraints=(Constraint(0, 1, 1.0, Xor(-1)),), problem="cut")
        assert relax(inst).balance_target == 3.0

    def test_integral_embedding_exact(self):
        inst = random_instance(9, 4, 22, problem="2sat", seed=1)
        p = relax(inst)
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.choice([-1, 1], size=9)
            V = embed(a.astype(float), p.dim)
            assert objective_from_vectors(p, V) == pytest.approx(evaluate(inst, a), abs=1e-12)

    def test_coefficients_match_fourier_oracle(self):
        # independent re-derivation: per-kind coefficients are the Fourier
        # weights E[val], E[val*xi], E[val*xj], E[val*xi*xj] over the 4 inputs
        inst = random_instance(8, 3, 16, problem="2sat", seed=5)
        p = relax(inst)
        terms: dict[tuple[int, int], float] = {}
        for c in inst.constraints:
            quad = lin_i = lin_j = 0.0
            for xi in (-1, 1):
                for xj in (-1, 1):
                    v = constraint_value(c.kind, xi, xj)
                    quad += v * xi * xj / 4
                    lin_i += v * xi / 4
                    lin_j += v * xj / 4
            for key, coeff in ((tuple(sorted((c.i + 1, c.j + 1))), quad),
                               ((0, c.i + 1), lin_i), ((0, c.j + 1), lin_j)):
                if abs(coeff) > 1e-15:
                    terms[key] = terms.get(key, 0.0) + c.weight * coeff
        got = dict(zip(zip(p.obj_p.tolist(), p.obj_q.tolist()), p.obj_c.tolist()))
        assert set(got) == set(terms)
        for key in terms:
            assert got[key] == pytest.approx(terms[key], abs=1e-12)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(any_instances())
    def test_matches_constraint_loop_bit_for_bit(self, inst):
        got, want = relax(inst), relax_oracle(inst)
        assert got.offset.hex() == want.offset.hex()
        assert (list(zip(got.obj_p.tolist(), got.obj_q.tolist()))
                == [(p, q) for p, q, _ in want.objective])
        assert [c.hex() for c in got.obj_c.tolist()] == [c.hex() for _, _, c in want.objective]
        assert got.tri.tolist() == [list(pair) for pair in want.triangle_pairs]
        assert (got.n, got.dim, got.balance_target) == (want.n, want.dim, want.balance_target)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(any_instances())
    def test_matches_constraint_arrays_builder_byte_for_byte(self, inst):
        assert problem_bytes(relax(inst)) == problem_bytes(relax_arrays_oracle(inst))

    def test_criterion_7_instances_byte_for_byte(self):
        for inst in criterion_7_instances():
            assert problem_bytes(relax(inst)) == problem_bytes(relax_arrays_oracle(inst))

    def test_zero_weight_pair_keeps_its_triangles(self):
        inst = CCInstance(n=3, k=1, constraints=(Constraint(0, 1, 1.0, Xor(-1)),
                                                 Constraint(1, 2, 0.0, Xor(-1))), problem="cut")
        p = relax(inst)
        assert p.tri.tolist() == [[1, 2], [2, 3]]
        assert (p.obj_p.tolist(), p.obj_q.tolist()) == ([1], [2])

    def test_self_loops_fold_into_offset(self):
        inst = CCInstance(n=2, k=1,
                          constraints=(Constraint(0, 0, 1.0, Xor(-1)),
                                       Constraint(0, 1, 1.0, Xor(-1))),
                          problem="cut")
        p = relax(inst)
        assert p.offset == 0.5  # the self-loop contributes (1-1)/2 = 0
        assert p.tri.tolist() == [[1, 2]]


class TestCheckTriangle:
    def test_boundary_point(self):
        assert triangle_violation(0.0, 0.0, -1.0) == 0.0

    def test_violation_amount(self):
        assert triangle_violation(0.5, 0.5, -0.5) == pytest.approx(0.5)

    def test_integral_points_feasible(self):
        for a in (-1, 1):
            for b in (-1, 1):
                assert triangle_violation(a, b, a * b) == 0.0


class TestSolve:
    def test_single_edge_antipodal(self):
        inst = CCInstance(n=2, k=1, constraints=(Constraint(0, 1, 1.0, Xor(-1)),), problem="cut")
        sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=4000, seed=1))
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        assert sol.vectors[1] @ sol.vectors[2] == pytest.approx(-1.0, abs=1e-5)

    def test_four_cycle_tight(self):
        inst = cycle(4, 2)
        sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=6000, seed=3),
                             integral_seed=brute_force_opt(inst)[0])
        assert sol.objective_value == pytest.approx(4.0, abs=1e-6)

    def test_five_cycle_gap_and_gram_oracle(self):
        prob = replace(relax(cycle(5, 2)), balance_target=None)
        sol = solve(prob, SolveOptions(restarts=3, max_iters=20000, seed=5))
        assert sol.objective_value / 5 == pytest.approx(0.90450849718747, abs=1e-4)
        _, opt = brute_force_opt(cycle(5, 2))
        assert sol.objective_value >= opt  # 4.52 vs integral 4
        # dense eigendecomposition oracle on the returned Gram matrix
        G = sol.vectors @ sol.vectors.T
        eig = np.linalg.eigvalsh(G)
        assert eig.min() >= -1e-9
        recomputed = prob.offset + sum(c * G[p, q] for p, q, c in
                                       zip(prob.obj_p, prob.obj_q, prob.obj_c))
        assert recomputed == pytest.approx(sol.objective_value, abs=1e-9)

    def test_dominates_integral_optimum(self):
        for seed in (0, 1):
            inst = random_instance(12, 5, 30, problem="2sat", seed=seed)
            opt_a, opt = brute_force_opt(inst)
            sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=6000, seed=seed),
                                 integral_seed=opt_a)
            assert sol.objective_value >= opt - 1e-9
            assert sol.residuals["balance"] <= 1e-5
            assert sol.residuals["triangle_max_violation"] <= 1e-5

    def test_rotation_invariance(self):
        inst = random_instance(8, 3, 15, problem="cut", seed=7)
        p = relax(inst)
        sol = solve_instance(inst, SolveOptions(restarts=1, max_iters=3000, seed=7))
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((p.dim, p.dim)))
        rotated = sol.vectors @ Q
        assert objective_from_vectors(p, rotated) == pytest.approx(
            sol.objective_value, abs=1e-9)

    def test_residuals_reproducible(self):
        inst = random_instance(10, 4, 20, problem="cut", seed=9)
        p = relax(inst)
        sol = solve_instance(inst, SolveOptions(restarts=1, max_iters=3000, seed=9))
        again = residuals_from_vectors(p, sol.vectors)
        for key, val in sol.residuals.items():
            assert again[key] == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("max_iters, seeded", [(3000, True), (3000, False), (5, False)])
    def test_solution_matches_loop_evaluators(self, max_iters, seeded):
        # the reported objective and residuals are read off the chosen
        # iterate's pieces; the loops recompute them from rows
        for seed in range(3):
            inst = random_instance(11, 4, 30, problem=("cut", "2sat", "2lin")[seed], seed=seed)
            p = relax(inst)
            a = brute_force_opt(inst)[0] if seeded else None
            sol = solve(p, SolveOptions(restarts=2, max_iters=max_iters, seed=seed),
                        integral_seed=a)
            V = sol.vectors
            assert sol.objective_value == pytest.approx(objective_from_vectors(p, V), abs=1e-12)
            want = residuals_from_vectors(p, V)
            assert sol.residuals.keys() == want.keys()
            for key, val in want.items():
                assert sol.residuals[key] == pytest.approx(val, abs=1e-12)

    def test_unit_norms(self):
        inst = random_instance(7, 3, 14, problem="2lin", seed=3)
        sol = solve_instance(inst, SolveOptions(restarts=1, max_iters=2000, seed=3))
        norms = np.linalg.norm(sol.vectors, axis=1)
        assert np.max(np.abs(norms - 1)) <= 1e-12
        assert np.all(np.abs(sol.vectors[1:] @ sol.vectors[0]) <= 1 + 1e-9)

    def test_non_convergence_flagged_not_raised(self):
        inst = random_instance(10, 5, 25, problem="cut", seed=11)
        sol = solve_instance(inst, SolveOptions(restarts=1, max_iters=5, seed=11))
        assert isinstance(sol, SDPSolution)
        assert not sol.converged

    def test_returns_a_restart_feasible_to_tol(self):
        # restart 1 ends 4.2e-6 off a triangle inequality at objective 19.21,
        # above restart 0's exactly feasible 18.66 (the brute-force optimum);
        # only restart 0 is feasible to TOL, so it is the one returned
        inst = random_instance(14, 8, 40, problem="cut", seed=117006)
        sol = solve_instance(inst, SolveOptions(2, 2000, 117006),
                             integral_seed=brute_force_opt(inst)[0])
        assert sol.residuals["balance"] <= TOL
        assert sol.residuals["triangle_max_violation"] <= TOL

    def test_deterministic_given_seed(self):
        inst = random_instance(9, 4, 18, problem="cut", seed=13)
        s1 = solve_instance(inst, SolveOptions(restarts=2, max_iters=1500, seed=42))
        s2 = solve_instance(inst, SolveOptions(restarts=2, max_iters=1500, seed=42))
        assert np.array_equal(s1.vectors, s2.vectors)
        assert s1.objective_value == s2.objective_value

    def test_option_validation(self):
        p = relax(cycle(4, 2))
        with pytest.raises(DomainError):
            solve(p, SolveOptions(max_iters=-5))
        with pytest.raises(DomainError):
            solve(p, SolveOptions(restarts=0))


def solution_bits(sol: SDPSolution) -> tuple:
    """Every field of a solution, floats as their bits."""
    floats = np.array([sol.objective_value, *sol.residuals.values()])
    return (sol.vectors.shape, sol.vectors.view(np.uint64).tobytes(),
            floats.view(np.uint64).tolist(),
            list(sol.residuals), sol.converged, sol.restart_index)


class TestSolveMatchesOracle:
    """The solver with bound kernels, one working buffer and gradient reuse
    against the loop that recomputes and reallocates everything each step."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.sampled_from(["cut", "2sat", "2lin", "kvc"]), st.integers(2, 10),
           st.integers(0, 30), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.integers(1, 3), st.sampled_from([0, 1, 49, 50, 99, 100, 101, 199, 200, 201, 350]))
    def test_matches_the_loop_oracle_bit_for_bit(self, problem, n, m, seed, balanced, seeded,
                                                 restarts, max_iters):
        # max_iters sits on and around the loop's 50 (snapshot), 100 (multipliers)
        # and 200 (convergence window) boundaries
        p = relax(random_instance(n, seed % (n + 1), m, problem=problem, seed=seed))
        if not balanced:
            p = replace(p, balance_target=None)
        a = np.random.default_rng(seed).choice([-1, 1], n) if seeded else None
        opts = SolveOptions(restarts, max_iters, seed)
        assert solution_bits(solve(p, opts, a)) == solution_bits(solve_oracle(p, opts, a))

    @pytest.mark.parametrize("j, balanced", [(2, True), (13, True), (6, False)])
    def test_perfbench_solve_inputs_bit_for_bit(self, j, balanced):
        # seed-17 solve-small items as `ccmax solve` runs them: item 2 returns
        # restart 1, item 13 converges, item 6 without its balance equality
        seed = 117_000 + j
        inst = random_instance(14, (4, 10, 7, 5, 9, 6, 8)[j % 7], 40,
                               problem=("cut", "2sat")[j % 2], seed=seed)
        p = relax(inst)
        if not balanced:
            p = replace(p, balance_target=None)
        a = brute_force_opt(inst)[0]
        opts = SolveOptions(2, 2000, seed)
        assert solution_bits(solve(p, opts, a)) == solution_bits(solve_oracle(p, opts, a))


def affinity(cpus: int):
    """A stand-in for `os.sched_getaffinity` that reports `cpus` CPUs."""
    return lambda pid: set(range(cpus))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestRestartsInProcesses:
    """`solve` splits its restarts across forked workers; the bits do not
    depend on the split, and no worker outlives the call."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from(["cut", "2sat", "2lin", "kvc"]), st.integers(2, 8),
           st.integers(0, 20), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.integers(1, 4), st.sampled_from([0, 1, 99, 100, 201, 350]), st.integers(2, 4))
    @example("2sat", 3, 17, 17, True, False, 3, 350, 2)  # restart 0 converges at 350
    def test_parallel_equals_serial_and_the_oracle(self, problem, n, m, seed, balanced, seeded,
                                                   restarts, max_iters, cpus):
        p = relax(random_instance(n, seed % (n + 1), m, problem=problem, seed=seed))
        if not balanced:
            p = replace(p, balance_target=None)
        a = np.random.default_rng(seed).choice([-1, 1], n) if seeded else None
        opts = SolveOptions(restarts, max_iters, seed)
        want = solution_bits(solve_oracle(p, opts, a))
        assert solution_bits(solve(p, opts, a)) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", affinity(1))
            assert solution_bits(solve(p, opts, a)) == want
            # three restarts on two workers, or four on three, split unevenly
            mp.setattr(os, "sched_getaffinity", affinity(cpus))
            assert solution_bits(solve(p, opts, a)) == want
        assert_no_child_left()

    def test_the_converging_example_converges_early(self):
        p = relax(random_instance(3, 1, 17, problem="2sat", seed=17))
        assert solve(p, SolveOptions(3, 350, 17)).converged

    def test_worker_count(self, monkeypatch):
        # one per restart and per CPU, and four dense (n+1)^2 arrays per worker
        # within MAX_DENSE_BYTES; _workers allocates nothing
        monkeypatch.setattr(os, "sched_getaffinity", affinity(8))
        assert [_workers(60, r) for r in (1, 2, 3, 20)] == [1, 2, 3, 8]
        assert (_workers(4095, 3), _workers(4096, 3), _workers(5180, 3)) == (2, 1, 1)
        assert 2 * 4 * 8 * 4096**2 <= MAX_DENSE_BYTES < 2 * 4 * 8 * 4097**2
        monkeypatch.setattr(os, "sched_getaffinity", affinity(2))
        assert (_workers(60, 3), _workers(5180, 3)) == (2, 1)
        monkeypatch.delattr(os, "fork")
        assert _workers(60, 3) == 1

    def test_a_child_exception_is_raised_in_the_parent(self, monkeypatch):
        parent, restart = os.getpid(), sdp._restart

        def failing(problem, opts, integral_seed, r):
            if os.getpid() != parent:
                raise DomainError(f"restart {r} failed in a child")
            return restart(problem, opts, integral_seed, r)

        monkeypatch.setattr(sdp, "_restart", failing)
        monkeypatch.setattr(os, "sched_getaffinity", affinity(3))
        fds = open_fds()
        with pytest.raises(DomainError, match="restart 1 failed in a child"):
            solve(relax(cycle(5, 2)), SolveOptions(3, 50, 0))
        assert_no_child_left()
        assert open_fds() == fds

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, DomainError])
    def test_a_parent_exception_kills_and_reaps_every_child(self, exc, monkeypatch):
        parent = os.getpid()

        def stuck_children(problem, opts, integral_seed, r):
            if os.getpid() == parent:
                raise exc("parent share failed")
            time.sleep(60)

        monkeypatch.setattr(sdp, "_restart", stuck_children)
        monkeypatch.setattr(os, "sched_getaffinity", affinity(3))
        fds = open_fds()
        t0 = time.monotonic()
        with pytest.raises(exc, match="parent share failed"):
            solve(relax(cycle(5, 2)), SolveOptions(3, 50, 0))
        assert time.monotonic() - t0 < 30.0  # killed, not waited for
        assert_no_child_left()
        assert open_fds() == fds

    def test_an_interrupt_while_reading_a_pipe_kills_and_reaps_every_child(self, monkeypatch):
        parent, restart = os.getpid(), sdp._restart

        def slow_children(problem, opts, integral_seed, r):
            if os.getpid() != parent:
                time.sleep(60)
            return restart(problem, opts, integral_seed, r)

        def interrupt(signum, frame):
            raise KeyboardInterrupt("interrupted while reading")

        monkeypatch.setattr(sdp, "_restart", slow_children)
        monkeypatch.setattr(os, "sched_getaffinity", affinity(3))
        fds = open_fds()
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)  # a forked child starts no timer
            with pytest.raises(KeyboardInterrupt, match="interrupted while reading"):
                solve(relax(cycle(5, 2)), SolveOptions(3, 50, 0))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()
        assert open_fds() == fds

    def test_a_child_that_sends_nothing_is_an_error(self, monkeypatch):
        parent = os.getpid()

        def vanishing(problem, opts, integral_seed, r):
            if os.getpid() != parent:
                os._exit(3)
            return (True, 0.0), r, np.zeros((1, 1)), 0.0, 0.0, 0.0, True

        monkeypatch.setattr(sdp, "_restart", vanishing)
        monkeypatch.setattr(os, "sched_getaffinity", affinity(2))
        with pytest.raises(RuntimeError, match="sent nothing"):
            solve(relax(cycle(5, 2)), SolveOptions(2, 50, 0))
        assert_no_child_left()

    def test_an_exception_that_does_not_pickle_arrives_as_its_repr(self, monkeypatch):
        parent, restart = os.getpid(), sdp._restart

        class Local(Exception):  # a local class does not pickle
            pass

        def failing(problem, opts, integral_seed, r):
            if os.getpid() != parent:
                raise Local("unpicklable")
            return restart(problem, opts, integral_seed, r)

        monkeypatch.setattr(sdp, "_restart", failing)
        monkeypatch.setattr(os, "sched_getaffinity", affinity(2))
        with pytest.raises(RuntimeError, match="restart worker failed: .*unpicklable"):
            solve(relax(cycle(5, 2)), SolveOptions(2, 50, 0))
        assert_no_child_left()


def dense_dloss_dgram(problem, V, lam, sigma):
    """Reference: d(loss)/dGram assembled term by term with np.add.at.

    Returns (M, h, viol) from row dot products of V, independently of the
    solver's precomputed flat Gram indices and scatter.
    """
    size = problem.n + 1
    tri, obj_p, obj_q, obj_c = problem.tri, problem.obj_p, problem.obj_q, problem.obj_c
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    mu = V[1:] @ V[0]
    h = float(np.sum(mu)) - problem.balance_target if problem.balance_target is not None else 0.0
    rho = np.einsum("ij,ij->i", V[tri[:, 0]], V[tri[:, 1]])
    forms = np.stack([mu[tri[:, 0] - 1], mu[tri[:, 1] - 1], rho], axis=1) @ signs.T
    viol = np.maximum(0.0, -1.0 - forms)

    M = np.zeros((size, size))
    np.add.at(M, (obj_p, obj_q), -obj_c / 2)
    np.add.at(M, (obj_q, obj_p), -obj_c / 2)
    if problem.balance_target is not None:
        M[0, 1:] += (lam + sigma * h) / 2
        M[1:, 0] += (lam + sigma * h) / 2
    w4 = -sigma * viol
    zero = np.zeros_like(tri[:, 0])
    for col, cidx in ((0, tri[:, 0]), (1, tri[:, 1])):
        np.add.at(M, (zero, cidx), w4 @ signs[:, col] / 2)
        np.add.at(M, (cidx, zero), w4 @ signs[:, col] / 2)
    np.add.at(M, (tri[:, 0], tri[:, 1]), w4 @ signs[:, 2] / 2)
    np.add.at(M, (tri[:, 1], tri[:, 0]), w4 @ signs[:, 2] / 2)
    return M, h, viol


def near_planar(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit rows near one plane: spread-out triples violate triangles."""
    V = 0.1 * rng.standard_normal((n + 1, dim))
    theta = rng.uniform(0.0, 2 * np.pi, n + 1)
    V[:, 0] += np.cos(theta)
    V[:, 1] += np.sin(theta)
    return V / np.linalg.norm(V, axis=1, keepdims=True)


class TestOperators:
    @pytest.mark.parametrize("problem", ["cut", "2sat", "2lin"])
    @pytest.mark.parametrize("balanced", [True, False])
    def test_gradient_matches_dense_assembly(self, problem, balanced):
        for seed in range(3):
            p = relax(random_instance(13, 5, 40, problem=problem, seed=seed))
            if not balanced:
                p = replace(p, balance_target=None)
            V = near_planar(p.n, p.dim, np.random.default_rng(seed))
            cur = p.pieces(V)
            M_ref, h_ref, viol_ref = dense_dloss_dgram(p, V, 0.7, 30.0)
            assert viol_ref.max() > 0.05  # triangle penalties are active
            assert cur.obj == pytest.approx(objective_from_vectors(p, V), abs=1e-12)
            assert cur.h == pytest.approx(h_ref, abs=1e-12)
            assert cur.viol_max == pytest.approx(viol_ref.max(), abs=1e-12)
            assert cur.viol_sq == pytest.approx(np.sum(viol_ref ** 2), abs=1e-12)
            np.testing.assert_allclose(cur.viol, viol_ref, rtol=0, atol=1e-12)
            M = p.dloss_dgram(0.7, 30.0, cur)
            np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(2.0 * (M @ V), 2.0 * (M_ref @ V), rtol=0, atol=1e-12)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.sampled_from(["cut", "2sat", "2lin", "kvc"]), st.integers(2, 12),
           st.integers(0, 30), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
           st.floats(-1e4, 1e4), st.sampled_from([10.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8]))
    def test_matches_two_sigma_oracle_bit_for_bit(self, problem, n, m, seed, balanced,
                                                  planar, lam, sigma):
        # the solver always passes one sigma for both penalties
        p = relax(random_instance(n, seed % (n + 1), m, problem=problem, seed=seed))
        if not balanced:
            p = replace(p, balance_target=None)
        rng = np.random.default_rng(seed)
        V = near_planar(p.n, p.dim, rng) if planar else rng.standard_normal((p.n + 1, p.dim))
        cur = p.pieces(V / np.linalg.norm(V, axis=1, keepdims=True))
        M = p.dloss_dgram(lam, sigma, cur)
        assert np.array_equal(M, dloss_dgram_oracle(p, lam, sigma, sigma, cur))
        assert not np.shares_memory(M, p.M_obj)


class TestDomainEdges:
    @pytest.mark.parametrize("cons", [
        (), (Constraint(1, 1, 0.5, Or((1, 1, -1))), Constraint(2, 2, 2.0, Or((-1, 1, 1))))],
        ids=["no-constraints", "self-loops"])
    def test_no_pairs(self, cons):
        # no triangle forms: nothing violated, and dloss_dgram is M_obj plus the balance term
        p = relax(CCInstance(n=3, k=1, constraints=cons, problem="2sat"))
        assert p.tri.shape == (0, 2)
        V = np.random.default_rng(0).standard_normal((p.n + 1, p.dim))
        cur = p.pieces(V / np.linalg.norm(V, axis=1, keepdims=True))
        assert (cur.viol_max, cur.viol_sq, cur.viol.shape) == (0.0, 0.0, (0, 4))
        want = p.M_obj.copy()
        want[0, 1:] += (0.7 + 30.0 * cur.h) / 2
        want[1:, 0] = want[0, 1:]
        M = p.dloss_dgram(0.7, 30.0, cur)
        assert M.dtype == float and np.array_equal(M, want)

    @pytest.mark.parametrize("inst", [
        CCInstance(n=6, k=2, constraints=(), problem="cut"),
        CCInstance(n=1, k=0, constraints=(), problem="cut"),
        CCInstance(n=1, k=1, constraints=(Constraint(0, 0, 1.0, Xor(1)),), problem="2lin"),
        random_instance(7, 0, 15, problem="2sat", seed=4),
        random_instance(7, 7, 15, problem="cut", seed=4),
    ], ids=["no-constraints", "n1-k0", "n1-k1", "k0", "kn"])
    def test_solve_and_round(self, inst):
        p = relax(inst)
        sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=400, seed=1))
        _, opt = brute_force_opt(inst)
        assert sol.objective_value >= opt - 1e-9
        assert sol.residuals["balance"] <= 1e-5
        assert (sol.vectors[1:] @ sol.vectors[0]).shape == (inst.n,)
        assert sol.vectors.shape == (inst.n + 1, p.dim)
        report = round_best_of(sol, inst, rounds=5, seed=1)
        assert cardinality(report.best_assignment) == inst.k
        assert report.best_value == evaluate(inst, report.best_assignment)
