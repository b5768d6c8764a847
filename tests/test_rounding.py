"""Tests for threshold rounding, pair expectations, and repair."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from rounding_oracles import round_once_oracle
from sdp_oracles import objective_from_vectors, residuals_from_vectors

from ccmax.errors import DomainError
from ccmax.instance import (
    CCInstance,
    Constraint,
    Xor,
    brute_force_opt,
    cardinality,
    constraint_value,
    evaluate,
    random_instance,
)
from ccmax.rounding import (
    _MU_DETERMINISTIC,
    _REPAIR_EXACT_BUDGET,
    RoundingReport,
    expected_pair_product,
    gaussian_vector,
    repair,
    round_best_of,
    round_once,
    simulate_pair_products,
    stream,
)
from ccmax.sdp import SDPSolution, SolveOptions, relax, solve_instance


def integral_solution(inst: CCInstance, a: np.ndarray, dim: int = 3) -> SDPSolution:
    V = np.zeros((inst.n + 1, dim))
    V[0, 0] = 1.0
    V[1:, 0] = a
    p = relax(inst)
    return SDPSolution(
        vectors=V, mu=V[1:] @ V[0], rho={},
        objective_value=objective_from_vectors(p, V),
        residuals=residuals_from_vectors(p, V), converged=True, restart_index=0)


def unit_row_solution(mus: list[float], dim: int, rng: np.random.Generator) -> SDPSolution:
    """Unit rows v_i = mu_i v_0 + sqrt(1 - mu_i^2) u_i, u_i a random unit vector
    orthogonal to v_0; mu is read back from the normalized rows, as `sdp.solve` does."""
    v0 = rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    U = rng.standard_normal((len(mus), dim))
    U -= np.outer(U @ v0, v0)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    m = np.array(mus)[:, None]
    V = np.vstack([v0, m * v0 + np.sqrt(1.0 - m * m) * U])
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return SDPSolution(vectors=V, mu=V[1:] @ V[0], rho={}, objective_value=0.0,
                       residuals={}, converged=True, restart_index=0)


# pinned rows, and |mu| just above and just below the pinning level 1 - 1e-9
EDGE_MUS = [1.0, -1.0, _MU_DETERMINISTIC, -_MU_DETERMINISTIC,
            _MU_DETERMINISTIC + 1e-12, _MU_DETERMINISTIC - 1e-12,
            -_MU_DETERMINISTIC - 1e-12, -_MU_DETERMINISTIC + 1e-12,
            float(np.nextafter(_MU_DETERMINISTIC, 0.0)), 1.0 - 1e-16, 0.0]


def cycle(n: int, k: int) -> CCInstance:
    cons = tuple(Constraint(i, (i + 1) % n, 1.0, Xor(-1)) for i in range(n))
    return CCInstance(n=n, k=k, constraints=cons, problem="cut")


def star(n: int, k: int) -> CCInstance:
    cons = tuple(Constraint(0, i, 1.0, Xor(-1)) for i in range(1, n))
    return CCInstance(n=n, k=k, constraints=cons, problem="cut")


def greedy_repair_oracle(raw: np.ndarray, inst: CCInstance, target_k: int) -> np.ndarray:
    """Repair by greedy flips, each flip's loss summed per incident constraint."""
    a = raw.copy()
    incident: list[list[int]] = [[] for _ in range(inst.n)]
    for t, c in enumerate(inst.constraints):
        incident[c.i].append(t)
        if c.j != c.i:
            incident[c.j].append(t)

    def flip_delta(v: int) -> float:
        delta = 0.0
        for t in incident[v]:
            c = inst.constraints[t]
            xi, xj = int(a[c.i]), int(a[c.j])
            new_xi = -xi if c.i == v else xi
            new_xj = -xj if c.j == v else xj
            delta += c.weight * (constraint_value(c.kind, new_xi, new_xj)
                                 - constraint_value(c.kind, xi, xj))
        return delta

    gap = cardinality(a) - target_k
    while gap != 0:
        sign = 1 if gap > 0 else -1
        pool = np.nonzero(a == sign)[0]
        best_v = int(pool[0])
        best_d = flip_delta(best_v)
        for v in pool[1:]:
            d = flip_delta(int(v))
            if d > best_d + 1e-15:
                best_v, best_d = int(v), d
        a[best_v] = -sign
        gap -= sign
    return a


@st.composite
def over_budget_repairs(draw) -> tuple[np.ndarray, CCInstance, int]:
    """(raw, instance, target) whose flip sets overflow the exact repair's budget."""
    n = draw(st.integers(25, 60))
    cands = draw(st.integers(25, n))  # entries equal to the side that gets flipped
    r = draw(st.integers(6, cands - 6))
    down = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    raw = np.full(n, -1 if down else 1)
    raw[rng.permutation(n)[:cands]] = 1 if down else -1
    ones = cardinality(raw)
    target = ones - r if down else ones + r
    inst = random_instance(
        n, target, draw(st.integers(1, 5 * n)),
        problem=draw(st.sampled_from(("cut", "2lin", "2sat", "kvc"))),
        seed=draw(st.integers(0, 2**16)), weighted=draw(st.booleans()))
    return raw, inst, target


class TestGaussianStream:
    def test_deterministic(self):
        a = gaussian_vector(stream(5, 1), 16)
        b = gaussian_vector(stream(5, 1), 16)
        assert np.array_equal(a, b)
        c = gaussian_vector(stream(5, 2), 16)
        assert not np.array_equal(a, c)

    def test_moments(self):
        g = gaussian_vector(stream(0), 200_000)
        assert abs(float(np.mean(g))) < 0.01
        assert abs(float(np.std(g)) - 1.0) < 0.01


class TestRoundOnce:
    def test_integral_solution_deterministic(self):
        inst = cycle(6, 3)
        a = np.array([1, -1, 1, -1, 1, -1])
        sol = integral_solution(inst, a)
        for t in range(5):
            assert np.array_equal(round_once(sol, stream(9, t)), a)

    def test_identical_unbiased_vectors_move_together(self):
        # all v_i equal and orthogonal to v_0: one hyperplane decides all
        n = 5
        V = np.zeros((n + 1, 3))
        V[0, 0] = 1.0
        V[1:, 1] = 1.0
        sol = SDPSolution(vectors=V, mu=V[1:] @ V[0], rho={}, objective_value=0.0,
                          residuals={}, converged=True, restart_index=0)
        seen = set()
        for t in range(40):
            raw = round_once(sol, stream(2, t))
            assert len(set(raw.tolist())) == 1
            seen.add(int(raw[0]))
        assert seen == {-1, 1}

    def test_marginal_means(self):
        # mixed biases; empirical mean of each coordinate ~ mu_i at 4 sigma
        n = 3
        mus = np.array([0.6, -0.25, 0.0])
        V = np.zeros((n + 1, 4))
        V[0, 0] = 1.0
        for i, m in enumerate(mus):
            V[i + 1, 0] = m
            V[i + 1, 1 + i] = math.sqrt(1 - m * m)
        sol = SDPSolution(vectors=V, mu=V[1:] @ V[0], rho={}, objective_value=0.0,
                          residuals={}, converged=True, restart_index=0)
        draws = 40_000
        acc = np.zeros(n)
        for t in range(draws):
            acc += round_once(sol, stream(17, t))
        emp = acc / draws
        for m, e in zip(mus, emp):
            se = math.sqrt((1 - m * m) / draws)
            assert abs(e - m) <= 4 * se + 1e-12

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.integers(2, 8), st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(EDGE_MUS)),
                                       min_size=1, max_size=12),
           st.integers(0, 2**32 - 1))
    @example(2, [1.0, -1.0, _MU_DETERMINISTIC - 1e-12, 1.0 - 1e-16], 0)
    def test_matches_perturbing_oracle_bit_for_bit(self, dim, mus, seed):
        # on unit rows the parent's zero-direction perturbation never fires
        sol = unit_row_solution(mus, dim, np.random.default_rng(seed))
        for t in range(5):
            assert np.array_equal(round_once(sol, stream(seed, t)),
                                  round_once_oracle(sol, stream(seed, t)))


class TestExpectedPairProduct:
    def test_independent_fair(self):
        assert expected_pair_product(0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_identical_vectors(self):
        assert expected_pair_product(0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_simulation_oracle(self):
        m1, m2, rho = 0.3, -0.2, -0.4
        e = expected_pair_product(m1, m2, rho)
        _, _, s12 = simulate_pair_products(m1, m2, rho, 1_000_000, seed=23)
        se = math.sqrt((1 - e * e) / 1_000_000)
        assert abs(s12 - e) <= 4 * se

    def test_degenerate_bias(self):
        assert expected_pair_product(1.0, 0.4, 0.4) == pytest.approx(0.4)
        assert expected_pair_product(-1.0, 0.4, -0.4) == pytest.approx(-0.4)

    def test_range_clamped(self):
        for m1, m2, rho in [(0.9, 0.9, 0.95), (-0.9, 0.9, -0.95)]:
            assert -1.0 <= expected_pair_product(m1, m2, rho) <= 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            expected_pair_product(1.5, 0.0, 0.0)


class TestRepair:
    def test_feasible_unchanged(self):
        inst = cycle(4, 2)
        raw = np.array([1, -1, 1, -1])
        assert np.array_equal(repair(raw, inst, 2), raw)

    def test_off_by_one_single_flip(self):
        inst = cycle(4, 2)
        raw = np.array([1, 1, 1, -1])
        fixed = repair(raw, inst, 2)
        assert cardinality(fixed) == 2
        assert int(np.sum(fixed != raw)) == 1

    def test_star_matches_exhaustive_oracle(self):
        # all-ones start, keep one: the oracle enumerates every flip set
        for n in (5, 7, 10):
            inst = star(n, 1)
            raw = np.ones(n, dtype=np.int64)
            fixed = repair(raw, inst, 1)
            assert cardinality(fixed) == 1
            best = max(
                evaluate(inst, np.where(np.isin(np.arange(n), combo), -1, 1))
                for combo in itertools.combinations(range(n), n - 1)
            )
            assert evaluate(inst, fixed) == pytest.approx(best, abs=1e-12)
            assert best == n - 1  # keeping the hub cuts every edge

    def test_random_small_matches_exhaustive(self):
        rng = np.random.default_rng(3)
        for seed in range(4):
            inst = random_instance(9, 3, 20, problem="2sat", seed=seed)
            raw = rng.choice([-1, 1], size=9)
            fixed = repair(raw, inst, 3)
            assert cardinality(fixed) == 3
            gap = cardinality(raw) - 3
            sign = 1 if gap > 0 else -1
            cands = [v for v in range(9) if raw[v] == sign]
            best = -np.inf
            for combo in itertools.combinations(cands, abs(gap)):
                trial = raw.copy()
                trial[list(combo)] = -sign
                best = max(best, evaluate(inst, trial))
            assert evaluate(inst, fixed) == pytest.approx(best, abs=1e-12)

    def test_exact_flip_count(self):
        inst = cycle(8, 2)
        raw = np.ones(8, dtype=np.int64)
        fixed = repair(raw, inst, 2)
        assert int(np.sum(fixed != raw)) == 6

    def test_greedy_path_on_large_gap(self):
        # force the combinatorial budget to overflow into the greedy path
        inst = random_instance(24, 6, 60, problem="cut", seed=1)
        raw = np.ones(24, dtype=np.int64)
        fixed = repair(raw, inst, 6)
        assert cardinality(fixed) == 6
        assert int(np.sum(fixed != raw)) == 18

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(over_budget_repairs())
    @example((np.where(np.arange(60) < 40, 1, -1), random_instance(60, 24, 300, seed=3), 24))
    def test_greedy_path_matches_per_constraint_oracle(self, case):
        raw, inst, target = case
        gap = abs(cardinality(raw) - target)
        assert math.comb(int(np.sum(raw == (1 if cardinality(raw) > target else -1))),
                         gap) > _REPAIR_EXACT_BUDGET
        assert np.array_equal(repair(raw, inst, target), greedy_repair_oracle(raw, inst, target))

    def test_rejects_bad_target(self):
        with pytest.raises(DomainError):
            repair(np.ones(4, dtype=np.int64), cycle(4, 2), 5)


class TestRoundBestOf:
    def test_integral_single_round(self):
        inst = cycle(6, 3)
        a = np.array([1, -1, 1, -1, 1, -1])
        rep = round_best_of(integral_solution(inst, a), inst, rounds=1, seed=0)
        assert rep.best_value == evaluate(inst, a)
        assert np.array_equal(rep.best_assignment, a)
        assert rep.pre_repair_gap_max == 0.0
        assert rep.repair_flips == (0,)

    def test_four_cycle_hits_optimum(self):
        inst = cycle(4, 2)
        sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=5000, seed=2),
                             integral_seed=brute_force_opt(inst)[0])
        rep = round_best_of(sol, inst, rounds=50, seed=5)
        assert rep.best_value == 4.0
        assert cardinality(rep.best_assignment) == 2

    def test_report_consistency_and_determinism(self):
        inst = random_instance(12, 5, 28, problem="2sat", seed=3)
        sol = solve_instance(inst, SolveOptions(restarts=1, max_iters=3000, seed=3))
        r1 = round_best_of(sol, inst, rounds=40, seed=11)
        r2 = round_best_of(sol, inst, rounds=40, seed=11)
        assert isinstance(r1, RoundingReport)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_assignment, r2.best_assignment)
        assert r1.repair_flips == r2.repair_flips
        assert len(r1.repair_flips) == 40
        assert cardinality(r1.best_assignment) == inst.k
        assert evaluate(inst, r1.best_assignment) == r1.best_value
        assert 0 <= r1.best_round < 40

    def test_quality_floor_small_suite(self):
        # ratio vs brute force on a few mixed instances
        for seed in range(3):
            prob = "cut" if seed % 2 == 0 else "2sat"
            inst = random_instance(10, 4, 24, problem=prob, seed=40 + seed)
            opt_a, opt = brute_force_opt(inst)
            sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=4000, seed=seed),
                                 integral_seed=opt_a)
            rep = round_best_of(sol, inst, rounds=100, seed=seed)
            assert rep.best_value / opt >= 0.858

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 2**16))
    def test_gap_is_twice_the_flips(self, n, seed):
        # the pre-repair gap read off each raw rounding, on fractional solutions
        rng = np.random.default_rng(seed)
        inst = random_instance(n, int(rng.integers(0, n + 1)), 2 * n, problem="cut", seed=seed)
        sol = unit_row_solution(rng.uniform(-0.9, 0.9, n).tolist(), 4, rng)
        rep = round_best_of(sol, inst, rounds=20, seed=seed)
        gaps = [abs(float(np.sum(round_once(sol, stream(seed, t)))) - inst.balance)
                for t in range(20)]
        assert rep.pre_repair_gap_mean == float(np.mean(gaps))
        assert rep.pre_repair_gap_max == float(np.max(gaps))

    def test_rejects_zero_rounds(self):
        inst = cycle(4, 2)
        sol = integral_solution(inst, np.array([1, -1, 1, -1]))
        with pytest.raises(DomainError):
            round_best_of(sol, inst, rounds=0)
