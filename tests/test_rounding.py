"""Tests for threshold rounding, pair expectations, and repair."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from rounding_oracles import (
    expected_pair_product_oracle,
    round_best_of_oracle,
    round_once_oracle,
    simulate_pair_products_oracle,
)
from sdp_oracles import objective_from_vectors, residuals_from_vectors

from ccmax import curves, rounding
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
    ROUND_BLOCK,
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
from ccmax.verify import draw_pair_configs


def integral_solution(inst: CCInstance, a: np.ndarray, dim: int = 3) -> SDPSolution:
    V = np.zeros((inst.n + 1, dim))
    V[0, 0] = 1.0
    V[1:, 0] = a
    p = relax(inst)
    return SDPSolution(
        vectors=V,
        objective_value=objective_from_vectors(p, V),
        residuals=residuals_from_vectors(p, V), converged=True, restart_index=0)


def unit_row_solution(mus: list[float], dim: int, rng: np.random.Generator) -> SDPSolution:
    """Unit rows v_i = mu_i v_0 + sqrt(1 - mu_i^2) u_i, u_i a random unit vector
    orthogonal to v_0; rounding reads mu back from the normalized rows, as it does
    from `sdp.solve`'s."""
    v0 = rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    U = rng.standard_normal((len(mus), dim))
    U -= np.outer(U @ v0, v0)
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    m = np.array(mus)[:, None]
    V = np.vstack([v0, m * v0 + np.sqrt(1.0 - m * m) * U])
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return SDPSolution(vectors=V, objective_value=0.0, residuals={}, converged=True,
                       restart_index=0)


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
        sol = SDPSolution(vectors=V, objective_value=0.0, residuals={}, converged=True,
                          restart_index=0)
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
        sol = SDPSolution(vectors=V, objective_value=0.0, residuals={}, converged=True,
                          restart_index=0)
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
        assert expected_pair_product(0.0, 0.0, -1.0) == pytest.approx(-1.0, abs=1e-12)

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

    @pytest.mark.parametrize("mu1, mu2, rho", [(0.5, -0.5, 0.9), (1.0, 0.4, 0.5)])
    def test_rejects_configurations_no_unit_vectors_realize(self, mu1, mu2, rho):
        # |rho - mu1 mu2| = 1.15 > 0.75 = sqrt(d2): rho_bar was 1.53, silently clipped to 1;
        # a pinned v_1 = v_0 forces rho = mu2
        with pytest.raises(DomainError, match="realized by no unit vectors"):
            expected_pair_product(mu1, mu2, rho)

    def test_simulation_rejects_configurations_no_unit_vectors_realize(self):
        # it returned 0.00078 for the pair product here
        with pytest.raises(DomainError, match="realized by no unit vectors"):
            simulate_pair_products(0.5, -0.5, 0.9, 100)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_simulation_rejects_fewer_than_one_sample(self, samples):
        with pytest.raises(DomainError, match="samples must be >= 1"):
            simulate_pair_products(0.3, -0.2, -0.4, samples)

    @pytest.mark.parametrize("seed", [0, 17, 29, 77])
    def test_accepts_every_drawn_configuration(self, seed):
        # the triangle tetrahedron lies inside the realizable set
        for m1, m2, rho in draw_pair_configs(stream(seed, 3), 200):
            expected_pair_product(m1, m2, rho)
            curves.rho_bar(m1, m2, rho)


# |mu| = 1, within 1e-12 of 1, and the pinning level 1 - 1e-9
PAIR_MUS = (st.floats(-1.0, 1.0)
            | st.sampled_from([1.0, -1.0, 1.0 - 1e-16, -1.0 + 1e-16, _MU_DETERMINISTIC])
            | st.floats(0.0, 1e-12).map(lambda d: 1.0 - d)
            | st.floats(0.0, 1e-12).map(lambda d: d - 1.0))


@st.composite
def tetrahedron_points(draw) -> tuple[float, float, float]:
    """(mu1, mu2, rho) with rho on its feasible segment, both ends included."""
    m1, m2 = draw(PAIR_MUS), draw(PAIR_MUS)
    lo, hi = curves._rho_range(m1, m2)
    if hi < lo:
        m2 = m1  # mu1 = mu2 keeps a segment
        lo, hi = curves._rho_range(m1, m2)
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return m1, m2, min(hi, max(lo, lo * (1.0 - t) + hi * t))


class TestPairLawMatchesOracle:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(tetrahedron_points())
    @example((1.0, 0.4, 0.4))
    @example((0.0, 0.0, 1.0))
    @example((0.9, 0.9, 0.95))
    def test_expected_pair_product_bit_for_bit(self, point):
        assert (expected_pair_product(*point).hex()
                == expected_pair_product_oracle(*point).hex())

    @pytest.mark.parametrize("seed", [0, 17, 29])
    def test_simulation_bit_for_bit_on_drawn_configurations(self, seed):
        # the shipped rounding makes the copied threshold rule's every decision
        for i, (m1, m2, rho) in enumerate(draw_pair_configs(stream(seed, 3), 6)):
            assert (simulate_pair_products(m1, m2, rho, 20_000, seed=seed + i)
                    == simulate_pair_products_oracle(m1, m2, rho, 20_000, seed=seed + i))


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


def report_bits(rep: RoundingReport) -> tuple:
    """Every field of a report, floats as their bits."""
    a = rep.best_assignment
    return (a.dtype.str, a.tolist(), rep.best_value.hex(), rep.best_round, rep.rounds,
            rep.pre_repair_gap_mean.hex(), rep.pre_repair_gap_max.hex(), rep.repair_flips)


@st.composite
def fractional_rounding_cases(draw) -> tuple[SDPSolution, CCInstance, int]:
    """A solution with random unit rows, some pinned (|mu| >= 1 - 1e-9 or exactly
    +-1), an instance with k in {0, 1, n - 1, n}, and a round count."""
    n = draw(st.integers(2, 9))
    mus = draw(st.lists(st.one_of(st.floats(-0.999, 0.999), st.sampled_from(EDGE_MUS),
                                  st.sampled_from([-m for m in EDGE_MUS])),
                        min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    sol = unit_row_solution(mus, draw(st.integers(2, 6)), np.random.default_rng(seed))
    k = draw(st.sampled_from([0, 1, n - 1, n]))
    inst = random_instance(n, k, draw(st.integers(0, 20)),
                           problem=draw(st.sampled_from(["cut", "2sat"])), seed=seed)
    return sol, inst, draw(st.sampled_from([1, 2, 7, ROUND_BLOCK + 3]))


class TestRoundBestOfMatchesOracle:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(fractional_rounding_cases(), st.integers(0, 2**32 - 1))
    def test_report_matches_the_round_by_round_loop_bit_for_bit(self, case, seed):
        sol, inst, rounds = case
        assert (report_bits(round_best_of(sol, inst, rounds, seed))
                == report_bits(round_best_of_oracle(sol, inst, rounds, seed)))

    def test_scores_one_block_of_rows_at_a_time(self, monkeypatch):
        # a huge --rounds holds one block of repaired rows, not one row per round
        monkeypatch.setattr(rounding, "ROUND_BLOCK", 3)
        scored, in_repair = [], []
        real_evaluate_many, real_repair = rounding.evaluate_many, rounding.repair

        def evaluate_many(inst, rows):
            if not in_repair:  # repair's exact path scores its own flip sets
                scored.append(len(rows))
            return real_evaluate_many(inst, rows)

        def repair(raw, inst, target_k):
            in_repair.append(True)
            try:
                return real_repair(raw, inst, target_k)
            finally:
                in_repair.pop()

        monkeypatch.setattr(rounding, "evaluate_many", evaluate_many)
        monkeypatch.setattr(rounding, "repair", repair)
        rng = np.random.default_rng(8)
        inst = random_instance(9, 4, 20, problem="2sat", seed=8)
        sol = unit_row_solution(rng.uniform(-0.9, 0.9, 9).tolist(), 4, rng)
        report = round_best_of(sol, inst, rounds=10, seed=8)
        assert scored == [3, 3, 3, 1]
        assert report_bits(report) == report_bits(round_best_of_oracle(sol, inst, 10, seed=8))

    def test_earliest_of_equal_rounds_wins(self, monkeypatch):
        # one cut edge with k = 1: every repaired round cuts it, so all ten
        # rounds tie at 1.0, across four blocks
        monkeypatch.setattr(rounding, "ROUND_BLOCK", 3)
        inst = CCInstance(n=2, k=1, constraints=(Constraint(0, 1, 1.0, Xor(-1)),), problem="cut")
        sol = unit_row_solution([0.0, 0.0], 3, np.random.default_rng(0))
        repaired = [repair(round_once(sol, stream(4, t)), inst, 1).tolist() for t in range(10)]
        assert len({tuple(a) for a in repaired}) == 2
        report = round_best_of(sol, inst, rounds=10, seed=4)
        assert (report.best_value, report.best_round) == (1.0, 0)
        assert report.best_assignment.tolist() == repaired[0]
