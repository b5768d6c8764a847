"""Tests for the relaxation builder and the low-rank solver."""

from __future__ import annotations

import numpy as np
import pytest

from ccmax.errors import DomainError
from ccmax.instance import (
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
from ccmax.sdp import (
    SDPSolution,
    _Operators,
    SolveOptions,
    check_triangle,
    gram_matrix,
    objective_from_vectors,
    relax,
    residuals_from_vectors,
    solve,
    solve_instance,
    unconstrained,
)


def cycle(n: int, k: int) -> CCInstance:
    cons = tuple(Constraint(i, (i + 1) % n, 1.0, Xor(-1)) for i in range(n))
    return CCInstance(n=n, k=k, constraints=cons, problem="cut")


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
        assert p.objective == ((1, 2, -0.5),)
        assert p.triangle_pairs == ((1, 2),)
        assert p.balance_target == 0.0  # 2k - n

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
        got = {(a, b): w for a, b, w in p.objective}
        assert set(got) == set(terms)
        for key in terms:
            assert got[key] == pytest.approx(terms[key], abs=1e-12)

    def test_self_loops_fold_into_offset(self):
        inst = CCInstance(n=2, k=1,
                          constraints=(Constraint(0, 0, 1.0, Xor(-1)),
                                       Constraint(0, 1, 1.0, Xor(-1))),
                          problem="cut")
        p = relax(inst)
        assert p.offset == 0.5  # the self-loop contributes (1-1)/2 = 0
        assert p.triangle_pairs == ((1, 2),)


class TestCheckTriangle:
    def test_boundary_point(self):
        assert check_triangle(0.0, 0.0, -1.0) == 0.0

    def test_violation_amount(self):
        assert check_triangle(0.5, 0.5, -0.5) == pytest.approx(0.5)

    def test_integral_points_feasible(self):
        for a in (-1, 1):
            for b in (-1, 1):
                assert check_triangle(a, b, a * b) == 0.0


class TestSolve:
    def test_single_edge_antipodal(self):
        inst = CCInstance(n=2, k=1, constraints=(Constraint(0, 1, 1.0, Xor(-1)),), problem="cut")
        sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=4000, seed=1))
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        assert sol.rho[(0, 1)] == pytest.approx(-1.0, abs=1e-5)

    def test_four_cycle_tight(self):
        sol = solve_instance(cycle(4, 2), SolveOptions(restarts=2, max_iters=6000, seed=3),
                             use_brute_force_seed=True)
        assert sol.objective_value == pytest.approx(4.0, abs=1e-6)

    def test_five_cycle_gap_and_gram_oracle(self):
        prob = unconstrained(relax(cycle(5, 2)))
        sol = solve(prob, SolveOptions(restarts=3, max_iters=20000, seed=5))
        assert sol.objective_value / 5 == pytest.approx(0.90450849718747, abs=1e-4)
        _, opt = brute_force_opt(cycle(5, 2))
        assert sol.objective_value >= opt  # 4.52 vs integral 4
        # dense eigendecomposition oracle on the returned Gram matrix
        G = gram_matrix(sol)
        eig = np.linalg.eigvalsh(G)
        assert eig.min() >= -1e-9
        recomputed = prob.offset + sum(c * G[p, q] for p, q, c in prob.objective)
        assert recomputed == pytest.approx(sol.objective_value, abs=1e-9)

    def test_dominates_integral_optimum(self):
        for seed in (0, 1):
            inst = random_instance(12, 5, 30, problem="2sat", seed=seed)
            _, opt = brute_force_opt(inst)
            sol = solve_instance(inst, SolveOptions(restarts=2, max_iters=6000, seed=seed),
                                 use_brute_force_seed=True)
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

    def test_unit_norms(self):
        inst = random_instance(7, 3, 14, problem="2lin", seed=3)
        sol = solve_instance(inst, SolveOptions(restarts=1, max_iters=2000, seed=3))
        norms = np.linalg.norm(sol.vectors, axis=1)
        assert np.max(np.abs(norms - 1)) <= 1e-12
        assert np.all(np.abs(sol.mu) <= 1 + 1e-9)

    def test_non_convergence_flagged_not_raised(self):
        inst = random_instance(10, 5, 25, problem="cut", seed=11)
        sol = solve_instance(inst, SolveOptions(restarts=1, max_iters=5, seed=11))
        assert isinstance(sol, SDPSolution)
        assert not sol.converged

    def test_deterministic_given_seed(self):
        inst = random_instance(9, 4, 18, problem="cut", seed=13)
        s1 = solve_instance(inst, SolveOptions(restarts=2, max_iters=1500, seed=42))
        s2 = solve_instance(inst, SolveOptions(restarts=2, max_iters=1500, seed=42))
        assert np.array_equal(s1.vectors, s2.vectors)
        assert s1.objective_value == s2.objective_value

    def test_option_validation(self):
        p = relax(cycle(4, 2))
        with pytest.raises(DomainError):
            solve(p, SolveOptions(tol=0.0))
        with pytest.raises(DomainError):
            solve(p, SolveOptions(restarts=0))


def dense_dloss_dgram(problem, V, lam, sigma_bal, sigma_tri):
    """Reference: d(loss)/dGram assembled term by term with np.add.at.

    Returns (M, h, viol) from row dot products of V, independently of the
    solver's precomputed flat Gram indices and scatter.
    """
    size = problem.n + 1
    tri = np.array(problem.triangle_pairs, dtype=np.int64).reshape(-1, 2)
    obj_p = np.array([p for p, _, _ in problem.objective], dtype=np.int64)
    obj_q = np.array([q for _, q, _ in problem.objective], dtype=np.int64)
    obj_c = np.array([c for _, _, c in problem.objective])
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
        M[0, 1:] += (lam + sigma_bal * h) / 2
        M[1:, 0] += (lam + sigma_bal * h) / 2
    w4 = -sigma_tri * viol
    zero = np.zeros_like(tri[:, 0])
    for col, cidx in ((0, tri[:, 0]), (1, tri[:, 1])):
        np.add.at(M, (zero, cidx), w4 @ signs[:, col] / 2)
        np.add.at(M, (cidx, zero), w4 @ signs[:, col] / 2)
    np.add.at(M, (tri[:, 0], tri[:, 1]), w4 @ signs[:, 2] / 2)
    np.add.at(M, (tri[:, 1], tri[:, 0]), w4 @ signs[:, 2] / 2)
    return M, h, viol


class TestOperators:
    @pytest.mark.parametrize("problem", ["cut", "2sat", "2lin"])
    @pytest.mark.parametrize("balanced", [True, False])
    def test_gradient_matches_dense_assembly(self, problem, balanced):
        for seed in range(3):
            p = relax(random_instance(13, 5, 40, problem=problem, seed=seed))
            if not balanced:
                p = unconstrained(p)
            # near-planar unit vectors: spread-out triples violate triangles
            rng = np.random.default_rng(seed)
            V = 0.1 * rng.standard_normal((p.n + 1, p.dim))
            theta = rng.uniform(0.0, 2 * np.pi, p.n + 1)
            V[:, 0] += np.cos(theta)
            V[:, 1] += np.sin(theta)
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            ops = _Operators(p)
            cur = ops.pieces(V)
            M_ref, h_ref, viol_ref = dense_dloss_dgram(p, V, 0.7, 30.0, 100.0)
            assert viol_ref.max() > 0.05  # triangle penalties are active
            assert cur.obj == pytest.approx(objective_from_vectors(p, V), abs=1e-12)
            assert cur.h == pytest.approx(h_ref, abs=1e-12)
            assert cur.viol_max == pytest.approx(viol_ref.max(), abs=1e-12)
            assert cur.viol_sq == pytest.approx(np.sum(viol_ref ** 2), abs=1e-12)
            np.testing.assert_allclose(cur.viol, viol_ref, rtol=0, atol=1e-12)
            M = ops.dloss_dgram(0.7, 30.0, 100.0, cur)
            np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(2.0 * (M @ V), 2.0 * (M_ref @ V), rtol=0, atol=1e-12)


class TestDomainEdges:
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
        assert sol.mu.shape == (inst.n,)
        if not p.triangle_pairs:
            assert sol.rho == {}
        report = round_best_of(sol, inst, rounds=5, seed=1)
        assert cardinality(report.best_assignment) == inst.k
        assert report.best_value == evaluate(inst, report.best_assignment)
