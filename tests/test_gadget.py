"""Tests for gadget graph construction, completeness, and density."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from ccmax.errors import DomainError, FormatError, SizeGuardError
from ccmax.gadget import (
    Labeling,
    NuDistribution,
    UGInstance,
    WeightedGraph,
    biased_product_weights,
    build_gadget,
    completeness_set,
    density_profile,
    derive_cc_instance,
    format_graph,
    format_ug,
    nu,
    parse_graph,
    parse_labeling,
    parse_ug,
    random_ug,
    ug_value,
)
from ccmax.gaussian import gamma_rho
from ccmax.instance import brute_force_opt, evaluate

SINGLE_EDGE_UG = UGInstance(1, 1, 1, ((0, 0, (0,)),))


class TestNu:
    def test_fair_independent(self):
        d = nu(0.5, 0.0)
        assert (d.p00, d.p01, d.p10, d.p11) == (0.25, 0.25, 0.25, 0.25)
        assert d.t == 0.25

    def test_extremal_kills_diagonal(self):
        d = nu(0.3, -3.0 / 7.0)
        assert d.t == pytest.approx(0.3, abs=1e-15)
        assert d.p11 == pytest.approx(0.0, abs=1e-15)

    def test_arithmetic_recheck(self):
        d = nu(0.4, -0.2)
        assert d.t == pytest.approx(0.288, abs=1e-15)
        assert (d.p00, d.p01, d.p10, d.p11) == pytest.approx(
            (0.312, 0.288, 0.288, 0.112), abs=1e-15)

    def test_table_sums_to_one_and_marginals(self):
        for q, rho in [(0.25, -0.3), (0.6, -0.5), (0.5, 0.7)]:
            d = nu(q, rho)
            assert d.p00 + d.p01 + d.p10 + d.p11 == pytest.approx(1.0, abs=1e-15)
            assert d.p10 + d.p11 == pytest.approx(q, abs=1e-15)
            assert d.p01 + d.p11 == pytest.approx(q, abs=1e-15)

    def test_rejects_negative_mass(self):
        with pytest.raises(DomainError):
            nu(0.3, -0.6)  # below -q/(1-q) = -3/7
        with pytest.raises(DomainError):
            nu(0.0, -0.1)
        with pytest.raises(DomainError):
            nu(0.4, 1.5)


class TestBuildGadget:
    def test_single_edge_hand_check(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        assert g.n_vertices == 2
        assert np.allclose(g.vertex_weights, [0.5, 0.5])
        assert g.edge_w.size == 4
        assert np.allclose(g.edge_w, 0.25)
        assert g.total_vertex_weight() == pytest.approx(1.0, abs=1e-15)
        assert g.total_edge_weight() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("q,rho", [(0.365, -0.365 / 0.635), (0.5, -0.5)])
    def test_invariants_random_ug(self, q, rho):
        ug, _ = random_ug(3, 3, 3, 2, seed=1)
        g = build_gadget(ug, q, rho)
        assert abs(g.total_vertex_weight() - 1.0) <= 1e-12
        assert abs(g.total_edge_weight() - 1.0) <= 1e-12
        inc = g.incident_weights()
        assert np.max(np.abs(g.vertex_weights - inc / 2)) <= 1e-12

    def test_vertex_count_and_weights(self):
        ug, _ = random_ug(2, 2, 3, 2, seed=2)
        q = 0.3
        g = build_gadget(ug, q, -0.2)
        assert g.n_vertices == 2 * 8
        base = biased_product_weights(q, 3)
        assert np.allclose(g.vertex_weights[:8], base / 2)

    def test_subset_weight_identity_random(self):
        ug, _ = random_ug(2, 4, 3, 2, seed=3)
        g = build_gadget(ug, 0.4, -0.3)
        rng = np.random.default_rng(0)
        for _ in range(100):
            mask = rng.random(g.n_vertices) < 0.5
            lhs = g.coverage_weight(mask)
            rhs = g.subset_weight(mask) + 0.5 * g.cut_weight(mask)
            assert abs(lhs - rhs) <= 1e-12

    def test_extremal_rho_prunes_both_ones(self):
        # no surviving edge entry can pair the distinguished coordinates
        # with both bits set; checked against an explicit tensor oracle
        ug = UGInstance(1, 2, 2, ((0, 0, (0, 1)), (0, 1, (1, 0))))
        q = 0.3
        rho = -q / (1 - q)
        g = build_gadget(ug, q, rho)
        d = nu(q, rho)
        table = d.table()
        # oracle: aggregate weights by endpoint pair via direct tensor sums
        expected: dict[tuple[int, int], float] = {}
        perms = {0: (0, 1), 1: (1, 0)}
        for v1, v2 in itertools.product((0, 1), repeat=2):
            p1, p2 = perms[v1], perms[v2]
            for x in range(4):
                for y in range(4):
                    w = 1.0
                    for i in range(2):
                        cx = (x >> p1[i]) & 1
                        cy = (y >> p2[i]) & 1
                        w *= table[(cx, cy)]
                    w /= 1 * 2 * 2
                    if w > 0:
                        key = ((v1 << 2) | x, (v2 << 2) | y)
                        expected[key] = expected.get(key, 0.0) + w
        got: dict[tuple[int, int], float] = {}
        for a, b, w in zip(g.edge_a, g.edge_b, g.edge_w):
            got[(int(a), int(b))] = got.get((int(a), int(b)), 0.0) + float(w)
        assert set(got) == set(expected)
        for key in expected:
            assert got[key] == pytest.approx(expected[key], abs=1e-15)

    def test_label_guard(self):
        ug = UGInstance(1, 1, 1, ((0, 0, (0,)),))
        big = UGInstance(1, 1, 15, ((0, 0, tuple(range(15))),))
        with pytest.raises(SizeGuardError, match="15 labels"):
            build_gadget(big, 0.5, -0.5)
        build_gadget(ug, 0.5, -0.5)  # fine

    def test_entry_estimate_guard(self):
        ug = UGInstance(1, 1, 12, ((0, 0, tuple(range(12))),))
        with pytest.raises(SizeGuardError, match="edge entries"):
            build_gadget(ug, 0.5, -0.5)  # 4^12 = 16.7M entries


class TestCompleteness:
    def test_fully_satisfied_exact(self):
        for seed in range(3):
            ug, hidden = random_ug(3, 3, 3, 2, seed=seed)
            assert ug_value(ug, hidden) == 1.0
            for q, rho in [(0.365, -0.5), (0.5, 0.0)]:
                g = build_gadget(ug, q, rho)
                _, w_s, cut = completeness_set(ug, hidden, g, q, rho)
                t = (q - q * q) * (1 - rho)
                assert w_s == pytest.approx(q, abs=1e-12)
                assert cut == pytest.approx(2 * t, abs=1e-12)

    def test_extremal_rho_cut_is_two_q(self):
        ug, hidden = random_ug(2, 2, 2, 1, seed=4)
        q = 0.365
        rho = -q / (1 - q)
        g = build_gadget(ug, q, rho)
        _, w_s, cut = completeness_set(ug, hidden, g, q, rho)
        assert cut == pytest.approx(2 * q, abs=1e-12)

    def test_violated_labeling_respects_bound(self):
        for seed in range(5):
            ug, hidden = random_ug(4, 4, 3, 3, seed=seed)
            # corrupt one right label to violate some constraints
            right = list(hidden.right)
            right[0] = (right[0] + 1) % ug.n_labels
            z = Labeling(left=hidden.left, right=tuple(right))
            gamma = 1.0 - ug_value(ug, z)
            q, rho = 0.4, -0.35
            g = build_gadget(ug, q, rho)
            _, w_s, cut = completeness_set(ug, z, g, q, rho)
            t = (q - q * q) * (1 - rho)
            assert w_s == pytest.approx(q, abs=1e-12)
            assert cut >= 2 * t * (1 - gamma) ** 2 - 1e-12

    def test_labeling_validation(self):
        ug, hidden = random_ug(2, 2, 2, 1, seed=0)
        g = build_gadget(ug, 0.4, -0.3)
        with pytest.raises(DomainError):
            completeness_set(ug, Labeling(left=hidden.left, right=(0,)), g, 0.4, -0.3)


class TestDensityProfile:
    def test_single_edge_independence_saturates(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        prof = density_profile(g, [0.5, 1.0], mode="exact", tol_r=1e-9)
        assert prof.samples[0].min_density_found == pytest.approx(0.25, abs=1e-15)
        assert prof.samples[1].min_density_found == pytest.approx(1.0, abs=1e-12)

    def test_dictatorship_violates_density_random_sets_dont(self):
        ug, hidden = random_ug(1, 1, 4, 1, seed=6)
        q, rho = 0.5, -0.5
        g = build_gadget(ug, q, rho)
        assert g.n_vertices == 16
        mask, w_s, _ = completeness_set(ug, hidden, g, q, rho)
        t = (q - q * q) * (1 - rho)
        internal = g.internal_weight(mask)
        threshold = gamma_rho(rho, q, q)
        assert internal == pytest.approx(q - t, abs=1e-13)
        assert internal < threshold - 1e-3  # the quantitative gap
        # exact enumeration confirms the *minimum* at weight q is the
        # dictatorship value, i.e. the graph is not (q, Gamma_rho(q))-dense
        prof = density_profile(g, [q], mode="exact", tol_r=1e-9)
        assert prof.samples[0].min_density_found == pytest.approx(q - t, abs=1e-13)
        # the vast majority of random sets clear the density threshold at
        # their own weight level (a uniform draw violates with small
        # positive probability, so this is a fixed-seed supermajority)
        rng = np.random.default_rng(12)
        tol = float(np.max(g.vertex_weights))
        cleared = 0
        checked = 0
        while checked < 40:
            m = rng.random(16) < q
            if abs(g.subset_weight(m) - q) > tol or np.array_equal(m, mask):
                continue
            checked += 1
            own_level = gamma_rho(rho, g.subset_weight(m), g.subset_weight(m))
            cleared += g.internal_weight(m) >= own_level - 1e-12
        assert cleared >= 34  # >= 85% of draws

    def test_exact_guard(self):
        ug, _ = random_ug(2, 2, 4, 1, seed=0)
        g = build_gadget(ug, 0.4, -0.2)  # 32 vertices
        with pytest.raises(SizeGuardError, match="32 vertices"):
            density_profile(g, [0.4], mode="exact")

    def test_local_search_upper_bounds_exact(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.4, -0.3)
        exact = density_profile(g, [0.4], mode="exact", tol_r=0.05)
        search = density_profile(g, [0.4], mode="local_search", tol_r=0.05, seed=3)
        assert search.samples[0].min_density_found >= exact.samples[0].min_density_found - 1e-12

    def test_bad_mode_and_empty_grid(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        with pytest.raises(DomainError):
            density_profile(g, [], mode="exact")
        with pytest.raises(DomainError):
            density_profile(g, [0.5], mode="simulated_annealing")


class TestDeriveInstance:
    def test_single_edge_cut_round_trip(self):
        q = 0.5
        g = build_gadget(SINGLE_EDGE_UG, q, 0.0)
        z = Labeling(left=(0,), right=(0,))
        mask, w_s, cut = completeness_set(SINGLE_EDGE_UG, z, g, q, 0.0)
        inst = derive_cc_instance(g, "cut", q, k=int(np.sum(mask)))
        assert inst.n == 2 and inst.k == 1
        a, opt = brute_force_opt(inst)
        assert opt == pytest.approx(0.5, abs=1e-12)  # = 2t at these parameters
        assert opt >= cut - 1e-12

    def test_kvc_coverage_matches_identity(self):
        ug, hidden = random_ug(2, 2, 2, 1, seed=8)
        q, rho = 0.4, -0.3
        g = build_gadget(ug, q, rho)
        mask, w_s, cut = completeness_set(ug, hidden, g, q, rho)
        inst = derive_cc_instance(g, "kvc", q, k=int(np.sum(mask)))
        val = evaluate(inst, np.where(mask, 1, -1))
        assert val == pytest.approx(w_s + 0.5 * cut, abs=1e-12)
        assert val == pytest.approx(g.coverage_weight(mask), abs=1e-12)

    def test_cut_optimum_dominates_completeness(self):
        ug, hidden = random_ug(1, 1, 3, 1, seed=9)
        q, rho = 0.365, -0.5
        g = build_gadget(ug, q, rho)
        mask, _, cut = completeness_set(ug, hidden, g, q, rho)
        inst = derive_cc_instance(g, "cut", q, k=int(np.sum(mask)))
        _, opt = brute_force_opt(inst)
        assert opt >= cut - 1e-12

    def test_default_cardinality(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        inst = derive_cc_instance(g, "kvc", 0.5)
        assert inst.k == 1

    def test_rejects_unknown_problem(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        with pytest.raises(DomainError):
            derive_cc_instance(g, "dicut", 0.5)


class TestUGModel:
    def test_degree_and_validation(self):
        ug, _ = random_ug(4, 2, 3, 2, seed=0)
        assert ug.degree == 2
        assert len(ug.edges) == 8

    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError, match="bijection"):
            UGInstance(1, 1, 2, ((0, 0, (0, 0)),))

    def test_rejects_irregular_left(self):
        with pytest.raises(DomainError, match="regular"):
            UGInstance(2, 1, 1, ((0, 0, (0,)), (0, 0, (0,)), (1, 0, (0,))))

    def test_warns_non_right_regular(self):
        with pytest.warns(UserWarning, match="right-regular"):
            UGInstance(2, 2, 1, ((0, 0, (0,)), (1, 0, (0,))))

    def test_random_ug_satisfiable(self):
        for seed in range(5):
            ug, hidden = random_ug(3, 3, 4, 2, seed=seed)
            assert ug_value(ug, hidden) == 1.0

    def test_random_ug_divisibility_guard(self):
        with pytest.raises(DomainError, match="right-regular"):
            random_ug(3, 2, 2, 1, seed=0)


class TestFileFormats:
    def test_ug_round_trip(self):
        ug, _ = random_ug(3, 3, 3, 2, seed=5)
        assert parse_ug(format_ug(ug)) == ug

    def test_graph_round_trip(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.365, -0.4)
        g2 = parse_graph(format_graph(g))
        assert np.array_equal(g.vertex_weights, g2.vertex_weights)
        assert np.array_equal(g.edge_w, g2.edge_w)
        assert np.array_equal(g.edge_a, g2.edge_a)

    def test_labeling_round_trip(self):
        ug, hidden = random_ug(2, 2, 3, 1, seed=1)
        text = "labeling v1\n" + "\n".join(
            [f"u {i + 1} {lab + 1}" for i, lab in enumerate(hidden.left)]
            + [f"v {j + 1} {lab + 1}" for j, lab in enumerate(hidden.right)]) + "\n"
        assert parse_labeling(text, ug) == hidden

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_ug("nope\n")
        with pytest.raises(FormatError):
            parse_ug("ug v1\nleft 1\nright 1\nlabels 2\ndegree 1\ne 1 1 1\n")
        with pytest.raises(FormatError):
            parse_graph("graph v1\nvertex 2 0.5\n")  # ids must cover 1..n
        ug, _ = random_ug(2, 2, 2, 1, seed=0)
        with pytest.raises(FormatError):
            parse_labeling("labeling v1\nu 1 1\n", ug)

    def test_graph_rejects_no_vertices(self):
        with pytest.raises(FormatError, match="at least one vertex"):
            parse_graph("graph v1\n")
        with pytest.raises(DomainError):
            WeightedGraph(np.zeros(0), np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64), np.zeros(0))

    @pytest.mark.parametrize("text", [
        "graph v1\nvertex 1 nan\nedge 1 1 1\n",
        "graph v1\nvertex 1 inf\nedge 1 1 1\n",
        "graph v1\nvertex 1 0.5\nvertex 2 0.5\nedge 1 2 inf\n",
        "graph v1\nvertex 1 0.5\nvertex 2 0.5\nedge 1 2 nan\n",
        "graph v1\nvertex 1 0.5\nvertex 2 0.5\nedge 1 2 -inf\n",
    ])
    def test_graph_rejects_non_finite_weights(self, text):
        with pytest.raises(FormatError, match="finite"):
            parse_graph(text)
