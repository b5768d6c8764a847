"""Tests for gadget graph construction, completeness, and density."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from format_oracles import (
    agrees,
    parse_graph_oracle,
    parse_labeling_oracle,
    parse_ug_oracle,
    same_graph,
)
from gadget_oracles import (
    blas_subset_stats,
    fraction_window,
    local_search_oracle,
    sequential_subset_stats,
    w_between,
)
from mutations import cut_short, decorated, one_token_replaced

from ccmax.curves import extremal_rho
from ccmax import gadget
from ccmax.errors import CcmaxError, DomainError, FormatError, SizeGuardError
from ccmax.gadget import (
    DENSITY_RESTARTS,
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
from ccmax.instance import Or, Xor, brute_force_opt, evaluate

SINGLE_EDGE_UG = UGInstance(1, 1, 1, ((0, 0, (0,)),))


def build_gadget_oracle(ug: UGInstance, q: float, rho: float) -> WeightedGraph:
    """The scalar build: one `itertools.product` entry at a time."""
    L = ug.n_labels
    cells = [(cx, cy, w) for (cx, cy), w in nu(q, rho).table().items() if w > 0.0]
    n_v = ug.n_right * (1 << L)
    vertex_w = np.empty(n_v)
    base = biased_product_weights_oracle(q, L)
    for v in range(ug.n_right):
        vertex_w[v << L: (v + 1) << L] = base / ug.n_right
    degree = ug.degree
    norm = 1.0 / (ug.n_left * degree * degree)
    ea, eb, ew = [], [], []
    for u in range(ug.n_left):
        incident = [(v, perm) for uu, v, perm in ug.edges if uu == u]
        for v1, p1 in incident:
            for v2, p2 in incident:
                for combo in itertools.product(cells, repeat=L):
                    weight = norm
                    x = 0
                    y = 0
                    for i, (cx, cy, cw) in enumerate(combo):
                        weight *= cw
                        x |= cx << p1[i]
                        y |= cy << p2[i]
                    ea.append((v1 << L) | x)
                    eb.append((v2 << L) | y)
                    ew.append(weight)
    return WeightedGraph(vertex_weights=vertex_w, edge_a=np.asarray(ea, dtype=np.int64),
                         edge_b=np.asarray(eb, dtype=np.int64), edge_w=np.asarray(ew))


def biased_product_weights_oracle(q: float, n_labels: int) -> np.ndarray:
    out = np.empty(1 << n_labels)
    for x in range(1 << n_labels):
        ones = bin(x).count("1")
        out[x] = (q ** ones) * ((1.0 - q) ** (n_labels - ones))
    return out


def format_graph_oracle(graph: WeightedGraph) -> str:
    """One `.17g` format per vertex and per edge entry."""
    out = ["graph v1"]
    for i, w in enumerate(graph.vertex_weights):
        out.append(f"vertex {i + 1} {w:.17g}")
    for a, b, w in zip(graph.edge_a, graph.edge_b, graph.edge_w):
        out.append(f"edge {a + 1} {b + 1} {w:.17g}")
    return "\n".join(out) + "\n"


def extremal_rho(q: float) -> float:
    m = min(q, 1.0 - q)
    return -m / (1.0 - m)


@st.composite
def ug_shapes(draw, max_labels=6):
    """A seeded `random_ug` with L = 1..max_labels and degree 1..3."""
    n_left = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    n_right = draw(st.sampled_from(
        [r for r in range(1, n_left * degree + 1) if (n_left * degree) % r == 0]))
    labels = draw(st.integers(1, max_labels))
    seed = draw(st.integers(0, 1000))
    return random_ug(n_left, n_right, labels, degree, seed=seed)[0]


@st.composite
def q_rho_pairs(draw):
    """(q, rho) including extremal rho, rho = +-1 and pruned cells."""
    q = draw(st.sampled_from([0.5, 0.365, 0.3, 0.7])
             | st.floats(0.05, 0.95, allow_nan=False))
    lo = extremal_rho(q)
    rho = draw(st.sampled_from([lo, 1.0, 0.0]) | st.floats(lo, 1.0, allow_nan=False))
    return q, rho


def hand_made_graph(weights: list[float], loops: bool) -> WeightedGraph:
    n = 3
    m = len(weights)
    a = np.arange(m, dtype=np.int64) % n
    b = a if loops else (a + 1) % n
    return WeightedGraph(vertex_weights=np.array([0.5, -0.0, 0.5]), edge_a=a, edge_b=b,
                         edge_w=np.array(weights))


def loop_graph(vertex_weights: list[float], at: list[int], weights: list[float]) -> WeightedGraph:
    """Edge i is a loop at vertex at[i]."""
    ends = np.array(at, dtype=np.int64)
    return WeightedGraph(vertex_weights=np.array(vertex_weights), edge_a=ends, edge_b=ends,
                         edge_w=np.array(weights))


@st.composite
def labelings(draw, ug: UGInstance) -> tuple[Labeling, list[str]]:
    """A labeling of `ug` and its rows, in file order."""
    labels = st.integers(0, ug.n_labels - 1)
    z = Labeling(
        left=tuple(draw(st.lists(labels, min_size=ug.n_left, max_size=ug.n_left))),
        right=tuple(draw(st.lists(labels, min_size=ug.n_right, max_size=ug.n_right))))
    rows = ([f"u {i + 1} {lab + 1}" for i, lab in enumerate(z.left)]
            + [f"v {j + 1} {lab + 1}" for j, lab in enumerate(z.right)])
    return z, rows


@st.composite
def small_graphs(draw) -> WeightedGraph:
    """Zero, signed-zero and extreme weights, self-loops and parallel edges."""
    weights = st.floats(0.0, 1e300, allow_nan=False) | st.just(-0.0)
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 12))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return WeightedGraph(
        vertex_weights=np.array(draw(st.lists(weights, min_size=n, max_size=n))),
        edge_a=np.array(draw(ends), dtype=np.int64),
        edge_b=np.array(draw(ends), dtype=np.int64),
        edge_w=np.array(draw(st.lists(weights, min_size=m, max_size=m)), dtype=float))


@st.composite
def search_graphs(draw) -> WeightedGraph:
    """Loops, zero and 1e-14-scale edge weights; vertex weights on a grid whose
    sums land on the window edges r +- tol_r up to rounding.  Some graphs have
    only loops, and the vertices past the last one an edge may touch are isolated."""
    n = draw(st.integers(1, 10))
    touched = draw(st.integers(1, n))
    loops = st.just(True) if draw(st.integers(0, 3)) == 0 else st.booleans()
    unit = draw(st.sampled_from([0.05, 1 / 16, 0.1, 1 / 3]))
    scale = draw(st.sampled_from([1.0, 1e-14]))
    ends = st.integers(0, touched - 1)
    edges = draw(st.lists(st.tuples(ends, ends, loops,
                                    st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)),
                          max_size=3 * n))
    ends = [(a, a if loop else b, w * scale) for a, b, loop, w in edges]
    a, b, w = (list(col) for col in zip(*ends)) if ends else ([], [], [])
    return WeightedGraph(
        vertex_weights=np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))) * unit,
        edge_a=np.array(a, dtype=np.int64), edge_b=np.array(b, dtype=np.int64),
        edge_w=np.array(w, dtype=float))


@st.composite
def search_gadgets(draw) -> WeightedGraph:
    """Gadgets at (1/2, -1/2), whose vertex weights are all equal, so flips land on
    the window edges (exactly over one or two right vertices, up to rounding over
    three), and at (0.365, extremal)."""
    shape = draw(st.sampled_from([(1, 1, 2, 1), (2, 2, 3, 2), (2, 1, 4, 1), (3, 3, 4, 2)]))
    q, rho = draw(st.sampled_from([(0.5, -0.5), (0.365, extremal_rho(0.365))]))
    return build_gadget(random_ug(*shape, seed=draw(st.integers(0, 20)))[0], q, rho)


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

    @pytest.mark.parametrize("q, below, accepted", [
        (0.3, 0.0, True), (0.3, 1e-14, False), (0.01, 0.0, True), (0.01, 1e-13, True),
        (0.01, 1e-12, False), (0.365, 0.0, True), (0.5, 0.0, True), (0.5, -0.5, True)])
    def test_lower_end_is_the_mass_check(self, q, below, accepted):
        # rho = lo - below; p11 = q - t falls by q (1 - q) * below.  The CLI and the
        # benchmark pass rho = lo, and -0.5 at q = 0.5.
        lo = extremal_rho(q)
        if accepted:
            assert nu(q, lo - below).p11 >= -1e-15
        else:
            with pytest.raises(DomainError, match=rf"negative mass; need {lo!r} <= rho <= 1"):
                nu(q, lo - below)


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


class TestBuildGadgetOracle:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(ug_shapes(), q_rho_pairs())
    @example(random_ug(3, 2, 6, 2, seed=0)[0], (0.5, -1.0))  # p00 = p11 = 0
    @example(random_ug(2, 2, 5, 3, seed=1)[0], (0.365, extremal_rho(0.365)))
    @example(random_ug(3, 3, 4, 3, seed=2)[0], (0.7, 1.0))  # t = 0: no cross cells
    @example(random_ug(1, 1, 1, 1, seed=3)[0], (0.3, 0.0))
    def test_matches_scalar_loop_bit_for_bit(self, ug, pair):
        q, rho = pair
        got = build_gadget(ug, q, rho)
        want = build_gadget_oracle(ug, q, rho)
        assert np.array_equal(got.edge_a, want.edge_a)
        assert np.array_equal(got.edge_b, want.edge_b)
        assert got.edge_a.dtype == got.edge_b.dtype == np.int64
        assert got.edge_w.tobytes() == want.edge_w.tobytes()
        assert got.vertex_weights.tobytes() == want.vertex_weights.tobytes()

    @pytest.mark.parametrize("q", [0.1, 0.365, 0.5, 0.7])
    def test_biased_product_weights_match_scalar_loop(self, q):
        for L in range(0, 11):
            assert (biased_product_weights(q, L).tobytes()
                    == biased_product_weights_oracle(q, L).tobytes())

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(ug_shapes(max_labels=5), st.data())
    def test_completeness_mask_matches_bit_loop(self, ug, data):
        right = tuple(data.draw(st.integers(0, ug.n_labels - 1)) for _ in range(ug.n_right))
        z = Labeling(left=(0,) * ug.n_left, right=right)
        g = build_gadget(ug, 0.4, -0.3)
        mask, _, _ = completeness_set(ug, z, g)
        L = ug.n_labels
        want = np.array([bool((x >> right[v]) & 1) for v in range(ug.n_right)
                         for x in range(1 << L)])
        assert mask.dtype == bool
        assert np.array_equal(mask, want)


def assert_sums_equal_w_between(graph: WeightedGraph, mask: np.ndarray) -> None:
    everything = np.ones(graph.n_vertices, dtype=bool)
    assert graph.internal_weight(mask) == w_between(graph, mask, mask)
    assert graph.cut_weight(mask) == w_between(graph, mask, ~mask)
    assert graph.coverage_weight(mask) == w_between(graph, mask, everything)


class TestInternalWeight:
    """Each edge sum selects `w_between`'s edges in its order, so the sums are equal."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_w_between_same_set(self, seed):
        ug, _ = random_ug(3, 3, 4, 2, seed=seed)
        g = build_gadget(ug, 0.4, -0.3)
        loops = hand_made_graph([0.25, 0.0, 0.5, 0.25], loops=True)
        rng = np.random.default_rng(seed)
        for graph in (g, loops):
            for _ in range(20):
                assert_sums_equal_w_between(graph, rng.random(graph.n_vertices) < 0.5)

    @given(st.data(), search_graphs())
    def test_search_graphs_equal_w_between(self, data, g):
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.n_vertices,
                                           max_size=g.n_vertices)), dtype=bool)
        assert_sums_equal_w_between(g, mask)


class TestCompleteness:
    def test_fully_satisfied_exact(self):
        for seed in range(3):
            ug, hidden = random_ug(3, 3, 3, 2, seed=seed)
            assert ug_value(ug, hidden) == 1.0
            for q, rho in [(0.365, -0.5), (0.5, 0.0)]:
                g = build_gadget(ug, q, rho)
                _, w_s, cut = completeness_set(ug, hidden, g)
                t = (q - q * q) * (1 - rho)
                assert w_s == pytest.approx(q, abs=1e-12)
                assert cut == pytest.approx(2 * t, abs=1e-12)

    def test_extremal_rho_cut_is_two_q(self):
        ug, hidden = random_ug(2, 2, 2, 1, seed=4)
        q = 0.365
        rho = -q / (1 - q)
        g = build_gadget(ug, q, rho)
        _, w_s, cut = completeness_set(ug, hidden, g)
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
            _, w_s, cut = completeness_set(ug, z, g)
            t = (q - q * q) * (1 - rho)
            assert w_s == pytest.approx(q, abs=1e-12)
            assert cut >= 2 * t * (1 - gamma) ** 2 - 1e-12

    def test_labeling_validation(self):
        ug, hidden = random_ug(2, 2, 2, 1, seed=0)
        g = build_gadget(ug, 0.4, -0.3)
        with pytest.raises(DomainError):
            completeness_set(ug, Labeling(left=hidden.left, right=(0,)), g)
        with pytest.raises(DomainError, match="label 2 out of range for vertex 1"):
            completeness_set(ug, Labeling(left=hidden.left, right=(0, 2)), g)
        with pytest.raises(DomainError, match="labeling size mismatch"):
            ug_value(ug, Labeling(left=hidden.left[:1], right=hidden.right))


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
        mask, w_s, _ = completeness_set(ug, hidden, g)
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

    @settings(max_examples=300, derandomize=True, deadline=None)
    # removing vertex 0: acc - w_0 lies on the window edge, its exact sum just outside
    @example(loop_graph([0.2, 0.1], [0], [1.0]), [0.1 + 0.2], None, 0)
    # adding vertex 2 selects its loops of weight 0 and 1e-13 and reorders a sum that then
    # rounds lower by more than 1e-15, so the unscreened search keeps that flip
    @example(loop_graph([0.2, 0.2, 0.0], [2, 1, 0, 1, 2, 0, 1, 0, 1, 0, 1, 1],
                        [1e-13, 0.0, 630.5, 0.0, 0.0, 284.3, 711.997, 468.7, 0.0, 681.7, 343.1,
                         854.32105]),
             [0.4], None, 7)
    @given(search_graphs() | search_gadgets(),
           st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0]), min_size=1,
                    max_size=3),
           st.sampled_from([None, 1e-9, 0.05]), st.integers(0, 50))
    def test_local_search_equals_unscreened_search(self, g, rs, tol_r, seed):
        got = density_profile(g, rs, mode="local_search", seed=seed, tol_r=tol_r)
        want = local_search_oracle(g, rs, seed=seed, tol_r=tol_r)
        assert got == want

    def test_local_search_sums_exactly_only_fills_and_kept_flips(self, monkeypatch):
        calls, window_sums = [], []
        internal_weight = WeightedGraph.internal_weight
        subset_weight = WeightedGraph.subset_weight

        def recorded(self, mask):
            value = internal_weight(self, mask)
            calls.append((np.array(mask), value))
            return value

        def counted(self, mask):
            window_sums.append(1)
            return subset_weight(self, mask)

        ug, _ = random_ug(3, 3, 6, 2, seed=17)
        rs = [0.25, 0.5, 0.75]
        for q, rho in [(0.365, extremal_rho(0.365)), (0.5, -0.5)]:
            g = build_gadget(ug, q, rho)
            want = local_search_oracle(g, rs)
            calls.clear()
            window_sums.clear()
            with monkeypatch.context() as m:
                m.setattr(WeightedGraph, "internal_weight", recorded)
                m.setattr(WeightedGraph, "subset_weight", counted)
                prof = density_profile(g, rs, mode="local_search")
            assert prof == want
            fills = sum(s.n_candidates for s in prof.samples)
            # a kept flip changes one vertex of the set summed before it and lowers the sum
            kept = sum(1 for (m0, w0), (m1, w1) in zip(calls, calls[1:])
                       if np.count_nonzero(m0 != m1) == 1 and w1 < w0 - 1e-15)
            assert fills == 3 * DENSITY_RESTARTS
            assert len(calls) == fills + kept
            if q == 0.5:
                # no flip is kept, and each flip the band leaves undecided takes the exact
                # window sum: one more subset weight past the one per fill
                assert kept == 0 and len(window_sums) > fills
            else:
                assert kept > 0

    @pytest.mark.parametrize("r", [-1.0, -1e-300, 1.5, 1.0 + 1e-15, math.inf,
                                   -math.inf, math.nan])
    def test_rejects_target_weight_no_subset_can_have(self, r):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        for mode in ("exact", "local_search"):
            with pytest.raises(DomainError, match=r"\[0, 1\]"):
                density_profile(g, [0.5, r], mode=mode)

    def test_accepts_both_ends_of_the_unit_interval(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        prof = density_profile(g, [0.0, 1.0], mode="exact", tol_r=1e-9)
        assert [s.min_density_found for s in prof.samples] == [0.0, 1.0]

    def test_bad_mode_and_empty_grid(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        with pytest.raises(DomainError):
            density_profile(g, [], mode="exact")
        with pytest.raises(DomainError):
            density_profile(g, [0.5], mode="simulated_annealing")


@st.composite
def window_graphs(draw) -> WeightedGraph:
    """Vertex weights such as 0.1, 0.2 and 0.3, whose sums fall on either side of a
    window edge depending on the summation order, and a few edges."""
    n = draw(st.integers(1, 9))
    weights = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.05, 1 / 3, 0.7, 1 / 24])
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends, st.floats(0.0, 1.0)), max_size=2 * n))
    a, b, w = (list(col) for col in zip(*edges)) if edges else ([], [], [])
    return WeightedGraph(vertex_weights=np.array(draw(st.lists(weights, min_size=n, max_size=n))),
                         edge_a=np.array(a, dtype=np.int64), edge_b=np.array(b, dtype=np.int64),
                         edge_w=np.array(w, dtype=float))


class TestExactDensity:
    """The doubling kernel and the exactly decided window of `density_profile(mode="exact")`."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(search_graphs() | window_graphs() | st.sampled_from(
        [build_gadget(random_ug(1, 1, 3, 1, seed=s)[0], q, rho)
         for s in (0, 1) for q, rho in [(0.5, -0.5), (0.365, extremal_rho(0.365))]]))
    # parallel 1-0 and 0-1 edges among others: row 1 sums (0.2 + 0.1) + 0.3 =
    # 0.6000000000000001 for the pair, row 0 (0.3 + 0.2) + 0.1 = 0.6, so the kernel
    # must read a[k, j] from the later vertex's row; 3 has a loop, 2 no lower neighbour
    @example(WeightedGraph(np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 2, 0, 3, 1, 3]),
                           np.array([0, 3, 1, 3, 0, 1]), np.array([0.2, 0.5, 0.3, 0.3, 0.1, 0.2])))
    def test_kernel_equals_sequential_sums_bit_for_bit(self, g):
        for got, want in zip(gadget._all_subset_stats(g), sequential_subset_stats(g)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shape, seed", [((2, 2, 3, 2), 17001), ((2, 1, 4, 1), 17002),
                                             ((1, 1, 4, 1), 6)])
    @pytest.mark.parametrize("q, rho", [(0.5, -0.5), (0.365, extremal_rho(0.365))])
    def test_kernel_within_its_rounding_bound_of_the_blas_sums(self, shape, seed, q, rho):
        g = build_gadget(random_ug(*shape, seed=200_000 + seed)[0], q, rho)
        ws, wss = gadget._all_subset_stats(g)
        old_ws, old_wss = blas_subset_stats(g)
        n, n_edges, u = g.n_vertices, g.edge_w.size, np.finfo(float).eps / 2
        # both sums lie within gamma_m of the exact one (m = n for w(S), E + 2n for
        # w(S, S)), so within twice that of each other; gamma_m < (m + 1) u here
        assert np.all(np.abs(ws - old_ws) <= 2 * (n + 1) * u * np.maximum(ws, old_ws))
        assert np.all(np.abs(wss - old_wss)
                      <= 2 * (n_edges + 2 * n + 1) * u * np.maximum(wss, old_wss))
        if q != 0.5:  # at (1/2, -1/2) every weight is dyadic and each sum exact
            assert np.max(np.abs(wss - old_wss)) > 0  # the orders do differ

    @settings(max_examples=150, derandomize=True, deadline=None)
    # 0.1 + 0.2 exceeds 0.3 by 2.8e-17 exactly and by 5.6e-17 in floats
    @example(WeightedGraph(np.array([0.1, 0.2, 0.3]), np.array([0, 1]), np.array([1, 2]),
                           np.array([0.5, 0.25])), [0.3], 4e-17, 1 << 16)
    @example(WeightedGraph(np.array([0.1, 0.2, 0.3, 0.1, 0.2]), np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), np.zeros(0)), [0.3, 0.6], 0.3, 2)
    @given(window_graphs() | search_graphs(),
           st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 1.0]), min_size=1,
                    max_size=3),
           st.sampled_from([None, 0.0, 4e-17, 1e-9, 0.1, 0.3]),
           st.sampled_from([1, 4, 1 << 16]))
    def test_window_equals_the_fraction_window(self, g, rs, tol_r, block):
        with mock.patch.object(gadget, "WINDOW_BLOCK", block):
            prof = density_profile(g, rs, mode="exact", tol_r=tol_r)
        _, wss = sequential_subset_stats(g)
        tol = float(np.max(g.vertex_weights)) if tol_r is None else tol_r
        for s in prof.samples:
            hit = fraction_window(g, s.r, tol)
            assert s.n_candidates == np.count_nonzero(hit)
            assert s.min_density_found == (wss[hit].min() if hit.any() else math.inf)

    def test_counts_the_exact_window_of_a_benchmark_gadget(self):
        # summed in BLAS order, 112 of these subsets fell outside (41230)
        g = build_gadget(random_ug(2, 2, 3, 2, seed=217_001)[0], 0.365, extremal_rho(0.365))
        prof = density_profile(g, [0.25, 0.5, 0.75], mode="exact")
        assert [s.n_candidates for s in prof.samples] == [12696, 41342, 12696]

    def test_takes_no_matrix_of_subsets(self):
        g = build_gadget(random_ug(2, 2, 3, 2, seed=217_001)[0], 0.5, -0.5)
        tracemalloc.start()
        try:
            density_profile(g, [0.25, 0.5, 0.75], mode="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two float sums and one int32 code per subset, two float and two bool buffers
        # per subset of a block; a 0/1 matrix of the subsets alone would take 8 MiB
        assert peak < 20 * (1 << 16) + 18 * gadget.WINDOW_BLOCK + (1 << 20)


class TestDeriveInstance:
    def test_single_edge_cut_round_trip(self):
        q = 0.5
        g = build_gadget(SINGLE_EDGE_UG, q, 0.0)
        z = Labeling(left=(0,), right=(0,))
        mask, w_s, cut = completeness_set(SINGLE_EDGE_UG, z, g)
        inst = derive_cc_instance(g, "cut", q, k=int(np.sum(mask)))
        assert inst.n == 2 and inst.k == 1
        a, opt = brute_force_opt(inst)
        assert opt == pytest.approx(0.5, abs=1e-12)  # = 2t at these parameters
        assert opt >= cut - 1e-12

    def test_kvc_coverage_matches_identity(self):
        ug, hidden = random_ug(2, 2, 2, 1, seed=8)
        q, rho = 0.4, -0.3
        g = build_gadget(ug, q, rho)
        mask, w_s, cut = completeness_set(ug, hidden, g)
        inst = derive_cc_instance(g, "kvc", q, k=int(np.sum(mask)))
        val = evaluate(inst, np.where(mask, 1, -1))
        assert val == pytest.approx(w_s + 0.5 * cut, abs=1e-12)
        assert val == pytest.approx(g.coverage_weight(mask), abs=1e-12)

    def test_cut_optimum_dominates_completeness(self):
        ug, hidden = random_ug(1, 1, 3, 1, seed=9)
        q, rho = 0.365, -0.5
        g = build_gadget(ug, q, rho)
        mask, _, cut = completeness_set(ug, hidden, g)
        inst = derive_cc_instance(g, "cut", q, k=int(np.sum(mask)))
        _, opt = brute_force_opt(inst)
        assert opt >= cut - 1e-12

    def test_default_cardinality(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        inst = derive_cc_instance(g, "kvc", 0.5)
        assert inst.k == 1

    @pytest.mark.parametrize("problem, kind", [("cut", Xor(-1)), ("kvc", Or((1, 1, -1)))])
    def test_edges_become_constraints_of_the_problem_kind(self, problem, kind):
        ug, _ = random_ug(2, 2, 2, 1, seed=8)
        g = build_gadget(ug, 0.4, -0.3)
        inst = derive_cc_instance(g, problem, 0.4)
        assert inst.problem == problem
        assert [(c.i, c.j, c.weight, c.kind) for c in inst.constraints] == [
            (a, b, w, kind) for a, b, w in zip(g.edge_a.tolist(), g.edge_b.tolist(),
                                               g.edge_w.tolist()) if w > 0.0]

    def test_rejects_unknown_problem(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.5, 0.0)
        with pytest.raises(DomainError, match="unknown problem 'dicut'"):
            derive_cc_instance(g, "dicut", 0.5)


class TestUGModel:
    def test_degree_and_validation(self):
        ug, _ = random_ug(4, 2, 3, 2, seed=0)
        assert ug.degree == 2
        assert len(ug.edges) == 8

    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError, match="bijection"):
            UGInstance(1, 1, 2, ((0, 0, (0, 0)),))
        with pytest.raises(DomainError, match="bijection"):  # not a 10^20-entry list
            UGInstance(1, 1, 10**20, ((0, 0, (0,)),))

    def test_rejects_irregular_left(self):
        with pytest.raises(DomainError, match="regular"):
            UGInstance(2, 1, 1, ((0, 0, (0,)), (0, 0, (0,)), (1, 0, (0,))))

    def test_warns_non_right_regular(self):
        with pytest.warns(UserWarning, match="right-regular") as record:
            UGInstance(2, 2, 1, ((0, 0, (0,)), (1, 0, (0,))))
        assert record[0].filename == __file__  # the caller's line, not the dataclass __init__

    def test_random_ug_satisfiable(self):
        for seed in range(5):
            ug, hidden = random_ug(3, 3, 4, 2, seed=seed)
            assert ug_value(ug, hidden) == 1.0

    def test_random_ug_divisibility_guard(self):
        with pytest.raises(DomainError, match="right-regular"):
            random_ug(3, 2, 2, 1, seed=0)


class TestFileFormats:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(ug_shapes(max_labels=12), st.data())
    def test_ug_round_trip(self, ug, data):
        text = format_ug(ug)
        assert parse_ug(text) == ug
        for bad in (data.draw(cut_short(text)), data.draw(one_token_replaced(text))):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # a token can break right-regularity
                    parse_ug(bad)
            except CcmaxError:
                pass
        with pytest.raises(FormatError):
            parse_ug(data.draw(one_token_replaced(text, st.just("?"))))

    def test_graph_round_trip(self):
        g = build_gadget(SINGLE_EDGE_UG, 0.365, -0.4)
        g2 = parse_graph(format_graph(g))
        assert np.array_equal(g.vertex_weights, g2.vertex_weights)
        assert np.array_equal(g.edge_w, g2.edge_w)
        assert np.array_equal(g.edge_a, g2.edge_a)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(ug_shapes(max_labels=12), st.data())
    def test_labeling_round_trip(self, ug, data):
        z, rows = data.draw(labelings(ug))
        text = "labeling v1\n" + "\n".join(rows) + "\n"
        assert parse_labeling(text, ug) == z
        for bad in (data.draw(cut_short(text)), data.draw(one_token_replaced(text))):
            try:
                parse_labeling(bad, ug)
            except CcmaxError:
                pass
        with pytest.raises(FormatError):
            parse_labeling(data.draw(one_token_replaced(text, st.just("?"))), ug)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(ug_shapes(max_labels=8), st.data())
    def test_ug_matches_line_by_line_oracle(self, ug, data):
        text = data.draw(decorated(format_ug(ug)))
        assert parse_ug(text) == parse_ug_oracle(text) == ug
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a token can break right-regularity
            for bad in (data.draw(cut_short(text)), data.draw(one_token_replaced(text))):
                agrees(parse_ug, parse_ug_oracle, bad)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(ug_shapes(max_labels=8), st.data())
    def test_labeling_matches_line_by_line_oracle(self, ug, data):
        z, rows = data.draw(labelings(ug))
        text = data.draw(decorated("\n".join(["labeling v1"] + data.draw(st.permutations(rows)))))
        assert parse_labeling(text, ug) == parse_labeling_oracle(text, ug) == z
        for bad in (data.draw(cut_short(text)), data.draw(one_token_replaced(text))):
            agrees(lambda t: parse_labeling(t, ug), lambda t: parse_labeling_oracle(t, ug), bad)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(small_graphs(), st.data())
    def test_graph_matches_line_by_line_oracle(self, g, data):
        lines = format_graph(g).splitlines()
        text = data.draw(decorated("\n".join(lines[:1] + data.draw(st.permutations(lines[1:])))))
        assert same_graph(parse_graph(text), parse_graph_oracle(text))
        for bad in (data.draw(cut_short(text)), data.draw(one_token_replaced(text))):
            agrees(parse_graph, parse_graph_oracle, bad, same_graph)

    def test_ug_header_in_any_order(self):
        ug = random_ug(3, 3, 4, 2, seed=7)[0]
        lines = format_ug(ug).splitlines()
        for order in itertools.permutations(lines[1:5]):
            assert parse_ug("\n".join(lines[:1] + list(order) + lines[5:])) == ug

    @pytest.mark.parametrize("parse, text, message", [
        (parse_ug, "ug v1\nleft 1\nleft 1\nright 1\nlabels 1\ndegree 1\ne 1 1 1\n",
         "'left' given 2 times"),
        (parse_ug, f"ug v1\nleft 1\nright 1\nlabels {10**20}\ndegree 1\ne 1 1 1\n",
         "bad line: 'e 1 1 1'"),
        (lambda t: parse_labeling(t, UGInstance(1, 1, 2, ((0, 0, (0, 1)),))),
         "labeling v1\nu 1 1\nu 1 2\nv 1 1\n",
         "'u' ids must be exactly 1..1, each once"),
        (lambda t: parse_labeling(t, UGInstance(1, 1, 2, ((0, 0, (0, 1)),))),
         "labeling v1\nu 1 1\nv 1 3\n", r"'v' labels must lie in 1\.\.2"),
        (parse_graph, "graph v1\nvertex 1 0.5\nvertex 1 0.25\nedge 1 1 1\n",
         "'vertex' ids must be exactly 1..2, each once"),
        (parse_graph, f"graph v1\nvertex {10**20} 0.5\n",
         "'vertex' ids must be exactly 1..1, each once"),
        (parse_graph, "graph v1\nvertex 1000000 0.5\n",
         "'vertex' ids must be exactly 1..1, each once"),
        (parse_graph, f"graph v1\nvertex 1 0.5\nedge 1 {10**20} 1\n", "edge endpoint out of range"),
    ])
    def test_refuses_repeated_keys_and_values_outside_the_file(self, parse, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=message):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # nothing is sized by an id

    def test_parse_errors(self):
        with pytest.raises(FormatError):
            parse_ug("nope\n")
        with pytest.raises(FormatError):
            parse_ug("ug v1\nleft 1\nright 1\nlabels 2\ndegree 1\ne 1 1 1\n")
        with pytest.raises(FormatError, match="regular"):  # nothing is sized by the side
            parse_ug(f"ug v1\nleft {10**20}\nright 1\nlabels 1\ndegree 1\ne 1 1 1\n")
        with pytest.raises(FormatError):
            parse_graph("graph v1\nvertex 2 0.5\n")  # ids must cover 1..n
        ug, _ = random_ug(2, 2, 2, 1, seed=0)
        with pytest.raises(FormatError):
            parse_labeling("labeling v1\nu 1 1\n", ug)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(ug_shapes(max_labels=5), q_rho_pairs())
    @example(random_ug(3, 2, 5, 2, seed=0)[0], (0.5, -1.0))
    def test_format_graph_matches_per_line_oracle(self, ug, pair):
        g = build_gadget(ug, *pair)
        assert format_graph(g) == format_graph_oracle(g)

    @pytest.mark.parametrize("weights", [
        [0.0, -0.0, 0.25, -0.0, 0.0],  # both zeros, each keeping its sign
        [-0.0, 0.1, 0.1, 0.1, 0.2, 0.1],  # repeated weights
        [5e-324, 1e300, 0.1 + 0.2, 0.3, 1.0 / 3.0],  # subnormal, huge, neighbours
        [],
    ])
    @pytest.mark.parametrize("loops", [False, True])
    def test_format_graph_hand_made(self, weights, loops):
        g = hand_made_graph(weights, loops)
        text = format_graph(g)
        assert text == format_graph_oracle(g)
        signs = [math.copysign(1.0, float(ln.rsplit(" ", 1)[1]))
                 for ln in text.splitlines() if ln.startswith("edge ")]
        assert signs == [math.copysign(1.0, w) for w in weights]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(small_graphs(), st.data())
    def test_graph_round_trip_bit_exact(self, g, data):
        text = format_graph(g)
        back = parse_graph(text)
        assert back.vertex_weights.tobytes() == g.vertex_weights.tobytes()
        assert back.edge_w.tobytes() == g.edge_w.tobytes()
        assert np.array_equal(back.edge_a, g.edge_a)
        assert np.array_equal(back.edge_b, g.edge_b)
        assert format_graph(back) == text
        # a line losing its last field, or a misspelt keyword, is refused
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        cut = lines[:i] + [lines[i].rsplit(" ", 1)[0]] + lines[i + 1:]
        with pytest.raises(FormatError):
            parse_graph("\n".join(cut) + "\n")
        word = lines[i].split(" ", 1)
        bad = lines[:i] + [" ".join(["x" + word[0]] + word[1:])] + lines[i + 1:]
        with pytest.raises(FormatError):
            parse_graph("\n".join(bad) + "\n")

    def test_graph_rejects_no_vertices(self):
        with pytest.raises(FormatError, match="at least one vertex"):
            parse_graph("graph v1\n")
        with pytest.raises(DomainError):
            WeightedGraph(np.zeros(0), np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int64), np.zeros(0))

    @pytest.mark.parametrize("a, b, w, message", [
        ([0], [0, 1], [1.0], "edge arrays must have equal length"),
        ([0, 1], [0, 1], [1.0], "edge arrays must have equal length"),
        ([0], [2], [1.0], "edge endpoint out of range"),
        ([2], [0], [1.0], "edge endpoint out of range"),
        ([-1], [0], [1.0], "edge endpoint out of range"),
    ])
    def test_graph_refuses_malformed_edge_arrays(self, a, b, w, message):
        with pytest.raises(DomainError, match=message):
            WeightedGraph(np.full(2, 0.5), np.array(a), np.array(b), np.array(w))

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
