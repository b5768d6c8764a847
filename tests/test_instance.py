"""Tests for the instance model, file format, and exact brute force."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from format_oracles import agrees, parse_instance_oracle
from mutations import cut_short, decorated, one_token_replaced

from ccmax.errors import CcmaxError, DomainError, FormatError, SizeGuardError
from ccmax.instance import (
    _PROBLEM_KINDS,
    CCInstance,
    Constraint,
    Or,
    OR_PATTERNS,
    VERTEX_COVER_KIND,
    Xor,
    as_assignment,
    brute_force_opt,
    cardinality,
    constraint_value,
    evaluate,
    evaluate_many,
    flip_gains,
    format_instance,
    greedy_assignment,
    is_feasible,
    parse_instance,
    random_instance,
)


def cycle_cut_instance(n: int, k: int, w: float = 1.0) -> CCInstance:
    cons = tuple(Constraint(i, (i + 1) % n, w, Xor(-1)) for i in range(n))
    return CCInstance(n=n, k=k, constraints=cons, problem="cut")


@st.composite
def random_instances(draw, max_n: int = 40) -> CCInstance:
    n = draw(st.integers(2, max_n))
    return random_instance(
        n, draw(st.integers(0, n)), draw(st.integers(1, 5 * n)),
        problem=draw(st.sampled_from(("cut", "2lin", "2sat", "kvc"))),
        seed=draw(st.integers(0, 2**16)), weighted=draw(st.booleans()))


def self_loop_instance(problem: str, n: int = 6) -> CCInstance:
    """A self-loop of every kind `problem` allows, plus 14 random pairs (loops among them)."""
    kinds = [Or(p) for p in OR_PATTERNS] if problem == "2sat" else [Xor(-1), Xor(1)]
    rng = np.random.default_rng(4)
    cons = [Constraint(t % n, t % n, float(rng.uniform(0.1, 2.0)), kind)
            for t, kind in enumerate(kinds)]
    cons += [Constraint(int(u), int(v), float(rng.uniform(0.1, 2.0)),
                        kinds[int(rng.integers(len(kinds)))])
             for u, v in rng.integers(0, n, size=(14, 2))]
    return CCInstance(n=n, k=2, constraints=tuple(cons), problem=problem)


def greedy_oracle(inst: CCInstance, passes: int = 40) -> np.ndarray:
    """Linear seeding plus 1-swap ascent that re-evaluates every candidate swap in full."""
    i, j, w, c0, c1, c2, c3 = (
        inst._arrays if inst.constraints else (None,) * 7)
    lin = np.zeros(inst.n)
    if inst.constraints:
        np.add.at(lin, i, w * c1)
        np.add.at(lin, j, w * c2)
    order = np.lexsort((np.arange(inst.n), -lin))
    a = -np.ones(inst.n, dtype=np.int64)
    a[order[: inst.k]] = 1

    if not inst.constraints:
        return a
    for _ in range(passes):
        improved = False
        val = evaluate(inst, a)
        ones = [v for v in range(inst.n) if a[v] == 1]
        zeros = [v for v in range(inst.n) if a[v] == -1]
        for u in ones:
            for v in zeros:
                a[u], a[v] = -1, 1
                cand = evaluate(inst, a)
                if cand > val + 1e-15:
                    val = cand
                    improved = True
                    break
                a[u], a[v] = 1, -1
            if improved:
                break
        if not improved:
            break
    return a


def brute_force_oracle(inst: CCInstance, batch: int) -> tuple[np.ndarray, float]:
    """Brute force that compares every tied row of a batch with the best so far."""
    best_val = -np.inf
    best_row = None
    combos = itertools.combinations(range(inst.n), inst.k)
    while chunk := list(itertools.islice(combos, batch)):
        idx = np.array(chunk, dtype=np.int64).reshape(len(chunk), inst.k)
        rows = -np.ones((len(chunk), inst.n), dtype=np.int64)
        if inst.k:
            np.put_along_axis(rows, idx, 1, axis=1)
        vals = evaluate_many(inst, rows)
        top = float(np.max(vals))
        if top > best_val:
            best_val = top
            best_row = None
        if top == best_val:
            for r in np.nonzero(vals == best_val)[0]:
                row = rows[r]
                if best_row is None or tuple(row) < tuple(best_row):
                    best_row = row.copy()
    return best_row, best_val


class TestConstraintValue:
    def test_cut_edge_crossing(self):
        assert constraint_value(Xor(-1), 1, -1) == 1.0
        assert constraint_value(Xor(-1), 1, 1) == 0.0

    def test_nn_clause_zero_when_both_true(self):
        # (-1,-1,-1) is "not xi or not xj": unsatisfied only at (+1, +1)
        assert constraint_value(Or((-1, -1, -1)), 1, 1) == 0.0

    def test_coverage_clause_zero_when_both_unselected(self):
        assert constraint_value(VERTEX_COVER_KIND, -1, -1) == 0.0
        assert constraint_value(VERTEX_COVER_KIND, 1, -1) == 1.0
        assert constraint_value(VERTEX_COVER_KIND, -1, 1) == 1.0
        assert constraint_value(VERTEX_COVER_KIND, 1, 1) == 1.0

    def test_or_truth_tables_exhaustive(self):
        # every OR pattern is satisfied in exactly 3 of the 4 cases
        for pattern in OR_PATTERNS:
            vals = [constraint_value(Or(pattern), xi, xj)
                    for xi in (-1, 1) for xj in (-1, 1)]
            assert sorted(vals) == [0.0, 1.0, 1.0, 1.0]

    def test_xor_truth_tables_exhaustive(self):
        for parity in (-1, 1):
            vals = [constraint_value(Xor(parity), xi, xj)
                    for xi in (-1, 1) for xj in (-1, 1)]
            assert sorted(vals) == [0.0, 0.0, 1.0, 1.0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            constraint_value(Xor(-1), 0, 1)
        with pytest.raises(DomainError):
            Xor(2)
        with pytest.raises(DomainError):
            Or((1, 1, 1))


class TestEvaluate:
    def test_empty_constraints(self):
        inst = CCInstance(n=3, k=1, constraints=(), problem="cut")
        assert evaluate(inst, [-1, -1, 1]) == 0.0
        many = evaluate_many(inst, np.array([[-1, -1, 1], [1, -1, -1]]))
        assert many.dtype == float and many.tolist() == [0.0, 0.0]

    def test_single_cut_crossing(self):
        inst = CCInstance(n=2, k=1, constraints=(Constraint(0, 1, 1.0, Xor(-1)),), problem="cut")
        assert evaluate(inst, [1, -1]) == 1.0
        assert evaluate(inst, [1, 1]) == 0.0

    def test_matches_per_constraint_oracle(self):
        inst = random_instance(10, 4, 25, problem="2sat", seed=3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.choice([-1, 1], size=10)
            oracle = sum(c.weight * constraint_value(c.kind, int(a[c.i]), int(a[c.j]))
                         for c in inst.constraints)
            assert evaluate(inst, a) == pytest.approx(oracle, abs=1e-12)

    def test_linear_in_weights(self):
        inst = random_instance(8, 3, 12, problem="cut", seed=11)
        doubled = CCInstance(
            n=8, k=3,
            constraints=tuple(Constraint(c.i, c.j, 2 * c.weight, c.kind)
                              for c in inst.constraints),
            problem="cut")
        a = greedy_assignment(inst)
        assert evaluate(doubled, a) == pytest.approx(2 * evaluate(inst, a), rel=1e-14)

    def test_rejects_length_mismatch(self):
        inst = cycle_cut_instance(4, 2)
        with pytest.raises(DomainError):
            evaluate(inst, [1, -1, 1])

    def test_evaluate_many_matches_scalar(self):
        inst = random_instance(9, 4, 20, problem="2lin", seed=2)
        rng = np.random.default_rng(0)
        rows = rng.choice([-1, 1], size=(16, 9))
        batch = evaluate_many(inst, rows)
        for row, v in zip(rows, batch):
            assert evaluate(inst, row) == pytest.approx(float(v), abs=1e-12)


class TestBruteForce:
    def test_even_cycle(self):
        a, val = brute_force_opt(cycle_cut_instance(4, 2))
        assert val == 4.0
        assert list(a) in ([-1, 1, -1, 1], [1, -1, 1, -1])

    def test_even_cycle_lex_tiebreak(self):
        a, _ = brute_force_opt(cycle_cut_instance(4, 2))
        assert list(a) == [-1, 1, -1, 1]

    def test_triangle(self):
        _, val = brute_force_opt(cycle_cut_instance(3, 1))
        assert val == 2.0

    def test_matches_reversed_enumeration_oracle(self):
        for seed in (0, 1, 2):
            inst = random_instance(12, 5, 24, problem="2sat", seed=seed)
            a, val = brute_force_opt(inst)
            best = (-np.inf, None)
            for combo in reversed(list(itertools.combinations(range(12), 5))):
                row = -np.ones(12, dtype=np.int64)
                row[list(combo)] = 1
                v = sum(c.weight * constraint_value(c.kind, int(row[c.i]), int(row[c.j]))
                        for c in inst.constraints)
                if v > best[0] or (v == best[0] and tuple(row) < tuple(best[1])):
                    best = (v, row)
            assert val == pytest.approx(best[0], abs=1e-10)
            assert cardinality(a) == 5
            assert evaluate(inst, a) == pytest.approx(val, abs=1e-12)

    def test_side_swap_symmetry(self):
        inst = random_instance(10, 3, 18, problem="cut", seed=9)
        swapped = CCInstance(n=10, k=7, constraints=inst.constraints, problem="cut")
        assert brute_force_opt(inst)[1] == pytest.approx(brute_force_opt(swapped)[1], abs=1e-12)

    def test_kvc_equals_coverage_count(self):
        inst = random_instance(9, 4, 15, problem="kvc", seed=4)
        a, val = brute_force_opt(inst)
        chosen = {v for v in range(9) if a[v] == 1}
        covered = sum(c.weight for c in inst.constraints
                      if c.i in chosen or c.j in chosen)
        assert val == pytest.approx(covered, abs=1e-12)

    def test_guard(self):
        inst = CCInstance(n=29, k=5, constraints=(Constraint(0, 1, 1.0, Xor(-1)),), problem="cut")
        with pytest.raises(SizeGuardError, match="28"):
            brute_force_opt(inst)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(2, 10), st.data())
    def test_tie_rule_matches_row_by_row_oracle(self, n, data):
        # unweighted instances tie often; small batches put ties across batches
        inst = random_instance(
            n, data.draw(st.integers(0, n)), data.draw(st.integers(1, 3 * n)),
            problem=data.draw(st.sampled_from(("cut", "2lin", "2sat", "kvc"))),
            seed=data.draw(st.integers(0, 2**16)), weighted=False)
        batch = data.draw(st.sampled_from([1, 2, 3, 7, 16384]))
        a, val = brute_force_opt(inst, batch=batch)
        b, oracle_val = brute_force_oracle(inst, batch)
        assert val == oracle_val
        assert np.array_equal(a, b)

    def test_k_zero_and_no_constraints(self):
        a, val = brute_force_opt(cycle_cut_instance(5, 0))
        assert a.tolist() == [-1] * 5 and val == 0.0
        a, val = brute_force_opt(CCInstance(n=4, k=2, constraints=()))
        assert a.tolist() == [-1, -1, 1, 1] and val == 0.0  # every row ties

    def test_batch_boundaries(self):
        inst = cycle_cut_instance(8, 4)
        _, v1 = brute_force_opt(inst, batch=7)
        _, v2 = brute_force_opt(inst, batch=10000)
        assert v1 == v2 == 8.0


class TestAssignments:
    def test_cardinality(self):
        assert cardinality([1, -1, 1, 1]) == 3

    def test_is_feasible(self):
        inst = cycle_cut_instance(4, 2)
        assert is_feasible(inst, [1, 1, -1, -1])
        assert not is_feasible(inst, [1, 1, 1, -1])

    def test_as_assignment_validation(self):
        with pytest.raises(DomainError):
            as_assignment([1, 0, -1])
        with pytest.raises(DomainError):
            as_assignment([[1], [-1]])

    def test_values_are_checked_before_the_integer_cast(self):
        inst = cycle_cut_instance(3, 1)
        with pytest.raises(DomainError):
            as_assignment([1.5, -1.9, 1])
        with pytest.raises(DomainError):
            evaluate(inst, [1.9, -1.2, -1])
        with pytest.raises(DomainError):
            is_feasible(inst, [1.0, -0.5, -1.0])
        a = as_assignment(np.array([1.0, -1.0, -1.0]))
        assert a.dtype == np.int64 and a.tolist() == [1, -1, -1]

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(2, 10), st.data())
    def test_greedy_is_feasible(self, n, data):
        k = data.draw(st.integers(0, n))
        inst = random_instance(n, k, 2 * n, problem="cut", seed=n)
        a = greedy_assignment(inst)
        assert cardinality(a) == k

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(random_instances())
    @example(random_instance(60, 24, 300, problem="2sat", seed=7))
    @example(random_instance(60, 36, 300, problem="cut", seed=8, weighted=False))
    @example(self_loop_instance("2sat"))
    @example(self_loop_instance("2lin"))
    def test_greedy_matches_full_reevaluation_oracle(self, inst):
        assert np.array_equal(greedy_assignment(inst), greedy_oracle(inst))

    def test_greedy_without_constraints(self):
        inst = CCInstance(n=4, k=2, constraints=())
        assert np.array_equal(greedy_assignment(inst), [1, 1, -1, -1])


class TestFlipGains:
    @pytest.mark.parametrize("problem", ["2sat", "2lin"])
    def test_matches_evaluate_differences_with_self_loops(self, problem):
        inst = self_loop_instance(problem)
        n = inst.n
        for values in itertools.product((-1, 1), repeat=n):
            a = np.array(values)
            base = evaluate(inst, a)
            flipped = a[None, :] * np.where(np.eye(n, dtype=bool), -1, 1)
            expect = [evaluate(inst, row) - base for row in flipped]
            assert np.max(np.abs(flip_gains(inst, a) - expect)) <= 1e-12

    def test_no_constraints(self):
        inst = CCInstance(n=3, k=1, constraints=())
        assert np.array_equal(flip_gains(inst, [1, -1, -1]), np.zeros(3))

    def test_rejects_bad_assignment(self):
        with pytest.raises(DomainError):
            flip_gains(cycle_cut_instance(4, 2), [1, 0, 1, -1])


@st.composite
def any_instances(draw) -> CCInstance:
    """Self-loops, zero and extreme weights: anything `CCInstance` accepts."""
    n = draw(st.integers(1, 12))
    problem = draw(st.sampled_from(sorted(_PROBLEM_KINDS)))
    cons = draw(st.lists(st.builds(
        Constraint, st.integers(0, n - 1), st.integers(0, n - 1),
        st.floats(0.0, 1e300) | st.just(-0.0),
        st.sampled_from(sorted(_PROBLEM_KINDS[problem], key=repr))), max_size=8))
    assume(not cons or sum(c.weight for c in cons) > 0.0)
    return CCInstance(n=n, k=draw(st.integers(0, n)), constraints=tuple(cons), problem=problem)


class TestFileFormat:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(any_instances(), st.data())
    def test_round_trip(self, inst, data):
        text = format_instance(inst)
        assert parse_instance(text) == inst
        for bad in (data.draw(cut_short(text)), data.draw(one_token_replaced(text))):
            try:
                parse_instance(bad)
            except CcmaxError:
                pass
        with pytest.raises(FormatError):
            parse_instance(data.draw(one_token_replaced(text, st.just("?"))))

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(any_instances(), st.data())
    def test_matches_line_by_line_oracle(self, inst, data):
        lines = format_instance(inst).splitlines()
        lines[1:4] = data.draw(st.permutations(lines[1:4]))  # header keys in any order
        text = data.draw(decorated("\n".join(lines)))
        assert parse_instance(text) == parse_instance_oracle(text) == inst
        for bad in (data.draw(cut_short(text)), data.draw(one_token_replaced(text))):
            agrees(parse_instance, parse_instance_oracle, bad)

    @pytest.mark.parametrize("key", ["problem", "vars", "card"])
    def test_refuses_a_repeated_header_key(self, key):
        lines = ["ccmax v1", "problem cut", "vars 2", "card 1"]
        lines.insert(4, next(ln for ln in lines if ln.startswith(key)))
        with pytest.raises(FormatError, match=f"'{key}' given 2 times"):
            parse_instance("\n".join(lines + ["c 1 2 1.0 x-"]) + "\n")

    def test_parse_with_comments_and_spacing(self):
        text = """\
# an instance
ccmax v1
problem cut
vars 3   # trailing comment
card 1
c 1 2 1.0 x-
c 2 3 0.25 x-
"""
        inst = parse_instance(text)
        assert inst.n == 3 and inst.k == 1
        assert inst.constraints[1].weight == 0.25
        assert inst.constraints[1].i == 1 and inst.constraints[1].j == 2

    def test_parse_errors(self):
        with pytest.raises(FormatError, match="header"):
            parse_instance("nope v1\n")
        with pytest.raises(FormatError, match="missing 'card'"):
            parse_instance("ccmax v1\nproblem cut\nvars 3\n")
        with pytest.raises(FormatError, match="unexpected line: 'card 1'"):  # header after rows
            parse_instance("ccmax v1\nproblem cut\nvars 2\nc 1 2 1.0 x-\ncard 1\n")
        with pytest.raises(FormatError, match="tag"):
            parse_instance("ccmax v1\nproblem cut\nvars 2\ncard 1\nc 1 2 1.0 zz\n")
        with pytest.raises(FormatError, match="out of range"):
            parse_instance("ccmax v1\nproblem cut\nvars 2\ncard 1\nc 1 3 1.0 x-\n")
        with pytest.raises(FormatError):
            parse_instance("ccmax v1\nproblem cut\nvars 2\ncard 1\nc 1 2 -2.0 x-\n")
        with pytest.raises(FormatError):
            # OR tag on a cut instance
            parse_instance("ccmax v1\nproblem cut\nvars 2\ncard 1\nc 1 2 1.0 oo\n")

    @pytest.mark.parametrize("w", ["inf", "-inf", "nan"])
    def test_parse_rejects_non_finite_weight_as_non_finite(self, w):
        with pytest.raises(FormatError, match=f"weights must be finite, got {w}"):
            parse_instance(f"ccmax v1\nproblem cut\nvars 2\ncard 1\nc 1 2 {w} x-\n")
        with pytest.raises(FormatError, match="weights must be nonnegative, got -2.0"):
            parse_instance("ccmax v1\nproblem cut\nvars 2\ncard 1\nc 1 2 -2.0 x-\n")

    def test_problem_kind_validation(self):
        with pytest.raises(DomainError):
            CCInstance(n=2, k=1, constraints=(Constraint(0, 1, 1.0, Or((-1, -1, -1))),),
                       problem="kvc")
