"""Cardinality-constrained Max-2-CSP instances: model, format, brute force.

Sign convention (global, used everywhere in this package): a variable
assignment takes values in {-1, +1} with +1 meaning *true* (for
coverage problems: *selected*), and the cardinality field k counts the
variables assigned +1.

Constraints are binary with payloads evaluated as

    XOR(P):            (1 + P * xi * xj) / 2
    OR(P1, P2, P3):    (3 + P1 * xi + P2 * xj + P3 * xi * xj) / 4

Both land in {0, 1} on +-1 inputs.  XOR with P = -1 is a cut edge.  An
OR clause over literals with signs (s_i, s_j) (s = -1 for a negated
literal) has payload (s_i, s_j, -s_i * s_j); under the +1 = true
convention the plain clause "xi or xj" -- the coverage constraint -- is
therefore (1, 1, -1), and (-1, -1, -1) is "not xi or not xj".  The four
admissible payloads are the same four tuples either way.

The objective's one encoding is `CCInstance.form`, which evaluation,
flip gains, greedy seeding and `sdp.relax` all read; an assignment's
value has the same bits whichever call or batch scores it.

Instance file grammar (1-based variable indices; the shared line
grammar is `read_lines`):

    ccmax v1
    problem <cut|2lin|2sat|kvc>
    vars <n>
    card <k>
    c <i> <j> <w> <tag>     # tag in {x+, x-} or {oo, no, on, nn}
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FormatError, SizeGuardError
from .gaussian import stream

BRUTE_FORCE_MAX_VARS = 28
_BRUTE_FORCE_BATCH = 16384  # k-subsets scored per `evaluate_many` call

OR_PATTERNS = ((-1, -1, -1), (1, -1, 1), (-1, 1, 1), (1, 1, -1))

# coverage clause "xi or xj" under +1 = true
VERTEX_COVER_PATTERN = (1, 1, -1)


@dataclass(frozen=True)
class Xor:
    parity: int

    def __post_init__(self):
        if self.parity not in (-1, 1):
            raise DomainError(f"XOR parity must be -1 or +1, got {self.parity!r}")


@dataclass(frozen=True)
class Or:
    pattern: tuple[int, int, int]

    def __post_init__(self):
        if tuple(self.pattern) not in OR_PATTERNS:
            raise DomainError(f"OR pattern must be one of {OR_PATTERNS}, got {self.pattern!r}")


ConstraintKind = Xor | Or

CUT_KIND = Xor(-1)
VERTEX_COVER_KIND = Or(VERTEX_COVER_PATTERN)

_TAG_TO_KIND: dict[str, ConstraintKind] = {
    "x+": Xor(1),
    "x-": Xor(-1),
    "oo": Or((1, 1, -1)),
    "no": Or((-1, 1, 1)),
    "on": Or((1, -1, 1)),
    "nn": Or((-1, -1, -1)),
}
_KIND_TO_TAG = {kind: tag for tag, kind in _TAG_TO_KIND.items()}

_PROBLEM_KINDS = {
    "cut": {Xor(-1)},
    "2lin": {Xor(-1), Xor(1)},
    "kvc": {VERTEX_COVER_KIND},
    "2sat": {Or(p) for p in OR_PATTERNS},
}


def constraint_value(kind: ConstraintKind, xi: int, xj: int) -> float:
    """Value in {0, 1} of one constraint at a +-1 variable pair."""
    if xi not in (-1, 1) or xj not in (-1, 1):
        raise DomainError(f"variables must be -1 or +1, got ({xi!r}, {xj!r})")
    if isinstance(kind, Xor):
        return (1 + kind.parity * xi * xj) / 2
    p1, p2, p3 = kind.pattern
    return (3 + p1 * xi + p2 * xj + p3 * xi * xj) / 4


@dataclass(frozen=True)
class Constraint:
    i: int
    j: int
    weight: float
    kind: ConstraintKind


@dataclass(frozen=True)
class CCInstance:
    """n variables, exactly k of them +1, weighted binary constraints.

    Variable indices are 0-based internally; the file format is 1-based.
    """

    n: int
    k: int
    constraints: tuple[Constraint, ...]
    problem: str = "2lin"

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one variable, got n={self.n}")
        if not (0 <= self.k <= self.n):
            raise DomainError(f"cardinality k={self.k} outside 0..{self.n}")
        if self.problem not in _PROBLEM_KINDS:
            raise DomainError(f"unknown problem {self.problem!r}")
        total = 0.0
        for c in self.constraints:
            if not (0 <= c.i < self.n and 0 <= c.j < self.n):
                raise DomainError(f"constraint ({c.i}, {c.j}) references missing variable")
            if not math.isfinite(c.weight):
                raise DomainError(f"weights must be finite, got {c.weight!r}")
            if c.weight < 0.0:
                raise DomainError(f"weights must be nonnegative, got {c.weight!r}")
            if c.kind not in _PROBLEM_KINDS[self.problem]:
                raise DomainError(
                    f"constraint kind {c.kind!r} not allowed for problem {self.problem!r}")
            total += c.weight
        if self.constraints and total <= 0.0:
            raise DomainError("total constraint weight must be positive")

    @property
    def balance(self) -> float:
        """Sum of +-1 values of any feasible assignment: 2k - n."""
        return float(2 * self.k - self.n)

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.constraints))

    @cached_property
    def form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(p, q, c, offset): the objective offset + sum_t c[t] x_p[t] x_q[t]
        with x_0 = 1, one term per distinct (p, q), p < q, in (p, q) order.

        A constraint on (i, j) worth w (c0 + c1 x_i + c2 x_j + c3 x_i x_j)
        puts w c1 on the term (0, i+1), w c2 on (0, j+1) and w c3 on
        (i+1, j+1), and w c0 into the offset.  On a self-loop x_i x_j = 1:
        w c3 joins the offset and w (c1 + c2) lands on (0, i+1).  Zero
        terms are dropped; each term sums its parts, and the offset its
        parts, in constraint order.
        """
        m = len(self.constraints)
        i, j = np.zeros((2, m), dtype=np.int64)
        w, c0, c1, c2, c3 = np.zeros((5, m))
        for t, con in enumerate(self.constraints):
            i[t], j[t], w[t] = con.i, con.j, con.weight
            if isinstance(con.kind, Xor):
                c0[t], c3[t] = 0.5, 0.5 * con.kind.parity
            else:
                p1, p2, p3 = con.kind.pattern
                c0[t], c1[t], c2[t], c3[t] = 0.75, 0.25 * p1, 0.25 * p2, 0.25 * p3
        size = self.n + 1
        vi, vj = i + 1, j + 1
        loop = vi == vj
        pair = np.minimum(vi, vj) * size + np.maximum(vi, vj)
        # the terms on (0, i), (0, j), (i, j) of each constraint, in that order
        keys = np.stack([vi, vj, pair], axis=1).ravel()
        coeffs = np.stack([w * np.where(loop, c1 + c2, c1), np.where(loop, 0.0, w * c2),
                           np.where(loop, 0.0, w * c3)], axis=1).ravel()
        keep = coeffs != 0.0
        keys, slot = np.unique(keys[keep], return_inverse=True)
        # bincount adds in input order: each term's parts in constraint order
        c = np.bincount(slot, weights=coeffs[keep], minlength=keys.size)
        offset = np.cumsum(w * (c0 + np.where(loop, c3, 0.0)))  # a sequential sum
        return keys // size, keys % size, c, float(offset[-1]) if m else 0.0


def as_assignment(values: Sequence[int] | np.ndarray, n: int | None = None) -> np.ndarray:
    """`values` as an int64 vector, checked to hold only -1 and +1 before the cast."""
    a = np.asarray(values)
    if a.ndim != 1 or not np.all((a == 1) | (a == -1)):
        raise DomainError("assignment must be a flat vector of -1/+1 values")
    if n is not None and a.size != n:
        raise DomainError(f"assignment has {a.size} entries, instance has {n} variables")
    return a.astype(np.int64, copy=False)


def cardinality(values: Sequence[int] | np.ndarray) -> int:
    """Number of +1 (true) entries."""
    return int(np.count_nonzero(np.asarray(values) == 1))


def is_feasible(inst: CCInstance, values: Sequence[int] | np.ndarray) -> bool:
    return cardinality(as_assignment(values, inst.n)) == inst.k


def evaluate(inst: CCInstance, values: Sequence[int] | np.ndarray) -> float:
    """Objective at one checked assignment, `evaluate_many`'s value for it;
    does not check cardinality."""
    return float(evaluate_many(inst, as_assignment(values, inst.n)[None])[0])


def evaluate_many(inst: CCInstance, rows: np.ndarray) -> np.ndarray:
    """Objective of each row of -1/+1 values, read off `inst.form`.

    Every term c x_p x_q is exact, and each row sums its terms in
    sequence, offset first (`np.cumsum`, never a product or a pairwise
    sum), so a row's value is the same bits in any batch and alone.
    """
    p, q, c, offset = inst.form
    x = np.hstack([np.ones((len(rows), 1)), rows])
    terms = np.hstack([np.full((len(rows), 1), offset), c * x[:, p] * x[:, q]])
    return np.cumsum(terms, axis=1)[:, -1]


def brute_force_opt(inst: CCInstance) -> tuple[np.ndarray, float]:
    """Exact optimum over all C(n, k) feasible assignments.

    Enumerates k-subsets in batches of `_BRUTE_FORCE_BATCH` rows, which only bounds
    memory: a row's value does not depend on its batch.  Among
    bitwise-equal values the lexicographically smallest value vector
    wins (-1 sorts before +1): the last maximum met, as combinations come
    in strictly decreasing lexicographic order.  Guarded at n <= 28.
    """
    if inst.n > BRUTE_FORCE_MAX_VARS:
        raise SizeGuardError(
            f"brute force refused: n={inst.n} exceeds the guard of {BRUTE_FORCE_MAX_VARS}")
    best_val = -math.inf
    best_row: np.ndarray | None = None
    combos = itertools.combinations(range(inst.n), inst.k)
    while True:
        chunk = list(itertools.islice(combos, _BRUTE_FORCE_BATCH))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.int64).reshape(len(chunk), inst.k)
        rows = -np.ones((len(chunk), inst.n), dtype=np.int64)
        np.put_along_axis(rows, idx, 1, axis=1)
        vals = evaluate_many(inst, rows)
        last = vals.size - 1 - int(np.argmax(vals[::-1]))
        if vals[last] >= best_val:
            best_val, best_row = float(vals[last]), rows[last]
    assert best_row is not None
    return best_row, best_val


def flip_gains(inst: CCInstance, values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Gain evaluate(a with v flipped) - evaluate(a) for every variable v.

    Flipping x_v negates each term c x_p x_q of `inst.form` that has v
    as an end, a change of -2 c x_p x_q; each variable sums these in
    term order, first as p, then as q.
    """
    a = as_assignment(values, inst.n)
    p, q, c, _ = inst.form
    x = np.append(1, a)
    t = -2.0 * c * x[p] * x[q]
    return (np.bincount(p, t, inst.n + 1) + np.bincount(q, t, inst.n + 1))[1:]


_GREEDY_PASSES = 40


def greedy_assignment(inst: CCInstance) -> np.ndarray:
    """Deterministic feasible assignment: linear seeding plus 1-swap ascent.

    The k variables with the largest linear coefficients, the (0, v)
    terms of `inst.form`, start at +1, ties to the lower index.  Each
    pass then takes the first improving swap of a +1 variable u with a
    -1 variable v, in the order (ascending u, ascending v); a swap gains
    flip_gains[u] + flip_gains[v] - 4 Q[u, v], where Q[u, v] is the
    form's coefficient on x_u x_v.  Stops after a pass without one, or
    after 40 passes.

    Not optimal; used to seed the relaxation solver with a decent
    integral point when brute force is out of reach.
    """
    p, q, c, _ = inst.form
    Q = np.zeros((inst.n + 1, inst.n + 1))
    Q[p, q] = c  # row 0 holds the linear terms
    order = np.lexsort((np.arange(inst.n), -Q[0, 1:]))
    a = -np.ones(inst.n, dtype=np.int64)
    a[order[: inst.k]] = 1

    Q = Q[1:, 1:] + Q[1:, 1:].T
    for _ in range(_GREEDY_PASSES):
        d = flip_gains(inst, a)
        ones = np.nonzero(a == 1)[0]
        zeros = np.nonzero(a == -1)[0]
        gain = d[ones][:, None] + d[zeros][None, :] - 4.0 * Q[np.ix_(ones, zeros)]
        better = np.flatnonzero(gain > 1e-15)
        if not better.size:
            break
        u, v = divmod(int(better[0]), zeros.size)
        a[ones[u]], a[zeros[v]] = -1, 1
    return a


class Rows(NamedTuple):
    """The rows of one keyword: their tokens end to end, and each row's count."""

    tokens: list[str]
    widths: list[int]

    def line(self, r: int) -> str:
        """Row `r` as text, for error messages."""
        start = sum(self.widths[:r])
        return " ".join(self.tokens[start:start + self.widths[r]])


def read_lines(text: str, magic: str, header: Mapping[str, type],
               keywords: Iterable[str]) -> tuple[dict[str, Any], dict[str, Rows]]:
    """The line grammar every ccmax text format shares.

    '#' starts a comment and blank lines are skipped.  The first line is
    `<magic> v1`, then come the `key value` lines of `header`, each key
    once in any order, then rows that start with one of `keywords`.
    Returns the header values, converted by their types, and each
    keyword's rows in file order, tokens in one flat list: a list per
    line would leave the garbage collector that many containers to scan.
    """
    # a comment runs to the end of its line, by the line breaks of str.splitlines
    text = re.sub("#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*", "", text)
    lines = filter(None, map(str.split, text.splitlines()))
    if next(lines, None) != [magic, "v1"]:
        raise FormatError(f"missing '{magic} v1' header")
    rows = {kw: Rows([], []) for kw in (*header, *keywords)}
    in_body = False
    for key, run in itertools.groupby(lines, itemgetter(0)):
        in_body = in_body or key not in header
        if key not in rows or (in_body and key in header):
            raise FormatError(f"unexpected line: {' '.join(next(run))!r}")
        tokens, widths = rows[key]
        for parts in run:
            tokens += parts
            widths.append(len(parts))
    head = {}
    for key, convert in header.items():
        count = len(rows[key].widths)
        if count != 1:
            raise FormatError(f"'{key}' given {count} times" if count else f"missing '{key}' line")
        head[key] = read_columns(rows.pop(key), (convert,))[0][0]
    return head, rows


def read_columns(rows: Rows, types: Sequence[type]) -> list[list]:
    """The fields after the keyword, one list per type; every row has one
    field per type.  A column converts in one `map`, and is scanned again
    only when that fails, to name the first bad line."""
    width = len(types) + 1
    if rows.widths.count(width) != len(rows.widths):
        r = next(r for r, w in enumerate(rows.widths) if w != width)
        raise FormatError(f"bad line: {rows.line(r)!r}")
    out = []
    for k, convert in enumerate(types, 1):
        column = rows.tokens[k::width]
        try:
            out.append(list(map(convert, column)))
        except ValueError:
            for r, field in enumerate(column):
                try:
                    convert(field)
                except ValueError as exc:
                    raise FormatError(f"bad line {rows.line(r)!r}: {exc}") from exc
    return out


def by_id(ids: list[int], values: list, n: int, keyword: str) -> list:
    """`values` ordered by their 1-based `ids`, exactly 1..n, each once.  Nothing
    is sized by n or by an id unless the file holds n rows."""
    if len(ids) != n or sorted(ids) != list(range(1, n + 1)):
        raise FormatError(f"'{keyword}' ids must be exactly 1..{n}, each once")
    return [value for _, value in sorted(zip(ids, values))]


def parse_instance(text: str) -> CCInstance:
    """Parse the line-oriented instance format (see module docstring)."""
    head, rows = read_lines(text, "ccmax", {"problem": str, "vars": int, "card": int}, ("c",))
    n = head["vars"]
    i, j, w, tags = read_columns(rows["c"], (int, int, float, str))
    if unknown := set(tags) - _TAG_TO_KIND.keys():
        raise FormatError(f"unknown constraint tags {sorted(unknown)}")
    if i and not 1 <= min(i + j) <= max(i + j) <= n:
        raise FormatError(f"constraint indices out of range 1..{n}")
    constraints = tuple(map(Constraint, [a - 1 for a in i], [b - 1 for b in j], w,
                            map(_TAG_TO_KIND.__getitem__, tags)))
    try:
        return CCInstance(n=n, k=head["card"], constraints=constraints, problem=head["problem"])
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def format_instance(inst: CCInstance) -> str:
    """Canonical text form; weights with full round-trip precision."""
    out = ["ccmax v1", f"problem {inst.problem}", f"vars {inst.n}", f"card {inst.k}"]
    for c in inst.constraints:
        out.append(f"c {c.i + 1} {c.j + 1} {c.weight:.17g} {_KIND_TO_TAG[c.kind]}")
    return "\n".join(out) + "\n"


def random_instance(
    n: int,
    k: int,
    m: int,
    problem: str = "cut",
    seed: int = 0,
    weighted: bool = True,
) -> CCInstance:
    """Seeded random instance (distinct endpoints, uniform kinds/weights)."""
    if problem not in _PROBLEM_KINDS:
        raise DomainError(f"unknown problem {problem!r}")
    if m < 0:
        raise DomainError(f"need m >= 0 constraints, got m={m}")
    if m and n < 2:
        raise DomainError(f"constraints need two distinct endpoints, got n={n}")
    rng = stream(seed)
    constraints = []
    kinds = sorted(_PROBLEM_KINDS[problem], key=repr)
    for _ in range(m):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        if j >= i:
            j += 1
        w = float(rng.uniform(0.1, 1.0)) if weighted else 1.0
        kind = kinds[int(rng.integers(0, len(kinds)))]
        constraints.append(Constraint(i, j, w, kind))
    return CCInstance(n=n, k=k, constraints=tuple(constraints), problem=problem)
