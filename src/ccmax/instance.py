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
    def q(self) -> float:
        return self.k / self.n

    @property
    def balance(self) -> float:
        """Sum of +-1 values of any feasible assignment: 2k - n."""
        return float(2 * self.k - self.n)

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.constraints))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """(i, j, w, c0, c1, c2, c3) with value = c0 + c1 xi + c2 xj + c3 xi xj."""
        m = len(self.constraints)
        i = np.zeros(m, dtype=np.int64)
        j = np.zeros(m, dtype=np.int64)
        w = np.zeros(m)
        c0 = np.zeros(m)
        c1 = np.zeros(m)
        c2 = np.zeros(m)
        c3 = np.zeros(m)
        for t, c in enumerate(self.constraints):
            i[t], j[t], w[t] = c.i, c.j, c.weight
            if isinstance(c.kind, Xor):
                c0[t], c3[t] = 0.5, 0.5 * c.kind.parity
            else:
                p1, p2, p3 = c.kind.pattern
                c0[t], c1[t], c2[t], c3[t] = 0.75, 0.25 * p1, 0.25 * p2, 0.25 * p3
        return i, j, w, c0, c1, c2, c3


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
    return int(np.sum(np.asarray(values) == 1))


def is_feasible(inst: CCInstance, values: Sequence[int] | np.ndarray) -> bool:
    return cardinality(as_assignment(values, inst.n)) == inst.k


def evaluate(inst: CCInstance, values: Sequence[int] | np.ndarray) -> float:
    """Weighted sum of constraint values; does not check cardinality.

    This and `evaluate_many` sum the same terms in different orders, so
    their values for one assignment can differ in the last bits: on 50
    criterion-7-shaped instances (n=14, m=40) they differed on 2719 of
    6000 random assignments, and `evaluate` of `brute_force_opt`'s
    assignment differed from its returned value on 18 of 50, by at most
    3.6e-15.  A solve report's `best_value` and `brute_force_optval` can
    thus differ by an ulp for the same assignment.  `evaluate_many`'s
    value for a row also depends on the batch it sits in (the BLAS
    product's blocking): a row scored alone differed from the same row
    in a batch of 200 on 1676 of 10000 draws.
    """
    a = as_assignment(values, inst.n)
    i, j, w, c0, c1, c2, c3 = inst._arrays
    xi = a[i].astype(float)
    xj = a[j].astype(float)
    return float(np.sum(w * (c0 + c1 * xi + c2 * xj + c3 * xi * xj)))


def evaluate_many(inst: CCInstance, rows: np.ndarray) -> np.ndarray:
    """Objective for a batch of assignments (rows of -1/+1), vectorized."""
    i, j, w, c0, c1, c2, c3 = inst._arrays
    xi = rows[:, i].astype(float)
    xj = rows[:, j].astype(float)
    return (w * c0).sum() + xi @ (w * c1) + xj @ (w * c2) + (xi * xj) @ (w * c3)


def brute_force_opt(inst: CCInstance, batch: int = 16384) -> tuple[np.ndarray, float]:
    """Exact optimum over all C(n, k) feasible assignments.

    Enumerates k-subsets in batches and evaluates them vectorized.
    Ties resolve to the lexicographically smallest value vector
    (-1 sorts before +1): the last maximum met, as combinations come in
    strictly decreasing lexicographic order.  Guarded at n <= 28.
    """
    if inst.n > BRUTE_FORCE_MAX_VARS:
        raise SizeGuardError(
            f"brute force refused: n={inst.n} exceeds the guard of {BRUTE_FORCE_MAX_VARS}")
    best_val = -math.inf
    best_row: np.ndarray | None = None
    combos = itertools.combinations(range(inst.n), inst.k)
    while True:
        chunk = list(itertools.islice(combos, batch))
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

    Flipping x_i changes a constraint's value by -2 (c1 xi + c3 xi xj)
    and flipping x_j by -2 (c2 xj + c3 xi xj); on a self-loop xi xj = 1
    stays put, so its c3 part is dropped.  The ends are scattered in the
    order i_0, j_0, i_1, j_1, ..., so each variable's terms are summed
    in constraint order.
    """
    a = as_assignment(values, inst.n)
    if not inst.constraints:
        return np.zeros(inst.n)
    i, j, w, _, c1, c2, c3 = inst._arrays
    xi = a[i].astype(float)
    xj = a[j].astype(float)
    pair = np.where(i != j, c3 * xi * xj, 0.0)
    terms = w[:, None] * np.stack([-2.0 * (c1 * xi + pair), -2.0 * (c2 * xj + pair)], axis=1)
    return np.bincount(np.stack([i, j], axis=1).ravel(), weights=terms.ravel(),
                       minlength=inst.n)


_GREEDY_PASSES = 40


def greedy_assignment(inst: CCInstance) -> np.ndarray:
    """Deterministic feasible assignment: linear seeding plus 1-swap ascent.

    Each pass takes the first improving swap of a +1 variable u with a
    -1 variable v, in the order (ascending u, ascending v); a swap gains
    flip_gains[u] + flip_gains[v] - 4 Q[u, v], where Q sums w c3 over
    the constraints joining u and v.  Stops after a pass without one,
    or after 40 passes.

    Not optimal; used to seed the relaxation solver with a decent
    integral point when brute force is out of reach.
    """
    i, j, w, _, c1, c2, c3 = inst._arrays
    lin = np.zeros(inst.n)
    np.add.at(lin, i, w * c1)
    np.add.at(lin, j, w * c2)
    order = np.lexsort((np.arange(inst.n), -lin))
    a = -np.ones(inst.n, dtype=np.int64)
    a[order[: inst.k]] = 1

    Q = np.zeros((inst.n, inst.n))  # self-loops land on the diagonal, which no swap reads
    np.add.at(Q, (i, j), w * c3)
    Q += Q.T
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
