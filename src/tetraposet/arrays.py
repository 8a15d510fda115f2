"""Staircase arrays and their color constraints.

An order-n staircase array has rows i = 1..n, row i holding entries
x_{i,j} for j = 0..n-i, with i <= x_{i,j} <= i+j. The j = 0 column is pinned
to x_{i,0} = i. Each entry x_{i,j} with j >= 1 records the induced ideal size
of a j-element green chain, which is why every array family here assumes
green. The remaining colors impose one local inequality each, and
INEQUALITIES below is the single place they are written down: validate, the
enumeration bounds and the diagonal transfer are all derived from it.

In code, rows are 0-indexed tuples: rows[i-1][j] = x_{i,j}.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import chain, combinations, product
from math import comb

from .budget import guard
from .colors import Color, require_admissible
from .counting import Plan, _fillings, count_ideals
from .polynomials import FIELD, QPoly, SparsePoly, add_binomial_term, principal_specialization
from .poset import build

TOURNAMENT_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN})
TSSCPP_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.RED})
ASM_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.BLUE})
SORTED_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN, Color.YELLOW})

#: color -> (di, dj, slack): x_{i,j} <= x_{i+di,j+dj} + slack wherever both
#: cells exist.
INEQUALITIES = {
    Color.ORANGE: (1, 0, -1),  # strict down a column
    Color.RED: (-1, 1, 1),  # northeast neighbor drops by at most 1
    Color.YELLOW: (0, 1, 0),  # weakly increasing along a row
    Color.BLUE: (1, -1, 0),  # bounded by the southwest neighbor
    Color.SILVER: (0, -1, 1),  # west neighbor rises by at most 1
}

Diagonal = tuple[int, ...]
Cell = tuple[int, int]


class Rows:
    """Immutable object stored as a tuple of integer rows.

    Subclasses check the rows in _check, which raises ValueError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        self._check(rows)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def _check(rows: tuple[tuple[int, ...], ...]) -> None:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_json_obj(cls, obj):
        return cls(obj)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json_obj()!r})"


class StaircaseArray(Rows):
    """Immutable staircase-shaped integer array with the pinned first column."""

    __slots__ = ()

    @staticmethod
    def _check(rows) -> None:
        n = len(rows)
        if n == 0:
            raise ValueError("empty array")
        for i, row in enumerate(rows, start=1):
            if len(row) != n - i + 1:
                raise ValueError(f"row {i} must have {n - i + 1} entries")
            for j, v in enumerate(row):
                if not i <= v <= i + j:
                    raise ValueError(
                        f"entry x_{{{i},{j}}}={v} outside bounds [{i}, {i + j}]"
                    )

    def entry(self, i: int, j: int) -> int:
        """x_{i,j} with 1-based row i and 0-based column j."""
        return self.rows[i - 1][j]

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, value) over all cells."""
        for i, row in enumerate(self.rows, start=1):
            for j, v in enumerate(row):
                yield i, j, v

    @classmethod
    def minimal(cls, n: int) -> StaircaseArray:
        return cls(tuple((i,) * (n - i + 1) for i in range(1, n + 1)))

    @classmethod
    def maximal(cls, n: int) -> StaircaseArray:
        return cls(
            tuple(tuple(i + j for j in range(n - i + 1)) for i in range(1, n + 1))
        )


def weight(x: StaircaseArray) -> int:
    """sum of (x_{i,j} - i); equals the size of the matching order ideal."""
    return sum(v - i for i, _, v in x.cells())


def _bounds(
    colors: frozenset[Color], i: int, j: int, filled: Callable[[int, int], bool]
) -> tuple[list[tuple[Cell, int]], list[tuple[Cell, int]]]:
    """The inequalities of `colors` between x_{i,j} and the cells for which
    filled(i', j') holds, as (lower, upper) lists of (cell, delta) meaning
    x_{i,j} >= x_cell + delta and x_{i,j} <= x_cell + delta. A rule relates
    x_{i,j} to two neighbors, one on each side; each filled one bounds it."""
    lower, upper = [], []
    for color, (di, dj, slack) in INEQUALITIES.items():
        if color in colors:
            if filled(i + di, j + dj):
                upper.append(((i + di, j + dj), slack))
            if filled(i - di, j - dj):
                lower.append(((i - di, j - dj), -slack))
    return lower, upper


@lru_cache(maxsize=None)
def _checks(n: int, colors: frozenset[Color]) -> tuple[tuple[int, int, int, int, int], ...]:
    """Every inequality of Y_n(S) as (i, j, i', j', slack) over 0-based rows:
    rows[i][j] <= rows[i'][j'] + slack."""

    def exists(i: int, j: int) -> bool:
        return 1 <= i <= n and 0 <= j <= n - i

    return tuple(
        (i - 1, j, ii - 1, jj, slack)
        for i in range(1, n + 1)
        for j in range(n - i + 1)
        for (ii, jj), slack in _bounds(colors, i, j, exists)[1]
    )


def validate(x: StaircaseArray, colors) -> bool:
    """True iff x satisfies every color inequality of an admissible set containing green."""
    rows = x.rows
    for i, j, ii, jj, slack in _checks(x.n, _require_green(x.n, colors)):
        if rows[i][j] > rows[ii][jj] + slack:
            return False
    return True


def _plan(order: list[Cell], colors: frozenset[Color]) -> Plan:
    """For cells placed in the given order: each cell's range i..i+j and its
    (lower, upper) bounds as (position, delta) against earlier cells."""
    pos = {cell: t for t, cell in enumerate(order)}
    plan = []
    for t, (i, j) in enumerate(order):
        lower, upper = _bounds(colors, i, j, lambda ii, jj: pos.get((ii, jj), t) < t)
        plan.append(
            (
                i,
                i + j,
                tuple((pos[cell], delta) for cell, delta in lower),
                tuple((pos[cell], delta) for cell, delta in upper),
            )
        )
    return tuple(plan)


@lru_cache(maxsize=None)
def _diag_plan(d: int, colors: frozenset[Color], after: bool) -> Plan:
    """The plan for diagonal i+j = d from the pinned x_{d,0} = d northeast to
    x_{1,d-1}, after the d+1 cells of diagonal d+1 when `after` is set."""
    nxt = [(i, d + 1 - i) for i in range(1, d + 2)] if after else []
    return _plan(nxt + [(i, d - i) for i in range(d, 0, -1)], colors)


def _diag_assignments(
    d: int, colors: frozenset[Color], after: Diagonal | None = None
) -> list[Diagonal]:
    """Valid fillings of the diagonal i+j = d, as tuples a with a[i-1] = x_{i, d-i}.

    Given the filling `after` of diagonal d+1, only fillings that may precede
    it are built: the inequalities between the two diagonals bound each entry
    by its east or south neighbor on diagonal d+1.
    """
    vals = list(after or ()) + [0] * d
    start = len(vals) - d
    return [
        tuple(reversed(vals[start:]))
        for _ in _fillings(_diag_plan(d, colors, after is not None), vals, start)
    ]


def _require_green(n: int, colors) -> frozenset[Color]:
    colorset = require_admissible(colors)
    if Color.GREEN not in colorset:
        raise ValueError("the array model needs green in the color set")
    if n < 1:
        raise ValueError("n must be at least 1")
    return colorset


def value_count_gf(n: int, colors, *, equalities: bool) -> SparsePoly:
    """Sum over Y_n(S) of prod_k x_k^(C_k - 1), by diagonal transfer DP
    (Stanley, EC1 section 4.7).

    C_k counts the entries equal to k; the pinned column holds one of each
    value, so x^(C_k - 1) is the product of x_v over the cells with j >= 1.
    With equalities, each array also carries lambda^E (1+lambda)^N, where E
    counts the cells equal to their southwest neighbor (on the same diagonal)
    and N the cells with x_{i,j-1} < x_{i,j} < x_{i+1,j-1}, strictly between
    their west and southwest neighbors (on consecutive diagonals); on the
    array of an alternating sign matrix, N counts its -1 entries.

    Each state is a filling of the last diagonal, mapped to {weight: number
    of partial arrays}, so a transition shifts every weight by one add. The
    states start from the empty diagonal 0, and the live term count is
    checked against the budget after every diagonal.

    Weights are SparsePoly keys, with N (standing for (1+lambda)^N until the
    end) in the extra field n+1. No field fills up: each is at most the
    n(n-1)/2 non-pinned cells, below 2^16 for every n up to 362, far beyond
    the n the transfer can reach.
    """
    colorset = _require_green(n, colors)
    n_shift = (n + 1) * FIELD
    states: dict[Diagonal, dict[int, int]] = {(): {0: 1}}
    for d in range(1, n + 1):
        nxt: dict[Diagonal, dict[int, int]] = {}
        for b in _diag_assignments(d, colorset):
            w = 0
            for i in range(d - 1):
                w += 1 << b[i] * FIELD
                if equalities and b[i] == b[i + 1]:
                    w += 1
            acc: dict[int, int] = {}
            for a in _diag_assignments(d - 1, colorset, b):
                weights = states.get(a)
                if weights is None:
                    continue
                shift = w
                if equalities:
                    shift += sum(a[i] < b[i] < b[i + 1] for i in range(d - 1)) << n_shift
                for k, c in weights.items():
                    k += shift
                    acc[k] = acc.get(k, 0) + c
            if acc:
                nxt[b] = acc
        states = nxt
        guard(sum(map(len, states.values())), "transfer terms")
    total: dict[int, int] = {}
    for weights in states.values():
        for k, c in weights.items():
            total[k] = total.get(k, 0) + c
    terms: dict[int, int] = {}
    low = (1 << n_shift) - 1
    for key, c in total.items():
        add_binomial_term(terms, key & low, key >> n_shift, c)
    return SparsePoly._make(terms)


def array_rank_gf(n: int, colors) -> QPoly:
    """Generating function sum q^weight over Y_n(S): the value-count sum at
    x_k = q^(k-1), lowered by q^C(n,3).

    The specialization gives an array q to the sum of x_{i,j} - 1 over its
    cells with j >= 1, and its weight is the sum of x_{i,j} - i over the same
    cells, less by sum_i (i-1)(n-i) = C(n,3).
    """
    gf = principal_specialization(value_count_gf(n, colors, equalities=False))
    shift = comb(n, 3)
    return QPoly({e - shift: c for e, c in gf.coefficients().items()})


def count_arrays(n: int, colors) -> int:
    """|Y_n(S)|, the number of order ideals of T_n(S) (the paper's bijection)."""
    return count_ideals(build(n).subposet(_require_green(n, colors)))


@lru_cache(maxsize=None)
def _array_plan(n: int, colors: frozenset[Color]) -> Plan:
    return _plan([(i, j) for i in range(n, 0, -1) for j in range(n - i + 1)], colors)


def enumerate_arrays(n: int, colors) -> Iterator[StaircaseArray]:
    """Yield Y_n(S) in deterministic order (rows bottom-up, values ascending)."""
    colorset = _require_green(n, colors)
    guard(count_arrays(n, colorset), "arrays")
    plan = _array_plan(n, colorset)
    vals = [0] * len(plan)
    # row i occupies positions starts[i-1] .. starts[i-1] + n-i of vals
    starts = [(n - i) * (n - i + 1) // 2 for i in range(1, n + 1)]
    for _ in _fillings(plan, vals, 0):
        yield StaircaseArray(
            tuple(vals[s : s + n - i + 1]) for i, s in enumerate(starts, start=1)
        )


def sort_to_tsscpp(beta: StaircaseArray) -> StaircaseArray:
    """Sort each row of a {b,r,g} array into weak increase.

    The result lies in Y_n({b,r,g,y}), and the map is idempotent. The rows can
    also be sorted by adjacent swaps from the bottom row up: an out-of-order
    pair only sits over equal southwest neighbors, and swapping it together
    with both full northeast diagonals keeps every red and blue inequality
    and every row multiset. A weakly increasing row is fixed by its multiset,
    so plain sorting gives the same array.
    """
    if not validate(beta, TOURNAMENT_COLORS):
        raise ValueError("input is not a {b,r,g} array")
    result = StaircaseArray(tuple(sorted(r)) for r in beta.rows)
    if not validate(result, SORTED_COLORS):
        raise RuntimeError("sorting broke a red or blue inequality")
    return result


def _row_equalities(alpha: StaircaseArray) -> list[dict[int, int]]:
    """For each row i < n, the map v -> E_{i,v}: the cells of row i equal to
    v and to their southwest neighbor."""
    out = []
    for row, below in zip(alpha.rows, alpha.rows[1:]):
        eq: dict[int, int] = {}
        for v, sw in zip(row[1:], below):
            if v == sw:
                eq[v] = eq.get(v, 0) + 1
        out.append(eq)
    return out


def row_shuffle_count(alpha: StaircaseArray) -> int:
    """Size of the fiber of sort_to_tsscpp over alpha: the product over rows
    i < n and values v of binomial(C_{i+1,v}, E_{i,v}), where C_{i+1,v}
    counts v in row i+1."""
    total = 1
    for eq, below in zip(_row_equalities(alpha), alpha.rows[1:]):
        for v, e in eq.items():
            total *= comb(below.count(v), e)
    return total


def enumerate_row_shuffles(alpha: StaircaseArray) -> Iterator[StaircaseArray]:
    """Yield the fiber {beta in Y_n({b,r,g}) : sort_to_tsscpp(beta) = alpha}.

    alpha must lie in Y_n({b,r,g,y}). Rows are built from the bottom up. A
    cell of row i over a southwest value sw holds sw (an equality) or sw - 1,
    and the row keeps alpha's row multiset exactly when E_{i,v} of the cells
    over each value v hold v; which cells is free. Values are placed in
    ascending order, and the fiber always contains alpha itself.
    """
    if not validate(alpha, SORTED_COLORS):
        raise ValueError("input is not a sorted {b,r,g,y} array")
    guard(row_shuffle_count(alpha), "row shuffles")
    equalities = [sorted(eq.items()) for eq in _row_equalities(alpha)]
    rows = list(alpha.rows)

    def place(i: int) -> Iterator[StaircaseArray]:  # fills rows[i], then above
        if i < 0:
            yield StaircaseArray(rows)
            return
        below = rows[i + 1]
        choices = [
            combinations([j for j, sw in enumerate(below, start=1) if sw == v], e)
            for v, e in equalities[i]
        ]
        for picks in product(*choices):
            eq = set(chain.from_iterable(picks))
            rows[i] = (i + 1,) + tuple(
                sw if j in eq else sw - 1 for j, sw in enumerate(below, start=1)
            )
            yield from place(i - 1)

    yield from place(alpha.n - 2)
