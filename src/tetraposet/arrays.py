"""Staircase arrays and their color constraints.

An order-n staircase array has rows i = 1..n, row i holding entries
x_{i,j} for j = 0..n-i, with i <= x_{i,j} <= i+j. The j = 0 column is pinned
to x_{i,0} = i. Each entry x_{i,j} with j >= 1 records the induced ideal size
of a j-element green chain, which is why every array family here assumes
green. The remaining colors impose one local inequality each. INEQUALITIES
below derives them from the lattice steps in colors.STEP through the vertex
to cell map, and validate and the row successors (_row_assignments) are
derived from it. Each inequality joins a cell to its own row or the row
below, so one row successor serves every job: every array sum whose weights
are local to two rows runs as one transfer over the rows (_row_transfer),
and enumerate_arrays and the sorting fibers (enumerate_row_shuffles) walk
the same successors depth first (_walk_rows). Both take the successors as a
function, so the transfer also runs over the sorting fibers' rows
(_shuffle_successors) and over the rows of monotone triangles
(identities._row_steps), and every right side of the identities module
uses it.

In code, rows are 0-indexed tuples: rows[i-1][j] = x_{i,j}.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from math import comb

from .budget import guard
from .colors import STEP, Color, require_admissible
from .counting import Plan, _fillings, count_ideals, rank_gf
from .polynomials import FIELD, QPoly, SparsePoly, expand_binomial_field
from .poset import build, json_int

TOURNAMENT_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN})
TSSCPP_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.RED})
ASM_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.BLUE})
SORTED_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN, Color.YELLOW})

#: color -> (di, dj, slack): x_{i,j} <= x_{i+di,j+dj} + slack wherever both
#: cells exist. Vertex (c1, c2, c3) is level c2 of cell (c1+1, n-1-c1-c3), so an
#: edge v -> v + (a, b, c) joins level c2 of cell (i, j) to level c2 + b of
#: cell (i+a, j-a-c), and an ideal holding the upper level holds the lower one.
#: Green, (0, 1, 0), stacks the levels of one cell and is the array itself.
INEQUALITIES = {
    color: (-a, a + c, a + b) for color, (a, b, c) in STEP.items() if color is not Color.GREEN
}

Cell = tuple[int, int]
Row = tuple[int, ...]


class Rows:
    """Immutable object stored as a tuple of integer rows.

    Subclasses check the rows in _check, which raises ValueError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(map(tuple, rows))
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
        return cls(tuple(json_int(v) for v in row) for row in obj)

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


@lru_cache(maxsize=None)
def _row_plan(i: int, width: int, colors: frozenset[Color]) -> Plan:
    """The plan for row i, west to east, after the `width` cells of row i+1:
    each cell's range i..i+j and its (lower, upper) bounds as (position,
    delta) against earlier cells."""
    order = [(i + 1, j) for j in range(width)] + [(i, j) for j in range(width + 1)]
    pos = {cell: t for t, cell in enumerate(order)}
    plan = []
    for t, (ii, j) in enumerate(order):
        lower, upper = _bounds(colors, ii, j, lambda ci, cj: pos.get((ci, cj), t) < t)
        plan.append(
            (
                ii,
                ii + j,
                tuple((pos[cell], delta) for cell, delta in lower),
                tuple((pos[cell], delta) for cell, delta in upper),
            )
        )
    return tuple(plan)


def _row_assignments(i: int, colors: frozenset[Color], below: Row) -> list[Row]:
    """Valid fillings of row i given the filling `below` of row i+1 (empty
    for the bottom row i = n).

    Every inequality joins cells of one row or of two consecutive rows, so an
    array is valid exactly when each row is valid over the row below it.
    """
    width = len(below)
    vals = list(below) + [0] * (width + 1)
    return [tuple(vals[width:]) for _ in _fillings(_row_plan(i, width, colors), vals, width)]


def _walk_rows(n: int, successors: Callable[[int, Row], Iterable[Row]]) -> Iterator[list[Row]]:
    """Every array whose row i is one of successors(i, row i+1), depth first
    from row n (over the empty row) up to row 1, taking the candidates in
    their given order. Yields one list, rows[i-1] = row i, reused on every
    yield."""
    rows: list[Row] = [()] * n
    todo: list[Iterator[Row]] = [iter(())] * (n + 1)  # rows left to try
    i = n
    todo[n] = iter(successors(n, ()))
    while i <= n:
        row = next(todo[i], None)
        if row is None:
            i += 1
        elif i > 1:
            rows[i - 1] = row
            i -= 1
            todo[i] = iter(successors(i, row))
        else:
            rows[0] = row
            yield rows


def _row_transfer(
    n: int,
    successors: Callable[[int, Row], Iterable[Row]],
    step: Callable[[Row, Row], tuple[int, int]],
) -> dict[int, int]:
    """Sum over the arrays whose row i is one of successors(i, row i+1), as
    in _walk_rows, of a weight that is a product over rows, by transfer over
    the rows from the bottom up (Stanley, EC1 section 4.7). A row is any
    tuple, and the transfer starts from the empty row (), so the same loop
    runs over other row sequences: the rows of a monotone triangle, from ()
    to its last row, are the states of identities.robbins_rumsey_rhs.

    step(row, below) gives row i's share over row i+1 as (key shift, factor):
    an array's SparsePoly key is the sum of its rows' shifts and its weight
    the product of their factors. The state after row i is that row, mapped
    to {key: summed weight of the partial arrays}. States are dropped as they
    are consumed, and the live term count is checked against the budget after
    every row. Nothing lies above row 1, so all of its fillings go to the
    single state (), which holds the result as {key: coefficient}.
    """
    states: dict[Row, dict[int, int]] = {(): {0: 1}}
    for i in range(n, 0, -1):
        nxt: dict[Row, dict[int, int]] = {}
        while states:
            below, weights = states.popitem()
            for row in successors(i, below):
                shift, factor = step(row, below)
                acc = nxt.setdefault(row if i > 1 else (), {})
                get = acc.get
                for k, c in weights.items():
                    k += shift
                    acc[k] = get(k, 0) + c * factor
        states = nxt
        guard(sum(map(len, states.values())), "transfer terms")
    return states[()]


def _require_green(n: int, colors) -> frozenset[Color]:
    colorset = require_admissible(colors)
    if Color.GREEN not in colorset:
        raise ValueError("the array model needs green in the color set")
    if n < 1:
        raise ValueError("n must be at least 1")
    return colorset


def value_count_gf(n: int, colors, *, equalities: bool) -> SparsePoly:
    """Sum over Y_n(S) of prod_k x_k^(C_k - 1), by row transfer.

    C_k counts the entries equal to k; the pinned column holds one of each
    value, so x^(C_k - 1) is the product of x_v over the cells with j >= 1.
    With equalities, each array also carries lambda^E (1+lambda)^N, where E
    counts the cells equal to their southwest neighbor and N the cells with
    x_{i,j-1} < x_{i,j} < x_{i+1,j-1}, strictly between their west and
    southwest neighbors; on the array of an alternating sign matrix, N counts
    its -1 entries. Each cell's weight lies in its own row and the row below.

    Weights are SparsePoly keys, with N in the extra field n+1 until
    expand_binomial_field multiplies out (1+lambda)^N. No field fills up:
    each is at most the n(n-1)/2 non-pinned cells, below 2^16 for every n up
    to 362, far beyond the n the transfer can reach.
    """
    colorset = _require_green(n, colors)
    n_shift = (n + 1) * FIELD

    def step(row: Row, below: Row) -> tuple[int, int]:
        shift = 0
        for west, v, sw in zip(row, row[1:], below):
            shift += 1 << v * FIELD
            if equalities:
                shift += (v == sw) + ((west < v < sw) << n_shift)
        return shift, 1

    sums = _row_transfer(n, lambda i, below: _row_assignments(i, colorset, below), step)
    return expand_binomial_field(sums, n + 1)


def array_rank_gf(n: int, colors) -> QPoly:
    """sum q^weight over Y_n(S), the rank gf of T_n(S): its ideals are the
    arrays, with size as weight (the paper's bijection)."""
    return rank_gf(build(n).subposet(_require_green(n, colors)))


def count_arrays(n: int, colors) -> int:
    """|Y_n(S)|, the number of order ideals of T_n(S) (the paper's bijection)."""
    return count_ideals(build(n).subposet(_require_green(n, colors)))


def enumerate_arrays(n: int, colors) -> Iterator[StaircaseArray]:
    """Yield Y_n(S) in deterministic order (rows bottom-up, values ascending)."""
    colorset = _require_green(n, colors)
    guard(count_arrays(n, colorset), "arrays")
    for rows in _walk_rows(n, lambda i, below: _row_assignments(i, colorset, below)):
        yield StaircaseArray(rows)


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


def _row_fiber(row: Row, below: Row) -> tuple[int, int]:
    """Row i's share of the sorting fiber over row i+1: (E_i, the product over
    values v of binomial(C_{i+1,v}, E_{i,v})). E_{i,v} counts the cells of row
    i equal to v and to their southwest neighbor, E_i is their sum, and
    C_{i+1,v} counts v in row i+1. The binomial counts the ways to place
    E_{i,v} equalities over the cells of row i+1 holding v."""
    eq: dict[int, int] = {}
    for v, sw in zip(row[1:], below):
        if v == sw:
            eq[v] = eq.get(v, 0) + 1
    ways = 1
    for v, e in eq.items():
        ways *= comb(below.count(v), e)
    return sum(eq.values()), ways


def row_shuffle_count(alpha: StaircaseArray) -> int:
    """Size of the fiber of sort_to_tsscpp over alpha: the product of the
    per-row factors of _row_fiber."""
    total = 1
    for row, below in zip(alpha.rows, alpha.rows[1:]):
        total *= _row_fiber(row, below)[1]
    return total


def _shuffle_successors(i: int, below: Row) -> list[Row]:
    """The {b,r,g} fillings of row i over `below`. Each one's sorted row must
    be a {b,r,g,y} filling over sorted(below), the claim of sort_to_tsscpp
    row by row, or this raises RuntimeError."""
    allowed = set(_row_assignments(i, SORTED_COLORS, tuple(sorted(below))))
    rows = _row_assignments(i, TOURNAMENT_COLORS, below)
    if any(tuple(sorted(row)) not in allowed for row in rows):
        raise RuntimeError("sorting broke a red or blue inequality")
    return rows


def enumerate_row_shuffles(alpha: StaircaseArray) -> Iterator[StaircaseArray]:
    """Yield the fiber {beta in Y_n({b,r,g}) : sort_to_tsscpp(beta) = alpha}.

    alpha must lie in Y_n({b,r,g,y}). Row i of beta is any {b,r,g} filling
    over beta's row i+1 that sorts to alpha's row i, so the fiber is walked
    with the same row successors as enumerate_arrays, filtered, and in the
    same order: rows bottom-up, values ascending. The fiber always contains
    alpha itself.
    """
    if not validate(alpha, SORTED_COLORS):
        raise ValueError("input is not a sorted {b,r,g,y} array")
    guard(row_shuffle_count(alpha), "row shuffles")
    target = alpha.rows

    def successors(i: int, below: Row) -> list[Row]:
        rows = _row_assignments(i, TOURNAMENT_COLORS, below)
        return [row for row in rows if tuple(sorted(row)) == target[i - 1]]

    for rows in _walk_rows(alpha.n, successors):
        yield StaircaseArray(rows)
