"""Staircase arrays and their color constraints.

An order-n staircase array has rows i = 1..n, row i holding entries
x_{i,j} for j = 0..n-i, with i <= x_{i,j} <= i+j. The j = 0 column is pinned
to x_{i,0} = i. Each entry x_{i,j} with j >= 1 records the induced ideal size
of a j-element green chain, which is why every array family here assumes
green. The remaining colors impose one local inequality each. INEQUALITIES
below derives them from the lattice steps in colors.STEP through the vertex
to cell map, and validate reads them off it. Each inequality joins a cell to
its west, southwest or south neighbour, or the reverse, so one table of
neighbour deltas (_neighbour_deltas) bounds every cell of a row over the row
below, and one row successor (_row_assignments) serves every job:
enumerate_arrays and the sorting fibers (enumerate_row_shuffles) walk its
rows depth first with counting._walk_rows, the walk that also lists order
ideals, and every array sum whose weights are local to two rows runs as one
transfer over the rows (_row_transfer). The transfer takes one edge
function, which yields each row over the row below with its share of the
weight, so every right side of the identities module states its rows and
weights in one place, over these rows or over the rows of monotone
triangles (identities._mt_rows).

In code, rows are 0-indexed tuples: rows[i-1][j] = x_{i,j}.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from math import comb, inf

from .budget import enumeration_budget, guard
from .colors import STEP, Color, parse_colors, require_admissible
from .counting import Row, _walk_rows, count_ideals, rank_gf
from .polynomials import FIELD, QPoly, SparsePoly, expand_binomial_field
from .poset import Value, build, json_int, json_list

TOURNAMENT_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN})
TSSCPP_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.RED})
ASM_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.BLUE})
SORTED_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN, Color.YELLOW})

#: (row, key shift, factor): a row and its share of a transfer's weight
Edge = tuple[Row, int, int]

#: color -> (di, dj, slack): x_{i,j} <= x_{i+di,j+dj} + slack wherever both
#: cells exist. Vertex (c1, c2, c3) is level c2 of cell (c1+1, n-1-c1-c3), so an
#: edge v -> v + (a, b, c) joins level c2 of cell (i, j) to level c2 + b of
#: cell (i+a, j-a-c), and an ideal holding the upper level holds the lower one.
#: Green, (0, 1, 0), stacks the levels of one cell and is the array itself.
INEQUALITIES = {
    color: (-a, a + c, a + b) for color, (a, b, c) in STEP.items() if color is not Color.GREEN
}


class Rows(Value):
    """Immutable value stored as a tuple of integer rows.

    Subclasses check the rows in _check, which raises ValueError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(map(tuple, rows))
        self._check(rows)
        object.__setattr__(self, "rows", rows)

    def _key(self) -> tuple[tuple[int, ...], ...]:
        return self.rows

    @property
    def n(self) -> int:
        return len(self.rows)

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_json_obj(cls, obj):
        rows = json_list(obj, "expected a list of rows")
        return cls(tuple(map(json_int, json_list(row, "expected a row of integers"))) for row in rows)

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
            hi = i  # i + j, the upper bound of x_{i,j}
            for v in row:
                if not i <= v <= hi:
                    raise ValueError(
                        f"entry x_{{{i},{hi - i}}}={v} outside bounds [{i}, {hi}]"
                    )
                hi += 1

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


#: (di, dj) of a cell's west, southwest and south neighbours. Each
#: inequality joins x_{i,j} to x_{i+di,j+dj}, and one of the two cells is a
#: west, southwest or south neighbour of the other.
_NEIGHBOURS = ((0, -1), (1, -1), (1, 0))


@lru_cache(maxsize=None)
def _neighbour_deltas(colors: frozenset[Color]) -> tuple[tuple[float, float], ...]:
    """(lower, upper) per neighbour in _NEIGHBOURS: the inequalities of
    `colors` say lower <= x_{i,j} - neighbour <= upper, unbounded as -inf or
    inf."""
    deltas = {offset: [-inf, inf] for offset in _NEIGHBOURS}
    for color in colors & INEQUALITIES.keys():
        di, dj, slack = INEQUALITIES[color]
        if (di, dj) in deltas:  # x_{i,j} <= neighbour + slack
            deltas[di, dj][1] = min(deltas[di, dj][1], slack)
        else:  # neighbour <= x_{i,j} + slack
            deltas[-di, -dj][0] = max(deltas[-di, -dj][0], -slack)
    return tuple(tuple(deltas[offset]) for offset in _NEIGHBOURS)


@lru_cache(maxsize=None)
def _checks(n: int, colors: frozenset[Color]) -> tuple[tuple[int, int, int, int, int], ...]:
    """Every inequality of Y_n(S) as (i, j, i', j', slack) over 0-based rows:
    rows[i][j] <= rows[i'][j'] + slack. S is checked here, so a refused S
    is never cached and raises on every call."""
    colors = _require_green(n, colors)
    return tuple(
        (i, j, i + di, j + dj, slack)
        for color, (di, dj, slack) in INEQUALITIES.items()
        if color in colors
        for i in range(n)
        for j in range(n - i)
        if 0 <= i + di < n and 0 <= j + dj < n - i - di
    )


def validate(x: StaircaseArray, colors) -> bool:
    """True iff x satisfies every color inequality of an admissible set containing green.
    The color set is resolved once per (n, colors); a non-frozenset is parsed first."""
    rows = x.rows
    if not isinstance(colors, frozenset):
        colors = parse_colors(colors)
    for i, j, ii, jj, slack in _checks(x.n, colors):
        if rows[i][j] > rows[ii][jj] + slack:
            return False
    return True


@lru_cache(maxsize=None)
def _cell_values(
    colors: frozenset[Color], i: int, j: int, sw: int, s: int | None
) -> tuple[range, ...]:
    """The values of x_{i,j}, j >= 1, over southwest neighbour sw and south
    neighbour s (None past the end of row i+1), indexed by the value w < i+j
    of its west neighbour."""
    (w_lo, w_hi), (sw_lo, sw_hi), (s_lo, s_hi) = _neighbour_deltas(colors)
    lo, hi = max(i, sw + sw_lo), min(i + j, sw + sw_hi)
    if s is not None:
        lo, hi = max(lo, s + s_lo), min(hi, s + s_hi)
    return tuple(range(max(lo, w + w_lo), min(hi, w + w_hi) + 1) for w in range(i + j))


def _row_assignments(i: int, colors: frozenset[Color], below: Row) -> list[Row]:
    """Valid fillings of row i given the filling `below` of row i+1 (empty
    for the bottom row i = n), in ascending order.

    Every inequality joins cells of one row or of two consecutive rows, so an
    array is valid exactly when each row is valid over the row below it. The
    row grows west to east from its pinned cell x_{i,0} = i, which no
    inequality with a valid row below cuts.
    """
    rows: list[Row] = [(i,)]
    for j, sw in enumerate(below, start=1):
        spans = _cell_values(colors, i, j, sw, below[j] if j < len(below) else None)
        rows = [row + (v,) for row in rows for v in spans[row[-1]]]
    return rows


def _row_transfer(n: int, edges: Callable[[int, Row], Iterable[Edge]]) -> dict[int, int]:
    """Sum over row sequences of a weight that is a product over rows, by
    transfer over the rows from the bottom up (Stanley, EC1 section 4.7).
    edges(i, below) yields (row, shift, factor) for each row i that may lie
    over row i+1 = below, with its share of the weight: a sequence's
    SparsePoly key is the sum of its rows' shifts and its weight the product
    of their factors. Over _row_assignments the sequences are the arrays, as
    in _walk_rows; a row is any tuple, and the transfer starts from the
    empty row (), so it also runs over the rows of a monotone triangle
    (identities.robbins_rumsey_rhs).

    The state after row i is that row, mapped to {key: summed weight of the
    partial sequences}. States are dropped as they are consumed, and the live
    terms, of the states left and of the next row's, are counted and checked
    against the budget after every consumed state. Nothing lies above row 1,
    so all of its rows go to the single state (), which holds the result as
    {key: coefficient}.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    budget = enumeration_budget()
    states: dict[Row, dict[int, int]] = {(): {0: 1}}
    live = 1
    for i in range(n, 0, -1):
        nxt: dict[Row, dict[int, int]] = {}
        while states:
            below, weights = states.popitem()
            live -= len(weights)
            for row, shift, factor in edges(i, below):
                acc = nxt.setdefault(row if i > 1 else (), {})
                live -= len(acc)
                get = acc.get
                for k, c in weights.items():
                    k += shift
                    acc[k] = get(k, 0) + c * factor
                live += len(acc)
            if live > budget:
                guard(live, "transfer terms")
        states = nxt
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
    expand_binomial_field multiplies out (1+lambda)^N; without equalities the
    sums are the result. Each row's x-part is computed once and kept for
    this call only, so an edge adds only its E and N. No field fills up:
    each is at most the n(n-1)/2 non-pinned cells, below 2^16 for every n
    up to 362, far beyond the n the transfer can reach.
    """
    colorset = _require_green(n, colors)
    n_shift = (n + 1) * FIELD
    xparts: dict[Row, int] = {}

    def edges(i: int, below: Row) -> Iterator[Edge]:
        for row in _row_assignments(i, colorset, below):
            shift = xparts.get(row)
            if shift is None:
                shift = xparts[row] = sum(1 << v * FIELD for v in row[1:])
            if equalities:
                for west, v, sw in zip(row, row[1:], below):
                    shift += (v == sw) + ((west < v < sw) << n_shift)
            yield row, shift, 1

    sums = _row_transfer(n, edges)
    return expand_binomial_field(sums, n + 1) if equalities else SparsePoly._make(sums)


def array_rank_gf(n: int, colors) -> QPoly:
    """sum q^weight over Y_n(S), the rank gf of T_n(S): its ideals are the
    arrays, with size as weight (the paper's bijection)."""
    colorset = _require_green(n, colors)
    return rank_gf(build(n).subposet(colorset))


def count_arrays(n: int, colors) -> int:
    """|Y_n(S)|, the number of order ideals of T_n(S) (the paper's bijection)."""
    colorset = _require_green(n, colors)
    return count_ideals(build(n).subposet(colorset))


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
