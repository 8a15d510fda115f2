"""Staircase arrays and their color constraints.

An order-n staircase array has rows i = 1..n, row i holding entries
x_{i,j} for j = 0..n-i, with i <= x_{i,j} <= i+j. The j = 0 column is pinned
to x_{i,0} = i. Each entry x_{i,j} with j >= 1 records the induced ideal size
of a j-element green chain, which is why every array family here assumes
green. The remaining colors impose local inequalities:

    orange  x_{i,j} <  x_{i+1,j}        (strict down a column)
    red     x_{i,j} <= x_{i-1,j+1} + 1  (northeast neighbor drops by at most 1)
    yellow  x_{i,j} <= x_{i,j+1}        (weakly increasing along a row)
    blue    x_{i,j} <= x_{i+1,j-1}      (bounded by the southwest neighbor)
    silver  x_{i,j} <= x_{i,j-1} + 1    (west neighbor rises by at most 1)

In code, rows are 0-indexed tuples: rows[i-1][j] = x_{i,j}.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import combinations
from math import comb

from .budget import guard
from .colors import Color, require_admissible
from .polynomials import QPoly, SparsePoly, add_binomial_term

TOURNAMENT_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN})
TSSCPP_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.RED})
ASM_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE, Color.BLUE})
SORTED_COLORS = frozenset({Color.BLUE, Color.RED, Color.GREEN, Color.YELLOW})

Diagonal = tuple[int, ...]


class StaircaseArray:
    """Immutable staircase-shaped integer array with the pinned first column."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
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
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("StaircaseArray is immutable")

    @property
    def n(self) -> int:
        return len(self.rows)

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

    def to_json_obj(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_json_obj(cls, obj) -> StaircaseArray:
        return cls(obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, StaircaseArray) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"StaircaseArray({list(list(r) for r in self.rows)!r})"


def weight(x: StaircaseArray) -> int:
    """sum of (x_{i,j} - i); equals the size of the matching order ideal."""
    return sum(v - i for i, _, v in x.cells())


def validate(x: StaircaseArray, colors) -> bool:
    """True iff x satisfies every color inequality of an admissible set containing green."""
    colorset = require_admissible(colors)
    if Color.GREEN not in colorset:
        raise ValueError("array validation needs green in the color set")
    rows = x.rows
    n = len(rows)
    orange = Color.ORANGE in colorset
    red = Color.RED in colorset
    yellow = Color.YELLOW in colorset
    blue = Color.BLUE in colorset
    silver = Color.SILVER in colorset
    for i in range(1, n + 1):
        row = rows[i - 1]
        below = rows[i] if i < n else None
        for j, v in enumerate(row):
            if j >= 1:
                if yellow and row[j - 1] > v:
                    return False
                if silver and v > row[j - 1] + 1:
                    return False
                if below is not None and blue and v > below[j - 1]:
                    return False
                if below is not None and red and below[j - 1] > v + 1:
                    return False
            if below is not None and j < len(below) and orange and v >= below[j]:
                return False
    return True


def _diag_assignments(
    d: int, colors: frozenset[Color], after: Diagonal | None = None
) -> list[Diagonal]:
    """Valid fillings of the diagonal i+j = d, as tuples a with a[i-1] = x_{i, d-i}.

    Built from the pinned x_{d,0} = d northeast to x_{1,d-1}, applying the
    intra-diagonal constraints (blue caps each step by its southwest neighbor,
    red floors it one below). Given the filling `after` of diagonal d+1, only
    fillings that may precede it are built: every inter-diagonal constraint
    bounds one entry a[i-1] by after[i-1] (its east neighbor, yellow and
    silver) or after[i] (its south neighbor, orange).
    """
    blue = Color.BLUE in colors
    red = Color.RED in colors
    yellow = after is not None and Color.YELLOW in colors
    orange = after is not None and Color.ORANGE in colors
    silver = after is not None and Color.SILVER in colors
    out: list[Diagonal] = []

    def extend(vals: list[int]) -> None:
        i = d - len(vals)
        if i == 0:
            out.append(tuple(reversed(vals)))
            return
        prev = vals[-1]
        lo, hi = i, d
        if blue:
            hi = min(hi, prev)
        if red:
            lo = max(lo, prev - 1)
        if yellow:
            hi = min(hi, after[i - 1])
        if orange:
            hi = min(hi, after[i] - 1)
        if silver:
            lo = max(lo, after[i - 1] - 1)
        for v in range(lo, hi + 1):
            extend(vals + [v])

    extend([d])
    return out


def _transfer(
    n: int,
    colors: frozenset[Color],
    diag_key: Callable[[Diagonal], int],
    pair_key: Callable[[Diagonal, Diagonal], int] | None = None,
) -> Iterator[dict[Diagonal, dict[int, int]]]:
    """Diagonal transfer DP over Y_n(S) (Stanley, EC1 section 4.7).

    The weight of an array is the sum of diag_key(b) over its diagonal
    fillings b plus pair_key(a, b) over consecutive fillings a, b. Each state
    is a filling of the last diagonal, mapped to {weight: number of partial
    arrays}; packing several statistics into one integer weight makes the
    shift by a transition one add per term. Yields the states after every
    diagonal, so a caller can guard their size; the last yield covers Y_n(S).
    """
    states = {a: {diag_key(a): 1} for a in _diag_assignments(1, colors)}
    yield states
    for d in range(2, n + 1):
        nxt: dict[Diagonal, dict[int, int]] = {}
        for b in _diag_assignments(d, colors):
            w = diag_key(b)
            acc: dict[int, int] = {}
            for a in _diag_assignments(d - 1, colors, b):
                weights = states.get(a)
                if weights is None:
                    continue
                shift = w + pair_key(a, b) if pair_key else w
                for k, c in weights.items():
                    k += shift
                    acc[k] = acc.get(k, 0) + c
            if acc:
                nxt[b] = acc
        states = nxt
        yield states


def _total(states: dict[Diagonal, dict[int, int]]) -> dict[int, int]:
    total: dict[int, int] = {}
    for weights in states.values():
        for k, c in weights.items():
            total[k] = total.get(k, 0) + c
    return total


def _require_green(n: int, colors) -> frozenset[Color]:
    colorset = require_admissible(colors)
    if Color.GREEN not in colorset:
        raise ValueError("the array model needs green in the color set")
    if n < 1:
        raise ValueError("n must be at least 1")
    return colorset


def _diag_weight(b: Diagonal) -> int:
    return sum(v - i for i, v in enumerate(b, start=1))


def array_rank_gf(n: int, colors) -> QPoly:
    """Generating function sum q^weight over Y_n(S), by diagonal transfer DP."""
    colorset = _require_green(n, colors)
    for states in _transfer(n, colorset, _diag_weight):
        pass
    return QPoly(_total(states))


def value_count_gf(
    n: int, colors, *, equalities: bool, budget: int | None = None
) -> SparsePoly:
    """Sum over Y_n(S) of prod_k x_k^(C_k - 1), by diagonal transfer DP.

    C_k counts the entries equal to k; the pinned column holds one of each
    value, so x^(C_k - 1) is the product of x_v over the cells with j >= 1.
    With equalities, each array also carries lambda^E (1+lambda)^N, where E
    counts the cells equal to their southwest neighbor (on the same diagonal)
    and N the cells strictly above their west neighbor and strictly below
    their southwest neighbor (on consecutive diagonals); see
    identities.ArrayStats. The live term count is checked against the budget
    after every diagonal.

    Weights are packed into one integer, a field of width w each for E, for
    N (standing for (1+lambda)^N until the end) and for x_1..x_n; no field
    can carry, since none exceeds the n(n-1)/2 non-pinned cells.
    """
    colorset = _require_green(n, colors)
    w = (n * (n - 1) // 2).bit_length() or 1
    mask = (1 << w) - 1

    def diag_key(b: Diagonal) -> int:
        key = 0
        for i in range(len(b) - 1):
            key += 1 << ((b[i] + 1) * w)
            if equalities and b[i] == b[i + 1]:
                key += 1
        return key

    def rise_drops(a: Diagonal, b: Diagonal) -> int:
        return sum(a[i] < b[i] < b[i + 1] for i in range(len(a))) << w

    pair_key = rise_drops if equalities else None
    for states in _transfer(n, colorset, diag_key, pair_key):
        guard(sum(map(len, states.values())), "transfer terms", budget)
    terms: dict = {}
    x_parts: dict[int, tuple[tuple[int, int], ...]] = {}
    for key, c in _total(states).items():
        x_key = key >> 2 * w
        xs = x_parts.get(x_key)
        if xs is None:
            xs = x_parts[x_key] = tuple(
                (k, e)
                for k in range(1, n + 1)
                if (e := x_key >> (k - 1) * w & mask)
            )
        add_binomial_term(terms, key & mask, xs, key >> w & mask, c)
    return SparsePoly(terms)


def count_arrays(n: int, colors) -> int:
    return array_rank_gf(n, colors)(1)


def enumerate_arrays(n: int, colors, budget: int | None = None) -> Iterator[StaircaseArray]:
    """Yield Y_n(S) in deterministic order (rows bottom-up, values ascending)."""
    colorset = _require_green(n, colors)
    guard(count_arrays(n, colorset), "arrays", budget)
    orange = Color.ORANGE in colorset
    red = Color.RED in colorset
    yellow = Color.YELLOW in colorset
    blue = Color.BLUE in colorset
    silver = Color.SILVER in colorset
    rows: list[tuple[int, ...] | None] = [None] * (n + 1)

    def fill_row(i: int) -> Iterator[StaircaseArray]:
        if i == 0:
            yield StaircaseArray(tuple(rows[1:]))
            return
        below = rows[i + 1] if i < n else None
        width = n - i + 1

        def place(row: list[int], j: int) -> Iterator[StaircaseArray]:
            if j == width:
                rows[i] = tuple(row)
                yield from fill_row(i - 1)
                rows[i] = None
                return
            lo, hi = i, i + j
            if j >= 1:
                if yellow:
                    lo = max(lo, row[j - 1])
                if silver:
                    hi = min(hi, row[j - 1] + 1)
                if below is not None:
                    if blue:
                        hi = min(hi, below[j - 1])
                    if red:
                        lo = max(lo, below[j - 1] - 1)
            if below is not None and j < len(below) and orange:
                hi = min(hi, below[j] - 1)
            for v in range(lo, hi + 1):
                row.append(v)
                yield from place(row, j + 1)
                row.pop()

        yield from place([], 0)

    yield from fill_row(n)


def sort_to_tsscpp(beta: StaircaseArray) -> StaircaseArray:
    """Sort each row of a {b,r,g} array into weak increase by diagonal swaps.

    Rows are fixed from the bottom up. An adjacent out-of-order pair can only
    sit over equal southwest neighbors; the pair is swapped together with both
    full northeast diagonals, which preserves the red and blue inequalities
    and every row multiset. The result lies in Y_n({b,r,g,y}) and the map is
    idempotent.
    """
    if not validate(beta, TOURNAMENT_COLORS):
        raise ValueError("input is not a {b,r,g} array")
    rows = [list(r) for r in beta.rows]
    n = len(rows)
    for i in range(n - 1, 0, -1):
        row = rows[i - 1]
        changed = True
        while changed:
            changed = False
            for j in range(1, len(row) - 1):
                if row[j] > row[j + 1]:
                    if rows[i][j - 1] != rows[i][j]:
                        raise RuntimeError("swap over unequal southwest neighbors")
                    for t in range(i):
                        r = rows[i - 1 - t]
                        c = j + t
                        r[c], r[c + 1] = r[c + 1], r[c]
                    changed = True
    result = StaircaseArray(tuple(tuple(r) for r in rows))
    if not validate(result, SORTED_COLORS):
        raise RuntimeError("sorting broke a red or blue inequality")
    return result


def _row_placements(
    target_multiset: Counter, below: tuple[int, ...], i: int, n: int
) -> Iterator[tuple[int, ...]]:
    """All arrangements of a row multiset over positions with given southwest values.

    Position j >= 1 of row i sits over below[j-1] and may hold that value (an
    equality) or one less. How many of each value land as equalities is forced
    by the multisets; only which positions they occupy is free.
    """
    remaining = Counter(target_multiset)
    remaining[i] -= 1  # column 0 is pinned to i
    if remaining[i] < 0:
        raise ValueError(f"row {i} multiset lacks the pinned value {i}")
    positions_by_value: dict[int, list[int]] = {}
    for j in range(1, n - i + 1):
        positions_by_value.setdefault(below[j - 1], []).append(j)
    # Solve for the forced equality count of each value, largest value first:
    # entries of value v are either equalities over v or sit over v+1.
    eq_count: dict[int, int] = {}
    for v in sorted(set(remaining) | set(positions_by_value), reverse=True):
        over_above = len(positions_by_value.get(v + 1, [])) - eq_count.get(v + 1, 0)
        eq_count[v] = remaining.get(v, 0) - over_above
        if not 0 <= eq_count[v] <= len(positions_by_value.get(v, [])):
            raise ValueError("row multiset does not fit the row below")

    values = sorted(positions_by_value)

    def choose(idx: int, assignment: dict[int, int]) -> Iterator[tuple[int, ...]]:
        if idx == len(values):
            yield (i,) + tuple(assignment[j] for j in range(1, n - i + 1))
            return
        v = values[idx]
        slots = positions_by_value[v]
        for eq_slots in combinations(slots, eq_count.get(v, 0)):
            taken = set(eq_slots)
            for j in slots:
                assignment[j] = v if j in taken else v - 1
            yield from choose(idx + 1, assignment)

    yield from choose(0, {})


def row_shuffle_count(alpha: StaircaseArray) -> int:
    """Size of the fiber of sort_to_tsscpp over alpha."""
    n = alpha.n
    total = 1
    for i in range(1, n):
        below_counts = Counter(alpha.rows[i])
        eq_by_value: Counter = Counter()
        row = alpha.rows[i - 1]
        for j in range(1, len(row)):
            if row[j] == alpha.rows[i][j - 1]:
                eq_by_value[row[j]] += 1
        for v, e in eq_by_value.items():
            total *= comb(below_counts[v], e)
    return total


def enumerate_row_shuffles(
    alpha: StaircaseArray, budget: int | None = None
) -> Iterator[StaircaseArray]:
    """Yield the fiber {beta in Y_n({b,r,g}) : sort_to_tsscpp(beta) = alpha}.

    alpha must lie in Y_n({b,r,g,y}). Rows are rearranged from the bottom up;
    each candidate keeps every row multiset and every red/blue inequality by
    construction, and the fiber always contains alpha itself.
    """
    if not validate(alpha, SORTED_COLORS):
        raise ValueError("input is not a sorted {b,r,g,y} array")
    guard(row_shuffle_count(alpha), "row shuffles", budget)
    n = alpha.n
    chosen: list[tuple[int, ...] | None] = [None] * (n + 1)
    chosen[n] = (n,)

    def place(i: int) -> Iterator[StaircaseArray]:
        if i == 0:
            yield StaircaseArray(tuple(chosen[1:]))
            return
        for arrangement in _row_placements(
            Counter(alpha.rows[i - 1]), chosen[i + 1], i, n
        ):
            chosen[i] = arrangement
            yield from place(i - 1)
            chosen[i] = None

    yield from place(n - 1)
