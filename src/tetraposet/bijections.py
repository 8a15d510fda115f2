"""Bijections among alternating sign matrices, monotone triangles, totally
symmetric self-complementary plane partitions, tournaments, and staircase
arrays.

The staircase array is the hub: every family converts to and from its array
model, and array families are told apart by which color inequalities hold.

    alternating sign matrices    Y_n({g, y, o, b})
    plane partition family       Y_n({g, y, o, r})
    tournaments                  Y_n({b, r, g})
    sorted tournament arrays     Y_n({b, r, g, y})

Converting an array into a family it does not belong to raises
FamilyMismatch, which callers can distinguish from malformed input. Every
conversion builds its result through the family's checked constructor.

The array of a plane partition records its fundamental wedge, and
array_to_tsscpp fills the 2n x 2n height matrix block by block from it
with O(n^2 log n) lookups. A monotone triangle read bottom row first is the
transpose of its array.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, chain, compress, product, zip_longest
from operator import sub

from .arrays import (
    ASM_COLORS,
    Rows,
    StaircaseArray,
    TOURNAMENT_COLORS,
    TSSCPP_COLORS,
    enumerate_arrays,
    validate,
)
from .budget import guard
from .colors import format_colors
from .poset import json_int


class FamilyMismatch(ValueError):
    """The object is well formed but lies outside the requested family."""


def require_family(x: StaircaseArray, colors) -> None:
    """Raise FamilyMismatch unless x satisfies every inequality of colors."""
    if not validate(x, colors):
        raise FamilyMismatch(f"array is not in the {format_colors(colors)} family")


class Asm(Rows):
    """Alternating sign matrix: square over {-1, 0, 1}, partial row and
    column sums in {0, 1}, full row and column sums 1."""

    __slots__ = ()

    @staticmethod
    def _check(rows) -> None:
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")
        col_sums = [0] * n
        for i, row in enumerate(rows, start=1):
            row_sum = 0
            for j, v in enumerate(row):
                if v not in (-1, 0, 1):
                    raise ValueError(f"entry {v} at row {i} not in -1, 0, 1")
                row_sum += v
                if v:  # a zero entry moves neither partial sum
                    col_sums[j] += v
                    if row_sum not in (0, 1) or col_sums[j] not in (0, 1):
                        raise ValueError("partial sums must stay in 0, 1")
            if row_sum != 1:
                raise ValueError(f"row {i} sums to {row_sum}, expected 1")
        # each column sum is its last partial sum, 0 or 1, and the n of them
        # add up to the n row sums of 1, so every column sums to 1


class MonotoneTriangle(Rows):
    """Rows 1..n, row i strictly increasing with i entries from 1..n, weakly
    interlacing the next row, bottom row exactly 1..n."""

    __slots__ = ()

    @staticmethod
    def _check(rows) -> None:
        n = len(rows)
        if n == 0:
            raise ValueError("empty triangle")
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries")
            prev = 0  # below every entry that passes the range check
            for v in row:
                if not 1 <= v <= n:
                    raise ValueError(f"entry {v} outside 1..{n}")
                if prev >= v:
                    raise ValueError(f"row {i} is not strictly increasing")
                prev = v
            if i < n:
                # A short next row ends the interlace reads with the length
                # message that row would get; a failed interlace before the
                # short index is still reported first.
                below = rows[i]
                try:
                    for j, v in enumerate(row):
                        if not below[j] <= v <= below[j + 1]:
                            raise ValueError(
                                f"row {i} does not interlace row {i + 1}"
                            )
                except IndexError:
                    raise ValueError(f"row {i + 1} must have {i + 1} entries") from None
        if rows[-1] != tuple(range(1, n + 1)):
            raise ValueError("bottom row must be 1..n")


class Tsscpp(Rows):
    """Totally symmetric self-complementary plane partition in a 2n cube.

    Stored as the 2n x 2n height matrix t with entries in 0..2n. The cell set
    {(a, b, c) : c <= t[a][b]} must be invariant under permuting coordinates
    and must map onto its own complement under (a,b,c) -> (2n+1-a, 2n+1-b,
    2n+1-c).
    """

    __slots__ = ()

    @staticmethod
    def _check(rows) -> None:
        size = len(rows)
        if size == 0 or size % 2 or any(len(row) != size for row in rows):
            raise ValueError("height matrix must be square of even size")
        for a, row in enumerate(rows):
            for b, v in enumerate(row):
                if not 0 <= v <= size:
                    raise ValueError(f"height {v} outside 0..{size}")
                if b and row[b - 1] < v:
                    raise ValueError("rows must weakly decrease")
                if a and rows[a - 1][b] < v:
                    raise ValueError("columns must weakly decrease")
        # The transpositions (a b) and (b c) generate the coordinate
        # permutations. Invariance under (a b) is t symmetric; under (b c) it
        # is every row its own conjugate, t[a][b] = #{c : t[a][c] > b}.
        for a, row in enumerate(rows):
            rising = row[::-1]
            for b, v in enumerate(row):
                if v != rows[b][a] or v != size - bisect_right(rising, b):
                    raise ValueError("cell set is not symmetric in coordinates")
        # Complementation pairs the column over (a, b) with the one over the
        # opposite cell; each c lies in exactly one of them.
        for a, row in enumerate(rows):
            for b, v in enumerate(row):
                if v + rows[size - 1 - a][size - 1 - b] != size:
                    raise ValueError("cell set is not self complementary")

    @property
    def n(self) -> int:
        return len(self.rows) // 2


def games(n: int) -> tuple[tuple[int, int], ...]:
    """All pairings (i, j), i < j, of players 1..n in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)  # asked for only by n(n-1)/2 winners, so no larger than them
def _game_set(n: int) -> frozenset[tuple[int, int]]:
    return frozenset(games(n))


class Tournament(Rows):
    """Outcome of one game between every pair of players 1..n.

    Row i holds the winners of the games (i, j), j > i, in order of j. An
    upset is a game won by the larger index.
    """

    __slots__ = ()

    def __init__(self, n: int, winners):
        if json_int(n) < 1:
            raise ValueError("n must be at least 1")
        wmap = dict(winners)
        # counted first, so a huge n with few games never builds games(n)
        if len(wmap) != n * (n - 1) // 2 or wmap.keys() != _game_set(n):
            raise ValueError("winners must cover exactly the games of 1..n")
        for game, w in wmap.items():
            i, j = (json_int(c) for c in game)
            if json_int(w) not in (i, j):
                raise ValueError(f"winner of game {i} vs {j} must be one of them")
        rows = tuple(tuple(wmap[i, j] for j in range(i + 1, n + 1)) for i in range(1, n + 1))
        object.__setattr__(self, "rows", rows)

    @property
    def winners(self) -> tuple[int, ...]:
        """The winners of games(n), in that order."""
        return tuple(chain.from_iterable(self.rows))

    def winner(self, i: int, j: int) -> int:
        if not 1 <= i < j <= self.n:
            raise ValueError(f"({i}, {j}) is not a game of 1..{self.n}")
        return self.rows[i - 1][j - i - 1]

    def is_upset(self, i: int, j: int) -> bool:
        return self.winner(i, j) == j

    def upset_count(self) -> int:
        return sum(1 for g, w in zip(games(self.n), self.winners) if w == g[1])

    def wins(self, v: int) -> int:
        return sum(1 for g, w in zip(games(self.n), self.winners) if w == v)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "games": [
                [i, j, w] for (i, j), w in zip(games(self.n), self.winners)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> Tournament:
        winners: dict[tuple[int, int], int] = {}
        for i, j, w in obj["games"]:
            game = (json_int(i), json_int(j))
            if game in winners:
                raise ValueError(f"game {game[0]} vs {game[1]} is listed twice")
            winners[game] = w
        return cls(obj["n"], winners)

    def __repr__(self) -> str:
        return f"Tournament.from_json_obj({self.to_json_obj()!r})"


def asm_to_mt(a: Asm) -> MonotoneTriangle:
    """Row i of the triangle lists the columns whose first i partial sums are 1."""
    partial_sums = zip(*(accumulate(column) for column in zip(*a.rows)))
    columns = range(1, a.n + 1)
    return MonotoneTriangle(tuple(compress(columns, sums)) for sums in partial_sums)


def mt_to_asm(mt: MonotoneTriangle) -> Asm:
    """Row i of the matrix is the indicator of triangle row i minus that of
    row i - 1."""
    n = mt.n
    rows = []
    prev = [0] * n
    for row in mt.rows:
        cur = [0] * n
        for j in row:
            cur[j - 1] = 1
        rows.append(tuple(map(sub, cur, prev)))
        prev = cur
    return Asm(rows)


def _staircase_columns(rows) -> list[tuple[int, ...]]:
    """The columns of a staircase whose rows have lengths n, n-1, ..., 1;
    column j has n - j entries, so the columns form the same shape."""
    n = len(rows)
    return [column[: n - j] for j, column in enumerate(zip_longest(*rows))]


def mt_to_array(mt: MonotoneTriangle) -> StaircaseArray:
    """x_{i,j} = entry i of triangle row n-j: the array is the transpose of
    the triangle read bottom row first. Strict rows become the strict column
    condition and the interlacing becomes the yellow and blue bounds."""
    return StaircaseArray(_staircase_columns(mt.rows[::-1]))


def array_to_mt(x: StaircaseArray) -> MonotoneTriangle:
    """Triangle row i is array column n-i read down its i entries."""
    require_family(x, ASM_COLORS)
    return MonotoneTriangle(_staircase_columns(x.rows)[::-1])


def asm_to_array(a: Asm) -> StaircaseArray:
    return mt_to_array(asm_to_mt(a))


def array_to_asm(x: StaircaseArray) -> Asm:
    return mt_to_asm(array_to_mt(x))


def tournament_to_array(t: Tournament) -> StaircaseArray:
    """Build the array from its bottom row up. Row i starts at x_{i,0} = i,
    and x_{i,j} repeats its southwest neighbor x_{i+1,j-1} exactly when the
    larger player won game (i, i+j), read off row i of t, else is one less."""
    rows = []
    below: tuple[int, ...] = ()
    for i in range(t.n, 0, -1):
        cells = enumerate(zip(below, t.rows[i - 1]), 1)  # j, (x_{i+1,j-1}, winner)
        below = (i, *(sw if w == i + j else sw - 1 for j, (sw, w) in cells))
        rows.append(below)
    return StaircaseArray(reversed(rows))


def array_to_tournament(x: StaircaseArray) -> Tournament:
    """Game (i, i+j) is an upset exactly when x_{i,j} = x_{i+1,j-1}."""
    require_family(x, TOURNAMENT_COLORS)
    winners = {}
    for i, (row, below) in enumerate(zip(x.rows, x.rows[1:]), start=1):
        for j, (v, sw) in enumerate(zip(row[1:], below), start=1):
            winners[i, i + j] = i + j if v == sw else i
    return Tournament(x.n, winners)


def _wedge_heights(x: StaircaseArray) -> list[list[int]]:
    """The heights t_{a,b} on the block n+1 <= a, b <= 2n, as the symmetric
    n x n matrix w[a-n-1][b-n-1]. Cell (i, j) gives the wedge entry
    t_{2n-j, 2n-j+1-i} = x_{i,j} - i and its mirror."""
    n = x.n
    w = [[0] * n for _ in range(n)]
    for r, row in enumerate(x.rows):  # r = i - 1
        for j, v in enumerate(row):
            p, q = n - 1 - j, n - 1 - j - r
            w[p][q] = w[q][p] = v - r - 1
    return w


def array_to_tsscpp(x: StaircaseArray) -> Tsscpp:
    """Grow the full plane partition back from its fundamental wedge.

    Cell (a, b, c) lies in the partition iff c <= t_{a,b}, and membership
    does not change when the coordinates are permuted. A triple whose two
    largest coordinates exceed n lies in it iff its smallest is at most the
    wedge height at the two largest. Every other triple has two coordinates
    at most n, so its complement (2n+1-a, 2n+1-b, 2n+1-c) is classified that
    way, and the triple lies in the partition iff its complement does not.
    Counting the c of each column (a, b) gives three blocks:

    - a, b > n: t_{a,b} is the wedge height h, since h <= n - 1 < b rules
      out every c > b.
    - a > n >= b: c > n counts when b <= t_{a,c}, and c <= n counts when
      2n+1-a > t_{2n+1-b,2n+1-c}. Both are counts over one sorted wedge row,
      found by bisection. The block b > n >= a is the transpose.
    - a, b <= n: t_{a,b} = 2n - t_{2n+1-a,2n+1-b} by complementation.

    Checks the family, the Tsscpp invariants and that the wedge reads back.
    """
    require_family(x, TSSCPP_COLORS)
    n = x.n
    w = _wedge_heights(x)
    ranked = [sorted(row) for row in w]
    # mixed[p][b-1] = t_{n+1+p, b} for b = 1..n
    mixed = [
        [
            n - bisect_right(ranked[p], b) + bisect_left(ranked[n - 1 - b], n - p)
            for b in range(n)
        ]
        for p in range(n)
    ]
    rows = [
        [2 * n - v for v in reversed(w[n - 1 - a])] + [m[a] for m in mixed]
        for a in range(n)
    ]
    rows += [m + wp for m, wp in zip(mixed, w)]
    t = Tsscpp(rows)
    if tsscpp_to_array(t) != x:
        raise RuntimeError("wedge does not read back from the rebuilt cube")
    return t


def tsscpp_to_array(t: Tsscpp) -> StaircaseArray:
    """x_{i,j} = i plus the wedge height at (2n-j, 2n-j+1-i)."""
    n = t.n
    return StaircaseArray(
        tuple(
            tuple(t.rows[2 * n - j - 1][2 * n - j - i] + i for j in range(n - i + 1))
            for i in range(1, n + 1)
        )
    )


def tsscpp_tournament_check(t: Tournament) -> bool:
    """True iff t's array sorts row by row without ever leaving the family,
    characterized by nested upset counts: for every v and every u < v - 1 the
    upsets player v-1 scored against u..v-2 are at most those player v scored
    against u..v-1."""
    n = t.n
    for v in range(3, n + 1):
        for u in range(1, v - 1):
            lower = sum(1 for w in range(u, v - 1) if t.is_upset(w, v - 1))
            upper = sum(1 for w in range(u, v) if t.is_upset(w, v))
            if lower > upper:
                return False
    return True


def enumerate_tournaments(n: int) -> Iterator[Tournament]:
    """All 2^binomial(n,2) tournaments; per game the smaller-index win comes first."""
    game_list = games(n)
    guard(2 ** len(game_list), "tournaments")
    for outcome in product(*((i, j) for i, j in game_list)):
        yield Tournament(n, dict(zip(game_list, outcome)))


def enumerate_asms(n: int) -> Iterator[Asm]:
    for x in enumerate_arrays(n, ASM_COLORS):
        yield array_to_asm(x)


def enumerate_tsscpps(n: int) -> Iterator[Tsscpp]:
    for x in enumerate_arrays(n, TSSCPP_COLORS):
        yield array_to_tsscpp(x)
