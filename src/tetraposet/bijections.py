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
FamilyMismatch, which callers can distinguish from malformed input.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import product

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
                col_sums[j] += v
                if row_sum not in (0, 1) or col_sums[j] not in (0, 1):
                    raise ValueError("partial sums must stay in 0, 1")
            if row_sum != 1:
                raise ValueError(f"row {i} sums to {row_sum}, expected 1")
        if any(s != 1 for s in col_sums):
            raise ValueError("every column must sum to 1")


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
            for j, v in enumerate(row):
                if not 1 <= v <= n:
                    raise ValueError(f"entry {v} outside 1..{n}")
                if j and row[j - 1] >= v:
                    raise ValueError(f"row {i} is not strictly increasing")
            if i < n:
                below = rows[i]
                for j, v in enumerate(row):
                    if not below[j] <= v <= below[j + 1]:
                        raise ValueError(
                            f"row {i} does not interlace row {i + 1}"
                        )
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


class Tournament:
    """Outcome of one game between every pair of players 1..n.

    An upset is a game won by the larger index.
    """

    __slots__ = ("n", "winners")

    def __init__(self, n: int, winners):
        n = int(n)
        if n < 1:
            raise ValueError("n must be at least 1")
        wmap = dict(winners)
        if len(wmap) != n * (n - 1) // 2:
            raise ValueError("winners must cover exactly the games of 1..n")
        expected = games(n)
        if set(wmap) != set(expected):
            raise ValueError("winners must cover exactly the games of 1..n")
        for (i, j), w in wmap.items():
            if w not in (i, j):
                raise ValueError(f"winner of game {i} vs {j} must be one of them")
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "winners", tuple(wmap[g] for g in expected)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Tournament is immutable")

    def winner(self, i: int, j: int) -> int:
        if not 1 <= i < j <= self.n:
            raise ValueError(f"({i}, {j}) is not a game of 1..{self.n}")
        # games before (i, j) in lexicographic order: (n-1) + ... + (n-i+1) + (j-i-1)
        return self.winners[(i - 1) * (2 * self.n - i) // 2 + j - i - 1]

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
        return cls(
            int(obj["n"]),
            {(int(i), int(j)): int(w) for i, j, w in obj["games"]},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tournament)
            and self.n == other.n
            and self.winners == other.winners
        )

    def __hash__(self) -> int:
        return hash((self.n, self.winners))

    def __repr__(self) -> str:
        return f"Tournament.from_json_obj({self.to_json_obj()!r})"


def asm_to_mt(a: Asm) -> MonotoneTriangle:
    """Row i of the triangle lists the columns whose first i partial sums are 1."""
    n = a.n
    rows = []
    sums = [0] * n
    for i in range(n):
        for j in range(n):
            sums[j] += a.rows[i][j]
        rows.append(tuple(j + 1 for j in range(n) if sums[j] == 1))
    return MonotoneTriangle(rows)


def mt_to_asm(mt: MonotoneTriangle) -> Asm:
    n = mt.n
    rows = []
    prev: set[int] = set()
    for i in range(n):
        cur = set(mt.rows[i])
        rows.append(
            tuple((1 if j in cur else 0) - (1 if j in prev else 0) for j in range(1, n + 1))
        )
        prev = cur
    return Asm(rows)


def mt_to_array(mt: MonotoneTriangle) -> StaircaseArray:
    """x_{i,j} = entry i of triangle row n-j; strict rows become the strict
    column condition and the interlacing becomes the yellow and blue bounds."""
    n = mt.n
    return StaircaseArray(
        tuple(
            tuple(mt.rows[n - j - 1][i - 1] for j in range(n - i + 1))
            for i in range(1, n + 1)
        )
    )


def array_to_mt(x: StaircaseArray) -> MonotoneTriangle:
    require_family(x, ASM_COLORS)
    n = x.n
    return MonotoneTriangle(
        tuple(tuple(x.entry(j, n - i) for j in range(1, i + 1)) for i in range(1, n + 1))
    )


def asm_to_array(a: Asm) -> StaircaseArray:
    return mt_to_array(asm_to_mt(a))


def array_to_asm(x: StaircaseArray) -> Asm:
    return mt_to_asm(array_to_mt(x))


def tournament_to_array(t: Tournament) -> StaircaseArray:
    """Walk each diagonal northeast from its pinned start x_{d,0} = d; the
    entry repeats its southwest neighbor exactly when the larger player won."""
    n = t.n
    rows = [[0] * (n - i + 1) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        rows[i - 1][0] = i
    for d in range(2, n + 1):
        for i in range(d - 1, 0, -1):
            j = d - i
            sw = rows[i][j - 1]
            rows[i - 1][j] = sw if t.is_upset(i, d) else sw - 1
    return StaircaseArray(tuple(tuple(r) for r in rows))


def array_to_tournament(x: StaircaseArray) -> Tournament:
    require_family(x, TOURNAMENT_COLORS)
    n = x.n
    winners = {}
    for i, j, v in x.cells():
        if j >= 1:
            winners[(i, i + j)] = (i + j) if v == x.entry(i + 1, j - 1) else i
    return Tournament(n, winners)


def _wedge_heights(x: StaircaseArray) -> dict[tuple[int, int], int]:
    """Heights t_{a,b} on the wedge n+1 <= b <= a <= 2n read off the array."""
    n = x.n
    heights = {}
    for i, j, v in x.cells():
        heights[(2 * n - j, 2 * n - j + 1 - i)] = v - i
    return heights


def array_to_tsscpp(x: StaircaseArray) -> Tsscpp:
    """Grow the full plane partition back from its fundamental wedge.

    A triple whose two largest coordinates both exceed n is classified by the
    wedge directly (coordinate permutations do not change membership); every
    other triple has two coordinates at most n, so its complementary triple is
    wedge-classified and self-complementarity decides it.
    """
    require_family(x, TSSCPP_COLORS)
    n = x.n
    size = 2 * n
    heights = _wedge_heights(x)

    def member(a: int, b: int, c: int) -> bool:
        big, mid, small = sorted((a, b, c), reverse=True)
        if mid >= n + 1:
            return small <= heights[(big, mid)]
        return not member(size + 1 - a, size + 1 - b, size + 1 - c)

    rows = tuple(
        tuple(
            sum(1 for c in range(1, size + 1) if member(a, b, c))
            for b in range(1, size + 1)
        )
        for a in range(1, size + 1)
    )
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
