import random
import time
from itertools import permutations, product
from math import comb

import pytest

from tetraposet import (
    SORTED_COLORS,
    TOURNAMENT_COLORS,
    Asm,
    FamilyMismatch,
    MonotoneTriangle,
    StaircaseArray,
    Tournament,
    Tsscpp,
    array_to_asm,
    array_to_mt,
    array_to_tournament,
    array_to_tsscpp,
    asm_number,
    asm_to_array,
    asm_to_mt,
    enumerate_arrays,
    enumerate_asms,
    enumerate_tournaments,
    enumerate_tsscpps,
    games,
    mt_to_asm,
    mt_to_array,
    tournament_to_array,
    tsscpp_to_array,
    tsscpp_tournament_check,
    validate,
)

from conftest import TOURNAMENT_ARRAYS_3


def test_worked_example_asm_chain(asm4_rows, mt4_rows, array4_rows):
    a = Asm(asm4_rows)
    mt = asm_to_mt(a)
    assert mt == MonotoneTriangle(mt4_rows)
    x = mt_to_array(mt)
    assert x == StaircaseArray(array4_rows)
    assert array_to_mt(x) == mt
    assert mt_to_asm(mt) == a
    assert array_to_asm(asm_to_array(a)) == a


def test_worked_example_tsscpp_chain(tsscpp8_rows, tsscpp8_array_rows):
    t = Tsscpp(tsscpp8_rows)
    x = tsscpp_to_array(t)
    assert x == StaircaseArray(tsscpp8_array_rows)
    assert array_to_tsscpp(x) == t


def test_asm_rejects_invalid():
    with pytest.raises(ValueError):
        Asm([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        Asm([[0, 1], [1, -1]])
    with pytest.raises(ValueError):
        Asm([[2, -1], [-1, 2]])
    with pytest.raises(ValueError):
        Asm([[1], [1, 0]])


def test_mt_rejects_invalid():
    with pytest.raises(ValueError):
        MonotoneTriangle([[1], [1, 1]])
    with pytest.raises(ValueError):
        MonotoneTriangle([[3], [1, 2]])
    with pytest.raises(ValueError):
        MonotoneTriangle([[1], [1, 3]])


def test_tsscpp_rejects_invalid():
    rows = [[2, 1], [1, 1]]
    with pytest.raises(ValueError):
        Tsscpp(rows)
    with pytest.raises(ValueError):
        Tsscpp([[2, 2], [2, 1], [1, 0]])
    with pytest.raises(ValueError):
        Tsscpp([[1, 2], [1, 0]])


CUBE_ERRORS = (
    "cell set is not symmetric in coordinates",
    "cell set is not self complementary",
)


def cube_verdict(rows) -> str | None:
    """The TSSCPP definition on the cells of the 2n-cube, for a plane
    partition given by its height matrix: the error Tsscpp must raise, or
    None. Reference for the O(size^2) identities in Tsscpp._check."""
    size = len(rows)
    cells = {
        (a, b, c)
        for a in range(1, size + 1)
        for b in range(1, size + 1)
        for c in range(1, rows[a - 1][b - 1] + 1)
    }
    for cell in cells:
        if any(perm not in cells for perm in permutations(cell)):
            return CUBE_ERRORS[0]
    for a, b, c in product(range(1, size + 1), repeat=3):
        if ((a, b, c) in cells) == ((size + 1 - a, size + 1 - b, size + 1 - c) in cells):
            return CUBE_ERRORS[1]
    return None


def tsscpp_verdict(rows) -> str | None:
    try:
        Tsscpp(rows)
    except ValueError as exc:
        return str(exc)
    return None


def random_plane_partition(rng: random.Random, size: int) -> list[list[int]]:
    rows = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            cap = min(rows[a - 1][b] if a else size, rows[a][b - 1] if b else size)
            rows[a][b] = rng.randint(0, cap)
    return rows


def test_tsscpp_check_matches_the_cube_definition():
    cases = [[[v, w], [x, y]] for v, w, x, y in product(range(3), repeat=4)]
    for n in (1, 2, 3, 4):
        for t in enumerate_tsscpps(n):
            cases.append([list(row) for row in t.rows])
            for a, b, step in product(range(2 * n), range(2 * n), (-1, 1)):
                rows = [list(row) for row in t.rows]
                rows[a][b] += step
                cases.append(rows)
    rng = random.Random(5)
    for _ in range(1000):
        rows = random_plane_partition(rng, rng.choice((4, 6)))
        cases.append(rows)
        # the symmetrized copy reaches the row-conjugacy and complement checks
        cases.append([[min(v, rows[b][a]) for b, v in enumerate(row)] for a, row in enumerate(rows)])
    compared, accepted = 0, set()
    for rows in cases:
        got = tsscpp_verdict(rows)
        if got is None or got in CUBE_ERRORS:  # other errors: shape, range, order
            assert got == cube_verdict(rows), rows
            compared += 1
            if got is None:
                accepted.add(str(rows))
    assert len(accepted) == 1 + 2 + 7 + 42
    assert compared > 2000


def test_tsscpp_check_is_quadratic():
    n = 100
    rows = [[n * ((a < n) + (b < n)) for b in range(2 * n)] for a in range(2 * n)]
    start = time.perf_counter()
    assert Tsscpp(rows).n == n
    assert time.perf_counter() - start < 1.0
    rows[n - 1][n - 1] -= 1  # still a plane partition, no longer a TSSCPP
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not symmetric"):
        Tsscpp(rows)
    assert time.perf_counter() - start < 1.0


def test_tournament_accessors():
    t = Tournament(3, {(1, 2): 2, (1, 3): 1, (2, 3): 3})
    assert games(3) == ((1, 2), (1, 3), (2, 3))
    assert t.winner(1, 2) == 2
    assert t.is_upset(1, 2)
    assert not t.is_upset(1, 3)
    assert t.upset_count() == 2
    assert [t.wins(v) for v in (1, 2, 3)] == [1, 1, 1]
    with pytest.raises(ValueError):
        Tournament(3, {(1, 2): 2, (1, 3): 1})
    with pytest.raises(ValueError):
        Tournament(3, {(1, 2): 2, (1, 3): 2, (2, 3): 3})
    for bad in ((2, 1), (1, 1), (0, 2), (2, 4)):
        with pytest.raises(ValueError):
            t.winner(*bad)
    for n in range(1, 7):
        t = Tournament(n, {g: g[i % 2] for i, g in enumerate(games(n))})
        assert [t.winner(*g) for g in games(n)] == list(t.winners)


def test_tournament_json_round_trip():
    t = Tournament(
        4, {(1, 2): 1, (1, 3): 3, (1, 4): 4, (2, 3): 2, (2, 4): 2, (3, 4): 4}
    )
    obj = t.to_json_obj()
    assert obj["n"] == 4
    assert [g[:2] for g in obj["games"]] == [list(g) for g in games(4)]
    assert Tournament.from_json_obj(obj) == t
    assert repr(t) == (
        "Tournament.from_json_obj({'n': 4, 'games': [[1, 2, 1], [1, 3, 3], "
        "[1, 4, 4], [2, 3, 2], [2, 4, 2], [3, 4, 4]]})"
    )
    assert eval(repr(t)) == t


def test_unique_smallest_tsscpp():
    (t,) = enumerate_tsscpps(1)
    assert t == Tsscpp([[2, 1], [1, 0]])


def test_tsscpp_counts():
    assert [len(list(enumerate_tsscpps(n))) for n in (1, 2, 3, 4)] == [1, 2, 7, 42]


def test_asm_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        seen = set()
        for a in enumerate_asms(n):
            x = asm_to_array(a)
            assert validate(x, "gybo")
            assert array_to_asm(x) == a
            seen.add(a)
        assert len(seen) == asm_number(n)
    assert sum(1 for _ in enumerate_asms(5)) == 429


def test_tsscpp_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        for t in enumerate_tsscpps(n):
            x = tsscpp_to_array(t)
            assert validate(x, "gyor")
            assert array_to_tsscpp(x) == t


def test_tournament_round_trip_exhaustive():
    for n in (1, 2, 3, 4):
        arrays = set()
        for t in enumerate_tournaments(n):
            x = tournament_to_array(t)
            assert validate(x, TOURNAMENT_COLORS)
            assert array_to_tournament(x) == t
            arrays.add(x)
        assert len(arrays) == 2 ** comb(n, 2)
        assert arrays == set(enumerate_arrays(n, TOURNAMENT_COLORS))


def test_order_three_tournament_arrays_table():
    by_winners = {
        t: tournament_to_array(t).rows for t in enumerate_tournaments(3)
    }
    assert sorted(by_winners.values()) == sorted(
        tuple(tuple(r) for r in rows) for rows in TOURNAMENT_ARRAYS_3
    )


def test_upset_count_equals_array_equalities():
    from tetraposet import array_stats

    for n in (2, 3, 4, 5):
        for t in enumerate_tournaments(n):
            assert t.upset_count() == array_stats(tournament_to_array(t)).eq_total


def test_tsscpp_tournament_check_matches_sorted_validation():
    for n in (1, 2, 3, 4, 5):
        passing = 0
        for t in enumerate_tournaments(n):
            ok = tsscpp_tournament_check(t)
            assert ok == validate(tournament_to_array(t), SORTED_COLORS)
            passing += ok
        assert passing == asm_number(n)
    assert (
        sum(tsscpp_tournament_check(t) for t in enumerate_tournaments(3)) == 7
    )


def test_family_mismatch_paths(array4_rows):
    x = StaircaseArray(array4_rows)
    with pytest.raises(FamilyMismatch):
        array_to_tournament(x)
    with pytest.raises(FamilyMismatch):
        array_to_tsscpp(x)
    y = StaircaseArray([[1, 2, 1], [2, 2], [3]])
    with pytest.raises(FamilyMismatch):
        array_to_mt(y)


def test_mt_array_transpose_convention(mt4_rows, array4_rows):
    mt = MonotoneTriangle(mt4_rows)
    x = StaircaseArray(array4_rows)
    n = 4
    for i in range(1, n + 1):
        for j in range(n - i + 1):
            assert x.entry(i, j) == mt.rows[n - j - 1][i - 1]


def test_asm_json_round_trip(asm4_rows):
    a = Asm(asm4_rows)
    assert Asm.from_json_obj(a.to_json_obj()) == a
    mt = asm_to_mt(a)
    assert MonotoneTriangle.from_json_obj(mt.to_json_obj()) == mt
    t = Tsscpp([[2, 1], [1, 0]])
    assert Tsscpp.from_json_obj(t.to_json_obj()) == t
