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
