import copy
import pickle
import random
import time
from itertools import accumulate, permutations, product
from math import comb

import pytest

from tetraposet import bijections
from tetraposet import (
    SORTED_COLORS,
    TOURNAMENT_COLORS,
    TSSCPP_COLORS,
    Asm,
    FamilyMismatch,
    MonotoneTriangle,
    OrderIdeal,
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

from conftest import (
    ARRAY4_ROWS,
    ASM4_ROWS,
    MT4_ROWS,
    TOURNAMENT_ARRAYS_3,
    member_tsscpp_rows,
)


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


def test_array_to_tsscpp_checks_the_read_back(monkeypatch, tsscpp8_array_rows):
    """The rebuilt cube must read back to the array it came from; a read-back
    that always gives the minimal array must stop the map."""
    x = StaircaseArray(tsscpp8_array_rows)
    assert x != StaircaseArray.minimal(x.n)
    monkeypatch.setattr(bijections, "tsscpp_to_array", lambda t: StaircaseArray.minimal(t.n))
    with pytest.raises(RuntimeError, match="wedge does not read back from the rebuilt cube"):
        array_to_tsscpp(x)


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
    # a short next row gets its length message, unless an interlace read
    # before the short index fails first
    with pytest.raises(ValueError, match="row 2 must have 2 entries"):
        MonotoneTriangle([[1], [1]])
    with pytest.raises(ValueError, match="row 3 must have 3 entries"):
        MonotoneTriangle([[2], [1, 3], [1]])
    with pytest.raises(ValueError, match="row 1 does not interlace row 2"):
        MonotoneTriangle([[1], [2]])


#: (constructor, malformed rows, exact message): one input per raise site of
#: the Asm and MonotoneTriangle checks, then the cases that fix which check
#: speaks first. Asm checks no full column sum: once every row sums to 1 and
#: every partial column sum lies in 0, 1, the n column sums add up to n and
#: each is 1 (test_asm_accepts_exactly_the_definition). In a triangle, an
#: entry that breaks strictness equals the one before it, and the row above
#: interlaces it only when that entry is in range, so its range check has no
#: order check to precede.
CHECK_MESSAGES = [
    (Asm, [], "matrix must be square and nonempty"),
    (Asm, [[1], [1, 0]], "matrix must be square and nonempty"),
    (Asm, [[0, 1], [1, 0], [0, 0]], "matrix must be square and nonempty"),
    (Asm, [[1, 0], [0, 3]], "entry 3 at row 2 not in -1, 0, 1"),
    (Asm, [[1, 0], [1, 0]], "partial sums must stay in 0, 1"),  # a column
    (Asm, [[-1, 1], [1, 0]], "partial sums must stay in 0, 1"),  # a row
    (Asm, [[1, 0], [0, 0]], "row 2 sums to 0, expected 1"),
    (Asm, [[0, 1], [1, -1]], "row 2 sums to 0, expected 1"),
    # an entry of 2 reports the entry, not the partial sum it would make
    (Asm, [[2, -1], [-1, 2]], "entry 2 at row 1 not in -1, 0, 1"),
    (Asm, [[0, 2], [1, 0]], "entry 2 at row 1 not in -1, 0, 1"),
    # the first failing cell wins
    (Asm, [[1, 1], [2, 0]], "partial sums must stay in 0, 1"),
    (Asm, [[0, 0], [5, 0]], "row 1 sums to 0, expected 1"),
    # zero entries still add to the row sum, so a float row keeps its type
    (Asm, [[0.0, 0.0], [1, 0]], "row 1 sums to 0.0, expected 1"),
    (Asm, [[0, 0.0, 0], [1, 0, 0], [0, 1, 0]], "row 1 sums to 0.0, expected 1"),
    (MonotoneTriangle, [], "empty triangle"),
    (MonotoneTriangle, [[1, 2]], "row 1 must have 1 entries"),
    (MonotoneTriangle, [[2], [1, 5], [1, 2, 3]], "entry 5 outside 1..3"),
    (MonotoneTriangle, [[1], [0, 2]], "entry 0 outside 1..2"),
    (MonotoneTriangle, [[2], [2, 2], [1, 2, 3]], "row 2 is not strictly increasing"),
    (MonotoneTriangle, [[3], [1, 2], [1, 2, 3]], "row 1 does not interlace row 2"),
    (MonotoneTriangle, [[1], [1]], "row 2 must have 2 entries"),
    (MonotoneTriangle, [[1], [1, 1.5]], "bottom row must be 1..n"),
    # the range check comes before the interlace check on the same entry
    (MonotoneTriangle, [[5], [1, 2]], "entry 5 outside 1..2"),
    (MonotoneTriangle, [[0], [1, 2]], "entry 0 outside 1..2"),
    # the first failing cell wins
    (MonotoneTriangle, [[2], [2, 2], [1, 2, 9]], "row 2 is not strictly increasing"),
    (MonotoneTriangle, [[2], [1, 3], [1, 3, 3]], "row 3 is not strictly increasing"),
    (MonotoneTriangle, [[2], [1, 3], [1, 2, 2]], "row 2 does not interlace row 3"),
    (MonotoneTriangle, [[2], [1, 3], [1]], "row 3 must have 3 entries"),
]


@pytest.mark.parametrize("make, rows, message", CHECK_MESSAGES)
def test_checked_constructor_messages(make, rows, message):
    with pytest.raises(ValueError) as info:
        make(rows)
    assert str(info.value) == message


def is_asm(rows) -> bool:
    """The full definition: every partial sum of every row and every column
    lies in {0, 1}, and every full row and column sum is 1."""
    n = len(rows)
    lines = [list(row) for row in rows] + [[row[j] for row in rows] for j in range(n)]
    return all(
        set(accumulate(line)) <= {0, 1} and sum(line) == 1 for line in lines
    )


def test_asm_accepts_exactly_the_definition():
    """Over every {-1, 0, 1} matrix of order 1 to 3, Asm accepts exactly the
    matrices that the full definition accepts: 1, 2 and 7 of them."""
    for n, expected in ((1, 1), (2, 2), (3, 7)):
        accepted = 0
        for entries in product((-1, 0, 1), repeat=n * n):
            rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
            try:
                Asm(rows)
                ok = True
            except ValueError:
                ok = False
            assert ok == is_asm(rows), rows
            accepted += ok
        assert accepted == expected


#: (n, winners, exact message) for every raise site of Tournament.__init__.
TOURNAMENT_MESSAGES = [
    ("3", {}, "expected an integer, got '3'"),
    (0, {}, "n must be at least 1"),
    (-2, {}, "n must be at least 1"),
    (3, {(1, 2): 2, (1, 3): 1}, "winners must cover exactly the games of 1..n"),
    (3, {(1, 2): 1, (1, 3): 1, (2, 4): 2}, "winners must cover exactly the games of 1..n"),
    (2, {(1, 2): 1, (2, 1): 1}, "winners must cover exactly the games of 1..n"),
    (10**9, {(1, 2): 1}, "winners must cover exactly the games of 1..n"),
    (2, {(1.0, 2): 1}, "expected an integer, got 1.0"),
    (2, {(1, 2.0): 2}, "expected an integer, got 2.0"),
    (2, {(1, 2): 2.0}, "expected an integer, got 2.0"),
    (3, {(1, 2): 2, (1, 3): 2, (2, 3): 3}, "winner of game 1 vs 3 must be one of them"),
    (2, {(1, 2): 3}, "winner of game 1 vs 2 must be one of them"),
]


@pytest.mark.parametrize("n, winners, message", TOURNAMENT_MESSAGES)
def test_tournament_messages(n, winners, message):
    with pytest.raises(ValueError) as info:
        Tournament(n, winners)
    assert str(info.value) == message


#: (payload, exact message) for every raise site of Tournament.from_json_obj
#: ahead of the constructor's own checks.
TOURNAMENT_PAYLOAD_MESSAGES = [
    ([1], 'expected a tournament: an object with "n" and "games" fields'),
    (None, 'expected a tournament: an object with "n" and "games" fields'),
    ({"games": []}, 'the tournament has no "n" field'),
    ({"n": 2}, 'the tournament has no "games" field'),
    ({"n": 2, "games": 5}, 'field "games" must be a list of games, got 5'),
    ({"n": 2, "games": "ab"}, 'field "games" must be a list of games, got \'ab\''),
    ({"n": 2, "games": [[1, 2, 3, 4]]}, "expected a game [i, j, winner], got [1, 2, 3, 4]"),
    ({"n": 2, "games": [[1, 2]]}, "expected a game [i, j, winner], got [1, 2]"),
    ({"n": 2, "games": [5]}, "expected a game [i, j, winner], got 5"),
]


@pytest.mark.parametrize("payload, message", TOURNAMENT_PAYLOAD_MESSAGES)
def test_tournament_payload_messages(payload, message):
    with pytest.raises(ValueError) as info:
        Tournament.from_json_obj(payload)
    assert str(info.value) == message


#: (payload, exact message) for a rows payload that is not a list of lists,
#: the same for every rows family
ROWS_PAYLOAD_MESSAGES = [
    (5, "expected a list of rows, got 5"),
    (None, "expected a list of rows, got None"),
    ("ab", "expected a list of rows, got 'ab'"),
    ({"n": 1}, "expected a list of rows, got {'n': 1}"),
    ([5], "expected a row of integers, got 5"),
    ([[1], None], "expected a row of integers, got None"),
    ([[1], "ab"], "expected a row of integers, got 'ab'"),
]


@pytest.mark.parametrize("family", [Asm, MonotoneTriangle, StaircaseArray, Tsscpp])
@pytest.mark.parametrize("payload, message", ROWS_PAYLOAD_MESSAGES)
def test_rows_payload_messages(family, payload, message):
    with pytest.raises(ValueError) as info:
        family.from_json_obj(payload)
    assert str(info.value) == message


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


def test_tournament_rejects_non_integers():
    for n, winners in [
        (2.7, {(1, 2): 1}),
        (2.0, {(1, 2): 1}),
        (True, {}),
        (2, {(1, 2): 2.0}),
        (2, {(1, 2): True}),
        (2, {(1.0, 2): 1}),
        (2, {(True, 2): 1}),
        (2, {(1, 2.0): 2}),
    ]:
        with pytest.raises(ValueError, match="expected an integer"):
            Tournament(n, winners)


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


def test_wedge_fill_matches_triple_classification():
    for n in (1, 2, 3, 4, 5):
        count = 0
        for x in enumerate_arrays(n, TSSCPP_COLORS):
            assert array_to_tsscpp(x).rows == member_tsscpp_rows(x), x
            count += 1
        assert count == asm_number(n)
    # green, yellow and orange hold but red fails: not a TSSCPP array
    x = StaircaseArray([[1, 1, 1], [2, 3], [3]])
    assert validate(x, "gyo") and not validate(x, "gr")
    with pytest.raises(FamilyMismatch):
        array_to_tsscpp(x)


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
    # from the array side: every {b,r,g} array at n = 5
    for x in enumerate_arrays(5, TOURNAMENT_COLORS):
        assert tournament_to_array(array_to_tournament(x)) == x


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


@pytest.mark.parametrize(
    "make, shown",
    [
        (lambda: StaircaseArray(ARRAY4_ROWS), f"StaircaseArray({ARRAY4_ROWS!r})"),
        (lambda: Asm(ASM4_ROWS), f"Asm({ASM4_ROWS!r})"),
        (lambda: MonotoneTriangle(MT4_ROWS), f"MonotoneTriangle({MT4_ROWS!r})"),
        (lambda: Tsscpp([[2, 1], [1, 0]]), "Tsscpp([[2, 1], [1, 0]])"),
        (
            lambda: Tournament(3, {(1, 2): 2, (1, 3): 1, (2, 3): 3}),
            "Tournament.from_json_obj({'n': 3, 'games': [[1, 2, 2], [1, 3, 1], [2, 3, 3]]})",
        ),
        (
            lambda: OrderIdeal(2, frozenset({(0, 0, 0)})),
            "OrderIdeal(n=2, members=frozenset({(0, 0, 0)}))",
        ),
    ],
    ids=["array", "asm", "mt", "tsscpp", "tournament", "ideal"],
)
def test_records_are_immutable_values(make, shown):
    """Copies and pickles of every record type compare equal to it, and no
    attribute can be set or deleted."""
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)
    for name in ("rows", "n", "members", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == shown
