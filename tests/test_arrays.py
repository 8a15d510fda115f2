from itertools import product
from math import comb

import pytest

from tetraposet import (
    ASM_COLORS,
    SORTED_COLORS,
    TOURNAMENT_COLORS,
    TSSCPP_COLORS,
    BudgetError,
    Color,
    StaircaseArray,
    all_admissible_sets,
    array_rank_gf,
    build,
    count_arrays,
    enumerate_arrays,
    enumerate_ideals,
    ideal_to_array,
    enumerate_row_shuffles,
    format_colors,
    parse_colors,
    row_shuffle_count,
    sort_to_tsscpp,
    validate,
    weight,
)
from tetraposet import arrays
from tetraposet.arrays import _row_assignments

from conftest import TOURNAMENT_ARRAYS_3


def test_shape_and_entry():
    x = StaircaseArray([[1, 1, 1, 2], [2, 3, 4], [3, 4], [4]])
    assert x.n == 4
    assert x.entry(2, 1) == 3
    assert x.entry(4, 0) == 4
    assert list(x.cells()) == [
        (i, j, x.rows[i - 1][j]) for i in range(1, 5) for j in range(5 - i)
    ]


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="row"):
        StaircaseArray([[1, 1], [2, 2], [3]])
    with pytest.raises(ValueError, match="bounds"):
        StaircaseArray([[2, 1], [2]])
    with pytest.raises(ValueError):
        StaircaseArray([[1, 3], [2]])
    with pytest.raises(ValueError):
        StaircaseArray([[1, 0], [2]])
    with pytest.raises(ValueError):
        StaircaseArray([])


#: (malformed rows, exact message): one input per raise site of the
#: StaircaseArray check, then the cases that fix which check speaks first.
ARRAY_MESSAGES = [
    ([], "empty array"),
    ([[1, 1], [2], [3]], "row 1 must have 3 entries"),
    ([[1, 1], [2, 2]], "row 2 must have 1 entries"),
    ([[1, 3], [2]], "entry x_{1,1}=3 outside bounds [1, 2]"),
    ([[1, 0], [2]], "entry x_{1,1}=0 outside bounds [1, 2]"),
    ([[2, 2], [2]], "entry x_{1,0}=2 outside bounds [1, 1]"),
    ([[1, 2, 3], [2, 2], [4]], "entry x_{3,0}=4 outside bounds [3, 3]"),
    ([[1, 1, 1, 5], [2, 2, 2], [3, 3], [4]], "entry x_{1,3}=5 outside bounds [1, 4]"),
    # the first failing cell wins, and a row's length comes before its cells
    ([[1, 5], [9]], "entry x_{1,1}=5 outside bounds [1, 2]"),
    ([[1, 1, 4], [2, 2], [0]], "entry x_{1,2}=4 outside bounds [1, 3]"),
    ([[1, 2, 3], [2, 4], [0]], "entry x_{2,1}=4 outside bounds [2, 3]"),
    ([[1, 2, 3], [2, 2, 2], [0]], "row 2 must have 2 entries"),
    ([[1, 2, 9], [2], [3]], "entry x_{1,2}=9 outside bounds [1, 3]"),
]


@pytest.mark.parametrize("rows, message", ARRAY_MESSAGES)
def test_constructor_messages(rows, message):
    with pytest.raises(ValueError) as info:
        StaircaseArray(rows)
    assert str(info.value) == message


def test_minimal_and_maximal():
    lo = StaircaseArray.minimal(4)
    hi = StaircaseArray.maximal(4)
    assert lo.rows == ((1, 1, 1, 1), (2, 2, 2), (3, 3), (4,))
    assert hi.rows == ((1, 2, 3, 4), (2, 3, 4), (3, 4), (4,))
    assert weight(lo) == 0
    assert weight(hi) == comb(5, 3)


def test_weight(array4_rows):
    assert weight(StaircaseArray(array4_rows)) == 5


def test_validate_requires_green():
    x = StaircaseArray.minimal(3)
    with pytest.raises(ValueError):
        validate(x, "br")
    with pytest.raises(ValueError):
        validate(x, "rb ")


def test_validate_agrees_across_color_forms():
    """A letter string, a list and a frozenset of one color set give the same
    verdict on every array of order 4, in any letter order."""
    green_sets = [s for s in all_admissible_sets() if Color.GREEN in s]
    arrays = list(_bounded_arrays(4))
    for colorset in green_sets:
        letters = format_colors(colorset)
        forms = (letters, letters[::-1], sorted(colorset, key=lambda c: c.value), colorset)
        for x in arrays:
            verdicts = {validate(x, form) for form in forms}
            assert len(verdicts) == 1, (letters, x)


@pytest.mark.parametrize(
    "colors, message",
    [
        ("gos", "color set {gos} is not admissible: {os} requires b"),
        ("rgo", "color set {rgo} is not admissible: {ro} requires y"),
        ("rb", "color set {rb} is not admissible: {rb} requires g"),
        ("ry", "the array model needs green in the color set"),
        ("", "the array model needs green in the color set"),
    ],
)
def test_validate_refuses_every_call(colors, message):
    """A refused color set is refused again on the next call, whether it
    comes as letters or as a frozenset."""
    x = StaircaseArray.minimal(3)
    for form in (colors, parse_colors(colors)):
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                validate(x, form)
            assert str(info.value) == message
    for _ in range(2):
        with pytest.raises(ValueError, match="not a Color: 'g'"):
            validate(x, frozenset({Color.GREEN, "g"}))


def test_validate_known_array():
    x = StaircaseArray([[1, 1, 1, 2], [2, 3, 4], [3, 4], [4]])
    assert validate(x, ASM_COLORS)
    assert validate(x, "gybs")
    # x(2,1) = 3 exceeds x(1,2) + 1 = 2
    assert not validate(x, TSSCPP_COLORS)
    assert not validate(x, "rg")


def test_enumeration_matches_count():
    for colors in ("g", "gy", "go", "gyo", "brg", ASM_COLORS, TSSCPP_COLORS, SORTED_COLORS):
        for n in (1, 2, 3, 4):
            found = list(enumerate_arrays(n, colors))
            assert len(found) == count_arrays(n, colors)
            assert len(set(found)) == len(found)
            assert all(validate(x, colors) for x in found)


def _bounded_arrays(n):
    """Every staircase array with i <= x_{i,j} <= i+j, color constraints aside."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n - i + 1)]
    for values in product(*(range(i, i + j + 1) for i, j in cells)):
        rows = [[i] for i in range(1, n + 1)]
        for (i, _), v in zip(cells, values):
            rows[i - 1].append(v)
        yield StaircaseArray(rows)


def test_validate_enumeration_and_transfer_agree_with_brute_force():
    green_sets = [s for s in all_admissible_sets() if Color.GREEN in s]
    assert len(green_sets) == 25
    for n in range(1, 5):
        candidates = list(_bounded_arrays(n))
        assert len(candidates) == [1, 2, 12, 288][n - 1]
        for colors in green_sets:
            valid = {x for x in candidates if validate(x, colors)}
            # rows bottom-up, each row ascending
            assert list(enumerate_arrays(n, colors)) == sorted(valid, key=lambda x: x.rows[::-1])
            assert array_rank_gf(n, colors)(1) == len(valid)
            ideals = enumerate_ideals(build(n).subposet(colors))
            assert {ideal_to_array(ideal) for ideal in ideals} == valid


def test_row_successors_walk_the_sorted_arrays():
    def walk(i, rows, colors):  # rows holds rows i+1..n, top first
        if i == 0:
            yield StaircaseArray(rows)
            return
        successors = _row_assignments(i, colors, rows[0] if rows else ())
        assert all(a < b for a, b in zip(successors, successors[1:]))
        for row in successors:
            yield from walk(i - 1, [row] + rows, colors)

    cases = [(n, SORTED_COLORS) for n in range(1, 6)]
    cases += [(n, s) for n in range(1, 5) for s in all_admissible_sets() if Color.GREEN in s]
    for n, colors in cases:
        walked = list(walk(n, [], colors))
        assert len(walked) == len(set(walked))
        ideals = enumerate_ideals(build(n).subposet(colors))
        assert set(walked) == {ideal_to_array(ideal) for ideal in ideals}


def test_enumeration_first_is_minimal_and_deterministic():
    runs = [list(enumerate_arrays(4, ASM_COLORS)) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == StaircaseArray.minimal(4)
    assert runs[0][-1] == StaircaseArray.maximal(4)


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv("TETRAPOSET_BUDGET", "63")
    with pytest.raises(BudgetError):
        list(enumerate_arrays(4, TOURNAMENT_COLORS))


def test_known_counts():
    assert [count_arrays(n, ASM_COLORS) for n in range(1, 6)] == [1, 2, 7, 42, 429]
    assert [count_arrays(n, TSSCPP_COLORS) for n in range(1, 6)] == [1, 2, 7, 42, 429]
    assert [count_arrays(n, SORTED_COLORS) for n in range(1, 6)] == [1, 2, 7, 42, 429]
    assert [count_arrays(n, TOURNAMENT_COLORS) for n in range(1, 6)] == [
        2 ** comb(n, 2) for n in range(1, 6)
    ]
    assert [count_arrays(n, "rgy") for n in range(1, 6)] == [1, 2, 9, 96, 2498]


def test_order_three_tournament_arrays(tournament_arrays_3=TOURNAMENT_ARRAYS_3):
    found = set(enumerate_arrays(3, TOURNAMENT_COLORS))
    assert found == {StaircaseArray(rows) for rows in tournament_arrays_3}


def test_sort_examples():
    beta = StaircaseArray([[1, 2, 1], [2, 2], [3]])
    alpha = sort_to_tsscpp(beta)
    assert alpha == StaircaseArray([[1, 1, 2], [2, 2], [3]])
    assert validate(alpha, SORTED_COLORS)


def test_sort_is_idempotent_and_preserves_row_multisets():
    for n in (2, 3, 4, 5):
        for beta in enumerate_arrays(n, TOURNAMENT_COLORS):
            alpha = sort_to_tsscpp(beta)
            assert validate(alpha, SORTED_COLORS)
            assert sort_to_tsscpp(alpha) == alpha
            for r_beta, r_alpha in zip(beta.rows, alpha.rows):
                assert sorted(r_beta) == sorted(r_alpha)


def test_sort_rejects_non_tournament_array():
    x = StaircaseArray([[1, 1, 1, 2], [2, 3, 4], [3, 4], [4]])
    with pytest.raises(ValueError):
        sort_to_tsscpp(x)


def test_sort_to_tsscpp_checks_the_sorted_array(monkeypatch):
    """A sorted array that breaks a {b,r,g,y} inequality stops the map. Valid
    input never gives one, so a validate that refuses every sorted array
    stands in for it."""
    real = arrays.validate
    monkeypatch.setattr(
        arrays, "validate", lambda x, colors: colors != SORTED_COLORS and real(x, colors)
    )
    with pytest.raises(RuntimeError, match="sorting broke a red or blue inequality"):
        sort_to_tsscpp(StaircaseArray([[1, 2, 1], [2, 2], [3]]))


@pytest.mark.parametrize("call", [count_arrays, array_rank_gf])
def test_array_counts_check_the_colors_before_building(call, monkeypatch):
    """The color set and n are checked before T_n is built, so a set without
    green is refused as such at any n, even where T_n is past the vertex
    budget."""

    def unbuilt(n):
        raise AssertionError(f"built T_{n}")

    monkeypatch.setattr(arrays, "build", unbuilt)
    with pytest.raises(ValueError) as info:
        call(3000, "ry")
    assert str(info.value) == "the array model needs green in the color set"
    with pytest.raises(ValueError) as info:
        call(0, "g")
    assert str(info.value) == "n must be at least 1"


def test_row_shuffles_partition_tournament_arrays():
    for n in (2, 3, 4, 5):
        sorted_arrays = list(enumerate_arrays(n, SORTED_COLORS))
        seen: set[StaircaseArray] = set()
        total = 0
        for alpha in sorted_arrays:
            fiber = list(enumerate_row_shuffles(alpha))
            assert len(fiber) == row_shuffle_count(alpha)
            assert alpha in fiber
            for beta in fiber:
                assert validate(beta, TOURNAMENT_COLORS)
                assert sort_to_tsscpp(beta) == alpha
                assert beta not in seen
                seen.add(beta)
            total += len(fiber)
        assert total == 2 ** comb(n, 2)
        assert seen == set(enumerate_arrays(n, TOURNAMENT_COLORS))


def test_row_shuffles_follow_the_tournament_array_order():
    for n in range(1, 6):
        fibers: dict[StaircaseArray, list[StaircaseArray]] = {}
        for beta in enumerate_arrays(n, TOURNAMENT_COLORS):
            fibers.setdefault(sort_to_tsscpp(beta), []).append(beta)
        for alpha in enumerate_arrays(n, SORTED_COLORS):
            assert list(enumerate_row_shuffles(alpha)) == fibers[alpha]


def test_row_shuffles_reject_unsorted_input():
    beta = StaircaseArray([[1, 2, 1], [2, 2], [3]])
    with pytest.raises(ValueError):
        list(enumerate_row_shuffles(beta))


def test_json_round_trip(array4_rows):
    x = StaircaseArray(array4_rows)
    assert StaircaseArray.from_json_obj(x.to_json_obj()) == x
