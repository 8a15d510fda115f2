"""Shared oracles and fixtures.

The brute-force ideal counter below is the independent oracle for every
dynamic-programming count: it checks all 2^|V| vertex subsets for downward
closure, so it shares no code or idea with the production engines.
"""

from __future__ import annotations

import pytest

from tetraposet import SparsePoly, Subposet


def brute_force_ideal_sizes(p: Subposet) -> dict[int, int]:
    """Map ideal size -> count by testing every subset against the covers."""
    verts = list(p.vertices)
    assert len(verts) <= 20, "oracle is for small posets only"
    cover_idx = [
        (verts.index(v), verts.index(w)) for v, w in p.covers()
    ]
    sizes: dict[int, int] = {}
    for mask in range(1 << len(verts)):
        ok = True
        for lo, hi in cover_idx:
            if mask >> hi & 1 and not mask >> lo & 1:
                ok = False
                break
        if ok:
            k = bin(mask).count("1")
            sizes[k] = sizes.get(k, 0) + 1
    return sizes


def evaluate(poly: SparsePoly, lam_value: int, x_values) -> int:
    """Evaluate with integer lambda and x values; x_values is a dict
    {index: value}, a callable index -> value, or one int for every x."""
    if isinstance(x_values, dict):
        getter = x_values.__getitem__
    elif callable(x_values):
        getter = x_values
    else:
        getter = lambda k: x_values
    total = 0
    for (lam, xs), c in poly.terms().items():
        value = c * lam_value**lam
        for k, e in xs:
            value *= getter(k) ** e
        total += value
    return total


def value_counts(x) -> dict[int, int]:
    """Map k -> number of entries of the staircase array x equal to k,
    counting the pinned first column."""
    counts: dict[int, int] = {}
    for _, _, v in x.cells():
        counts[v] = counts.get(v, 0) + 1
    return counts


def rise_drop_count(x) -> int:
    """Cells strictly above their west neighbor and strictly below their
    southwest neighbor; on the array of an alternating sign matrix, its -1
    entries."""
    rows = x.rows
    return sum(
        rows[i - 1][j - 1] < v < rows[i][j - 1]
        for i, j, v in x.cells()
        if j >= 1 and i < x.n
    )


#: Worked examples, one object of each family; the fixtures below hand out
#: fresh copies.
ASM4_ROWS = [[0, 1, 0, 0], [1, -1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
MT4_ROWS = [[2], [1, 4], [1, 3, 4], [1, 2, 3, 4]]
ARRAY4_ROWS = [[1, 1, 1, 2], [2, 3, 4], [3, 4], [4]]
TSSCPP8_ROWS = [
    [8, 8, 8, 8, 6, 6, 4, 4],
    [8, 8, 8, 8, 6, 5, 4, 4],
    [8, 8, 7, 6, 5, 4, 3, 2],
    [8, 8, 6, 5, 4, 3, 2, 2],
    [6, 6, 5, 4, 3, 2, 0, 0],
    [6, 5, 4, 3, 2, 1, 0, 0],
    [4, 4, 3, 2, 0, 0, 0, 0],
    [4, 4, 2, 2, 0, 0, 0, 0],
]
TSSCPP8_ARRAY_ROWS = [[1, 1, 2, 4], [2, 2, 4], [3, 3], [4]]


def _copy(rows):
    return [list(row) for row in rows]


@pytest.fixture
def asm4_rows():
    return _copy(ASM4_ROWS)


@pytest.fixture
def mt4_rows():
    return _copy(MT4_ROWS)


@pytest.fixture
def array4_rows():
    return _copy(ARRAY4_ROWS)


@pytest.fixture
def tsscpp8_rows():
    return _copy(TSSCPP8_ROWS)


@pytest.fixture
def tsscpp8_array_rows():
    return _copy(TSSCPP8_ARRAY_ROWS)


#: The eight order-3 tournament arrays, one per outcome vector.
TOURNAMENT_ARRAYS_3 = (
    [[1, 1, 1], [2, 2], [3]],
    [[1, 1, 2], [2, 2], [3]],
    [[1, 1, 2], [2, 3], [3]],
    [[1, 1, 3], [2, 3], [3]],
    [[1, 2, 1], [2, 2], [3]],
    [[1, 2, 2], [2, 2], [3]],
    [[1, 2, 2], [2, 3], [3]],
    [[1, 2, 3], [2, 3], [3]],
)


_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, label: str, ok: bool) -> None:
    line = f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {label}"
    _ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
