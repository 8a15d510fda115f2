"""Shared oracles and fixtures.

The brute-force ideal counter below is the independent oracle for every
dynamic-programming count: it checks all 2^|V| vertex subsets for downward
closure, so it shares no code or idea with the production engines.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, pairwise
from math import comb

import pytest

from tetraposet import (
    SORTED_COLORS,
    QPoly,
    SparsePoly,
    Subposet,
    array_stats,
    enumerate_arrays,
    enumerate_row_shuffles,
    row_shuffle_count,
)
from tetraposet.arrays import value_count_gf
from tetraposet.polynomials import FIELD


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


def vertex_steps(p: Subposet, by_component=False):
    """Oracle for _steps in test_counting on vertex keys: dicts of the vertex pairs
    of p.covers() and a heap over (label, vertex), with none of the engine's
    index arithmetic. Returns the order as vertices, the step table, and for the side choice
    the lower and upper covers, the order's last uses and the component
    sizes."""
    lower = {v: [] for v in p.vertices}
    upper = {v: [] for v in p.vertices}
    for v, w in p.covers():
        upper[v].append(w)
        lower[w].append(v)
    label, sizes = dict.fromkeys(p.vertices, 0), []
    if by_component:
        label = {}
        for c, root in enumerate(p.vertices):
            if root not in label:
                label[root], todo = c, [root]
                for v in todo:
                    for w in lower[v] + upper[v]:
                        if w not in label:
                            label[w] = c
                            todo.append(w)
                sizes.append(len(todo))
    indeg = {v: len(ws) for v, ws in lower.items()}
    ready = [(label[v], v) for v in p.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)[1]
        order.append(v)
        for w in upper[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, (label[w], w))
    last_use = vertex_last_use(order, lower)
    return order, vertex_table(order, lower, last_use), (lower, upper, last_use, sizes)


def vertex_last_use(order, lower):
    last_use = {}
    for t, u in enumerate(order):
        last_use[u] = t
        for v in lower[u]:
            last_use[v] = t
    return last_use


def vertex_table(order, lower, last_use, start=0):
    """Oracle for counting._table on vertex-keyed dicts."""
    bit, held, steps = {}, 0, []
    for t, u in enumerate(order, start):
        need = 0
        for v in lower[u]:
            need |= bit[v]
            if last_use[v] == t:
                held &= ~bit.pop(v)
        keep, u_bit = held, 0
        if last_use[u] > t:
            u_bit = ~held & (held + 1)
            held |= u_bit
            bit[u] = u_bit
        steps.append((need, u_bit, keep))
    return steps


def vertex_component_tables(p: Subposet):
    """Oracle for counting._component_tables: each component's table on side
    A (p, heap order) or side B (p^dual, reversed order), B only when its
    width sum is strictly smaller, as a list of (steps, is side B)."""
    order, _, (lower, upper, last_a, sizes) = vertex_steps(p, by_component=True)
    reverse = order[::-1]
    last_b = vertex_last_use(reverse, upper)
    end, tables = len(order), []
    for a, b in pairwise(accumulate(sizes, initial=0)):
        comp = order[a:b]
        width_a = sum(last_a[v] - t for t, v in enumerate(comp, a))
        width_b = sum(last_b[v] - (end - 1 - t) for t, v in enumerate(comp, a))
        if width_b < width_a:
            tables.append((vertex_table(reverse[end - b : end - a], upper, last_b, end - b), True))
        else:
            tables.append((vertex_table(comp, lower, last_a, a), False))
    return tables


def get_merge_run(steps, width):
    """Oracle for counting._run without the budget: the frontier DP whose
    every store adds to new_states.get(base, 0), so a new base holds a copy
    of its int rather than the int itself."""
    states = {0: 1}
    for need, u_bit, keep in steps:
        new_states = {}
        for mask, packed in states.items():
            base = mask & keep
            new_states[base] = new_states.get(base, 0) + packed
            if mask & need == need:
                base |= u_bit
                new_states[base] = new_states.get(base, 0) + (packed << width)
        states = new_states
    return states[0]


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


def principal_specialization(poly: SparsePoly) -> QPoly:
    """Substitute x_k -> q^(k-1). The input must be lambda-free."""
    coeffs: dict[int, int] = {}
    for (lam, xs), c in poly.terms().items():
        if lam:
            raise ValueError("principal specialization of a polynomial with lambda")
        e = sum((k - 1) * exp for k, exp in xs)
        coeffs[e] = coeffs.get(e, 0) + c
    return QPoly(coeffs)


def array_transfer_rank_gf(n: int, colors) -> QPoly:
    """sum q^weight over Y_n(S) by the row value-count transfer, which
    shares no code with the frontier DP: the value-count sum at
    x_k = q^(k-1), lowered by q^C(n,3).

    The specialization gives an array q to the sum of x_{i,j} - 1 over its
    cells with j >= 1, and its weight is the sum of x_{i,j} - i over the same
    cells, less by sum_i (i-1)(n-i) = C(n,3).
    """
    gf = principal_specialization(value_count_gf(n, colors, equalities=False))
    shift = comb(n, 3)
    return QPoly({e - shift: c for e, c in gf.coefficients().items()})


def enumerated_tsscpp_lambda_count(n: int) -> SparsePoly:
    """Oracle for tsscpp_lambda_count: the sum over every enumerated sorted
    array of lambda^E times its fiber size."""
    terms: dict[int, int] = {}
    for alpha in enumerate_arrays(n, SORTED_COLORS):
        key = array_stats(alpha).eq_total
        terms[key] = terms.get(key, 0) + row_shuffle_count(alpha)
    return SparsePoly._make(terms)


def enumerated_tsscpp_expansion_rhs(n: int) -> SparsePoly:
    """Oracle for tsscpp_expansion_rhs: the sum over every enumerated sorted
    array alpha and every shuffle beta in its fiber of
    lambda^E(alpha) prod_i x_i^(n-i-E_i(alpha)) prod_d x_d^(eq on diagonal d of beta)."""
    terms: dict[int, int] = {}
    for alpha in enumerate_arrays(n, SORTED_COLORS):
        st = array_stats(alpha)
        outer = st.eq_total
        for i in range(1, n):
            outer += n - i - st.eq_row[i - 1] << i * FIELD
        for beta in enumerate_row_shuffles(alpha):
            key = outer
            for d, e in enumerate(array_stats(beta).eq_diag):
                key += e << d * FIELD
            terms[key] = terms.get(key, 0) + 1
    return SparsePoly._make(terms)


def member_tsscpp_rows(x) -> tuple[tuple[int, ...], ...]:
    """Oracle for array_to_tsscpp: the height matrix of the plane partition
    whose fundamental wedge the array x records, found by classifying every
    triple (a, b, c) of the 2n cube.

    A triple whose two largest coordinates exceed n lies in the partition iff
    its smallest is at most the wedge height t_{2n-j, 2n-j+1-i} = x_{i,j} - i
    at the two largest; any other triple lies in it iff its complement
    (2n+1-a, 2n+1-b, 2n+1-c), which is classified that way, does not.
    """
    n = x.n
    size = 2 * n
    heights = {(2 * n - j, 2 * n - j + 1 - i): v - i for i, j, v in x.cells()}

    def member(a: int, b: int, c: int) -> bool:
        big, mid, small = sorted((a, b, c), reverse=True)
        if mid >= n + 1:
            return small <= heights[(big, mid)]
        return not member(size + 1 - a, size + 1 - b, size + 1 - c)

    return tuple(
        tuple(
            sum(1 for c in range(1, size + 1) if member(a, b, c))
            for b in range(1, size + 1)
        )
        for a in range(1, size + 1)
    )


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
