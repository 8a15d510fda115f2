"""Order ideal counting and enumeration for colored subposets.

One engine gives the rank generating function sum q^|I| over the order ideals
I of any subposet, dualized or not: a frontier dynamic program (the transfer-
matrix method, Stanley EC1 4.7) over step tables built from one heap order of
vertex indices. Sorted stably by component label, that order takes the
components one after another, each starting where the frontier is empty. Each
distinct component table runs once, for counts and gfs alike, its result
raised to the number of components that have it; the gf is the product
(polynomials._dense_product). The vertices are in lexicographic order, so the
heap pops the order the vertex tuples would give, and enumerate_ideals maps it
back to vertices once. Counts are the same DP at field width 0, not the rank
gf at q = 1. For sets with green, the staircase arrays are the same ideals in
other coordinates (poset.ideal_to_array), so arrays.py runs this engine too.
The independent cross-check, the row value-count transfer specialized at
x_k = q^(k-1), lives in the tests.

Each component is counted on one of two sides. The ideals of P are the
complements of the ideals of P^dual, so side A, P in the heap order, and side
B, P^dual in the reverse of that order, give the same count, and B's gf is
A's reversed. The reverse of a linear extension of P is a linear extension of
P^dual, so B needs no second order: P's upper covers serve as its lower ones.
The DP holds one frontier slot per vertex from its step to its last use, and
a side's width sum, the sum of those spans, stands in for the states its DP
goes through: a component runs on B only when B's width sum is strictly the
smaller, and ties go to A.

One depth-first walk, _walk_rows, lists every path of rows that a successor
function allows. enumerate_ideals walks the DP's own steps with it, one row
(frontier mask, vertex taken) per vertex, so it lists exactly the ideals
rank_gf sums over; arrays.py walks staircase rows with it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, pairwise
from math import prod

from .budget import enumeration_budget, guard
from .polynomials import QPoly, _dense_product
from .poset import Covers, OrderIdeal, Subposet, _adjacency, _label_components

Row = tuple[int, ...]
Step = tuple[int, int, int]  # (need_mask, u_bit, keep_mask), see _table
Table = tuple[Step, ...]


def _linear_extension(lower: Covers, upper: Covers) -> list[int]:
    """Kahn's algorithm with a heap of vertex indices, so the order is
    deterministic. The cover lists need no sorting, since the heap fixes the
    order and the step masks are ORs."""
    indeg = list(map(len, lower))
    ready = [i for i, d in enumerate(indeg) if not d]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in upper[v]:
            indeg[w] -= 1
            if not indeg[w]:
                heapq.heappush(ready, w)
    if len(order) != len(lower):
        raise ValueError("cover relation contains a cycle")
    return order


def _last_use(order: Sequence[int], lower: Covers) -> list[int]:
    """Each vertex's last step in the frontier: its last upper cover's, or
    its own when nothing covers it."""
    last_use = [0] * len(lower)
    for t, u in enumerate(order):
        last_use[u] = t
        for v in lower[u]:
            last_use[v] = t
    return last_use


def _table(order: Sequence[int], lower: Covers, last_use: list[int], start=0) -> Table:
    """One (need_mask, u_bit, keep_mask) triple per vertex u of a linear
    extension, whose steps are numbered from start as in last_use. A vertex
    holds the lowest free bit slot from its own step until its last use.
    need_mask has the slots of u's lower covers, keep_mask the slots still
    held after u's step (u aside), and u_bit is u's slot, or 0 when nothing
    covers u. So u may join an ideal whose frontier mask before the step is
    mask exactly when mask & need_mask == need_mask."""
    bit: dict[int, int] = {}  # this table's own vertices; a freed slot stays, never read again
    held = 0
    steps = []
    for t, u in enumerate(order, start):
        need = 0
        for v in lower[u]:
            need |= bit[v]
            if last_use[v] == t:
                held &= ~bit[v]
        keep = held
        u_bit = 0
        if last_use[u] > t:
            u_bit = ~held & (held + 1)  # the lowest free slot
            held |= u_bit
            bit[u] = u_bit
        steps.append((need, u_bit, keep))
    return tuple(steps)


def _component_tables(p: Subposet) -> dict[tuple[Table, bool], int]:
    """Each distinct (step table, side is p^dual) of the components, each on
    its narrower side, with the number of components that have it, in order
    of least vertex. A side's width sum is the sum over v of
    last_use(v) - pos(v) in its own order. Each component starts with the
    frontier empty, so its table on either side is the one it alone gives.

    The heap order sorted stably by component label lists each component in
    the order its own heap gives: a vertex's lower covers are all in its
    component, so its ready vertices never wait on another's, and each pop
    of one of them takes the least of its own ready ones."""
    lower, upper = _adjacency(len(p.vertices), p.index_covers)
    label, sizes = _label_components(lower, upper)
    order = sorted(_linear_extension(lower, upper), key=label.__getitem__)
    last_a = _last_use(order, lower)
    reverse = order[::-1]
    last_b = _last_use(reverse, upper)
    end = len(order)
    tables: dict[tuple[Table, bool], int] = {}
    for a, b in pairwise(accumulate(sizes, initial=0)):
        comp = order[a:b]
        pos_a = sum(range(a, b))
        width_a = sum(map(last_a.__getitem__, comp)) - pos_a
        # B numbers order[t] as end - 1 - t
        width_b = sum(map(last_b.__getitem__, comp)) - ((end - 1) * (b - a) - pos_a)
        if width_b < width_a:
            key = _table(reverse[end - b : end - a], upper, last_b, end - b), True
        else:
            key = _table(comp, lower, last_a, a), False
        tables[key] = tables.get(key, 0) + 1
    return tables


def _run(steps: Table, width: int, budget: int) -> int:
    """The frontier DP over one component's step table: its rank gf packed
    with the coefficient of q^s in bits [s*width, (s+1)*width).

    Each state's size polynomial is packed alike, so putting u into the
    ideal is a shift by width and merging two states is one int add. At
    width 0 the int is the number of ideals. The live states are checked
    against the budget after every step.

    A base new to this step stores the int itself, as 0 + packed would copy
    a multi-digit int: the generations share every int no merge touched, and
    only a real merge adds, into a new int, so no shared int ever changes."""
    states = {0: 1}
    for need, u_bit, keep in steps:
        new_states: dict[int, int] = {}
        for mask, packed in states.items():
            base = mask & keep
            if base in new_states:
                new_states[base] += packed
            else:
                new_states[base] = packed
            if mask & need == need:
                base |= u_bit
                if base in new_states:
                    new_states[base] += packed << width
                else:
                    new_states[base] = packed << width
        states = new_states
        if len(states) > budget:
            guard(len(states), "DP states")
    # every slot is released after the last step, so one state is left
    return states[0]


def rank_gf(p: Subposet) -> QPoly:
    """Rank generating function sum over ideals I of q^|I|, the product of
    the components' gfs: one _run per distinct (table, side), its gf raised
    to the number of components that have it. A coefficient counts s-element
    sets of a component, at most C(size, s) < 2^width for width = size + 1,
    so no field carries into the next. A dual side's gf is read reversed.
    Every gf is dense, as a poset has ideals of every size up to its own."""
    budget = enumeration_budget()
    gfs = []
    for (steps, dual), count in _component_tables(p).items():
        width = len(steps) + 1
        packed = _run(steps, width, budget)
        field = (1 << width) - 1
        coeffs = [packed >> (s * width) & field for s in range(width)]
        gfs.append((coeffs[::-1] if dual else coeffs, count))
    return QPoly._make(dict(enumerate(_dense_product(gfs))))


def count_ideals(p: Subposet) -> int:
    """Number of order ideals: each distinct table's count to the power of its multiplicity."""
    budget = enumeration_budget()
    return prod(_run(steps, 0, budget) ** m for (steps, _), m in _component_tables(p).items())


def _walk_rows(n: int, successors: Callable[[int, Row], Iterable[Row]]) -> Iterator[list[Row]]:
    """Every path whose row i is one of successors(i, row i+1), depth first
    from row n (over the empty row) up to row 1, taking the candidates in
    their given order. Yields one list, rows[i-1] = row i, reused on every
    yield; with no rows (n = 0) that is one empty list."""
    rows: list[Row] = [()] * n
    todo: list[Iterator[Row]] = [iter(())] * (n + 1)  # rows left to try
    i, fresh = n, True
    while i <= n:
        if i == 0:
            yield rows
            i, fresh = 1, False
            continue
        if fresh:
            todo[i] = iter(successors(i, rows[i] if i < n else ()))
        row = next(todo[i], None)
        if row is None:
            i, fresh = i + 1, False
        else:
            rows[i - 1] = row
            i, fresh = i - 1, True


def enumerate_ideals(p: Subposet) -> Iterator[OrderIdeal]:
    """Yield every order ideal, in a deterministic depth-first order.

    Row i of the walk is (frontier mask, u taken) for u = order[size - i],
    so the walk goes along the linear extension with the state and the
    choice of the DP in rank_gf. Leaving u out comes first, and u may join
    only when every lower cover is in. The total count is checked against
    the yield budget before any work is done.
    """
    guard(count_ideals(p), "order ideals")
    lower, upper = _adjacency(len(p.vertices), p.index_covers)
    order = _linear_extension(lower, upper)
    steps = _table(order, lower, _last_use(order, lower))
    order = [p.vertices[i] for i in order]
    size = len(order)

    def successors(i: int, below: Row) -> tuple[Row, ...]:
        need, u_bit, keep = steps[size - i]
        mask = below[0] if below else 0
        base = mask & keep
        if mask & need == need:
            return (base, False), (base | u_bit, True)
        return ((base, False),)

    for rows in _walk_rows(size, successors):
        # copied from a set, the frozenset is sized to fit (see array_to_ideal)
        yield OrderIdeal(p.n, frozenset({u for u, row in zip(order, reversed(rows)) if row[1]}))
