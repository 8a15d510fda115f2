"""Order ideal counting and enumeration for colored subposets.

One engine gives the rank generating function sum q^|I| over the order ideals
I of any subposet, dualized or not: a frontier dynamic program (the transfer-
matrix method, Stanley EC1 4.7) over one step table per subposet, taking the
connected components one at a time; each starts where the frontier is empty,
and the gf is their product. Counts are the same DP at field width 0, not the
rank gf at q = 1. For sets with green, the staircase arrays are the same
ideals in other coordinates (poset.ideal_to_array), so the array counts and
rank gf in arrays.py run this engine too. The independent cross-check, the
row value-count transfer specialized at x_k = q^(k-1), lives in the tests.

One depth-first walk, _walk_rows, lists every path of rows that a successor
function allows. enumerate_ideals walks the DP's own steps with it, one row
(frontier mask, vertex taken) per vertex, so it lists exactly the ideals
rank_gf sums over; arrays.py walks staircase rows with it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator, Sequence
from math import prod

from .budget import enumeration_budget, guard
from .polynomials import QPoly
from .poset import OrderIdeal, Subposet, Vertex

Row = tuple[int, ...]
Covers = dict[Vertex, Sequence[Vertex]]  # vertex -> its lower or its upper covers


def _linear_extension(
    p: Subposet, pred: Covers, succ: Covers, label: dict[Vertex, int] | None = None
) -> list[Vertex]:
    """Kahn's algorithm with a heap, so the order is deterministic. With a
    label per vertex the heap pops (label, vertex), so the vertices of one
    label come out in one run, in the order their own heap gives."""
    indeg = {v: len(ws) for v, ws in pred.items()}
    label = label or dict.fromkeys(p.vertices, 0)
    ready = [(label[v], v) for v in p.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[Vertex] = []
    while ready:
        v = heapq.heappop(ready)[1]
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, (label[w], w))
    if len(order) != len(p.vertices):
        raise ValueError("cover relation contains a cycle")
    return order


def _steps(p: Subposet, by_component=False) -> tuple[list[Vertex], list[tuple[int, int, int]]]:
    """The linear extension, and one (need_mask, u_bit, keep_mask) triple per
    vertex u of it. A vertex holds the lowest free bit slot from its own step
    until its last upper cover is visited. need_mask has the slots of u's
    lower covers, keep_mask the slots still held after u's step (u aside), and
    u_bit is u's slot, or 0 when nothing covers u. So u may join an ideal
    whose frontier mask before the step is mask exactly when
    mask & need_mask == need_mask.

    by_component takes the connected components one at a time, in order of
    least vertex, so one starts exactly where need_mask = keep_mask = 0: the
    frontier is empty there and nowhere else. The cover lists stay unsorted,
    since the heap fixes the order and the masks are ORs."""
    lower: dict[Vertex, list[Vertex]] = {v: [] for v in p.vertices}
    upper: dict[Vertex, list[Vertex]] = {v: [] for v in p.vertices}
    for v, w in p.covers():
        upper[v].append(w)
        lower[w].append(v)
    label: dict[Vertex, int] = {}
    for c, root in enumerate(p.vertices if by_component else ()):
        todo = [root]  # depth first over the covers, labelled by the least vertex's index
        while todo:
            if (v := todo.pop()) not in label:
                label[v] = c
                todo += lower[v] + upper[v]
    order = _linear_extension(p, lower, upper, label)
    pos = {v: t for t, v in enumerate(order)}
    last_use = {v: max((pos[w] for w in upper[v]), default=pos[v]) for v in order}
    bit: dict[Vertex, int] = {}
    held = 0
    steps = []
    for t, u in enumerate(order):
        need = 0
        for v in lower[u]:
            need |= bit[v]
            if last_use[v] == t:
                held &= ~bit.pop(v)
        keep = held
        u_bit = 0
        if last_use[u] > t:
            u_bit = ~held & (held + 1)  # the lowest free slot
            held |= u_bit
            bit[u] = u_bit
        steps.append((need, u_bit, keep))
    return order, steps


def _packed_rank_gfs(p: Subposet, wide: bool) -> Iterator[tuple[int, int]]:
    """Each component's rank gf by frontier DP over its slice of one step
    table, in order of least vertex: (width, packed), with the coefficient
    of q^s in bits [s*width, (s+1)*width) of packed.

    Each state's size polynomial is packed alike, so putting u into the
    ideal is a shift by width and merging two states is one int add. A
    coefficient counts s-element sets of the component's vertices, at most
    C(size, s) < 2^width for width = size + 1 (wide), so no field carries
    into the next; at width 0 the int is the number of ideals. The live
    states are checked against the budget after every step.
    """
    budget = enumeration_budget()
    steps = _steps(p, by_component=True)[1]
    starts = [t for t, (need, _, keep) in enumerate(steps) if not need | keep]
    for a, b in zip(starts, starts[1:] + [len(steps)]):
        width = b - a + 1 if wide else 0
        states = {0: 1}
        for need, u_bit, keep in steps[a:b]:
            new_states: dict[int, int] = {}
            for mask, packed in states.items():
                base = mask & keep
                new_states[base] = new_states.get(base, 0) + packed
                if mask & need == need:
                    base |= u_bit
                    new_states[base] = new_states.get(base, 0) + (packed << width)
            states = new_states
            if len(states) > budget:
                guard(len(states), "DP states")
        # every slot is released after the last step, so one state is left
        yield width, states[0]


def rank_gf(p: Subposet) -> QPoly:
    """Rank generating function sum over ideals I of q^|I|."""
    gf = None
    for width, packed in _packed_rank_gfs(p, wide=True):
        field = (1 << width) - 1
        # a poset has ideals of every size up to its own, so no term is 0
        factor = QPoly._make({s: packed >> (s * width) & field for s in range(width)})
        gf = factor if gf is None else gf * factor
    return QPoly({0: 1}) if gf is None else gf


def count_ideals(p: Subposet) -> int:
    """Number of order ideals, the product of the components' counts."""
    return prod(packed for _, packed in _packed_rank_gfs(p, wide=False))


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
    order, steps = _steps(p)
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
