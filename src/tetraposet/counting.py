"""Order ideal counting and enumeration for colored subposets.

One engine gives the rank generating function sum q^|I| over the order ideals
I of any subposet, dualized or not: the product over connected components of
a frontier dynamic program along a linear extension (the transfer-matrix
method, Stanley EC1 4.7). Counts are the evaluation at q = 1. For sets with
green, the staircase arrays are the same ideals in other coordinates
(poset.ideal_to_array), so the array counts and rank gf in arrays.py run this
engine too. The independent cross-check, the row value-count transfer
specialized at x_k = q^(k-1), lives in the tests.

One filler, _fillings, lists every solution of a Plan of bounded integer
positions in order. enumerate_ideals runs it on a 0/1 plan over a linear
extension, and arrays.py runs it on staircase cells.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from .budget import guard
from .polynomials import QPoly
from .poset import OrderIdeal, Subposet, Vertex


def _linear_extension(
    p: Subposet,
    pred: dict[Vertex, tuple[Vertex, ...]],
    succ: dict[Vertex, tuple[Vertex, ...]],
) -> list[Vertex]:
    """Kahn's algorithm with a heap, so the order is deterministic."""
    indeg = {v: len(ws) for v, ws in pred.items()}
    ready = [v for v in p.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[Vertex] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(p.vertices):
        raise ValueError("cover relation contains a cycle")
    return order


def _steps(p: Subposet) -> list[tuple[int, int, int]]:
    """One (need_mask, u_bit, keep_mask) triple per vertex u of the linear
    extension. A vertex holds the lowest free bit slot from its own step until
    its last upper cover is visited. need_mask has the slots of u's lower
    covers, keep_mask the slots still held after u's step (u aside), and u_bit
    is u's slot, or 0 when nothing covers u."""
    pred = p.predecessors()
    succ = p.successors()
    order = _linear_extension(p, pred, succ)
    pos = {v: t for t, v in enumerate(order)}
    last_use = {v: max((pos[w] for w in succ[v]), default=pos[v]) for v in order}
    bit: dict[Vertex, int] = {}
    held = 0
    steps = []
    for t, u in enumerate(order):
        need = 0
        for v in pred[u]:
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
    return steps


def _component_rank_coeffs(p: Subposet) -> list[int]:
    """Rank gf coefficients of a subposet, lowest degree first, by frontier DP.

    Each state's size polynomial is packed into one int, coefficient of q^s
    in bits [s*width, (s+1)*width), so putting u into the ideal is a shift by
    width and merging two states is one int add. A coefficient counts distinct
    s-element sets of the |V| vertices, so it is at most C(|V|, s) < 2^width
    with width = |V| + 1, and no field ever carries into the next.
    """
    width = len(p.vertices) + 1
    states = {0: 1}
    for need, u_bit, keep in _steps(p):
        new_states: dict[int, int] = {}
        for mask, packed in states.items():
            base = mask & keep
            new_states[base] = new_states.get(base, 0) + packed
            if mask & need == need:
                base |= u_bit
                new_states[base] = new_states.get(base, 0) + (packed << width)
        states = new_states
    # every slot is released after the last step, so one state is left
    packed = states[0]
    field = (1 << width) - 1
    return [packed >> (s * width) & field for s in range(width)]


def rank_gf(p: Subposet) -> QPoly:
    """Rank generating function sum over ideals I of q^|I|."""
    gf = QPoly({0: 1})
    for comp in p.components():
        gf = gf * QPoly.from_coeff_list(_component_rank_coeffs(comp))
    return gf


def count_ideals(p: Subposet) -> int:
    """Number of order ideals."""
    return rank_gf(p)(1)


#: One (lo, hi, lower, upper) entry per position t: vals[t] ranges over
#: lo..hi, and (k, delta) in lower or upper, with k < t, means
#: vals[t] >= vals[k] + delta or vals[t] <= vals[k] + delta.
Plan = tuple[tuple[int, int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...]


def _fillings(plan: Plan, vals: list[int], start: int) -> Iterator[None]:
    """Fill vals[start:] in every way the plan allows, depth first with values
    ascending, yielding each time vals is complete (once if nothing is left
    to fill)."""
    last = len(plan) - 1
    if start > last:
        yield
        return
    todo: list[Iterator[int]] = [iter(())] * len(plan)  # values left to try
    t, fresh = start, True
    while t >= start:
        if fresh:
            lo, hi, lower, upper = plan[t]
            for k, delta in lower:
                if vals[k] + delta > lo:
                    lo = vals[k] + delta
            for k, delta in upper:
                if vals[k] + delta < hi:
                    hi = vals[k] + delta
            todo[t] = iter(range(lo, hi + 1))
        v = next(todo[t], None)
        if v is None:
            t, fresh = t - 1, False
            continue
        vals[t] = v
        if t < last:
            t, fresh = t + 1, True
        else:
            fresh = False
            yield


def enumerate_ideals(p: Subposet) -> Iterator[OrderIdeal]:
    """Yield every order ideal, in a deterministic depth-first order.

    Vertex t of the linear extension is in the ideal when vals[t] = 1, which
    the plan allows only when every lower cover is in. Values ascend, so the
    branch that leaves a vertex out comes before the one that puts it in. The
    total count is checked against the yield budget before any work is done.
    """
    guard(count_ideals(p), "order ideals")
    pred = p.predecessors()
    order = _linear_extension(p, pred, p.successors())
    pos = {u: t for t, u in enumerate(order)}
    plan = tuple((0, 1, (), tuple((pos[v], 0) for v in pred[u])) for u in order)
    vals = [0] * len(plan)
    for _ in _fillings(plan, vals, 0):
        # copied from a set, the frozenset is sized to fit (see array_to_ideal)
        yield OrderIdeal(p.n, frozenset({u for u, b in zip(order, vals) if b}))
