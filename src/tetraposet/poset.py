"""The tetrahedral poset and its colored subposets.

Vertices are lattice points (c1, c2, c3) with all coordinates nonnegative and
c1 + c2 + c3 <= n - 2, so there are binomial(n+1, 3) of them; T_1 is empty. Six colored
step vectors generate the cover relations:

    red    (+1,  0,  0)      orange (-1,  0, +1)
    blue   (-1, +1,  0)      yellow ( 0,  0, +1)
    green  ( 0, +1,  0)      silver ( 0, +1, -1)

A color set S keeps only the edges of those colors. Order ideals of the
resulting poset are the central objects: their counts and rank generating
functions specialize to many classical product formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .colors import (
    CANONICAL_ORDER,
    Color,
    FULL_NAME,
    STEP,
    format_colors,
    require_admissible,
)

Vertex = tuple[int, int, int]


@lru_cache(maxsize=None)
def _vertices(n: int) -> tuple[Vertex, ...]:
    if n < 1:
        raise ValueError("the poset needs n >= 1")
    out = [
        (c1, c2, c3)
        for c1 in range(n - 1)
        for c2 in range(n - 1 - c1)
        for c3 in range(n - 1 - c1 - c2)
    ]
    out.sort()
    return tuple(out)


def _edges_for(n: int) -> dict[Color, tuple[tuple[Vertex, Vertex], ...]]:
    """The edges of every color in T_n, as (lower, upper) pairs."""
    vset = set(_vertices(n))
    edges: dict[Color, tuple[tuple[Vertex, Vertex], ...]] = {}
    for color in CANONICAL_ORDER:
        dc = STEP[color]
        pairs = []
        for v in _vertices(n):
            w = (v[0] + dc[0], v[1] + dc[1], v[2] + dc[2])
            if w in vset:
                pairs.append((v, w))
        edges[color] = tuple(pairs)
    return edges


class Subposet:
    """T_n(S): the vertices of T_n with only the edges colored by S.

    Every edge points upward in the order. A dual subposet (see dual()) keeps
    the same edge lists but reads each edge in reverse.
    """

    __slots__ = ("n", "colors", "vertices", "edges", "is_dual")

    def __init__(
        self,
        n: int,
        colors: frozenset[Color],
        vertices: tuple[Vertex, ...],
        edges: dict[Color, tuple[tuple[Vertex, Vertex], ...]],
        is_dual: bool = False,
    ):
        self.n = n
        self.colors = colors
        self.vertices = vertices
        self.edges = edges
        self.is_dual = is_dual

    def covers(self):
        """Yield (lower, upper) cover pairs in canonical color order."""
        for color in CANONICAL_ORDER:
            for v, w in self.edges.get(color, ()):
                yield (w, v) if self.is_dual else (v, w)

    def successors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        succ: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        for v, w in self.covers():
            succ[v].append(w)
        return {v: tuple(sorted(ws)) for v, ws in succ.items()}

    def predecessors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        pred: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        for v, w in self.covers():
            pred[w].append(v)
        return {v: tuple(sorted(ws)) for v, ws in pred.items()}

    def dual(self) -> Subposet:
        return Subposet(self.n, self.colors, self.vertices, self.edges, not self.is_dual)

    def components(self) -> tuple[Subposet, ...]:
        """Connected components, each as a Subposet on its own vertex set."""
        adj: dict[Vertex, set[Vertex]] = {v: set() for v in self.vertices}
        for v, w in self.covers():
            adj[v].add(w)
            adj[w].add(v)
        seen: set[Vertex] = set()
        comps: list[Subposet] = []
        for start in self.vertices:
            if start in seen:
                continue
            stack = [start]
            comp = set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(adj[v] - comp)
            seen |= comp
            comp_edges = {
                color: tuple(p for p in pairs if p[0] in comp)
                for color, pairs in self.edges.items()
            }
            comps.append(
                Subposet(self.n, self.colors, tuple(sorted(comp)), comp_edges, self.is_dual)
            )
        return tuple(comps)

    def is_ideal(self, members) -> bool:
        """True iff the member set is downward closed."""
        mset = set(members)
        if not mset <= set(self.vertices):
            return False
        for v, w in self.covers():
            if w in mset and v not in mset:
                return False
        return True

    def __repr__(self) -> str:
        tag = ", dual" if self.is_dual else ""
        return f"Subposet(n={self.n}, colors={format_colors(self.colors)}{tag})"


class TetraPoset:
    """T_n with all six edge colors; subposet(S) restricts to a color set."""

    __slots__ = ("n", "vertices", "_edges")

    def __init__(self, n: int):
        self.n = n
        self.vertices = _vertices(n)
        self._edges = _edges_for(n)

    @property
    def vertex_count(self) -> int:
        return comb(self.n + 1, 3)

    def subposet(self, colors) -> Subposet:
        colorset = require_admissible(colors)
        edges = {c: self._edges[c] for c in CANONICAL_ORDER if c in colorset}
        return Subposet(self.n, colorset, self.vertices, edges)


@lru_cache(maxsize=None)
def build(n: int) -> TetraPoset:
    return TetraPoset(n)


@dataclass(frozen=True)
class OrderIdeal:
    """A downward closed vertex set of some T_n(S), tagged with its n."""

    n: int
    members: frozenset[Vertex]

    def __len__(self) -> int:
        return len(self.members)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "vertices": [list(v) for v in sorted(self.members)],
        }

    @classmethod
    def from_json_obj(cls, obj) -> OrderIdeal:
        return cls(int(obj["n"]), frozenset(tuple(v) for v in obj["vertices"]))


def _green_chain(n: int, i: int, j: int) -> tuple[Vertex, ...]:
    """The green chain recorded by array cell (i, j): a j-vertex c2 chain."""
    return tuple((i - 1, c2, n - i - j) for c2 in range(j))


def ideal_to_array(ideal: OrderIdeal):
    """Read off the staircase array of an ideal of some T_n(S) with green in S.

    Cell (i, j) counts how much of its green chain the ideal contains:
    x_{i,j} = i + |chain intersect ideal|. Correct whenever the ideal is
    downward closed for green edges; the other colors of S then turn into the
    matching array inequalities.
    """
    from .arrays import StaircaseArray

    n = ideal.n
    rows = []
    for i in range(1, n + 1):
        row = [i]
        for j in range(1, n - i + 1):
            row.append(i + sum(1 for v in _green_chain(n, i, j) if v in ideal.members))
        rows.append(tuple(row))
    return StaircaseArray(tuple(rows))


def array_to_ideal(x) -> OrderIdeal:
    """Inverse of ideal_to_array: each cell contributes a prefix of its chain."""
    n = x.n
    members: set[Vertex] = set()
    for i, j, v in x.cells():
        if j >= 1:
            members.update(_green_chain(n, i, j)[: v - i])
    return OrderIdeal(n, frozenset(members))


def to_dot(p: Subposet) -> str:
    """Render a subposet as a Graphviz digraph, edges grouped by color."""
    lines = [f'digraph "T{p.n}_{format_colors(p.colors)}" {{']
    for v in p.vertices:
        lines.append(f'  "{v[0]},{v[1]},{v[2]}";')
    for color in CANONICAL_ORDER:
        for v, w in p.edges.get(color, ()):
            a, b = ((w, v) if p.is_dual else (v, w))
            lines.append(
                f'  "{a[0]},{a[1]},{a[2]}" -> "{b[0]},{b[1]},{b[2]}"'
                f" [color={FULL_NAME[color]}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
