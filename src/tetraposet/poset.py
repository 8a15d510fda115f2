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

When green is in S, an ideal is read as a staircase array: vertex
(c1, c2, c3) is level c2 of the green chain of array cell (c1+1, n-1-c1-c3).
array_to_ideal takes each cell's chain from a per-n table, so the ideals it
returns share their vertex tuples with T_n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb

from .budget import guard
from .colors import (
    CANONICAL_ORDER,
    Color,
    STEP,
    format_colors,
    require_admissible,
)

Vertex = tuple[int, int, int]


@lru_cache(maxsize=None)
def _vertices(n: int) -> tuple[Vertex, ...]:
    if n < 1:
        raise ValueError("the poset needs n >= 1")
    guard(comb(n + 1, 3), "vertices")
    out = [
        (c1, c2, c3)
        for c1 in range(n - 1)
        for c2 in range(n - 1 - c1)
        for c3 in range(n - 1 - c1 - c2)
    ]
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def _green_chains(n: int) -> tuple[tuple[tuple[Vertex, ...], ...], ...]:
    """[i-1][j] = the green chain (i-1, c2, n-i-j), c2 = 0..j-1, of array
    cell (i, j), bottom up, made of the vertex tuples of _vertices(n)."""
    chains: list[list[list[Vertex]]] = [[[] for _ in range(n - r)] for r in range(n)]
    for v in _vertices(n):  # sorted, so each chain fills bottom up
        chains[v[0]][n - 1 - v[0] - v[2]].append(v)
    return tuple(tuple(map(tuple, row)) for row in chains)


def _edges_for(n: int) -> dict[Color, tuple[tuple[Vertex, Vertex], ...]]:
    """The edges of every color in T_n, as (lower, upper) pairs."""
    vset = set(_vertices(n))
    edges = {}
    for color, (a, b, c) in STEP.items():
        ups = ((v, (v[0] + a, v[1] + b, v[2] + c)) for v in _vertices(n))
        edges[color] = tuple((v, w) for v, w in ups if w in vset)
    return edges


class Subposet:
    """T_n(S): the vertices of T_n with only the edges colored by S.

    The covers are one tuple of (lower, upper) pairs, grouped by color in
    canonical order. A dual subposet (see dual()) stores each pair reversed.
    """

    __slots__ = ("n", "colors", "vertices", "_covers", "is_dual", "_lower")

    def __init__(
        self,
        n: int,
        colors: frozenset[Color],
        vertices: tuple[Vertex, ...],
        covers: tuple[tuple[Vertex, Vertex], ...],
        is_dual: bool = False,
    ):
        self.n = n
        self.colors = colors
        self.vertices = vertices
        self._covers = covers
        self.is_dual = is_dual
        self._lower: dict[Vertex, tuple[Vertex, ...]] | None = None

    def covers(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """The (lower, upper) cover pairs in canonical color order."""
        return self._covers

    def successors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        succ: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        for v, w in self._covers:
            succ[v].append(w)
        return {v: tuple(sorted(ws)) for v, ws in succ.items()}

    def predecessors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        return self.dual().successors()

    def dual(self) -> Subposet:
        flipped = tuple((w, v) for v, w in self._covers)
        return Subposet(self.n, self.colors, self.vertices, flipped, not self.is_dual)

    def components(self) -> tuple[Subposet, ...]:
        """Connected components, each as a Subposet on its own vertex set."""
        adj: dict[Vertex, set[Vertex]] = {v: set() for v in self.vertices}
        for v, w in self._covers:
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
            comp_covers = tuple(p for p in self._covers if p[0] in comp)
            comps.append(
                Subposet(self.n, self.colors, tuple(sorted(comp)), comp_covers, self.is_dual)
            )
        return tuple(comps)

    def is_ideal(self, members) -> bool:
        """True iff every member is a vertex and its lower covers are members.

        The map vertex -> lower covers is built on the first call and kept;
        dual() and components() return new subposets with their own.
        """
        if self._lower is None:
            self._lower = self.predecessors()
        lower = self._lower
        mset = members if isinstance(members, (set, frozenset)) else set(members)
        for w in mset:
            below = lower.get(w)
            if below is None:
                return False
            for v in below:
                if v not in mset:
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
        covers = chain.from_iterable(self._edges[c] for c in CANONICAL_ORDER if c in colorset)
        return Subposet(self.n, colorset, self.vertices, tuple(covers))


@lru_cache(maxsize=None)
def build(n: int) -> TetraPoset:
    return TetraPoset(n)


def json_int(value) -> int:
    """A JSON number that must be an integer: an int that is not a bool."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


class OrderIdeal:
    """A downward closed vertex set of some T_n(S), tagged with its n."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: frozenset[Vertex]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __reduce__(self):
        # pickle and copy would restore the slots through __setattr__
        return type(self), (self.n, self.members)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, members={self.members!r})"

    def __len__(self) -> int:
        return len(self.members)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "vertices": [list(v) for v in sorted(self.members)],
        }

    @classmethod
    def from_json_obj(cls, obj) -> OrderIdeal:
        return cls(
            json_int(obj["n"]),
            frozenset(tuple(json_int(c) for c in v) for v in obj["vertices"]),
        )


def ideal_to_array(ideal: OrderIdeal):
    """Read off the staircase array of an ideal of some T_n(S) with green in S.

    The green chain of cell (i, j), j >= 1, is (i-1, c2, n-i-j) for
    c2 = 0..j-1, so vertex (c1, c2, c3) is level c2 of cell
    (c1+1, n-1-c1-c3) and x_{i,j} = i + the number of members in cell (i, j).
    Correct whenever the ideal is downward closed for green edges; the other
    colors of S then turn into the matching array inequalities. Raises
    ValueError for a member that is not a vertex of T_n.
    """
    from .arrays import StaircaseArray

    n = ideal.n
    rows = [[i] * (n - i + 1) for i in range(1, n + 1)]
    for v in ideal.members:
        c1, c2, c3 = v
        j = n - 1 - c1 - c3  # c1 + c2 + c3 <= n - 2 is c2 < j
        if c1 < 0 or c3 < 0 or not 0 <= c2 < j:
            raise ValueError(f"{v} is not a vertex of T_{n}")
        rows[c1][j] += 1
    return StaircaseArray(rows)


def array_to_ideal(x) -> OrderIdeal:
    """Inverse of ideal_to_array: cell (i, j) holds the bottom x_{i,j} - i
    levels of its green chain, whose vertex tuples come from a per-n table
    rather than being built anew for every ideal."""
    n = x.n
    chains = _green_chains(n)
    # a frozenset copied from a set is sized to fit; one grown from a
    # generator keeps the slack of its last resize
    members: set[Vertex] = set()
    for r, row in enumerate(x.rows):  # r = i - 1
        for j, v in enumerate(row):
            members.update(chains[r][j][: v - r - 1])
    return OrderIdeal(n, frozenset(members))


_COLOR_OF_STEP = {step: color for color, step in STEP.items()}


def to_dot(p: Subposet) -> str:
    """Render a subposet as a Graphviz digraph, edges grouped by color."""
    lines = [f'digraph "T{p.n}_{format_colors(p.colors)}" {{']
    for v in p.vertices:
        lines.append(f'  "{v[0]},{v[1]},{v[2]}";')
    sign = -1 if p.is_dual else 1
    for a, b in p.covers():
        color = _COLOR_OF_STEP[tuple(sign * (y - x) for x, y in zip(a, b))]
        lines.append(
            f'  "{a[0]},{a[1]},{a[2]}" -> "{b[0]},{b[1]},{b[2]}"'
            f" [color={color.name.lower()}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
