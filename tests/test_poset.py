import copy
import hashlib
import pickle
import re
from math import comb

import pytest

from tetraposet import (
    Color,
    OrderIdeal,
    StaircaseArray,
    all_admissible_sets,
    array_to_ideal,
    build,
    count_ideals,
    enumerate_arrays,
    enumerate_ideals,
    format_colors,
    ideal_to_array,
    rank_gf,
    to_dot,
    validate,
    weight,
)


def order_pairs(p):
    """All strict pairs (v, w) with v < w in p, by transitive closure."""
    succ = p.successors()
    above = {}

    def reach(v):
        if v not in above:
            acc = set()
            for w in succ[v]:
                acc.add(w)
                acc |= reach(w)
            above[v] = acc
        return above[v]

    return {(v, w) for v in p.vertices for w in reach(v)}


def extreme(p, neighbors):
    """The unique vertex with no neighbors in the given adjacency, or None."""
    ends = [v for v in p.vertices if not neighbors[v]]
    return ends[0] if len(ends) == 1 else None


def green_chain(n, i, j):
    """The green chain recorded by array cell (i, j): a j-vertex c2 chain."""
    return tuple((i - 1, c2, n - i - j) for c2 in range(j))


def chain_ideal_to_array(ideal):
    """Oracle for ideal_to_array: x_{i,j} = i + the number of members on the
    green chain of cell (i, j), walking every chain."""
    n = ideal.n
    rows = []
    for i in range(1, n + 1):
        row = [i]
        for j in range(1, n - i + 1):
            row.append(i + sum(1 for v in green_chain(n, i, j) if v in ideal.members))
        rows.append(tuple(row))
    return StaircaseArray(tuple(rows))


def chain_array_to_ideal(x):
    """Oracle for array_to_ideal: each cell contributes a prefix of its chain."""
    n = x.n
    members = set()
    for i, j, v in x.cells():
        if j >= 1:
            members.update(green_chain(n, i, j)[: v - i])
    return OrderIdeal(n, frozenset(members))


def test_vertex_count():
    for n in range(2, 9):
        assert build(n).vertex_count == comb(n + 1, 3)
        assert len(build(n).vertices) == comb(n + 1, 3)


def test_small_n_rejected():
    # T_1 is the empty poset: its one order ideal is the empty set
    assert build(1).vertices == ()
    for colors in all_admissible_sets():
        assert count_ideals(build(1).subposet(colors)) == 1
        assert rank_gf(build(1).subposet(colors)) == 1
    with pytest.raises(ValueError):
        build(0)


def test_full_poset_has_unique_extremes():
    for n in range(2, 7):
        full = build(n).subposet("rbgoys")
        assert extreme(full, full.predecessors()) == (0, 0, 0)
        assert extreme(full, full.successors()) == (0, n - 2, 0)


def test_edge_counts_match_steps():
    p = build(4)
    vset = set(p.vertices)
    from tetraposet.colors import STEP

    for color, dc in STEP.items():
        expected = {
            (v, (v[0] + dc[0], v[1] + dc[1], v[2] + dc[2]))
            for v in vset
            if (v[0] + dc[0], v[1] + dc[1], v[2] + dc[2]) in vset
        }
        covers = p.subposet([color]).covers()
        assert len(covers) == len(expected)
        assert set(covers) == expected


def test_red_blue_green_components():
    # one layer per k = 2..n, the layer at c3 = n-k having binomial(k,2) vertices
    for n in (3, 4, 5):
        comps = build(n).subposet("rbg").components()
        sizes = sorted(len(c.vertices) for c in comps)
        assert sizes == sorted(comb(k, 2) for k in range(2, n + 1))


def test_single_color_is_disjoint_chains():
    # n-j chains with j vertices each, j = 1..n-1
    p = build(4).subposet("g")
    comps = p.components()
    sizes = sorted(len(c.vertices) for c in comps)
    assert sizes == [1, 1, 1, 2, 2, 3]


def test_components_partition_in_order_of_least_vertex():
    for n in range(1, 6):
        for colorset in all_admissible_sets():
            p = build(n).subposet(colorset)
            for q in (p, p.dual()):
                comps = q.components()
                assert sorted(v for c in comps for v in c.vertices) == list(q.vertices)
                assert [c.vertices[0] for c in comps] == sorted(c.vertices[0] for c in comps)
                for c in comps:
                    assert list(c.vertices) == sorted(c.vertices)
                    assert (c.n, c.colors, c.is_dual) == (q.n, q.colors, q.is_dual)
                    inside = set(c.vertices)
                    assert c.covers() == tuple(pair for pair in q.covers() if pair[0] in inside)
                    assert all(w in inside for _, w in c.covers())
                    # connected: a walk over its covers from its least vertex reaches all
                    reached, todo = {c.vertices[0]}, [c.vertices[0]]
                    while todo:
                        u = todo.pop()
                        for v, w in c.covers():
                            for a, b in ((v, w), (w, v)):
                                if a == u and b not in reached:
                                    reached.add(b)
                                    todo.append(b)
                    assert reached == inside


# the sha256 of "colors:" + repr(covers()) for the 40 sets at n = 5, each
# followed by its dual, joined by ";"
N5_COVERS_SHA256 = "22c5c7425a94c15873fa91be5d4b3d8f790a741631e30b529c1847df2868d7c6"


def test_vertex_covers_pinned_and_vertices_sorted():
    """covers() makes the vertex pairs of the index covers in their order,
    and every subposet lists its vertices in lexicographic order, which
    makes index order vertex order for the counting heap."""
    p = build(5)
    listed = []
    for colorset in all_admissible_sets():
        for q in (p.subposet(colorset), p.subposet(colorset).dual()):
            listed.append(f"{format_colors(colorset)}:{q.covers()!r}")
            assert q.covers() == q.covers()
            for c in (q, *q.components()):
                assert list(c.vertices) == sorted(c.vertices)
                assert c.covers() == tuple((c.vertices[i], c.vertices[j]) for i, j in c.index_covers)
    assert hashlib.sha256(";".join(listed).encode()).hexdigest() == N5_COVERS_SHA256


def test_adjacency_maps_read_the_covers():
    """successors() and predecessors() map every vertex to its sorted upper
    and lower covers, and each is the other's on the dual."""
    for n in range(1, 6):
        for colorset in all_admissible_sets():
            p = build(n).subposet(colorset)
            up = {v: sorted(w for u, w in p.covers() if u == v) for v in p.vertices}
            down = {w: sorted(u for u, x in p.covers() if x == w) for w in p.vertices}
            assert p.successors() == {v: tuple(ws) for v, ws in up.items()}
            assert p.predecessors() == {v: tuple(ws) for v, ws in down.items()}
            assert p.dual().successors() == p.predecessors()
            assert p.dual().predecessors() == p.successors()


def test_dual_swaps_covers():
    p = build(4).subposet("bgy")
    d = p.dual()
    assert set(d.covers()) == {(w, v) for v, w in p.covers()}
    assert d.dual().is_dual is False
    assert set(d.dual().covers()) == set(p.covers())


def test_order_pairs_transitive_closure():
    p = build(3).subposet("rbg")
    pairs = order_pairs(p)
    assert ((0, 0, 0), (0, 1, 0)) in pairs
    assert ((0, 0, 0), (1, 0, 0)) in pairs
    assert ((1, 0, 0), (0, 1, 0)) in pairs
    assert ((0, 0, 1), (0, 0, 0)) not in pairs
    for v, w in pairs:
        assert v != w


def test_is_ideal():
    p = build(3).subposet("rbg")
    assert p.is_ideal(set())
    assert p.is_ideal({(0, 0, 0)})
    assert p.is_ideal({(0, 0, 0), (1, 0, 0)})
    assert not p.is_ideal({(1, 0, 0)})
    assert not p.is_ideal({(9, 9, 9)})


def test_is_ideal_matches_the_covers_on_every_subset():
    """Over every vertex subset of T_3, as a set, frozenset, list or tuple,
    plus one non-vertex: a member's lower covers must all be members."""
    for colorset in all_admissible_sets():
        p = build(3).subposet(colorset)
        dual = p.dual()
        vs = p.vertices
        for mask in range(1 << len(vs)):
            members = {v for k, v in enumerate(vs) if mask >> k & 1}
            expected = all(v in members for v, w in p.covers() if w in members)
            for form in (members, frozenset(members), sorted(members), tuple(members)):
                assert p.is_ideal(form) == expected
            up_closed = all(w in members for v, w in p.covers() if v in members)
            assert dual.is_ideal(members) == up_closed
            assert not p.is_ideal(members | {(0, 0, 5)})


def test_order_ideal_json_round_trip():
    ideal = OrderIdeal(3, frozenset({(0, 0, 0), (0, 0, 1)}))
    obj = ideal.to_json_obj()
    assert obj == {"n": 3, "vertices": [[0, 0, 0], [0, 0, 1]]}
    assert OrderIdeal.from_json_obj(obj) == ideal
    assert OrderIdeal.from_json_obj({"n": 3, "vertices": [(0, 0, 1)]}).members == {(0, 0, 1)}
    with pytest.raises(ValueError, match=re.escape("expected an integer, got '0'")):
        OrderIdeal.from_json_obj({"n": 3, "vertices": [[0, "0", 0]]})


@pytest.mark.parametrize(
    "vertex, shown",
    [(5, "5"), ([0, 0], "[0, 0]"), ([0, 0, 0, 0], "[0, 0, 0, 0]"), ("abc", "'abc'"),
     ({"c1": 0}, "{'c1': 0}"), (None, "None")],
)
def test_order_ideal_refuses_a_vertex_that_is_not_three_integers(vertex, shown):
    obj = {"n": 3, "vertices": [[0, 0, 0], vertex]}
    with pytest.raises(ValueError) as info:
        OrderIdeal.from_json_obj(obj)
    assert str(info.value) == f"expected a vertex of three integers, got {shown}"


@pytest.mark.parametrize(
    "obj, message",
    [([1, 2], 'expected an ideal: an object with "n" and "vertices" fields'),
     ({"vertices": []}, 'the ideal has no "n" field'),
     ({"n": 3}, 'the ideal has no "vertices" field'),
     ({"n": 3, "vertices": 5}, 'field "vertices" must be a list of vertices, got 5'),
     ({"n": 3, "vertices": "abc"}, 'field "vertices" must be a list of vertices, got \'abc\''),
     ({"n": 3, "vertices": {"c1": 0}},
      'field "vertices" must be a list of vertices, got {\'c1\': 0}')],
)
def test_order_ideal_refuses_a_payload_without_its_fields(obj, message):
    with pytest.raises(ValueError) as info:
        OrderIdeal.from_json_obj(obj)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "member",
    [(0, 0), (0, 0, 0, 0), 5, "abc", (0, 0, "x"), (-1, 0, 0), (0, 0, -1), (0, 2, 0), (2, 0, 0)],
)
def test_ideal_to_array_refuses_a_member_that_is_not_a_vertex(member):
    ideal = OrderIdeal(3, frozenset({(0, 0, 0), member}))
    with pytest.raises(ValueError) as info:
        ideal_to_array(ideal)
    assert str(info.value) == f"{member} is not a vertex of T_3"


def test_order_ideal_is_an_immutable_value():
    members = frozenset({(0, 0, 1), (0, 0, 0)})
    ideal = OrderIdeal(3, members)
    assert ideal == OrderIdeal(3, frozenset(members))
    assert ideal != OrderIdeal(4, members)
    assert ideal != OrderIdeal(3, frozenset({(0, 0, 0)}))
    assert ideal != (3, members)
    assert hash(ideal) == hash((3, members))
    assert len(ideal) == 2
    assert repr(OrderIdeal(2, frozenset({(0, 0, 0)}))) == (
        "OrderIdeal(n=2, members=frozenset({(0, 0, 0)}))"
    )
    for name, value in (("n", 4), ("members", frozenset()), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(ideal, name, value)
        with pytest.raises(AttributeError):
            delattr(ideal, name)
    assert (ideal.n, ideal.members) == (3, members)
    assert pickle.loads(pickle.dumps(ideal)) == ideal == copy.deepcopy(ideal)


def test_ideal_array_bijection_exhaustive():
    for n in (2, 3, 4):
        p = build(n)
        for colorset in all_admissible_sets():
            if Color.GREEN not in colorset:
                continue
            sub = p.subposet(colorset)
            arrays = set(enumerate_arrays(n, colorset))
            seen = set()
            for ideal in enumerate_ideals(sub):
                x = ideal_to_array(ideal)
                assert validate(x, colorset), (n, format_colors(colorset))
                assert weight(x) == len(ideal)
                assert array_to_ideal(x) == ideal
                seen.add(x)
            assert seen == arrays


def test_ideal_maps_match_chain_walk():
    cases = [
        (n, colors)
        for n in range(1, 5)
        for colors in all_admissible_sets()
        if Color.GREEN in colors
    ]
    cases += [(5, "bgoy"), (5, "rgoy"), (5, "rbg")]
    for n, colors in cases:
        for ideal in enumerate_ideals(build(n).subposet(colors)):
            x = ideal_to_array(ideal)
            assert x == chain_ideal_to_array(ideal), (n, colors, ideal)
            assert array_to_ideal(x) == chain_array_to_ideal(x), (n, colors, x)


def test_ideal_to_array_rejects_non_vertices():
    # T_3 has the vertices with nonnegative coordinates summing to at most 1
    cases = [(3, m) for m in [(-1, 0, 0), (0, -1, 1), (0, 0, -1), (0, 0, 2), (1, 1, 0)]]
    for n in (2, 4):
        top = (0, 0, n - 1)  # a vertex of T_{n+1}
        assert top in build(n + 1).vertices
        cases += [(n, m) for m in [top, (0, -1, 0), (-1, 0, 1)]]
    for n, member in cases:
        assert member not in build(n).vertices
        ideal = OrderIdeal(n, frozenset({(0, 0, 0), member}))
        with pytest.raises(ValueError, match=re.escape(f"{member} is not a vertex of T_{n}")):
            ideal_to_array(ideal)


def uncached_is_ideal(p, members):
    """The cover rule, evaluated afresh: members are vertices, and no cover
    leads from a non-member up to a member."""
    mset = set(members)
    return mset <= set(p.vertices) and not any(
        w in mset and v not in mset for v, w in p.covers()
    )


def test_is_ideal_cache_agrees_with_cover_rule():
    for n, colors in [(3, "rbgoys"), (4, "g"), (4, "rbg"), (4, "bgoy"), (4, "rgoy")]:
        p = build(n).subposet(colors)
        p.is_ideal(())  # fill the caches before deriving new subposets
        d = p.dual()
        d.is_ideal(())
        for q in (p, d, *p.components(), *d.components()):
            lower = q.predecessors()
            minimal = {v for v in q.vertices if not lower[v]}
            cases = []
            for ideal in enumerate_ideals(q):
                cases.append(ideal.members)
                cases += [ideal.members - {v} for v in ideal.members & minimal]
            cases += [{(0, 0, n - 1)}, {(-1, 0, 0)}, set(build(n).vertices)]
            assert any(not uncached_is_ideal(q, m) for m in cases)
            for members in cases:
                assert q.is_ideal(members) == uncached_is_ideal(q, members), (q, members)
                assert q.is_ideal(list(members)) == uncached_is_ideal(q, members)


def test_dot_output_shape():
    dot = to_dot(build(2).subposet("rbgoys"))
    assert dot == 'digraph "T2_rbgoys" {\n  "0,0,0";\n}\n'
    dot4 = to_dot(build(4).subposet("rbgoys"))
    assert dot4.count('";') == 10
    for name in ("red", "blue", "green", "orange", "yellow", "silver"):
        assert f"[color={name}];" in dot4


def test_dot_dual_reverses_arrows():
    p = build(3).subposet("g")
    assert '"0,0,0" -> "0,1,0" [color=green];' in to_dot(p)
    assert '"0,1,0" -> "0,0,0" [color=green];' in to_dot(p.dual())


def test_dot_dual_lists_every_edge_reversed():
    # each edge's color is read off its step, with the sign flipped for a dual
    arrow = re.compile(r'  "([0-9,]+)" -> "([0-9,]+)" \[color=([a-z]+)\];')

    def split(dot):
        lines = dot.splitlines()
        edges = [arrow.fullmatch(line).groups() for line in lines if "->" in line]
        return [line for line in lines if "->" not in line], edges

    p = build(4).subposet("rbgoys")
    vertices, up = split(to_dot(p))
    dual_vertices, down = split(to_dot(p.dual()))
    assert dual_vertices == vertices
    assert len(up) == len(p.covers())
    assert down == [(b, a, color) for a, b, color in up]
    assert {color for *_, color in up} == {c.name.lower() for c in Color}
