import hashlib
import tracemalloc
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tetraposet import (
    BudgetError,
    Color,
    OrderIdeal,
    QPoly,
    all_admissible_sets,
    array_rank_gf,
    build,
    Subposet,
    cli,
    count_arrays,
    count_ideals,
    counting,
    enumerate_ideals,
    format_colors,
    formula_count,
    formula_rank_gf,
    parse_colors,
    rank_gf,
)
from tetraposet.arrays import _row_assignments, _row_transfer
from tetraposet.counting import _last_use, _linear_extension, _run, _table
from tetraposet.poset import _adjacency, _label_components

from conftest import (
    array_transfer_rank_gf,
    brute_force_ideal_sizes,
    components,
    get_merge_run,
    vertex_component_tables,
    vertex_steps,
)


def test_brute_force_oracle_all_sets_small_n():
    for n in (2, 3):
        p = build(n)
        for colorset in all_admissible_sets():
            sub = p.subposet(colorset)
            assert rank_gf(sub).coefficients() == brute_force_ideal_sizes(sub)


def test_brute_force_oracle_n4():
    p = build(4)
    for colorset in all_admissible_sets():
        sub = p.subposet(colorset)
        assert rank_gf(sub).coefficients() == brute_force_ideal_sizes(sub)


def test_brute_force_oracle_n5():
    # rs splits T_5 into several components, so the gf product is exercised
    p = build(5)
    for colors in ("rgy", "bgs", "rs"):
        sub = p.subposet(colors)
        assert rank_gf(sub).coefficients() == brute_force_ideal_sizes(sub)


def test_frontier_agrees_with_array_transfer():
    for n in range(1, 7):
        p = build(n)
        for colorset in all_admissible_sets():
            if Color.GREEN not in colorset:
                continue
            gf = rank_gf(p.subposet(colorset))
            assert gf == array_transfer_rank_gf(n, colorset)
            assert gf == array_rank_gf(n, colorset)


def test_count_is_gf_at_one():
    """count_ideals runs the DP at field width 0: it must equal the rank gf
    at q = 1 on every set and its dual, and the number of listed ideals."""
    for n in range(1, 8):
        p = build(n)
        for colorset in all_admissible_sets():
            for sub in (p.subposet(colorset), p.subposet(colorset).dual()):
                count = count_ideals(sub)
                assert count == rank_gf(sub)(1)
                if n <= 4:
                    assert count == sum(1 for _ in enumerate_ideals(sub))
    p = build(4).subposet("bgy")
    assert count_ideals(p) == 2 ** comb(4, 2)


def test_counts_build_no_polynomial(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a count built a polynomial")

    monkeypatch.setattr(counting, "rank_gf", refuse)
    monkeypatch.setattr(QPoly, "__mul__", refuse)
    assert count_ideals(build(6).subposet("rs")) == 162000  # five components
    assert count_arrays(6, "bgoy") == 7436
    assert cli.main(["count", "--n", "6", "--colors", "rgy"]) == 0
    assert capsys.readouterr().out == "161422\n"


# count_ideals of every admissible set at n = 5, and the sha256 of
# "colors:[coefficients]" over all 40 rank gfs joined by ";"
N5_COUNTS = {
    "": 1048576, "b": 34560, "g": 34560, "o": 34560, "r": 34560, "s": 34560, "y": 34560,
    "bg": 5880, "bo": 5880, "bs": 5880, "by": 2500, "go": 2500, "gs": 5880, "gy": 5880,
    "oy": 5880, "rg": 5880, "rs": 2500, "ry": 5880, "bgo": 1024, "bgs": 2498, "bgy": 1024,
    "bos": 1024, "boy": 1024, "goy": 1024, "gys": 1024, "rbg": 1024, "rgs": 1024,
    "rgy": 2498, "roy": 1024, "bgos": 429, "bgoy": 429, "bgys": 429, "rbgs": 429,
    "rbgy": 429, "rgoy": 429, "rgys": 429, "bgoys": 162, "rbgoy": 162, "rbgys": 202,
    "rbgoys": 66,
}
N5_GF_SHA256 = "5a61be8015643b7c9a32f3d182c9633ce059701dccfd32dad01ef69245e9aaa2"


# the sha256 of every ideal enumerate_ideals lists for the 40 sets at n = 4,
# each as repr(sorted(members)), joined by "," per set and ";" between sets
N4_IDEALS_SHA256 = "3939f808e4fb25d203447b3e8584803c346caedbff70e915c00270ea29d98d25"


def test_counts_build_no_subposet_maps(monkeypatch):
    """rank_gf, count_ideals and enumerate_ideals read the index covers
    once: no vertex pairs, no dual and no map of lower covers."""
    def refuse(*args):
        raise AssertionError("a count built a vertex map or vertex pairs")

    for name in ("covers", "predecessors", "dual", "is_ideal"):
        monkeypatch.setattr(Subposet, name, refuse)
    p = build(5)
    counts, gfs = {}, []
    for colorset in all_admissible_sets():
        sub = p.subposet(colorset)
        gf = rank_gf(sub)
        counts[format_colors(colorset)] = count_ideals(sub)
        gfs.append(f"{format_colors(colorset)}:{gf.to_coeff_list()}")
    assert counts == N5_COUNTS
    assert hashlib.sha256(";".join(gfs).encode()).hexdigest() == N5_GF_SHA256
    p = build(4)
    listed = ";".join(
        ",".join(repr(sorted(ideal.members)) for ideal in enumerate_ideals(p.subposet(colorset)))
        for colorset in all_admissible_sets()
    )
    assert hashlib.sha256(listed.encode()).hexdigest() == N4_IDEALS_SHA256


def _steps(p, by_component=False):
    """The heap's linear extension of p, as indices of p.vertices, and one
    step table over all of it. With by_component, the order is sorted stably
    by component label, as the engine sorts it, and each component starts
    exactly where need_mask = keep_mask = 0: the frontier is empty there and
    nowhere else."""
    lower, upper = _adjacency(len(p.vertices), p.index_covers)
    order = _linear_extension(lower, upper)
    if by_component:
        order.sort(key=_label_components(lower, upper)[0].__getitem__)
    return order, _table(order, lower, _last_use(order, lower))


def test_tables_match_vertex_keyed_oracle():
    """The index engine's orders and step tables equal those of the vertex-
    keyed builder in conftest, whose heap pops (label, vertex) pairs, on
    every set and its dual, so every mask, DP state and gf is the one the
    vertex tuples give. The engine's distinct tables, with their counts and
    in order of first component, are the oracle's per-component list
    grouped."""
    for n in range(1, 7):
        p = build(n)
        for colorset in all_admissible_sets():
            for sub in (p.subposet(colorset), p.subposet(colorset).dual()):
                for by_component in (False, True):
                    order, steps = _steps(sub, by_component)
                    oracle_order, oracle_steps, _ = vertex_steps(sub, by_component)
                    assert [sub.vertices[i] for i in order] == oracle_order
                    assert steps == tuple(oracle_steps)
                grouped = Counter((tuple(steps), dual) for steps, dual in vertex_component_tables(sub))
                assert list(counting._component_tables(sub).items()) == list(grouped.items())


def test_run_matches_get_merge_oracle():
    """_run equals the get-based merge in conftest on every component table
    of every set and its dual at n <= 6, counting (width 0) and packing the
    rank gf (width size + 1)."""
    for n in range(1, 7):
        p = build(n)
        for colorset in all_admissible_sets():
            for sub in (p.subposet(colorset), p.subposet(colorset).dual()):
                for steps, _ in counting._component_tables(sub):
                    for width in (0, len(steps) + 1):
                        assert _run(steps, width, 10**8) == get_merge_run(steps, width)


def test_run_shares_unmerged_state_ints():
    """A state whose base is new to a step keeps its int, so the packed rank
    gf DP over T_9(rbgoys) peaks at under 0.8 of the get-based merge's
    memory, which copies every such int (0.67 when this was written)."""
    tables = [steps for steps, _ in counting._component_tables(build(9).subposet("rbgoys"))]

    def peak(run) -> int:
        tracemalloc.start()
        try:
            for steps in tables:
                run(steps, len(steps) + 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    engine = peak(lambda steps, width: _run(steps, width, 10**8))
    assert engine <= 0.8 * peak(get_merge_run)


def index_covers(p):
    """p's lower and upper covers as lists over the indices of p.vertices,
    read from its vertex pairs."""
    index = {v: i for i, v in enumerate(p.vertices)}
    lower = [[] for _ in p.vertices]
    upper = [[] for _ in p.vertices]
    for v, w in p.covers():
        upper[index[v]].append(index[w])
        lower[index[w]].append(index[v])
    return lower, upper


@st.composite
def component_dags(draw):
    """Index covers of a DAG on at most 12 vertices, split into groups that
    no edge crosses, each group's edges running up a random order of it."""
    size = draw(st.integers(0, 12))
    group = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    rank = draw(st.permutations(range(size)))
    pairs = [(v, w) for v in range(size) for w in range(size)
             if group[v] == group[w] and rank[v] < rank[w]]
    return size, [pair for pair in pairs if draw(st.booleans())]


def least_ready_first(vertices, lower):
    """The extension that takes the least index whose lower covers are all
    taken, again and again: the order a heap of indices gives."""
    taken, order = set(), []
    while len(order) < len(vertices):
        v = min(v for v in vertices if v not in taken and taken.issuperset(lower[v]))
        taken.add(v)
        order.append(v)
    return order


@settings(max_examples=200, deadline=None)
@given(component_dags())
def test_heap_order_sorted_by_label_is_each_components_own(dag):
    """_linear_extension is the least-ready-index order, and sorting it
    stably by component label lists each component in its own least-ready
    order, the components in label order."""
    size, index_covers = dag
    lower, upper = _adjacency(size, index_covers)
    order = _linear_extension(lower, upper)
    assert order == least_ready_first(range(size), lower)
    label, sizes = _label_components(lower, upper)
    own = [least_ready_first([v for v in range(size) if label[v] == c], lower)
           for c in sorted(set(label))]
    assert sorted(order, key=label.__getitem__) == [v for comp in own for v in comp]
    assert list(map(len, own)) == sizes


def test_counting_steps_run_component_by_component():
    """The counting table takes each component in one run, in order of least
    vertex, in the order and with the masks its own table gives, and the
    frontier is empty (need = keep = 0) exactly at the start of each."""
    for n in range(1, 7):
        p = build(n)
        for colorset in all_admissible_sets():
            for sub in (p.subposet(colorset), p.subposet(colorset).dual()):
                order, steps = _steps(sub, by_component=True)
                order = [sub.vertices[i] for i in order]
                comps = components(sub)
                assert [min(c.vertices) for c in comps] == sorted(min(c.vertices) for c in comps)
                starts, t = [], 0
                for comp in comps:
                    own = [comp.vertices[i] for i in _linear_extension(*index_covers(comp))]
                    assert order[t : t + len(own)] == own
                    assert steps[t : t + len(own)] == _steps(comp)[1]
                    starts.append(t)
                    t += len(own)
                assert t == len(order)
                assert [t for t, (need, _, keep) in enumerate(steps) if not need | keep] == starts


def _sides(comp):
    """A component's step tables on side A (its heap order) and side B (the
    dual, in the reverse order), built apart from the engine's choice."""
    lower, upper = _adjacency(len(comp.vertices), comp.index_covers)
    order = _linear_extension(lower, upper)
    reverse = order[::-1]
    side_a = _table(order, lower, _last_use(order, lower))
    return side_a, _table(reverse, upper, _last_use(reverse, upper))


def _width(steps):
    """The slots held after each step, summed over the steps."""
    return sum((keep | u_bit).bit_count() for _, u_bit, keep in steps)


def test_both_sides_give_the_reversed_gf():
    """Each component's gf from side A equals its side-B gf reversed at its
    size, and the engine takes B exactly when B's width sum is the smaller:
    its tables are the chosen sides of the components, grouped."""
    budget = 10**8
    for n in range(1, 6):
        p = build(n)
        for colorset in all_admissible_sets():
            for sub in (p.subposet(colorset), p.subposet(colorset).dual()):
                chosen = Counter()
                for comp in components(sub):
                    side_a, side_b = _sides(comp)
                    width = len(comp.vertices) + 1
                    field = (1 << width) - 1
                    gf_a, gf_b = (
                        [_run(side, width, budget) >> (s * width) & field for s in range(width)]
                        for side in (side_a, side_b)
                    )
                    assert gf_a == gf_b[::-1]
                    assert _run(side_a, 0, budget) == _run(side_b, 0, budget) == sum(gf_a)
                    dual = _width(side_b) < _width(side_a)
                    chosen[side_b if dual else side_a, dual] += 1
                assert list(counting._component_tables(sub).items()) == list(chosen.items())


def _dp_states(steps):
    """The live states after each step of the DP over a table, summed."""
    states, total = {0}, 0
    for need, u_bit, keep in steps:
        states = {mask & keep for mask in states} | {
            mask & keep | u_bit for mask in states if mask & need == need
        }
        total += len(states)
    return total


def test_narrower_side_dp_states_n7():
    """The DP states summed over the chosen tables at n = 7. On side A alone
    the same sums are 131,914 and 48,772, and bgs takes 15,453."""
    deep = {"rgy", "bgs", "bgoy", "rgoy", "rbg", "rbgoys", "rs", "ry", "roy", "boy", "r"}
    p = build(7)
    states = {
        format_colors(colorset): sum(
            _dp_states(steps) * m
            for (steps, _), m in counting._component_tables(p.subposet(colorset)).items()
        )
        for colorset in all_admissible_sets()
    }
    assert states["bgs"] == 4165
    assert sum(states.values()) == 105097
    assert sum(states[colors] for colors in deep) == 34690


def test_empty_color_set_counts_antichain():
    p = build(3).subposet(frozenset())
    assert count_ideals(p) == 2 ** comb(4, 3)


def test_dual_count_equal_and_gf_reversed():
    for n in (2, 3, 4, 5):
        p = build(n)
        for colorset in all_admissible_sets():
            sub = p.subposet(colorset)
            d = sub.dual()
            assert count_ideals(sub) == count_ideals(d)
            assert rank_gf(d) == rank_gf(sub).reversed_poly(comb(n + 1, 3))


def test_component_generating_functions_multiply():
    for colors in ("rbg", "rs", "r"):
        p = build(5).subposet(colors)
        comps = components(p)
        assert len(comps) > 1
        product = QPoly({0: 1})
        for comp in comps:
            product = product * QPoly(brute_force_ideal_sizes(comp))
        assert product == rank_gf(p)


def test_many_component_gfs_equal_the_closed_form(monkeypatch):
    """105, 14 and 14 components at n = 15 with 14, 13 and 14 distinct
    tables; the last products of the tree pack fields of 14 bytes or more.
    The gf and the count each run every distinct table once."""
    runs = []
    run = counting._run
    monkeypatch.setattr(counting, "_run", lambda steps, *args: runs.append(steps) or run(steps, *args))
    for colors, components, distinct in (("g", 105, 14), ("rs", 14, 13), ("rbg", 14, 14)):
        p = build(15).subposet(colors)
        assert sum(counting._component_tables(p).values()) == components
        runs.clear()
        assert rank_gf(p) == formula_rank_gf(colors, 15)
        assert count_ideals(p) == formula_count(colors, 15)
        assert len(runs) == len(set(runs)) * 2 == distinct * 2


def test_tournament_class_shares_one_gf():
    # all nine formula-bearing 3-color sets have the same rank distribution
    for n in (3, 4, 5):
        p = build(n)
        gfs = {
            rank_gf(p.subposet(colors))
            for colors in ("bos", "gys", "roy", "rbg", "rgs", "boy", "goy", "bgo", "bgy")
        }
        assert len(gfs) == 1
        assert gfs.pop()(1) == 2 ** comb(n, 2)


def test_unformula_pair_is_dual():
    for n in (2, 3, 4, 5):
        p = build(n)
        rgy = rank_gf(p.subposet("rgy"))
        bgs = rank_gf(p.subposet("bgs"))
        assert bgs == rgy.reversed_poly(comb(n + 1, 3))


def test_unformula_pair_regression_n9():
    # the gfs at n = 10 and up take too long here; the counts are pinned below
    p = build(9)
    rgy = rank_gf(p.subposet("rgy"))
    bgs = rank_gf(p.subposet("bgs"))
    assert rgy(1) == bgs(1) == 11337432232915
    assert bgs == rgy.reversed_poly(comb(10, 3))


def test_unformula_pair_counts_past_the_gf():
    """The count-only DP pins the README values the gf is too slow for."""
    assert count_ideals(build(11).subposet("rgy")) == 211454683487501523010
    assert count_ideals(build(10).subposet("bgs")) == 30523827764041406
    assert count_ideals(build(11).subposet("bgs")) == 211454683487501523010


def row_transfer_count(n, colors):
    """|Y_n(S)| by the row transfer over the staircase rows of
    arrays._row_assignments, each with unit weight: no subposet, no frontier
    DP."""
    colorset = parse_colors(colors)
    counts = _row_transfer(
        n, lambda i, below: ((row, 0, 1) for row in _row_assignments(i, colorset, below))
    )
    return counts[0]


def test_row_transfer_counts_the_formula_free_pair_n9():
    """An independent route to the DP's counts of rgy and bgs at n = 9
    (about 2 s each); CI runs the same check at n = 10."""
    for colors in ("rgy", "bgs"):
        count = count_ideals(build(9).subposet(colors))
        assert row_transfer_count(9, colors) == count == 11337432232915


def test_formula_free_five_color_sets():
    # bgoys and rbgoy are dual, rbgys is self-dual; no closed formula is known
    pair = [1, 2, 6, 26, 162, 1450, 18626, 343210]
    self_dual = [1, 2, 6, 28, 202, 2252, 38756, 1028964]
    for n in range(1, 9):
        p = build(n)
        top = comb(n + 1, 3)
        bgoys = rank_gf(p.subposet("bgoys"))
        rbgoy = rank_gf(p.subposet("rbgoy"))
        rbgys = rank_gf(p.subposet("rbgys"))
        assert bgoys(1) == rbgoy(1) == pair[n - 1]
        assert rbgoy == bgoys.reversed_poly(top)
        assert rbgys(1) == self_dual[n - 1]
        assert rbgys == rbgys.reversed_poly(top)


def test_enumerate_ideals_matches_count_and_is_deterministic():
    p = build(4).subposet("gyor")
    ideals = list(enumerate_ideals(p))
    assert len(ideals) == count_ideals(p) == 42
    assert len(set(ideals)) == 42
    assert all(p.is_ideal(i.members) for i in ideals)
    assert [i.members for i in ideals] == [i.members for i in enumerate_ideals(p)]
    sizes = {}
    for i in ideals:
        sizes[len(i)] = sizes.get(len(i), 0) + 1
    assert QPoly(sizes) == rank_gf(p)


def test_cyclic_covers_are_refused(monkeypatch):
    """Covers with a cycle have no linear extension: the engine refuses them
    rather than count over the vertices the heap reached."""
    q = build(3).subposet("rbg")
    v, w = q.index_covers[0]
    monkeypatch.setattr(q, "index_covers", (*q.index_covers, (w, v)))
    for call in (count_ideals, rank_gf):
        with pytest.raises(ValueError, match="cover relation contains a cycle"):
            call(q)


def walked_ideals(p):
    """Every order ideal by recursion along the linear extension, leaving a
    vertex out before putting it in: the order enumerate_ideals must keep."""
    lower, upper = index_covers(p)
    order = _linear_extension(lower, upper)
    member = {}

    def walk(t):
        if t == len(order):
            yield OrderIdeal(p.n, frozenset(p.vertices[i] for i, b in member.items() if b))
            return
        u = order[t]
        member[u] = False
        yield from walk(t + 1)
        if all(member[v] for v in lower[u]):
            member[u] = True
            yield from walk(t + 1)
        del member[u]

    yield from walk(0)


def test_enumerate_ideals_matches_recursive_walk():
    # n = 1 has no vertices and exactly one (empty) ideal
    for n in range(1, 5):
        p = build(n)
        total = 0
        for colorset in all_admissible_sets():
            sub = p.subposet(colorset)
            walked = list(walked_ideals(sub))
            assert list(enumerate_ideals(sub)) == walked
            total += len(walked)
    assert total == 5318  # over all 40 sets at n = 4
    p = build(5)
    for colorset in ("bgoy", "rgoy", "rbg"):
        sub = p.subposet(colorset)
        assert list(enumerate_ideals(sub)) == list(walked_ideals(sub))
    dual = build(4).subposet("rgy").dual()
    assert list(enumerate_ideals(dual)) == list(walked_ideals(dual))


def test_enumerate_ideals_budget(monkeypatch):
    p = build(4).subposet("brg")
    monkeypatch.setenv("TETRAPOSET_BUDGET", "10")
    with pytest.raises(BudgetError):
        list(enumerate_ideals(p))
    monkeypatch.setenv("TETRAPOSET_BUDGET", "64")
    assert len(list(enumerate_ideals(p))) == 64


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("TETRAPOSET_BUDGET", "5")
    p = build(3).subposet("brg")
    with pytest.raises(BudgetError):
        list(enumerate_ideals(p))
    monkeypatch.setenv("TETRAPOSET_BUDGET", "not a number")
    with pytest.raises(ValueError):
        list(enumerate_ideals(p))


def test_rank_gf_refuses_more_live_states_than_the_budget(monkeypatch):
    p = build(5).subposet("rgs")
    gf = rank_gf(p)
    peak = 1
    while True:  # the least budget that lets the DP through is its peak
        monkeypatch.setenv("TETRAPOSET_BUDGET", str(peak))
        try:
            assert rank_gf(p) == gf
            break
        except BudgetError:
            peak += 1
    assert peak > 5
    monkeypatch.setenv("TETRAPOSET_BUDGET", str(peak - 1))
    with pytest.raises(BudgetError, match=f"^refusing to enumerate {peak} DP states "):
        count_ideals(p)


def test_dual_on_frontier_only_path():
    # silver-only has no green, forcing the frontier engine on both sides
    p = build(4).subposet("s")
    assert count_ideals(p) == count_ideals(p.dual())
    assert rank_gf(p.dual()) == rank_gf(p).reversed_poly(comb(5, 3))
