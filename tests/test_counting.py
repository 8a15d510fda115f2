import hashlib
from math import comb

import pytest

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
    rank_gf,
)
from tetraposet.counting import _linear_extension, _steps

from conftest import array_transfer_rank_gf, brute_force_ideal_sizes


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


def test_counts_build_no_subposet_maps(monkeypatch):
    """rank_gf and count_ideals read the covers once: no component
    subposets, no dual and no sorted adjacency maps."""
    def refuse(*args):
        raise AssertionError("a count built a per-component structure")

    for name in ("components", "predecessors", "successors", "dual"):
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


def test_counting_steps_run_component_by_component():
    """The counting table takes each component in one run, in order of least
    vertex, in the order and with the masks its own table gives, and the
    frontier is empty (need = keep = 0) exactly at the start of each."""
    for n in range(1, 7):
        p = build(n)
        for colorset in all_admissible_sets():
            for sub in (p.subposet(colorset), p.subposet(colorset).dual()):
                order, steps = _steps(sub, by_component=True)
                comps = sub.components()
                assert [min(c.vertices) for c in comps] == sorted(min(c.vertices) for c in comps)
                starts, t = [], 0
                for comp in comps:
                    own = _linear_extension(comp, comp.predecessors(), comp.successors())
                    assert order[t : t + len(own)] == own
                    assert steps[t : t + len(own)] == _steps(comp)[1]
                    starts.append(t)
                    t += len(own)
                assert t == len(order)
                assert [t for t, (need, _, keep) in enumerate(steps) if not need | keep] == starts


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
        comps = p.components()
        assert len(comps) > 1
        product = QPoly({0: 1})
        for comp in comps:
            product = product * QPoly(brute_force_ideal_sizes(comp))
        assert product == rank_gf(p)


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


def walked_ideals(p):
    """Every order ideal by recursion along the linear extension, leaving a
    vertex out before putting it in: the order enumerate_ideals must keep."""
    pred = p.predecessors()
    order = _linear_extension(p, pred, p.successors())
    member = {}

    def walk(t):
        if t == len(order):
            yield OrderIdeal(p.n, frozenset(v for v, b in member.items() if b))
            return
        u = order[t]
        member[u] = False
        yield from walk(t + 1)
        if all(member[v] for v in pred[u]):
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
