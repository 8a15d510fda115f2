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
    count_ideals,
    enumerate_ideals,
    rank_gf,
)
from tetraposet.counting import _linear_extension

from conftest import brute_force_ideal_sizes


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
    for n in range(2, 7):
        p = build(n)
        for colorset in all_admissible_sets():
            if Color.GREEN not in colorset:
                continue
            sub = p.subposet(colorset)
            assert rank_gf(sub) == array_rank_gf(n, colorset)


def test_count_is_gf_at_one():
    p = build(4).subposet("bgy")
    assert count_ideals(p) == rank_gf(p)(1) == 2 ** comb(4, 2)


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
    # README records n = 10 and 11, checked the same way but too slow here
    p = build(9)
    rgy = rank_gf(p.subposet("rgy"))
    bgs = rank_gf(p.subposet("bgs"))
    assert rgy(1) == bgs(1) == 11337432232915
    assert bgs == rgy.reversed_poly(comb(10, 3))


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
        for colorset in all_admissible_sets():
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


def test_dual_on_frontier_only_path():
    # silver-only has no green, forcing the frontier engine on both sides
    p = build(4).subposet("s")
    assert count_ideals(p) == count_ideals(p.dual())
    assert rank_gf(p.dual()) == rank_gf(p).reversed_poly(comb(5, 3))
