import gc
import re
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from tetraposet import (
    ASM_COLORS,
    Asm,
    BudgetError,
    QPoly,
    SparsePoly,
    StaircaseArray,
    array_rank_gf,
    array_stats,
    array_to_asm,
    asm_expansion_rhs,
    asm_stats,
    asm_to_mt,
    enumerate_arrays,
    enumerate_asms,
    enumerate_tournaments,
    pairwise_product,
    robbins_rumsey_rhs,
    schur_expansion_rhs,
    sort_to_tsscpp,
    three_color_product,
    tournament_gf,
    tournament_to_array,
    tsscpp_expansion_rhs,
    tsscpp_lambda_count,
    verify_formulas,
    verify_identity,
    weight,
)
from tetraposet import arrays, identities
from tetraposet.arrays import value_count_gf
from tetraposet.identities import SCHUR_COLORS, _mt_rows
from tetraposet.polynomials import FIELD

from conftest import (
    array_transfer_rank_gf,
    enumerated_tsscpp_expansion_rhs,
    enumerated_tsscpp_lambda_count,
    evaluate,
    lam,
    principal_specialization,
    rise_drop_count,
    value_counts,
)


def _value_count_xs(x, n):
    counts = value_counts(x)
    return tuple((k, counts[k] - 1) for k in range(1, n + 1) if counts.get(k, 0) > 1)


def enumerated_rr_rhs(n):
    """Oracle for robbins_rumsey_rhs: the sum over every enumerated
    alternating sign matrix, with (1+lambda)^neg multiplied out by the ring's
    own power."""
    by_neg = {}
    for x in enumerate_arrays(n, ASM_COLORS):
        a = array_to_asm(x)
        st = asm_stats(a)
        key = st.inversions - st.neg_count
        for j, column in enumerate(zip(*a.rows), start=1):
            key += sum((n - i) * v for i, v in enumerate(column, start=1)) << j * FIELD
        terms = by_neg.setdefault(st.neg_count, {})
        terms[key] = terms.get(key, 0) + 1
    out = SparsePoly()
    for neg, terms in by_neg.items():
        out = out + SparsePoly._make(terms) * (1 + lam()) ** neg
    return out


def enumerated_asm_rhs(n):
    """Oracle for asm_expansion_rhs: the sum over every enumerated array."""
    terms = {}
    for x in enumerate_arrays(n, ASM_COLORS):
        eq_total = array_stats(x).eq_total
        drops = rise_drop_count(x)
        xs = _value_count_xs(x, n)
        for m in range(drops + 1):
            key = (eq_total + m, xs)
            terms[key] = terms.get(key, 0) + comb(drops, m)
    return SparsePoly(terms)


def enumerated_schur_rhs(n):
    """Oracle for schur_expansion_rhs: the sum over every enumerated array."""
    terms = {}
    for x in enumerate_arrays(n, SCHUR_COLORS):
        key = (0, _value_count_xs(x, n))
        terms[key] = terms.get(key, 0) + 1
    return SparsePoly(terms)


@pytest.mark.parametrize("name", ["rr", "asm", "tsscpp", "schur"])
def test_expansion_identities(name):
    for n in range(1, 5):
        report = verify_identity(name, n)
        assert report["status"] == "ok"
        assert report["first_diff_monomial"] is None
        assert report["identity"] == name
        assert report["n"] == n
        assert report["elapsed_ms"] >= 0


def test_tsscpp_identity_at_n7():
    assert verify_identity("tsscpp", 7)["status"] == "ok"


@pytest.mark.parametrize("name", ["asm", "schur"])
def test_value_count_identities_at_n7(name):
    assert verify_identity(name, 7)["status"] == "ok"


def test_tsscpp_transfer_matches_enumeration():
    for n in range(1, 6):
        assert tsscpp_expansion_rhs(n) == enumerated_tsscpp_expansion_rhs(n)
    with pytest.raises(ValueError, match="at least 1"):
        tsscpp_expansion_rhs(0)


def test_tsscpp_transfer_checks_every_sorted_row(monkeypatch):
    """A {b,r,g} row whose sort breaks a {b,r,g,y} inequality over the sorted
    row below must stop the transfer, as sort_to_tsscpp stops on an array."""
    real = identities._row_assignments

    def with_unsorted_row(i, colors, below):
        rows = real(i, colors, below)
        if colors == arrays.TOURNAMENT_COLORS and below:
            rows.append((i,) * (len(below) + 1))  # breaks red once row i+1 rises
        return rows

    monkeypatch.setattr(identities, "_row_assignments", with_unsorted_row)
    with pytest.raises(RuntimeError, match="red or blue"):
        tsscpp_expansion_rhs(3)


def test_rr_identity_at_n7():
    assert verify_identity("rr", 7)["status"] == "ok"


def test_rr_mt_rows_follow_the_monotone_triangles():
    """The rows S_{i-1} of the monotone triangles of the n x n alternating
    sign matrices are every k-subset of 1..n for k < n (S_0 = ()), and
    _mt_rows(n, S_{i-1}) has exactly the rows S_i that follow each one."""
    for n in range(1, 6):
        follow = {}
        for a in enumerate_asms(n):
            rows = ((), *asm_to_mt(a).rows)
            for prev, row in zip(rows, rows[1:]):
                follow.setdefault(prev, set()).add(row)
        subsets = {s for k in range(n) for s in combinations(range(1, n + 1), k)}
        assert follow.keys() == subsets
        for prev, nxt in follow.items():
            assert _mt_rows(n, prev).keys() == nxt


def test_rr_keeps_nothing_after_it_returns():
    """Each state's interlacing rows are built as the transfer consumes the
    state and are dropped with it, so nothing the call allocated outlives it
    (a process-lifetime cache kept 186 KB at n = 7)."""
    robbins_rumsey_rhs(2)  # first-call imports and tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        robbins_rumsey_rhs(7)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 32 * 1024


def test_value_count_keeps_nothing_after_it_returns():
    """Each row's x-part is kept for one call only, so nothing value_count_gf
    allocated outlives it. The warm-up runs the same rows with a null weight,
    filling the cell-value tables (bounded by n and the colors) but nothing
    the weights compute."""
    arrays._row_transfer(
        7, lambda i, below: ((row, 0, 1) for row in arrays._row_assignments(i, ASM_COLORS, below))
    )
    for equalities in (True, False):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            value_count_gf(7, ASM_COLORS, equalities=equalities)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 32 * 1024


def test_rr_transfer_matches_enumeration():
    for n in range(1, 7):
        assert robbins_rumsey_rhs(n) == enumerated_rr_rhs(n)
    with pytest.raises(ValueError, match="at least 1"):
        robbins_rumsey_rhs(0)


def test_count_identity():
    for n in range(1, 6):
        assert verify_identity("tsscpp-count", n)["status"] == "ok"


def test_lambda_count_transfer_matches_enumeration():
    for n in range(1, 7):
        assert tsscpp_lambda_count(n) == enumerated_tsscpp_lambda_count(n)
    with pytest.raises(ValueError, match="at least 1"):
        tsscpp_lambda_count(0)


def test_unknown_identity_name():
    with pytest.raises(ValueError):
        verify_identity("nope", 3)


def test_formula_reports_all_ok():
    for n in (2, 3, 4):
        rows = verify_formulas(n)
        assert rows and all(r["status"] == "ok" for r in rows)
        names = {r["identity"] for r in rows}
        assert "formulas:rbgoys" in names
        assert "formulas:rgy" not in names
        assert "formulas:bgs" not in names


def test_lambda_count_is_binomial_power():
    one = SparsePoly.constant(1)
    for n in range(1, 9):
        assert tsscpp_lambda_count(n) == (one + lam()) ** comb(n, 2)


def test_transfer_sums_match_enumeration():
    for n in range(1, 6):
        assert asm_expansion_rhs(n) == enumerated_asm_rhs(n)
        assert schur_expansion_rhs(n) == enumerated_schur_rhs(n)


def test_transfer_sums_at_n6():
    for n in (6, 7):  # n = 7 folds many row-1 fillings into the last state
        assert asm_expansion_rhs(n) == tournament_gf(n)
        assert schur_expansion_rhs(n) == pairwise_product(n)


def test_transfer_sums_budget(monkeypatch):
    monkeypatch.setenv("TETRAPOSET_BUDGET", "5")
    with pytest.raises(BudgetError, match="transfer terms"):
        schur_expansion_rhs(4)
    with pytest.raises(BudgetError, match="transfer terms"):
        asm_expansion_rhs(4)
    with pytest.raises(BudgetError, match="transfer terms"):
        robbins_rumsey_rhs(6)
    with pytest.raises(BudgetError, match="transfer terms"):
        value_count_gf(4, ASM_COLORS, equalities=False)
    with pytest.raises(BudgetError, match="transfer terms"):
        tsscpp_lambda_count(6)
    monkeypatch.setenv("TETRAPOSET_BUDGET", "100")
    assert asm_expansion_rhs(4) == tournament_gf(4)
    assert robbins_rumsey_rhs(4) == tournament_gf(4)
    assert tsscpp_lambda_count(4) == enumerated_tsscpp_lambda_count(4)
    assert array_transfer_rank_gf(4, ASM_COLORS) == array_rank_gf(4, ASM_COLORS)


def test_transfer_budget_is_checked_per_state(monkeypatch):
    # one row of rr at n = 30 holds many times the budget; the running count
    # stops the transfer soon after it passes the budget
    monkeypatch.setenv("TETRAPOSET_BUDGET", "100000")
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="transfer terms") as info:
        robbins_rumsey_rhs(30)
    assert time.perf_counter() - start < 1.0
    named = int(re.search(r"enumerate (\d+) ", str(info.value)).group(1))
    assert 100000 < named <= 200000


def test_schur_rhs_equals_pairwise_product():
    for n in range(1, 5):
        assert schur_expansion_rhs(n) == pairwise_product(n)


def test_pairwise_product_specializes_to_three_color_gf():
    for n in range(2, 6):
        lhs = principal_specialization(pairwise_product(n))
        assert lhs == QPoly.q(comb(n, 3)) * three_color_product(n)


def test_rr_equals_tournament_gf_spot():
    gf = tournament_gf(3)
    rhs = robbins_rumsey_rhs(3)
    assert gf == rhs
    assert evaluate(gf, 1, 1) == 8


def test_asm_statistics_worked_example(asm4_rows, array4_rows):
    a = Asm(asm4_rows)
    st = asm_stats(a)
    assert st.inversions == 4
    assert st.neg_count == 1
    x = StaircaseArray(array4_rows)
    xst = array_stats(x)
    assert xst.eq_total == 3
    assert xst.eq_diag == (0, 0, 0, 1, 2)
    assert rise_drop_count(x) == 1


def test_statistics_records_are_immutable_values(asm4_rows, array4_rows):
    st = asm_stats(Asm(asm4_rows))
    assert (st.inversions, st.neg_count) == (4, 1)
    assert repr(st) == "AsmStats(inversions=4, neg_count=1)"
    xst = array_stats(StaircaseArray(array4_rows))
    assert (xst.eq_total, xst.eq_row, xst.eq_diag) == (3, (0, 2, 1, 0), (0, 0, 0, 1, 2))
    assert repr(xst) == "ArrayStats(eq_total=3, eq_row=(0, 2, 1, 0), eq_diag=(0, 0, 0, 1, 2))"
    for record, name in ((st, "neg_count"), (xst, "eq_total")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_asm_statistics_exhaustive():
    for n in range(1, 6):
        for x in enumerate_arrays(n, ASM_COLORS):
            a = array_to_asm(x)
            ast = asm_stats(a)
            counts = value_counts(x)
            assert ast.neg_count == rise_drop_count(x)
            assert ast.inversions - ast.neg_count == array_stats(x).eq_total
            for j in range(1, n + 1):
                col = sum((n - i) * a.rows[i - 1][j - 1] for i in range(1, n + 1))
                assert counts.get(j, 0) - 1 == col


def test_eq_splits_are_consistent():
    for n in (3, 4):
        for x in enumerate_arrays(n, "brg"):
            st = array_stats(x)
            assert st.eq_total == sum(st.eq_row) == sum(st.eq_diag)
            assert st.eq_diag[0] == st.eq_diag[1] == 0


def test_wins_decompose_by_diagonal_and_row():
    for n in (2, 3, 4):
        for t in enumerate_tournaments(n):
            beta = tournament_to_array(t)
            alpha = sort_to_tsscpp(beta)
            bst = array_stats(beta)
            ast = array_stats(alpha)
            for v in range(1, n + 1):
                expected = bst.eq_diag[v] + n - v - ast.eq_row[v - 1]
                assert t.wins(v) == expected


def test_value_counts_track_weight():
    for n in (2, 3, 4):
        for x in enumerate_arrays(n, "gyo"):
            total = sum((k - 1) * (c - 1) for k, c in value_counts(x).items())
            assert total == weight(x) + comb(n, 3)
