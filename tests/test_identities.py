from math import comb

import pytest

from tetraposet import (
    ASM_COLORS,
    Asm,
    BudgetError,
    QPoly,
    SparsePoly,
    StaircaseArray,
    array_stats,
    array_to_asm,
    asm_expansion_rhs,
    asm_stats,
    enumerate_arrays,
    enumerate_tournaments,
    pairwise_product,
    principal_specialization,
    robbins_rumsey_rhs,
    schur_expansion_rhs,
    sort_to_tsscpp,
    three_color_product,
    tournament_gf,
    tournament_to_array,
    tsscpp_lambda_count,
    verify_formulas,
    verify_identity,
    weight,
)
from tetraposet.identities import SCHUR_COLORS

from conftest import evaluate


def _value_count_xs(st, n):
    return tuple(
        (k, st.value_counts[k] - 1)
        for k in range(1, n + 1)
        if st.value_counts.get(k, 0) > 1
    )


def enumerated_asm_rhs(n):
    """Oracle for asm_expansion_rhs: the sum over every enumerated array."""
    terms = {}
    for x in enumerate_arrays(n, ASM_COLORS):
        st = array_stats(x)
        xs = _value_count_xs(st, n)
        for m in range(st.rise_drop_count + 1):
            key = (st.eq_total + m, xs)
            terms[key] = terms.get(key, 0) + comb(st.rise_drop_count, m)
    return SparsePoly(terms)


def enumerated_schur_rhs(n):
    """Oracle for schur_expansion_rhs: the sum over every enumerated array."""
    terms = {}
    for x in enumerate_arrays(n, SCHUR_COLORS):
        key = (0, _value_count_xs(array_stats(x), n))
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


def test_count_identity():
    for n in range(1, 6):
        assert verify_identity("tsscpp-count", n)["status"] == "ok"


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
    lam = SparsePoly.lam()
    one = SparsePoly.constant(1)
    for n in range(1, 6):
        assert tsscpp_lambda_count(n) == (one + lam) ** comb(n, 2)


def test_transfer_sums_match_enumeration():
    for n in range(1, 6):
        assert asm_expansion_rhs(n) == enumerated_asm_rhs(n)
        assert schur_expansion_rhs(n) == enumerated_schur_rhs(n)


def test_transfer_sums_at_n6():
    assert asm_expansion_rhs(6) == tournament_gf(6)
    assert schur_expansion_rhs(6) == pairwise_product(6)


def test_transfer_sums_budget(monkeypatch):
    monkeypatch.setenv("TETRAPOSET_BUDGET", "5")
    with pytest.raises(BudgetError, match="transfer terms"):
        schur_expansion_rhs(4)
    with pytest.raises(BudgetError, match="transfer terms"):
        asm_expansion_rhs(4)
    monkeypatch.setenv("TETRAPOSET_BUDGET", "100")
    assert asm_expansion_rhs(4) == tournament_gf(4)


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
    xst = array_stats(StaircaseArray(array4_rows))
    assert xst.eq_total == 3
    assert xst.eq_diag == (0, 0, 0, 1, 2)
    assert xst.rise_drop_count == 1


def test_asm_statistics_exhaustive():
    for n in range(1, 6):
        for x in enumerate_arrays(n, ASM_COLORS):
            a = array_to_asm(x)
            ast = asm_stats(a)
            xst = array_stats(x)
            assert ast.neg_count == xst.rise_drop_count
            assert ast.inversions - ast.neg_count == xst.eq_total
            for j in range(1, n + 1):
                col = sum((n - i) * a.rows[i - 1][j - 1] for i in range(1, n + 1))
                assert xst.value_counts.get(j, 0) - 1 == col


def test_eq_splits_are_consistent():
    for n in (3, 4):
        for x in enumerate_arrays(n, "brg"):
            st = array_stats(x)
            assert st.eq_total == sum(st.eq_row) == sum(st.eq_diag)
            assert st.eq_diag[0] == st.eq_diag[1] == 0
            assert st.eq_total == sum(st.eq_row_value.values())


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
            st = array_stats(x)
            total = sum((k - 1) * (c - 1) for k, c in st.value_counts.items())
            assert total == weight(x) + comb(n, 3)
