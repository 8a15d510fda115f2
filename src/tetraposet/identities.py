"""Generating function identities verified by exact expansion.

Everything here reduces to the tournament generating function

    prod_{1 <= i < j <= n} (x_i + lambda x_j),

whose monomials record wins per player and total upsets. Four independent
summations expand to the same polynomial: one over alternating sign matrices
weighted by inversions and -1 entries, one over their staircase arrays
weighted by value counts, and one over sorted tournament arrays with their
row shuffles. A fifth, lambda-only identity checks the shuffle fibers
themselves, and a sixth matches the value-count sum at lambda = 1 against the
pairwise product directly.

Left sides are expanded products. Of the right sides, the two value-count
sums (`asm`, `schur`) are computed by weighted diagonal transfer
(arrays.value_count_gf), since every weight in them is local to two
consecutive diagonals; the matrix sum (`rr`) and both sorted-array sums
(`tsscpp`, `tsscpp-count`) enumerate their arrays. So every identity keeps
one side computed by a route that shares no code with the transfer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .arrays import (
    ASM_COLORS,
    SORTED_COLORS,
    StaircaseArray,
    enumerate_arrays,
    enumerate_row_shuffles,
    row_shuffle_count,
    value_count_gf,
)
from .bijections import Asm, array_to_asm
from .colors import Color, all_admissible_sets, format_colors
from .counting import rank_gf
from .formulas import formula_count, formula_rank_gf, tournament_gf
from .polynomials import FIELD, QPoly, SparsePoly, add_binomial_term, first_difference
from .poset import build

SCHUR_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE})


@dataclass(frozen=True, eq=False)
class ArrayStats:
    """Southwest equalities of a staircase array.

    An equality is a cell matching its southwest neighbor, x_{i,j} =
    x_{i+1,j-1}; for tournament arrays these mark games won by the larger
    player. Counts are split by row (eq_row[i-1]) and by diagonal d = i + j
    (eq_diag[d], with eq_diag[0] and eq_diag[1] always 0).
    """

    eq_total: int
    eq_row: tuple[int, ...]
    eq_diag: tuple[int, ...]


def array_stats(x: StaircaseArray) -> ArrayStats:
    rows = x.rows
    eq_row = [0] * x.n
    eq_diag = [0] * (x.n + 1)
    for i, (row, below) in enumerate(zip(rows, rows[1:]), start=1):
        for j in range(1, len(row)):
            if row[j] == below[j - 1]:
                eq_row[i - 1] += 1
                eq_diag[i + j] += 1
    return ArrayStats(eq_total=sum(eq_row), eq_row=tuple(eq_row), eq_diag=tuple(eq_diag))


@dataclass(frozen=True)
class AsmStats:
    inversions: int
    neg_count: int


def asm_stats(a: Asm) -> AsmStats:
    """Inversions sum A_{ij} A_{kl} over i > k, j < l, plus the -1 count.

    Rows are scanned top down with running column sums of the rows above, so
    each entry A_{ij} pairs with the sum of those columns to its right.
    """
    above = [0] * len(a.rows)
    inv = neg = 0
    for row in a.rows:
        right = 0
        for j in range(len(row) - 1, -1, -1):
            inv += row[j] * right
            right += above[j]
            above[j] += row[j]
        neg += row.count(-1)
    return AsmStats(inversions=inv, neg_count=neg)


def robbins_rumsey_rhs(n: int) -> SparsePoly:
    """Sum over alternating sign matrices A of
    lambda^(inv(A) - neg(A)) (1+lambda)^neg(A) prod_j x_j^(sum_i (n-i) A_{ij})."""
    terms: dict[int, int] = {}
    for x in enumerate_arrays(n, ASM_COLORS):
        a = array_to_asm(x)
        st = asm_stats(a)
        key = st.inversions - st.neg_count
        for j, column in enumerate(zip(*a.rows), start=1):
            key += sum((n - i) * v for i, v in enumerate(column, start=1)) << j * FIELD
        add_binomial_term(terms, key, st.neg_count, 1)
    return SparsePoly._make(terms)


def asm_expansion_rhs(n: int) -> SparsePoly:
    """Sum over Y_n({g,y,o,b}) of
    lambda^E (1+lambda)^N prod_k x_k^(C_k - 1), by diagonal transfer."""
    return value_count_gf(n, ASM_COLORS, equalities=True)


def tsscpp_expansion_rhs(n: int) -> SparsePoly:
    """Sum over sorted arrays alpha in Y_n({b,r,g,y}) and their row shuffles:

        lambda^E(alpha) prod_i x_i^(n-i-E_i(alpha))
                        sum_beta prod_d x_d^(eq on diagonal d of beta)

    Each shuffle beta is a tournament array; its wins for player v split into
    the diagonal-v equalities of beta plus the row-v slack of alpha, which is
    how the tournament product re-emerges.
    """
    terms: dict[int, int] = {}
    for alpha in enumerate_arrays(n, SORTED_COLORS):
        st = array_stats(alpha)
        outer = st.eq_total
        for i in range(1, n):
            outer += n - i - st.eq_row[i - 1] << i * FIELD
        for beta in enumerate_row_shuffles(alpha):
            key = outer
            for d, e in enumerate(array_stats(beta).eq_diag):
                key += e << d * FIELD
            terms[key] = terms.get(key, 0) + 1
    return SparsePoly._make(terms)


def tsscpp_lambda_count(n: int) -> SparsePoly:
    """Sum over Y_n({b,r,g,y}) of lambda^E times the shuffle fiber size."""
    terms: dict[int, int] = {}
    for alpha in enumerate_arrays(n, SORTED_COLORS):
        key = array_stats(alpha).eq_total
        terms[key] = terms.get(key, 0) + row_shuffle_count(alpha)
    return SparsePoly._make(terms)


def pairwise_product(n: int) -> SparsePoly:
    """prod_{i<j} (x_i + x_j): the lambda = 1 tournament product."""
    out = SparsePoly.constant(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (SparsePoly.x(i) + SparsePoly.x(j))
    return out


def schur_expansion_rhs(n: int) -> SparsePoly:
    """Sum over Y_n({g,y,o}) of prod_k x_k^(C_k - 1), by diagonal transfer."""
    return value_count_gf(n, SCHUR_COLORS, equalities=False)


def _report(name: str, n: int, lhs, rhs, t0: float) -> dict:
    """Compare the two sides; elapsed_ms counts from perf_counter() time t0."""
    diff = first_difference(lhs, rhs)
    return {
        "identity": name,
        "n": n,
        "status": "ok" if diff is None else "mismatch",
        "first_diff_monomial": diff,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }


# Each entry expands (lhs, rhs). The lambdas look the functions up when
# called, so anything that rebinds these module names also sees every run.
_IDENTITIES = {
    "rr": lambda n: (tournament_gf(n), robbins_rumsey_rhs(n)),
    "asm": lambda n: (tournament_gf(n), asm_expansion_rhs(n)),
    "tsscpp": lambda n: (tournament_gf(n), tsscpp_expansion_rhs(n)),
    "tsscpp-count": lambda n: (
        (SparsePoly.constant(1) + SparsePoly.lam()) ** comb(n, 2),
        tsscpp_lambda_count(n),
    ),
    "schur": lambda n: (pairwise_product(n), schur_expansion_rhs(n)),
}

IDENTITY_NAMES = (*_IDENTITIES, "formulas")


def verify_identity(name: str, n: int) -> dict:
    """Expand both sides of a named identity and report the comparison."""
    t0 = time.perf_counter()
    if name not in _IDENTITIES:
        raise ValueError(f"unknown identity {name!r}")
    lhs, rhs = _IDENTITIES[name](n)
    return _report(name, n, lhs, rhs, t0)


def verify_formulas(n: int) -> list[dict]:
    """Compare enumeration against every closed form, one report per check.

    Counts are compared for each admissible color set that has a product
    formula; rank generating functions are compared where a q-analogue
    exists. Sets without a formula are skipped.
    """
    poset = build(n)
    rows = []
    for colorset in all_admissible_sets():
        expected_count = formula_count(colorset, n)
        if expected_count is None:
            continue
        name = format_colors(colorset)
        t0 = time.perf_counter()
        gf = rank_gf(poset.subposet(colorset))
        rows.append(
            _report(f"formulas:{name}", n, QPoly({0: gf(1)}), QPoly({0: expected_count}), t0)
        )
        expected_gf = formula_rank_gf(colorset, n)
        if expected_gf is not None:
            rows.append(_report(f"formulas-q:{name}", n, gf, expected_gf, time.perf_counter()))
    return rows
