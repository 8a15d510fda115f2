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

Left sides are expanded products. Every right side is computed by one
weighted transfer over rows (arrays._row_transfer), since every weight in
them is local to a row and the row before it; each states its rows and their
weights in one edge function. The two value-count sums (`asm`, `schur`), the
fiber-count sum (`tsscpp-count`) and the sorted-array expansion (`tsscpp`)
run it over the rows of the staircase arrays: value counts, southwest
equalities and cells that rise from the west and drop to the southwest for
the first two, each row's equalities and its factor of the fiber size for
the third, and for the fourth each sorted row's equalities and each shuffled
row's equalities by diagonal, with the shuffled row as the state. The matrix
sum (`rr`) runs it over the rows of the matrix, whose states are the rows of
its monotone triangle, each followed by the rows that interlace with it
(_mt_rows); every weight in it is local to one row given the column sums
above it. `rr` shares the loop and the closing (1+lambda)^N expansion with
`asm`, but its states, successors and weights are its own, so the two reach
the same product by routes that share no row logic. No right side lists its
objects, and no left side uses a transfer.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterator
from math import comb

from .arrays import (
    ASM_COLORS,
    SORTED_COLORS,
    TOURNAMENT_COLORS,
    Edge,
    Row,
    StaircaseArray,
    _row_assignments,
    _row_fiber,
    _row_transfer,
    value_count_gf,
)
from .bijections import Asm
from .colors import Color, all_admissible_sets, format_colors
from .counting import rank_gf
from .formulas import _pair_product, formula_count, formula_rank_gf, tournament_gf
from .polynomials import FIELD, QPoly, SparsePoly, expand_binomial_field, first_difference
from .poset import build

SCHUR_COLORS = frozenset({Color.GREEN, Color.YELLOW, Color.ORANGE})


ArrayStats = namedtuple("ArrayStats", "eq_total eq_row eq_diag")
ArrayStats.__doc__ = """Southwest equalities of a staircase array.

An equality is a cell matching its southwest neighbor, x_{i,j} =
x_{i+1,j-1}; for tournament arrays these mark games won by the larger
player. Counts are split by row (eq_row[i-1]) and by diagonal d = i + j
(eq_diag[d], with eq_diag[0] and eq_diag[1] always 0).
"""


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


AsmStats = namedtuple("AsmStats", "inversions neg_count")


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


def _mt_rows(n: int, prev: Row) -> dict[Row, int]:
    """Every row S_i an order-n monotone triangle can have after its row
    S_{i-1} = prev (S_0 = ()), mapped to the weight of row i of the
    alternating sign matrix, 1_{S_i} - 1_{S_{i-1}}, as a SparsePoly key
    offset. S_i is the set of columns whose partial sum is 1 after row i.

    S_i follows prev exactly when the two interlace (Mills, Robbins and
    Rumsey): s_k lies in [p_{k-1}, p_k] for k = 1..i, with p_0 = 1 and
    p_i = n, and s_1 < ... < s_i, so S_i grows column by column. In the
    weight, lambda gains sum_j A_{ij} |{l in prev : l > j}| (row i's
    inversions against the rows above) minus its -1 count, x_j gains
    (n-i) A_{ij}, and field n+1 counts the -1s: the columns of prev that
    S_i leaves out, i - 1 - |S_i & prev| of them. So each column of prev
    carries one -1, which S_i pays back when it keeps the column.
    """
    i = len(prev) + 1
    neg = (1 << (n + 1) * FIELD) - 1  # one more -1, one less lambda
    gain = [
        sum(l > j for l in prev) + ((n - i) << j * FIELD) - (j in prev) * neg
        for j in range(n + 1)
    ]
    rows = {(): -sum(gain[j] for j in prev)}
    for lo, hi in zip((1, *prev), (*prev, n)):
        rows = {
            row + (s,): shift + gain[s]
            for row, shift in rows.items()
            for s in range(max(lo, row[-1] + 1) if row else lo, hi + 1)
        }
    return rows


def robbins_rumsey_rhs(n: int) -> SparsePoly:
    """Sum over alternating sign matrices A of
    lambda^(inv(A) - neg(A)) (1+lambda)^neg(A) prod_j x_j^(sum_i (n-i) A_{ij}),
    by transfer over the rows of A (Mills, Robbins and Rumsey; Stanley, EC1
    section 4.7).

    The state after row i is row i of the monotone triangle of A, and
    _mt_rows gives each state's successors with the packed weight of the
    row between them; arrays._row_transfer sums them. The -1 count stays in
    field n+1 until the end, so a state holds one term per monomial rather
    than branching on every -1.

    No packed field ever goes negative, so adding a shift never borrows, and
    none reaches n^2. Summing by parts, column j's x exponent after row i,
    the sum of (n-k) A_{kj} over k <= i, is sum_{k<i} c_k + (n-i) c_i >= 0,
    where c_k in {0, 1} is the column's partial sum of A after row k. And
    each row adds at least as many inversions as -1s: pair each -1, at column
    j, with the 1 nearest to its left, at column j' < j; that 1 gains
    |{l in S_{i-1} : l > j'}| and the -1 loses |{l in S_{i-1} : l > j}|, a
    net gain of |{l in S_{i-1} : j' < l <= j}| >= 1 since j is in S_{i-1}.
    """
    sums = _row_transfer(
        n, lambda i, prev: ((row, shift, 1) for row, shift in _mt_rows(n, prev).items())
    )
    return expand_binomial_field(sums, n + 1)


def asm_expansion_rhs(n: int) -> SparsePoly:
    """Sum over Y_n({g,y,o,b}) of
    lambda^E (1+lambda)^N prod_k x_k^(C_k - 1), by row transfer."""
    return value_count_gf(n, ASM_COLORS, equalities=True)


def tsscpp_expansion_rhs(n: int) -> SparsePoly:
    """Sum over sorted arrays alpha in Y_n({b,r,g,y}) and their row shuffles:

        lambda^E(alpha) prod_i x_i^(n-i-E_i(alpha))
                        sum_beta prod_d x_d^(eq on diagonal d of beta)

    Each shuffle beta is a tournament array; its wins for player v split into
    the diagonal-v equalities of beta plus the row-v slack of alpha, which is
    how the tournament product re-emerges.

    By row transfer whose state is beta's row: each sorted row must be a
    {b,r,g,y} filling over the sorted row below, the claim of sort_to_tsscpp
    row by row, or this raises RuntimeError, so the pairs (alpha, beta) are
    exactly its fibers over Y_n({b,r,g,y}). Row i adds alpha's E_i to
    lambda, n-i-E_i to x_i, and x_{i+j} for each southwest equality
    beta_{i,j} = beta_{i+1,j-1}.
    """

    def edges(i: int, below: Row) -> Iterator[Edge]:
        sorted_below = tuple(sorted(below))
        allowed = set(_row_assignments(i, SORTED_COLORS, sorted_below))
        for row in _row_assignments(i, TOURNAMENT_COLORS, below):
            alpha = tuple(sorted(row))
            if alpha not in allowed:
                raise RuntimeError("sorting broke a red or blue inequality")
            e = sum(v == sw for v, sw in zip(alpha[1:], sorted_below))
            shift = e + (len(below) - e << i * FIELD)
            for j, (v, sw) in enumerate(zip(row[1:], below), start=i + 1):
                if v == sw:
                    shift += 1 << j * FIELD
            yield row, shift, 1

    return SparsePoly._make(_row_transfer(n, edges))


def tsscpp_lambda_count(n: int) -> SparsePoly:
    """Sum over Y_n({b,r,g,y}) of lambda^E times the shuffle fiber size, by
    row transfer.

    E and the fiber size are a sum and a product over rows, and row i's share
    of both (arrays._row_fiber) depends only on rows i and i+1; lambda is
    field 0, so E is already a SparsePoly key.
    """
    def edges(i: int, below: Row) -> Iterator[Edge]:
        for row in _row_assignments(i, SORTED_COLORS, below):
            yield (row, *_row_fiber(row, below))

    return SparsePoly._make(_row_transfer(n, edges))


def pairwise_product(n: int) -> SparsePoly:
    """prod_{i<j} (x_i + x_j): the lambda = 1 tournament product."""
    return _pair_product(n, 0)


def schur_expansion_rhs(n: int) -> SparsePoly:
    """Sum over Y_n({g,y,o}) of prod_k x_k^(C_k - 1), by row transfer."""
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
        expand_binomial_field({comb(n, 2) << FIELD: 1}, 1),
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
