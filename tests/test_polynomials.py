from fractions import Fraction
from math import comb, factorial, prod
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from tetraposet import (
    Color,
    QPoly,
    SparsePoly,
    build,
    carlitz_riordan,
    catalan_number,
    catalan_product,
    count_arrays,
    enumerate_arrays,
    first_difference,
    formula_count,
    formula_rank_gf,
    formulas,
    pairwise_product,
    polynomials,
    q_binomial,
    q_bracket,
    q_factorial,
    tournament_gf,
)
from tetraposet import formulas
from tetraposet.formulas import (
    asm_number,
    q_binomial_product,
    q_factorial_product,
    three_color_product,
    tspp_number,
)
from tetraposet.polynomials import FIELD, _q_pascal_row, expand_binomial_field

from conftest import evaluate, principal_specialization


def exact_div(num: QPoly, den: QPoly) -> QPoly:
    """Exact polynomial division; raises ValueError on a nonzero remainder."""
    if den.is_zero():
        raise ValueError("division by zero polynomial")
    remainder = num.coefficients()
    quotient = {}
    d = den.degree
    lead = den.coeff(d)
    while remainder:
        e = max(remainder)
        if e < d or remainder[e] % lead:
            raise ValueError("inexact polynomial division")
        q = remainder[e] // lead
        quotient[e - d] = q
        for oe, oc in den.coefficients().items():
            t = e - d + oe
            remainder[t] = remainder.get(t, 0) - q * oc
            if not remainder[t]:
                del remainder[t]
    return QPoly(quotient)


def lambda_specialize(poly: SparsePoly, lam_value: int) -> SparsePoly:
    """Substitute an integer for lambda, keeping the x variables."""
    out = {}
    for (lam, xs), c in poly.terms().items():
        out[(0, xs)] = out.get((0, xs), 0) + c * lam_value**lam
    return SparsePoly(out)

qpolys = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(QPoly)

monomials = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)),
        max_size=2,
        unique_by=lambda t: t[0],
    ).map(lambda xs: tuple(sorted(xs))),
)

sparse_polys = st.dictionaries(
    monomials, st.integers(min_value=-9, max_value=9), max_size=4
).map(SparsePoly)


@given(qpolys, qpolys, qpolys)
def test_qpoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == QPoly()
    assert a * 1 == a
    assert a * 0 == QPoly()


@given(qpolys, qpolys, st.integers(min_value=-3, max_value=3))
def test_qpoly_evaluation_is_homomorphism(a, b, v):
    assert (a + b)(v) == a(v) + b(v)
    assert (a * b)(v) == a(v) * b(v)


@given(qpolys, qpolys)
def test_exact_division_recovers_factor(a, b):
    if b.is_zero():
        with pytest.raises(ValueError):
            exact_div(a, b)
    else:
        product = a * b
        if not a.is_zero():
            assert exact_div(product, a) == b


def test_exact_division_rejects_remainder():
    with pytest.raises(ValueError, match="inexact"):
        exact_div(QPoly.q(1) + 1, QPoly.q(1) - 1)


def test_reversal():
    p = QPoly.from_coeff_list([1, 2, 0, 5])
    assert p.reversed_poly() == QPoly.from_coeff_list([5, 0, 2, 1])
    assert p.reversed_poly(5) == QPoly.from_coeff_list([0, 0, 5, 0, 2, 1])
    with pytest.raises(ValueError):
        p.reversed_poly(2)


def test_q_analogs_at_one():
    for m in range(8):
        assert q_bracket(m)(1) == m
        assert q_factorial(m)(1) == factorial(m)
        for k in range(m + 1):
            assert q_binomial(m, k)(1) == comb(m, k)
            assert q_binomial(m, k) == q_binomial(m, m - k)


def test_q_binomial_matches_factorial_quotient():
    for m in range(8):
        for k in range(m + 1):
            lhs = q_binomial(m, k) * q_factorial(k) * q_factorial(m - k)
            assert lhs == q_factorial(m)


def test_q_pascal_row_holds_every_q_binomial():
    """Row m is [m choose k]_q for k = 0..m, read through q_binomial and
    checked against the factorial quotient, for m <= 12."""
    for m in range(13):
        row = _q_pascal_row(m)
        assert row == [q_binomial(m, k) for k in range(m + 1)]
        for k, entry in enumerate(row):
            assert entry == exact_div(q_factorial(m), q_factorial(k) * q_factorial(m - k))


def test_product_of_no_factors_or_one():
    p = QPoly.from_coeff_list([2, 0, -3])
    assert QPoly.product([]) == QPoly({0: 1})
    assert QPoly.product(iter(())) == 1
    assert QPoly.product([p]) == p
    assert QPoly.product(iter([p])) == p
    one_plus_q, one_minus_q = QPoly.from_coeff_list([1, 1]), QPoly.from_coeff_list([1, -1])
    assert QPoly.product([one_plus_q, one_minus_q, 1 + QPoly.q(2)]) == 1 - QPoly.q(4)
    assert QPoly.product([one_plus_q, QPoly(), one_minus_q]) == QPoly()


#: Lists of q-polynomials, some in pairs a + b and a - b, so that their
#: products cancel terms.
q_factor_lists = st.lists(
    st.one_of(
        qpolys.map(lambda a: [a]),
        st.tuples(qpolys, qpolys).map(lambda t: [t[0] + t[1], t[0] - t[1]]),
    ),
    max_size=4,
).map(lambda groups: [factor for group in groups for factor in group])


@settings(max_examples=200, deadline=1000)
@given(q_factor_lists)
def test_product_is_a_left_fold(factors):
    expected = QPoly({0: 1})
    for factor in factors:
        expected = expected * factor
    product = QPoly.product(factors)
    assert product == QPoly.product(iter(factors)) == expected
    assert 0 not in product.coefficients().values()


#: Dense q-polynomials: a positive coefficient at every degree up to their
#: own, degree 0 included, some of 2^64 or more so that a packed field
#: spans several bytes.
dense_qpolys = st.lists(
    st.one_of(st.integers(min_value=1, max_value=9), st.integers(min_value=2**64, max_value=2**80)),
    min_size=1,
    max_size=6,
).map(QPoly.from_coeff_list)


def left_fold(factors):
    expected = QPoly({0: 1})
    for factor in factors:
        expected = expected * factor
    return expected


@settings(max_examples=200, deadline=1000)
@given(st.lists(dense_qpolys, max_size=7))
def test_dense_factors_multiply_in_the_packed_tree(factors):
    with patch.object(polynomials, "_dense_product", wraps=polynomials._dense_product) as tree:
        product = QPoly.product(factors)
    tree.assert_called_once_with([(f.to_coeff_list(), 1) for f in factors])
    assert product == left_fold(factors)
    assert 0 not in product.coefficients().values()


def test_dense_product_covers_every_tree_shape():
    big = 2**64 + 3
    lists = [[1, 2], [big], [3, 1, big], [1], [5, 5, 5, 5, 5]]
    for count in range(len(lists) + 1):
        factors = lists[:count]
        expected = left_fold(map(QPoly.from_coeff_list, factors))
        assert polynomials._dense_product([(f, 1) for f in factors]) == expected.to_coeff_list()
    assert polynomials._dense_product([]) == [1]
    assert polynomials._dense_product([([big, big], 1)]) == [big, big]
    assert polynomials._dense_product([([big, 1], 1), ([big, 1], 1)]) == [big * big, 2 * big, 1]


@settings(max_examples=100, deadline=2000)
@given(st.lists(st.tuples(dense_qpolys, st.integers(min_value=1, max_value=9)), max_size=4))
def test_dense_powers_square_up_to_the_product(groups):
    lists = [(f.to_coeff_list(), m) for f, m in groups]
    expected = left_fold(f for f, m in groups for _ in range(m))
    assert polynomials._dense_product(lists) == expected.to_coeff_list()


@pytest.mark.parametrize(
    "odd",
    [QPoly({0: 1, 2: 1}), QPoly.from_coeff_list([1, -2, 1]), QPoly(), QPoly({3: 2**70})],
    ids=["gap", "negative", "zero", "no-constant-term"],
)
def test_a_factor_that_is_not_dense_takes_the_dict_fold(odd, monkeypatch):
    def refuse(lists):
        raise AssertionError("a non-dense factor reached the packed tree")

    monkeypatch.setattr(polynomials, "_dense_product", refuse)
    dense = [QPoly.from_coeff_list([1, 1]), QPoly.from_coeff_list([2**64, 3, 1])]
    for factors in ([odd], [dense[0], odd, dense[1]], [*dense, odd]):
        assert QPoly.product(factors) == left_fold(factors)


@given(sparse_polys, sparse_polys, sparse_polys)
def test_sparse_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == SparsePoly()


def schoolbook_sparse(a: SparsePoly, b: SparsePoly) -> dict:
    """Every pair of terms multiplied out, monomials as tuples, zeros dropped."""
    out = {}
    for (la, xa), ca in a.terms().items():
        for (lb, xb), cb in b.terms().items():
            xs = dict(xa)
            for k, e in xb:
                xs[k] = xs.get(k, 0) + e
            mono = (la + lb, tuple(sorted(xs.items())))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def schoolbook_q(a: QPoly, b: QPoly) -> list[int]:
    out = [0] * (len(a.to_coeff_list()) + len(b.to_coeff_list()))
    for i, ca in enumerate(a.to_coeff_list()):
        for j, cb in enumerate(b.to_coeff_list()):
            out[i + j] += ca * cb
    while out and not out[-1]:
        out.pop()
    return out


# Small coefficients over few monomials, so terms often cancel; sizes 0..8
# give operands of equal and of unequal size.
dense_sparse_polys = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2)),
            max_size=2,
            unique_by=lambda t: t[0],
        ).map(lambda xs: tuple(sorted(xs))),
    ),
    st.integers(min_value=-2, max_value=2),
    max_size=8,
).map(SparsePoly)
# (p + r, p - r): the cross terms p*r cancel in the product.
cancelling_pairs = st.tuples(dense_sparse_polys, dense_sparse_polys).map(
    lambda t: (t[0] + t[1], t[0] - t[1])
)
sparse_operands = st.one_of(
    st.tuples(dense_sparse_polys, dense_sparse_polys),
    cancelling_pairs,
    st.tuples(dense_sparse_polys, st.integers(min_value=-3, max_value=3)),
)


@settings(max_examples=300, deadline=1000)
@given(sparse_operands)
def test_sparse_product_matches_schoolbook(operands):
    a, b = operands
    expected = schoolbook_sparse(a, SparsePoly.constant(b) if isinstance(b, int) else b)
    for product in (a * b, b * a):
        assert product.terms() == expected
        assert 0 not in product._terms.values()


@settings(max_examples=300, deadline=1000)
@given(
    st.one_of(
        st.tuples(qpolys, qpolys),
        st.tuples(qpolys, qpolys).map(lambda t: (t[0] + t[1], t[0] - t[1])),
        st.tuples(qpolys, st.integers(min_value=-3, max_value=3)),
    )
)
def test_q_product_matches_schoolbook(operands):
    a, b = operands
    expected = schoolbook_q(a, QPoly({0: b}) if isinstance(b, int) else b)
    for product in (a * b, b * a):
        assert product.to_coeff_list() == expected
        assert 0 not in product.coefficients().values()


def test_product_cancels_terms_and_handles_zero():
    x1, lam = SparsePoly.x(1), SparsePoly.lam()
    assert (x1 + lam) * (x1 - lam) == x1 * x1 - lam * lam
    assert ((1 + x1) * (1 - x1 + x1 * x1)).terms() == {(0, ()): 1, (0, ((1, 3),)): 1}
    assert (x1 + lam) * SparsePoly() == SparsePoly()
    assert SparsePoly() * (x1 + lam) == SparsePoly()
    assert (x1 + lam) * 0 == SparsePoly()
    assert QPoly.from_coeff_list([1, -1]) * QPoly.from_coeff_list([1, 1]) == QPoly({0: 1, 2: -1})


@given(sparse_polys, st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2))
def test_sparse_evaluate_consistent_with_specialize(p, lam, xv):
    assert evaluate(p, lam, xv) == evaluate(lambda_specialize(p, lam), 0, xv)


@settings(max_examples=200, deadline=1000)
@given(
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(min_value=0, max_value=6)] * 3),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=1, max_value=10**20),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=3, max_value=5),
)
def test_expand_binomial_field_matches_power(terms, field):
    """Field `field` of each packed key stands for (1+lambda)^N; the
    expansion equals multiplying each term out by the ring's own power."""
    sums = {}
    expected = SparsePoly()
    for exps, spread, c in terms:
        key = sum(e << k * FIELD for k, e in enumerate(exps))
        packed = key + (spread << field * FIELD)
        sums[packed] = sums.get(packed, 0) + c
        expected = expected + SparsePoly._make({key: c}) * (1 + SparsePoly.lam()) ** spread
    assert expand_binomial_field(sums, field) == expected


def test_expand_binomial_field_merges_colliding_keys():
    """lambda x_1 with N = 0 is also a term of x_1 (1+lambda)^1."""
    field = 2
    x1 = 1 << FIELD
    sums = {1 + x1: 3, x1 + (1 << field * FIELD): 5}
    assert expand_binomial_field(sums, field) == 5 * SparsePoly.x(1) + 8 * SparsePoly.lam() * SparsePoly.x(1)
    assert expand_binomial_field({x1 + (1 << field * FIELD): 5, 1 + x1: 3}, field).terms() == {
        (0, ((1, 1),)): 5,
        (1, ((1, 1),)): 8,
    }


@settings(max_examples=200, deadline=1000)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=2),
        ),
        st.integers(min_value=1, max_value=5),
        min_size=1,
        max_size=8,
    )
)
def test_expand_binomial_field_matches_power_on_colliding_keys(terms):
    """Keys over lambda^0..2 x_1^0..1 and N = 0..2, so expanded terms often
    land on other keys, N = 0 keys included."""
    field = 2
    sums = {}
    expected = SparsePoly()
    for (lam, e, spread), c in terms.items():
        key = lam + (e << FIELD)
        sums[key + (spread << field * FIELD)] = c
        expected = expected + SparsePoly._make({key: c}) * (1 + SparsePoly.lam()) ** spread
    assert expand_binomial_field(sums, field) == expected


def test_monomial_order_is_graded():
    p = SparsePoly.x(2) + SparsePoly.lam() * SparsePoly.x(1, 2) + SparsePoly.constant(5)
    degrees = [lam + sum(e for _, e in xs) for lam, xs in p.monomials()]
    assert degrees == sorted(degrees)


def test_principal_specialization():
    p = SparsePoly.x(3, 2) + SparsePoly.x(1)
    assert principal_specialization(p) == QPoly({4: 1, 0: 1})
    with pytest.raises(ValueError, match="lambda"):
        principal_specialization(SparsePoly.lam())


def test_first_difference():
    a = QPoly.from_coeff_list([1, 2, 3])
    assert first_difference(a, a) is None
    b = QPoly.from_coeff_list([1, 5, 3])
    assert first_difference(a, b) == {"monomial": {"q": 1}, "lhs": "2", "rhs": "5"}
    p = SparsePoly.x(1) + SparsePoly.lam()
    q = SparsePoly.x(1) * 2
    diff = first_difference(p, q)
    assert diff == {"monomial": {"lambda": 0, "x": {"1": 1}}, "lhs": "1", "rhs": "2"}
    with pytest.raises(ValueError):
        first_difference(a, p)


def test_repr():
    assert repr(QPoly()) == "QPoly(0)"
    assert repr(QPoly({0: 3})) == "QPoly(3)"
    assert repr(QPoly({0: 1, 1: -1, 2: -1, 3: 5})) == "QPoly(1 + -q + -q^2 + 5*q^3)"
    assert repr(QPoly({1: 1, 2: 2})) == "QPoly(q + 2*q^2)"
    assert repr(SparsePoly()) == "SparsePoly(0)"
    assert repr(SparsePoly.constant(-2)) == "SparsePoly(-2)"
    assert repr(SparsePoly.lam() ** 2 * SparsePoly.x(3)) == "SparsePoly(L^2*x3)"
    p = 1 + 3 * SparsePoly.x(2) - SparsePoly.lam() * SparsePoly.x(1, 2)
    assert repr(p) == "SparsePoly(1 + 3*x2 + -L*x1^2)"
    assert repr(-1 - SparsePoly.x(1)) == "SparsePoly(-1 + -x1)"


def test_polynomial_types_do_not_mix():
    with pytest.raises(TypeError):
        QPoly({1: 2}) * SparsePoly.x(1)
    with pytest.raises(TypeError):
        SparsePoly.x(1) + QPoly({1: 2})
    with pytest.raises(TypeError):
        QPoly({1: 2}) - SparsePoly.x(1)
    assert (QPoly({0: 1}) == SparsePoly.constant(1)) is False
    assert 3 - QPoly.q() == QPoly({0: 3, 1: -1})
    assert 3 - SparsePoly.lam() == SparsePoly({(0, ()): 3, (1, ()): -1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: QPoly({-1: 1}),
        lambda: QPoly({-1: 0}),
        lambda: QPoly({1.0: 1}),
        lambda: QPoly({1: 1.5}),
        lambda: SparsePoly({(-1, ()): 1}),
        lambda: SparsePoly({(0, ((1, -1),)): 1}),
        lambda: SparsePoly({(0, ((0, 1),)): 1}),
        lambda: SparsePoly({(0, ((1, 1), (1, 2))): 1}),
        lambda: SparsePoly({(0, ()): 1.5}),
        lambda: SparsePoly.x(0),
        lambda: SparsePoly.lam(-1),
        lambda: SparsePoly.x(1, 2**16),
        lambda: SparsePoly.lam(2**16),
    ],
)
def test_public_constructors_check_keys_and_coefficients(build):
    with pytest.raises(ValueError):
        build()


def test_arithmetic_skips_the_key_check(monkeypatch):
    a, b = QPoly.from_coeff_list([1, 2]), QPoly.q(3)
    p, q = SparsePoly.x(1) + SparsePoly.lam(), SparsePoly.x(2, 3)

    def refuse(*args):
        raise AssertionError("arithmetic went through the public constructor")

    monkeypatch.setattr(QPoly, "__init__", refuse)
    monkeypatch.setattr(polynomials, "_clean_monomial", refuse)
    assert (a * b + a - b) ** 2 == (a * b + a - b) * (a * b + a - b)
    assert (-(p * q) + p - 1) ** 2 != 0
    assert first_difference(a, b)["monomial"] == {"q": 0}


def test_packed_fields_never_carry():
    x = SparsePoly.x
    top = x(1, 2**15 - 1) * x(1, 2**15 - 1)
    assert top == x(1, 2**16 - 2)
    assert top.terms() == {(0, ((1, 2**16 - 2),)): 1}
    with pytest.raises(OverflowError):
        top * x(1)
    with pytest.raises(OverflowError):
        x(1, 2**15) * x(1)
    bad_small, bad_big = x(2, 2**15), x(2, 2**15) + x(1) + SparsePoly.lam()
    good_small, good_big = x(1), x(1) + x(2) + x(3) + SparsePoly.lam()
    for bad, good in [(bad_small, good_big), (bad_big, good_small), (bad_big, good_big)]:
        for a, b in [(bad, good), (good, bad)]:
            with pytest.raises(OverflowError):
                a * b
    assert QPoly.q(40000) * QPoly.q(40000) == QPoly.q(80000)


def test_high_variable_index_round_trips():
    p = 3 * SparsePoly.lam(2) * SparsePoly.x(40, 5) - SparsePoly.x(1)
    mono = (2, ((40, 5),))
    assert p.terms() == {mono: 3, (0, ((1, 1),)): -1}
    assert p.coeff(mono) == 3
    assert p.coeff((0, ((40, 5),))) == 0
    assert p.monomials() == [(0, ((1, 1),)), mono]
    diff = first_difference(p, -SparsePoly.x(1))
    assert diff == {"monomial": {"lambda": 2, "x": {"40": 5}}, "lhs": "3", "rhs": "0"}


RING_METHODS = (
    "_coerce", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__pow__", "__eq__", "__hash__", "is_zero",
)


def test_ring_methods_live_in_one_core():
    for cls in (QPoly, SparsePoly):
        for name in RING_METHODS:
            assert getattr(cls, name) is getattr(polynomials._Poly, name)


def test_carlitz_riordan_values():
    assert carlitz_riordan(0) == QPoly({0: 1})
    assert carlitz_riordan(1) == QPoly({0: 1})
    assert carlitz_riordan(2) == QPoly.from_coeff_list([1, 1])
    assert carlitz_riordan(3) == QPoly.from_coeff_list([1, 2, 1, 1])
    for j in range(9):
        assert carlitz_riordan(j)(1) == catalan_number(j)
        assert carlitz_riordan(j).degree == comb(j, 2)
    with pytest.raises(ValueError, match="negative index"):
        carlitz_riordan(-1)


def test_catalan_product_degree_matches_vertex_count():
    for n in range(1, 7):
        count, poly = catalan_product(n)
        assert poly(1) == count
        assert poly.degree == comb(n + 1, 3)


def test_adjacent_pair_counts_skip_the_q_catalan_product(monkeypatch):
    def refuse(j):
        raise AssertionError("formula_count built a q-Catalan polynomial")

    monkeypatch.setattr(formulas, "carlitz_riordan", refuse)
    expected = 1
    for j in range(1, 13):
        expected *= catalan_number(j)
    for colors in ("bg", "bs", "oy", "gs", "ry", "rg", "gy", "bo"):
        assert formula_count(colors, 12) == expected


# Reference implementations: every closed form read as a product over the
# triples 1 <= i <= j <= k <= n-1, the paper's uniform indexing.


def _triples(n: int):
    for i in range(1, n):
        for j in range(i, n):
            for k in range(j, n):
                yield i, j, k


def q_factorial_product_triple(n: int) -> QPoly:
    num = QPoly({0: 1})
    den = QPoly({0: 1})
    for i, _, _ in _triples(n):
        num = num * q_bracket(i + 1)
        den = den * q_bracket(i)
    return exact_div(num, den)


def q_binomial_product_triple(n: int) -> QPoly:
    num = QPoly({0: 1})
    den = QPoly({0: 1})
    for _, j, _ in _triples(n):
        num = num * q_bracket(j + 1)
        den = den * q_bracket(j)
    return exact_div(num, den)


def three_color_product_triple(n: int) -> QPoly:
    num = QPoly({0: 1})
    den = QPoly({0: 1})
    for i, j, _ in _triples(n):
        num = num * q_bracket(i + j)
        den = den * q_bracket(i + j - 1)
    return exact_div(num, den)


def catalan_count_triple(n: int) -> int:
    value = Fraction(1)
    for i, j, _ in _triples(n):
        value *= Fraction(i + j + 2, i + j)
    if value.denominator != 1:
        raise ArithmeticError(f"catalan triple product not integral at n={n}")
    return value.numerator


def asm_number_triple(n: int) -> int:
    value = Fraction(1)
    for i, j, k in _triples(n):
        value *= Fraction(i + j + k + 1, i + j + k - 1)
    if value.denominator != 1:
        raise ArithmeticError(f"triple product not integral at n={n}")
    return value.numerator


def tspp_number_triple(n: int) -> int:
    value = Fraction(1)
    for i, j, k in _triples(n):
        value *= Fraction(i + j + k - 1, i + j + k - 2)
    if value.denominator != 1:
        raise ArithmeticError(f"triple product not integral at n={n}")
    return value.numerator


def test_triple_index_forms_agree():
    for n in range(1, 8):
        assert q_factorial_product_triple(n) == q_factorial_product(n)
        assert q_binomial_product_triple(n) == q_binomial_product(n)
        assert three_color_product_triple(n) == three_color_product(n)
        assert catalan_count_triple(n) == catalan_product(n)[0]
        assert asm_number_triple(n) == asm_number(n)
        assert tspp_number_triple(n) == tspp_number(n)


@pytest.mark.parametrize("number, message", [
    (asm_number, "factorial quotient not integral at n=3"),
    (tspp_number, "product not integral at n=3"),
])
def test_product_formulas_check_the_division(number, message, monkeypatch):
    """Each quotient is checked to be whole before it is divided; a product
    one too large leaves a remainder at n = 3 for both."""
    monkeypatch.setattr(formulas, "prod", lambda factors: prod(factors) + 1)
    with pytest.raises(ArithmeticError) as info:
        number(3)
    assert str(info.value) == message


def test_known_sequences():
    assert [asm_number(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]
    assert [tspp_number(n) for n in range(2, 6)] == [2, 5, 16, 66]
    assert [catalan_number(j) for j in range(6)] == [1, 1, 2, 5, 14, 42]


#: (id, call, exact result or raised error): the boundary cases of the
#: library functions that no other test reaches
BOUNDARY_CASES = [
    ("asm_number(0)", lambda: asm_number(0), ValueError("n must be at least 1")),
    ("tspp_number(0)", lambda: tspp_number(0), ValueError("n must be at least 1")),
    ("tournament_gf(0)", lambda: tournament_gf(0), ValueError("n must be at least 1")),
    ("count_arrays(0)", lambda: count_arrays(0, "g"), ValueError("n must be at least 1")),
    ("enumerate_arrays(0)", lambda: next(enumerate_arrays(0, "g")),
     ValueError("n must be at least 1")),
    ("formula_count(rbgos)", lambda: formula_count("rbgos", 4),
     ValueError("color set {rbgos} is not admissible: {ro} requires y")),
    ("formula_count(g, 0)", lambda: formula_count("g", 0), ValueError("n must be at least 1")),
    ("formula_count(gybo, 0)", lambda: formula_count("gybo", 0),
     ValueError("n must be at least 1")),
    ("formula_count(rgy, 0)", lambda: formula_count("rgy", 0), ValueError("n must be at least 1")),
    ("formula_rank_gf(rbg, 0)", lambda: formula_rank_gf("rbg", 0),
     ValueError("n must be at least 1")),
    ("formula_rank_gf(g, -2)", lambda: formula_rank_gf("g", -2),
     ValueError("n must be at least 1")),
    ("pairwise_product(0)", lambda: pairwise_product(0), ValueError("n must be at least 1")),
    ("pairwise_product(-3)", lambda: pairwise_product(-3), ValueError("n must be at least 1")),
    ("q_binomial above", lambda: q_binomial(3, 4), QPoly()),
    ("q_binomial below", lambda: q_binomial(3, -1), QPoly()),
    ("negative power", lambda: QPoly({0: 1, 1: 1}) ** -1, ValueError("negative power")),
    ("q_bracket(-1)", lambda: q_bracket(-1), ValueError("negative bracket")),
    ("zero exponent", lambda: SparsePoly.monomial(2, {1: 0, 3: 4}),
     SparsePoly.monomial(2, {3: 4})),
    ("Subposet repr", lambda: repr(build(3).subposet("gbr")), "Subposet(n=3, colors=rbg)"),
    ("dual Subposet repr", lambda: repr(build(3).subposet("g").dual()),
     "Subposet(n=3, colors=g, dual)"),
    ("Color repr", lambda: repr(Color.SILVER), "Color.SILVER"),
]


@pytest.mark.parametrize("call, expected", [case[1:] for case in BOUNDARY_CASES],
                         ids=[case[0] for case in BOUNDARY_CASES])
def test_boundary_cases(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            call()
        assert str(info.value) == str(expected)
    else:
        assert call() == expected
