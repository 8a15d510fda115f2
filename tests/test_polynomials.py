from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from tetraposet import (
    QPoly,
    SparsePoly,
    carlitz_riordan,
    catalan_number,
    catalan_product,
    first_difference,
    polynomials,
    q_binomial,
    q_bracket,
    q_factorial,
)
from tetraposet.formulas import (
    asm_number,
    q_binomial_product,
    q_factorial_product,
    three_color_product,
    tspp_number,
)
from tetraposet.polynomials import FIELD, expand_binomial_field

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


@given(sparse_polys, sparse_polys, sparse_polys)
def test_sparse_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == SparsePoly()


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


def test_sparse_json_round_trip():
    p = SparsePoly.lam(2) * SparsePoly.x(1) + 3 * SparsePoly.x(2, 4) - SparsePoly.constant(7)
    assert SparsePoly.from_json_obj(p.to_json_obj()) == p
    blob = p.to_json_obj()
    assert all(isinstance(item["coeff"], str) for item in blob)


def test_sparse_json_rejects_non_integers():
    assert SparsePoly.from_json_obj([{"lambda": 1, "x": {"2": 3}, "coeff": 5}]) == 5 * (
        SparsePoly.lam() * SparsePoly.x(2, 3)
    )
    assert SparsePoly.from_json_obj([{"x": {"02": 1}, "coeff": "3"}]) == 3 * SparsePoly.x(2)
    bad = [
        {"lambda": 1.7, "coeff": "1"},
        {"lambda": True, "coeff": "1"},
        {"x": {"2": True}, "coeff": "1"},
        {"x": {"2": 1.0}, "coeff": "1"},
        {"coeff": 2.9},
        {"coeff": False},
        {"coeff": "2.9"},
        {"coeff": " 2"},
        {"lambda": 1.7, "x": {"2": True}, "coeff": 2.9},
    ]
    bad += [
        {"x": {key: 1}, "coeff": "3"}
        for key in [" +2", "+2", "2 ", "-2", "2.0", "", "\u00b2", 2, True]
    ]
    for item in bad:
        with pytest.raises(ValueError, match="expected an integer"):
            SparsePoly.from_json_obj([item])


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
    assert QPoly.q(40000) * QPoly.q(40000) == QPoly.q(80000)


def test_high_variable_index_round_trips():
    p = 3 * SparsePoly.lam(2) * SparsePoly.x(40, 5) - SparsePoly.x(1)
    mono = (2, ((40, 5),))
    assert p.terms() == {mono: 3, (0, ((1, 1),)): -1}
    assert p.coeff(mono) == 3
    assert p.coeff((0, ((40, 5),))) == 0
    assert p.monomials() == [(0, ((1, 1),)), mono]
    assert SparsePoly.from_json_obj(p.to_json_obj()) == p
    assert p.to_json_obj()[1] == {"lambda": 2, "x": {"40": 5}, "coeff": "3"}


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


def test_known_sequences():
    assert [asm_number(n) for n in range(1, 7)] == [1, 2, 7, 42, 429, 7436]
    assert [tspp_number(n) for n in range(2, 6)] == [2, 5, 16, 66]
    assert [catalan_number(j) for j in range(6)] == [1, 1, 2, 5, 14, 42]
