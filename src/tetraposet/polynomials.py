"""Exact polynomial arithmetic: univariate in q, sparse multivariate in lambda and x_1..x_n.

All coefficients are arbitrary-precision integers; there is no floating
point anywhere.

One ring core, _Poly, keeps the terms as a dict from monomial key to nonzero
coefficient and implements +, -, *, **, == and hashing once, for both types.
The types differ only in their keys, and the key of a product is the sum of
the keys for both; a product shifts the factor with more terms once per
term of the other and merges the shifts. A QPoly key is the q exponent. A
SparsePoly key packs a
monomial into one int of FIELD-bit fields, lambda's exponent in field 0 and
x_k's in field k (Kronecker substitution), so lambda^a x_1^b x_3^c is
a + (b << 16) + (c << 48). A field must never carry into the next one: the
public constructor rejects an exponent above 2^16 - 1, and a product raises
OverflowError when a factor has a field at or above 2^15, so every sum of
two fields fits. Outside this module a monomial is the tuple (lambda
exponent, ((variable index, exponent), ...)) with the x-part sorted by
variable index and zero exponents left out; SparsePoly lists monomials
(repr, monomials(), first_difference) by total degree, then lambda exponent,
then the x exponent tuple (graded lexicographic), so output is deterministic.

QPoly.product is the one product of many q-polynomials; the product formulas'
q-analogues call it. Dense factors multiply as packed ints up a balanced tree,
_dense_product, which the counting engine calls too; others take the dict fold.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import reduce
from math import comb
from operator import mul, or_

Monomial = tuple[int, tuple[tuple[int, int], ...]]


class _Poly:
    """Ring core: a dict from monomial key to nonzero int coefficient.

    Keys are ints that add under multiplication, and 0 is the key of 1. A
    subclass fixes their meaning with _check_factor (raises if a factor's
    keys could overflow a product), _sort_key (listing order; None for the
    keys' own order), _format_key (a key other than 0 as repr prints it),
    _key_json (a key as JSON) and _clean_key (checks a public key and returns
    its int). The public constructor checks every key and coefficient;
    arithmetic builds results through _make, which trusts them.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        cleaned: dict[int, int] = {}
        for mono, c in (terms or {}).items():
            key = self._clean_key(mono)
            if not isinstance(c, int):
                raise ValueError(f"bad coefficient {c!r}")
            cleaned[key] = cleaned.get(key, 0) + c
        self._terms = {key: c for key, c in cleaned.items() if c}

    @classmethod
    def _make(cls, terms: dict):
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    def is_zero(self) -> bool:
        return not self._terms

    def _coerce(self, other):
        """Same exact type, or an int as a constant; None for anything else."""
        if type(other) is type(self):
            return other
        if isinstance(other, int):
            return self._make({0: other} if other else {})
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in rhs._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __mul__(self, other):
        """Shift the factor with more terms by each term of the smaller one:
        the first shift is the result's start, and the later ones merge into
        it, dropping any coefficient that cancels to 0."""
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_factor(self._terms)
        self._check_factor(rhs._terms)
        small, big = self._terms, rhs._terms
        if len(small) > len(big):
            small, big = big, small
        if not small:
            return self._make({})
        # One nonzero term shifts distinct keys to distinct keys and keeps
        # every coefficient nonzero, so the first shift needs no merge.
        pairs = iter(small.items())
        k1, c1 = next(pairs)
        out = {k1 + k2: c1 * c2 for k2, c2 in big.items()}
        get = out.get
        for k1, c1 in pairs:
            for k2, c2 in big.items():
                key = k1 + k2
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative power")
        result = self._make({0: 1})
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def _sorted_keys(self) -> list[int]:
        return sorted(self._terms, key=self._sort_key)

    def __repr__(self) -> str:
        parts = []
        for key in self._sorted_keys():
            c = self._terms[key]
            head = "" if c == 1 else "-" if c == -1 else f"{c}*"
            parts.append(head + self._format_key(key) if key else str(c))
        return f"{type(self).__name__}({' + '.join(parts) or 0})"


class QPoly(_Poly):
    """Polynomial in the single variable q with integer coefficients; the key
    of q^e is e."""

    __slots__ = ()
    _sort_key = None

    @staticmethod
    def _clean_key(exp: int) -> int:
        if not isinstance(exp, int) or exp < 0:
            raise ValueError(f"bad q exponent {exp!r}")
        return exp

    @staticmethod
    def _check_factor(terms: dict) -> None:
        pass

    @staticmethod
    def _format_key(exp: int) -> str:
        return f"q^{exp}" if exp > 1 else "q"

    @staticmethod
    def _key_json(exp: int) -> dict:
        return {"q": exp}

    @classmethod
    def from_coeff_list(cls, coeffs: Iterable[int]) -> QPoly:
        """Build from a coefficient list, lowest degree first."""
        return cls(dict(enumerate(coeffs)))

    @classmethod
    def q(cls, exp: int = 1) -> QPoly:
        return cls({exp: 1})

    @classmethod
    def product(cls, factors: Iterable[QPoly]) -> QPoly:
        """The product of the factors, 1 for none: _dense_product of their
        coefficient lists if each is dense, a positive coefficient at every
        degree up to its own, else the dict product from left to right."""
        factors = list(factors)
        coeffs = [(f.to_coeff_list(), 1) for f in factors]
        if all(c and min(c) > 0 for c, _ in coeffs):
            return cls._make(dict(enumerate(_dense_product(coeffs))))
        return reduce(mul, factors)

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def coefficients(self) -> dict[int, int]:
        return dict(self._terms)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def to_coeff_list(self) -> list[int]:
        """Coefficient list, lowest degree first; empty for zero."""
        return [self.coeff(e) for e in range(self.degree + 1)]

    def __call__(self, value: int) -> int:
        return sum(c * value**exp for exp, c in self._terms.items())

    def reversed_poly(self, degree: int | None = None) -> QPoly:
        """q^degree * p(1/q); degree defaults to deg(p)."""
        if degree is None:
            degree = self.degree
        if degree < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        return QPoly._make({degree - e: c for e, c in self._terms.items()})


def _dense_product(factors: list[tuple[list[int], int]]) -> list[int]:
    """The product of positive coefficient lists, lowest degree first,
    each raised to its power m >= 1: (prod a^(m >> 1))^2 times the a of odd
    m, multiplied in pairs up a balanced tree; [1] for none."""
    odd = [a for a, m in factors if m & 1]
    if halves := [(a, m >> 1) for a, m in factors if m > 1]:
        half = _dense_product(halves)
        odd.append(_packed_mul(half, half))
    while len(odd) > 1:
        pairs = [_packed_mul(a, b) for a, b in zip(odd[::2], odd[1::2])]
        odd = pairs + odd[2 * len(pairs) :]
    return odd[0] if odd else [1]


def _packed_mul(a: list[int], b: list[int]) -> list[int]:
    """a * b as one int product (Kronecker substitution, von zur Gathen and
    Gerhard, Modern Computer Algebra 8.4) over whole-byte fields that hold
    sum(a) * sum(b) >= every coefficient. A square packs once and squares."""
    size = ((sum(a) * sum(b)).bit_length() + 7) // 8
    operands = (a,) if b is a else (a, b)
    x = [int.from_bytes(b"".join([c.to_bytes(size, "little") for c in f]), "little") for f in operands]
    raw = (x[0] * x[-1]).to_bytes(size * (len(a) + len(b) - 1), "little")
    return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]


def q_bracket(m: int) -> QPoly:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    if m < 0:
        raise ValueError("negative bracket")
    return QPoly({e: 1 for e in range(m)})


def q_factorial(m: int) -> QPoly:
    """[m]_q! = [1]_q [2]_q ... [m]_q."""
    return QPoly.product(map(q_bracket, range(1, m + 1)))


def _q_pascal_row(m: int) -> list[QPoly]:
    """[m choose k]_q for k = 0..m, by the q-Pascal recurrence
    [i choose j]_q = [i-1 choose j-1]_q + q^j [i-1 choose j]_q (no division
    needed)."""
    row = [QPoly({0: 1})]
    for i in range(1, m + 1):
        prev = row
        row = [QPoly({0: 1})]
        for j in range(1, i):
            row.append(prev[j - 1] + QPoly.q(j) * prev[j])
        row.append(QPoly({0: 1}))
    return row


def q_binomial(m: int, k: int) -> QPoly:
    """Gaussian binomial [m choose k]_q; 0 for k outside 0..m."""
    if k < 0 or k > m:
        return QPoly()
    return _q_pascal_row(m)[k]


FIELD = 16
_MASK = (1 << FIELD) - 1


def _clean_monomial(mono: Monomial) -> int:
    """Check a monomial tuple and pack it into a SparsePoly key."""
    lam, xs = mono
    if not isinstance(lam, int) or not 0 <= lam <= _MASK:
        raise ValueError(f"bad lambda exponent {lam!r}")
    key = lam
    for k, e in xs:
        if not e:
            continue
        if not isinstance(k, int) or not isinstance(e, int) or k < 1 or not 0 < e <= _MASK:
            raise ValueError(f"bad variable term ({k}, {e})")
        if key >> k * FIELD & _MASK:
            raise ValueError("repeated variable in monomial")
        key += e << k * FIELD
    return key


def _unpack(key: int) -> Monomial:
    """The monomial tuple of a SparsePoly key."""
    fields = range(1, key.bit_length() // FIELD + 1)
    return (key & _MASK, tuple((k, e) for k in fields if (e := key >> k * FIELD & _MASK)))


class SparsePoly(_Poly):
    """Sparse polynomial in lambda and the variables x_1, x_2, ..."""

    __slots__ = ()

    @staticmethod
    def _clean_key(mono: Monomial) -> int:
        return _clean_monomial(mono)

    @staticmethod
    def _check_factor(terms: dict[int, int]) -> None:
        """Raise OverflowError if a field of a key is at least 2^15: OR-ing
        the keys sets a field's top bit exactly when some key's field is."""
        bits = reduce(or_, terms, 0)
        fields = bits.bit_length() // FIELD + 1
        top_bits = ((1 << fields * FIELD) - 1) // _MASK << (FIELD - 1)
        if bits & top_bits:
            raise OverflowError(f"an exponent of a factor is at least 2^{FIELD - 1}")

    @staticmethod
    def _sort_key(key: int):
        """Graded lexicographic: total degree, then lambda, then the x-part."""
        lam, xs = _unpack(key)
        return (lam + sum(e for _, e in xs), lam, xs)

    @staticmethod
    def _format_key(key: int) -> str:
        lam, xs = _unpack(key)
        bits = ["L" if lam == 1 else f"L^{lam}"] if lam else []
        bits += [f"x{k}" if e == 1 else f"x{k}^{e}" for k, e in xs]
        return "*".join(bits)

    @staticmethod
    def _key_json(key: int) -> dict:
        lam, xs = _unpack(key)
        return {"lambda": lam, "x": {str(k): e for k, e in xs}}

    @classmethod
    def constant(cls, c: int) -> SparsePoly:
        return cls({(0, ()): c})

    @classmethod
    def lam(cls, exp: int = 1) -> SparsePoly:
        return cls({(exp, ()): 1})

    @classmethod
    def x(cls, index: int, exp: int = 1) -> SparsePoly:
        return cls({(0, ((index, exp),)): 1})

    @classmethod
    def monomial(cls, lam: int, xs: Mapping[int, int], coeff: int = 1) -> SparsePoly:
        return cls({(lam, tuple(sorted(xs.items()))): coeff})

    def terms(self) -> dict[Monomial, int]:
        return {_unpack(key): c for key, c in self._terms.items()}

    def monomials(self) -> list[Monomial]:
        return [_unpack(key) for key in self._sorted_keys()]

    def coeff(self, mono: Monomial) -> int:
        return self._terms.get(_clean_monomial(mono), 0)

    def term_count(self) -> int:
        return len(self._terms)


def expand_binomial_field(sums: dict[int, int], field: int) -> SparsePoly:
    """The SparsePoly of packed terms whose top field, number `field`, holds
    an exponent N that stands for (1+lambda)^N: each term c * m *
    (1+lambda)^N becomes the terms c * binomial(N, k) * lambda^k * m. The
    coefficients must be positive, as a transfer's counts are, so no
    expanded term cancels. The row binomial(N, 0..N) is computed once per
    distinct N, kept for this call only, and each term steps lambda (field
    0) by adding 1 to its key."""
    shift = field * FIELD
    low = (1 << shift) - 1
    terms: dict[int, int] = {}
    get = terms.get
    rows: dict[int, list[int]] = {}
    for key, c in sums.items():
        spread = key >> shift
        key &= low
        row = rows.get(spread)
        if row is None:
            row = rows[spread] = [comb(spread, m) for m in range(spread + 1)]
        for b in row:
            terms[key] = get(key, 0) + c * b
            key += 1
    return SparsePoly._make(terms)


def first_difference(lhs, rhs) -> dict | None:
    """Smallest monomial where two polynomials differ, or None if equal.

    Works for a pair of SparsePoly or a pair of QPoly; coefficients are
    reported as decimal strings.
    """
    if type(lhs) is not type(rhs) or not isinstance(lhs, _Poly):
        raise ValueError("mismatched polynomial types")
    lt, rt = lhs._terms, rhs._terms
    if lt == rt:
        return None
    diffs = [key for key in lt.keys() | rt.keys() if lt.get(key, 0) != rt.get(key, 0)]
    key = min(diffs, key=lhs._sort_key)
    return {
        "monomial": lhs._key_json(key),
        "lhs": str(lt.get(key, 0)),
        "rhs": str(rt.get(key, 0)),
    }
