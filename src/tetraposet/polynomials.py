"""Exact polynomial arithmetic: univariate in q, sparse multivariate in lambda and x_1..x_n.

All coefficients are arbitrary-precision integers; there is no floating
point anywhere.

One ring core, _Poly, keeps the terms as a dict from monomial key to nonzero
coefficient and implements +, -, *, **, == and hashing once, for both types.
The types differ only in their keys, and the key of a product is the sum of
the keys for both. A QPoly key is the q exponent. A SparsePoly key packs a
monomial into one int of FIELD-bit fields, lambda's exponent in field 0 and
x_k's in field k (Kronecker substitution), so lambda^a x_1^b x_3^c is
a + (b << 16) + (c << 48). A field must never carry into the next one: the
public constructor rejects an exponent above 2^16 - 1, and a product raises
OverflowError when a factor has a field at or above 2^15, so every sum of
two fields fits. Outside this module a monomial is the tuple (lambda
exponent, ((variable index, exponent), ...)) with the x-part sorted by
variable index and zero exponents left out; SparsePoly serialization orders
monomials by total degree, then lambda exponent, then the x exponent tuple
(graded lexicographic), so output is deterministic.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from functools import reduce
from math import comb
from operator import or_

from .poset import json_int

Monomial = tuple[int, tuple[tuple[int, int], ...]]


class _Poly:
    """Ring core: a dict from monomial key to nonzero int coefficient.

    Keys are ints that add under multiplication, and 0 is the key of 1. A
    subclass fixes their meaning with _check_factor (raises if a factor's
    keys could overflow a product), _sort_key (listing order; None for the
    keys' own order), _key_json (a key as JSON) and _clean_key (checks a
    public key and returns its int). The public constructor checks every key
    and coefficient; arithmetic builds results through _make, which trusts
    them.
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
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check_factor(self._terms)
        self._check_factor(rhs._terms)
        out: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in rhs._terms.items():
                key = k1 + k2
                s = out.get(key, 0) + c1 * c2
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
    def _key_json(exp: int) -> dict:
        return {"q": exp}

    @classmethod
    def from_coeff_list(cls, coeffs: Iterable[int]) -> QPoly:
        """Build from a coefficient list, lowest degree first."""
        return cls(dict(enumerate(coeffs)))

    @classmethod
    def q(cls, exp: int = 1) -> QPoly:
        return cls({exp: 1})

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

    def __repr__(self) -> str:
        if not self._terms:
            return "QPoly(0)"
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                parts.append(f"{head}q^{e}" if e > 1 else f"{head}q")
        return "QPoly(" + " + ".join(parts) + ")"


def q_bracket(m: int) -> QPoly:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    if m < 0:
        raise ValueError("negative bracket")
    return QPoly({e: 1 for e in range(m)})


def q_factorial(m: int) -> QPoly:
    out = QPoly({0: 1})
    for j in range(1, m + 1):
        out = out * q_bracket(j)
    return out


def q_binomial(m: int, k: int) -> QPoly:
    """Gaussian binomial via the q-Pascal recurrence (no division needed)."""
    if k < 0 or k > m:
        return QPoly()
    row = [QPoly({0: 1})]
    for i in range(1, m + 1):
        prev = row
        row = [QPoly({0: 1})]
        for j in range(1, i):
            row.append(prev[j - 1] + QPoly.q(j) * prev[j])
        row.append(QPoly({0: 1}))
    return row[k]


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


def _json_index(key) -> int:
    """An x index as to_json_obj writes it: a string of decimal digits."""
    if type(key) is not str or not re.fullmatch("[0-9]+", key):
        raise ValueError(f"expected an integer, got {key!r}")
    return int(key)


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

    def _sorted_keys(self) -> list[int]:
        return sorted(self._terms, key=self._sort_key)

    def monomials(self) -> list[Monomial]:
        return [_unpack(key) for key in self._sorted_keys()]

    def coeff(self, mono: Monomial) -> int:
        return self._terms.get(_clean_monomial(mono), 0)

    def term_count(self) -> int:
        return len(self._terms)

    def to_json_obj(self) -> list[dict]:
        """Monomial list in graded-lex order; coefficients as decimal strings."""
        return [
            {**self._key_json(key), "coeff": str(self._terms[key])}
            for key in self._sorted_keys()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> SparsePoly:
        """Read to_json_obj's format; exponents must be JSON integers, an x
        index a string of decimal digits, and a coefficient a decimal string
        or a JSON integer."""
        terms: dict[Monomial, int] = {}
        for item in obj:
            mono = (
                json_int(item.get("lambda", 0)),
                tuple(sorted((_json_index(k), json_int(e)) for k, e in item.get("x", {}).items())),
            )
            c = item["coeff"]
            if type(c) is str and re.fullmatch(r"-?[0-9]+", c):
                c = int(c)
            terms[mono] = terms.get(mono, 0) + json_int(c)
        return cls(terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "SparsePoly(0)"
        parts = []
        for key in self._sorted_keys():
            c = self._terms[key]
            if not key:
                parts.append(str(c))
                continue
            lam, xs = _unpack(key)
            bits = ["L" if lam == 1 else f"L^{lam}"] if lam else []
            bits += [f"x{k}" if e == 1 else f"x{k}^{e}" for k, e in xs]
            head = "" if c == 1 else "-" if c == -1 else f"{c}*"
            parts.append(head + "*".join(bits))
        return "SparsePoly(" + " + ".join(parts) + ")"


def expand_binomial_field(sums: dict[int, int], field: int) -> SparsePoly:
    """The SparsePoly of packed terms whose top field, number `field`, holds
    an exponent N that stands for (1+lambda)^N: each term c * m *
    (1+lambda)^N becomes the terms c * binomial(N, k) * lambda^k * m. The
    coefficients must be positive, as a transfer's counts are, so no
    expanded term cancels."""
    shift = field * FIELD
    low = (1 << shift) - 1
    terms: dict[int, int] = {}
    get = terms.get
    for key, c in sums.items():
        spread = key >> shift
        key &= low
        for m in range(spread + 1):
            terms[key + m] = get(key + m, 0) + c * comb(spread, m)
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
