"""Exact polynomial arithmetic: univariate in q, sparse multivariate in lambda and x_1..x_n.

All coefficients are arbitrary-precision integers. Division is exact and
raises on a nonzero remainder; there is no floating point anywhere.

One ring core, _Poly, keeps the terms as a dict from monomial key to nonzero
coefficient and implements +, -, *, **, == and hashing once, for both types.
The types differ only in their keys. A QPoly key is the q exponent. A
SparsePoly key is (lambda exponent, ((variable index, exponent), ...)) with
the x-part sorted by variable index; SparsePoly serialization orders
monomials by total degree, then lambda exponent, then the x exponent tuple
(graded lexicographic), so output is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import comb
from operator import add

Monomial = tuple[int, tuple[tuple[int, int], ...]]


class _Poly:
    """Ring core: a dict from monomial key to nonzero int coefficient.

    A subclass fixes its key type with _ONE (the key of 1), _mul_keys (the
    key of a product), _sort_key (listing order; None for the keys' own order)
    and _key_json (a key as JSON). Its public constructor checks every key and
    coefficient; arithmetic builds results through _make, which trusts them.
    """

    __slots__ = ("_terms",)

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
            return self._make({self._ONE: other} if other else {})
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
        mul_keys = self._mul_keys
        out: dict = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in rhs._terms.items():
                key = mul_keys(k1, k2)
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
        result = self._make({self._ONE: 1})
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
    _ONE = 0
    _mul_keys = staticmethod(add)
    _sort_key = None

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        cleaned: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if not isinstance(exp, int) or exp < 0:
                    raise ValueError(f"bad q exponent {exp!r}")
                if not isinstance(c, int):
                    raise ValueError(f"bad coefficient {c!r}")
                if c:
                    cleaned[exp] = c
        self._terms = cleaned

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

    def exact_div(self, other: QPoly) -> QPoly:
        """Exact polynomial division; raises ValueError on a nonzero remainder."""
        if not isinstance(other, QPoly) or other.is_zero():
            raise ValueError("division by zero polynomial")
        remainder = dict(self._terms)
        quotient: dict[int, int] = {}
        d = other.degree
        lead = other.coeff(d)
        while remainder:
            e = max(remainder)
            if e < d:
                raise ValueError("inexact polynomial division")
            c = remainder[e]
            if c % lead:
                raise ValueError("inexact polynomial division")
            q = c // lead
            quotient[e - d] = q
            for oe, oc in other._terms.items():
                t = e - d + oe
                s = remainder.get(t, 0) - q * oc
                if s:
                    remainder[t] = s
                else:
                    remainder.pop(t, None)
        return QPoly._make(quotient)

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


def _clean_monomial(mono: Monomial) -> Monomial:
    lam, xs = mono
    if lam < 0:
        raise ValueError("negative lambda exponent")
    parts = [(k, e) for k, e in xs if e]
    for k, e in parts:
        if k < 1 or e < 0:
            raise ValueError(f"bad variable term ({k}, {e})")
    parts.sort()
    if len({k for k, _ in parts}) != len(parts):
        raise ValueError("repeated variable in monomial")
    return (lam, tuple(parts))


def monomial_total_degree(mono: Monomial) -> int:
    lam, xs = mono
    return lam + sum(e for _, e in xs)


def monomial_sort_key(mono: Monomial):
    return (monomial_total_degree(mono), mono[0], mono[1])


class SparsePoly(_Poly):
    """Sparse polynomial in lambda and the variables x_1, x_2, ..."""

    __slots__ = ()
    _ONE = (0, ())
    _sort_key = staticmethod(monomial_sort_key)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned: dict[Monomial, int] = {}
        if terms:
            for mono, c in terms.items():
                if not isinstance(c, int):
                    raise ValueError(f"bad coefficient {c!r}")
                if not c:
                    continue
                key = _clean_monomial(mono)
                cleaned[key] = cleaned.get(key, 0) + c
                if not cleaned[key]:
                    del cleaned[key]
        self._terms = cleaned

    @staticmethod
    def _mul_keys(a: Monomial, b: Monomial) -> Monomial:
        exps: dict[int, int] = dict(a[1])
        for k, e in b[1]:
            exps[k] = exps.get(k, 0) + e
        return (a[0] + b[0], tuple(sorted(exps.items())))

    @staticmethod
    def _key_json(mono: Monomial) -> dict:
        return {"lambda": mono[0], "x": {str(k): e for k, e in mono[1]}}

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
        return dict(self._terms)

    def monomials(self) -> list[Monomial]:
        return sorted(self._terms, key=monomial_sort_key)

    def coeff(self, mono: Monomial) -> int:
        return self._terms.get(_clean_monomial(mono), 0)

    def term_count(self) -> int:
        return len(self._terms)

    def evaluate(self, lam_value: int, x_values) -> int:
        """Evaluate with integer lambda and x values.

        x_values may be a dict {index: value}, a callable index -> value, or a
        single int used for every variable.
        """
        if isinstance(x_values, Mapping):
            getter = lambda k: x_values[k]
        elif callable(x_values):
            getter = x_values
        else:
            getter = lambda k: x_values
        total = 0
        for (lam, xs), c in self._terms.items():
            value = c * lam_value**lam
            for k, e in xs:
                value *= getter(k) ** e
            total += value
        return total

    def lambda_specialize(self, lam_value: int) -> SparsePoly:
        """Substitute an integer for lambda, keeping the x variables."""
        out: dict[Monomial, int] = {}
        for (lam, xs), c in self._terms.items():
            out[(0, xs)] = out.get((0, xs), 0) + c * lam_value**lam
        return SparsePoly._make({key: c for key, c in out.items() if c})

    def to_json_obj(self) -> list[dict]:
        """Monomial list in graded-lex order; coefficients as decimal strings."""
        return [
            {**self._key_json(mono), "coeff": str(self._terms[mono])}
            for mono in self.monomials()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> SparsePoly:
        terms: dict[Monomial, int] = {}
        for item in obj:
            mono = (
                int(item.get("lambda", 0)),
                tuple(sorted((int(k), int(e)) for k, e in item.get("x", {}).items())),
            )
            terms[mono] = terms.get(mono, 0) + int(item["coeff"])
        return cls(terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "SparsePoly(0)"
        parts = []
        for mono in self.monomials():
            lam, xs = mono
            c = self._terms[mono]
            bits = [] if c == 1 and (lam or xs) else [str(c)]
            if lam:
                bits.append("L" if lam == 1 else f"L^{lam}")
            for k, e in xs:
                bits.append(f"x{k}" if e == 1 else f"x{k}^{e}")
            parts.append("*".join(bits))
        return "SparsePoly(" + " + ".join(parts) + ")"


def add_binomial_term(
    terms: dict[Monomial, int], lam: int, xs: tuple, spread: int, coeff: int
) -> None:
    """Add coeff * (1+lambda)^spread * lambda^lam * x^xs into a term dict."""
    for m in range(spread + 1):
        key = (lam + m, xs)
        terms[key] = terms.get(key, 0) + coeff * comb(spread, m)


def principal_specialization(poly: SparsePoly) -> QPoly:
    """Substitute x_k -> q^(k-1). The input must be lambda-free."""
    coeffs: dict[int, int] = {}
    for (lam, xs), c in poly._terms.items():
        if lam:
            raise ValueError("principal specialization of a polynomial with lambda")
        e = sum((k - 1) * exp for k, exp in xs)
        coeffs[e] = coeffs.get(e, 0) + c
    return QPoly._make({e: c for e, c in coeffs.items() if c})


def first_difference(lhs, rhs) -> dict | None:
    """Smallest monomial where two polynomials differ, or None if equal.

    Works for a pair of SparsePoly or a pair of QPoly; coefficients are
    reported as decimal strings.
    """
    if type(lhs) is not type(rhs) or not isinstance(lhs, _Poly):
        raise ValueError("mismatched polynomial types")
    lt, rt = lhs._terms, rhs._terms
    diffs = [key for key in lt.keys() | rt.keys() if lt.get(key, 0) != rt.get(key, 0)]
    if not diffs:
        return None
    key = min(diffs, key=lhs._sort_key)
    return {
        "monomial": lhs._key_json(key),
        "lhs": str(lt.get(key, 0)),
        "rhs": str(rt.get(key, 0)),
    }
