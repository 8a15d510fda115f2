"""Exact polynomial arithmetic: univariate in q, sparse multivariate in lambda and x_1..x_n.

All coefficients are arbitrary-precision integers. Division is exact and
raises on a nonzero remainder; there is no floating point anywhere.

SparsePoly monomials are keyed by (lambda exponent, ((variable index, exponent), ...))
with the x-part sorted by variable index. Serialization orders monomials by
total degree, then lambda exponent, then the x exponent tuple (graded
lexicographic), so output is deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import comb

Monomial = tuple[int, tuple[tuple[int, int], ...]]


class QPoly:
    """Polynomial in the single variable q with integer coefficients."""

    __slots__ = ("_coeffs",)

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
        self._coeffs = cleaned

    @classmethod
    def from_coeff_list(cls, coeffs: Iterable[int]) -> QPoly:
        """Build from a coefficient list, lowest degree first."""
        return cls({e: c for e, c in enumerate(coeffs)})

    @classmethod
    def q(cls, exp: int = 1) -> QPoly:
        return cls({exp: 1})

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def coefficients(self) -> dict[int, int]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def to_coeff_list(self) -> list[int]:
        """Coefficient list, lowest degree first; empty for zero."""
        if not self._coeffs:
            return []
        return [self.coeff(e) for e in range(self.degree + 1)]

    def __call__(self, value: int) -> int:
        total = 0
        for exp, c in self._coeffs.items():
            total += c * value**exp
        return total

    def _coerce(self, other) -> QPoly | None:
        if isinstance(other, QPoly):
            return other
        if isinstance(other, int):
            return QPoly({0: other})
        return None

    def __add__(self, other) -> QPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in rhs._coeffs.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return QPoly({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> QPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> QPoly:
        return -(self - other)

    def __mul__(self, other) -> QPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in rhs._coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> QPoly:
        if power < 0:
            raise ValueError("negative power")
        result = QPoly({0: 1})
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def exact_div(self, other: QPoly) -> QPoly:
        """Exact polynomial division; raises ValueError on a nonzero remainder."""
        if not isinstance(other, QPoly) or other.is_zero():
            raise ValueError("division by zero polynomial")
        remainder = dict(self._coeffs)
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
            for oe, oc in other._coeffs.items():
                t = e - d + oe
                s = remainder.get(t, 0) - q * oc
                if s:
                    remainder[t] = s
                else:
                    remainder.pop(t, None)
        return QPoly(quotient)

    def reversed_poly(self, degree: int | None = None) -> QPoly:
        """q^degree * p(1/q); degree defaults to deg(p)."""
        if degree is None:
            degree = self.degree
        if degree < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        return QPoly({degree - e: c for e, c in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._coeffs == rhs._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "QPoly(0)"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
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


class SparsePoly:
    """Sparse polynomial in lambda and the variables x_1, x_2, ..."""

    __slots__ = ("_terms",)

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

    def is_zero(self) -> bool:
        return not self._terms

    def term_count(self) -> int:
        return len(self._terms)

    def _coerce(self, other) -> SparsePoly | None:
        if isinstance(other, SparsePoly):
            return other
        if isinstance(other, int):
            return SparsePoly.constant(other)
        return None

    def __add__(self, other) -> SparsePoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, c in rhs._terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        result = SparsePoly()
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> SparsePoly:
        result = SparsePoly()
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def __sub__(self, other) -> SparsePoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> SparsePoly:
        return -(self - other)

    @staticmethod
    def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
        lam = a[0] + b[0]
        exps: dict[int, int] = dict(a[1])
        for k, e in b[1]:
            exps[k] = exps.get(k, 0) + e
        return (lam, tuple(sorted(exps.items())))

    def __mul__(self, other) -> SparsePoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                m = self._mul_monomials(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        result = SparsePoly()
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, power: int) -> SparsePoly:
        if power < 0:
            raise ValueError("negative power")
        result = SparsePoly.constant(1)
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
        return SparsePoly(out)

    def to_json_obj(self) -> list[dict]:
        """Monomial list in graded-lex order; coefficients as decimal strings."""
        out = []
        for mono in self.monomials():
            lam, xs = mono
            out.append(
                {
                    "lambda": lam,
                    "x": {str(k): e for k, e in xs},
                    "coeff": str(self._terms[mono]),
                }
            )
        return out

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
    for (lam, xs), c in poly.terms().items():
        if lam:
            raise ValueError("principal specialization of a polynomial with lambda")
        e = sum((k - 1) * exp for k, exp in xs)
        s = coeffs.get(e, 0) + c
        if s:
            coeffs[e] = s
        else:
            coeffs.pop(e, None)
    return QPoly(coeffs)


def first_difference(lhs, rhs) -> dict | None:
    """Smallest monomial where two polynomials differ, or None if equal.

    Works for a pair of SparsePoly or a pair of QPoly; coefficients are
    reported as decimal strings.
    """
    if isinstance(lhs, QPoly) and isinstance(rhs, QPoly):
        exps = set(lhs.coefficients()) | set(rhs.coefficients())
        diffs = sorted(e for e in exps if lhs.coeff(e) != rhs.coeff(e))
        if not diffs:
            return None
        e = diffs[0]
        return {
            "monomial": {"q": e},
            "lhs": str(lhs.coeff(e)),
            "rhs": str(rhs.coeff(e)),
        }
    if isinstance(lhs, SparsePoly) and isinstance(rhs, SparsePoly):
        lt, rt = lhs.terms(), rhs.terms()
        diffs = sorted(
            (m for m in set(lt) | set(rt) if lt.get(m, 0) != rt.get(m, 0)),
            key=monomial_sort_key,
        )
        if not diffs:
            return None
        m = diffs[0]
        return {
            "monomial": {"lambda": m[0], "x": {str(k): e for k, e in m[1]}},
            "lhs": str(lt.get(m, 0)),
            "rhs": str(rt.get(m, 0)),
        }
    raise ValueError("mismatched polynomial types")
