"""Closed-form counting products and the tournament generating function.

Every product here is evaluated exactly. Factorial quotients are computed as
big-integer products with divisibility checked before the final division.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .budget import guard
from .colors import is_admissible, parse_colors
from .polynomials import QPoly, SparsePoly, q_binomial, q_factorial


def q_factorial_product(n: int) -> QPoly:
    """prod_{j=1..n} [j]_q! : the rank generating function for one color."""
    out = QPoly({0: 1})
    for j in range(1, n + 1):
        out = out * q_factorial(j)
    return out


def q_binomial_product(n: int) -> QPoly:
    """prod_{j=1..n} [n choose j]_q : two opposite colors."""
    out = QPoly({0: 1})
    for j in range(1, n + 1):
        out = out * q_binomial(n, j)
    return out


def three_color_product(n: int) -> QPoly:
    """prod_{j=1..n-1} (1+q^j)^(n-j) : the nine formula-bearing 3-color sets."""
    out = QPoly({0: 1})
    for j in range(1, n):
        out = out * (QPoly({0: 1, j: 1}) ** (n - j))
    return out


def catalan_number(j: int) -> int:
    return comb(2 * j, j) // (j + 1)


@lru_cache(maxsize=None)
def carlitz_riordan(j: int) -> QPoly:
    """q-Catalan polynomials: C_j(q) = sum_{k=1..j} q^(k-1) C_{k-1}(q) C_{j-k}(q)."""
    if j < 0:
        raise ValueError("negative index")
    if j <= 1:
        return QPoly({0: 1})
    poly = QPoly()
    for k in range(1, j + 1):
        poly = poly + QPoly.q(k - 1) * carlitz_riordan(k - 1) * carlitz_riordan(j - k)
    return poly


def catalan_product(n: int) -> tuple[int, QPoly]:
    """(prod_{j=1..n} C_j, prod_{j=1..n} C_j(q)) for the adjacent 2-color sets."""
    count = 1
    poly = QPoly({0: 1})
    for j in range(1, n + 1):
        count *= catalan_number(j)
        poly = poly * carlitz_riordan(j)
    return count, poly


def asm_number(n: int) -> int:
    """prod_{j=0..n-1} (3j+1)!/(n+j)! : the count for every 4-color set."""
    if n < 1:
        raise ValueError("n must be at least 1")
    num = 1
    den = 1
    for j in range(n):
        num *= factorial(3 * j + 1)
        den *= factorial(n + j)
    if num % den:
        raise ArithmeticError(f"factorial quotient not integral at n={n}")
    return num // den


def tspp_number(n: int) -> int:
    """Totally symmetric plane partitions in the (n-1)-cube: all six colors."""
    if n < 1:
        raise ValueError("n must be at least 1")
    value = Fraction(1)
    for i in range(1, n):
        for j in range(i, n):
            value *= Fraction(i + j + n - 2, i + 2 * j - 2)
    if value.denominator != 1:
        raise ArithmeticError(f"product not integral at n={n}")
    return value.numerator


def tournament_gf(n: int) -> SparsePoly:
    """prod_{1<=i<j<=n} (x_i + lambda x_j), expanded.

    The monomial of a tournament carries lambda^(upsets) and x_v^(wins of v).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = SparsePoly.constant(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * (SparsePoly.x(i) + SparsePoly.lam() * SparsePoly.x(j))
            guard(out.term_count(), "generating function terms")
    return out


# Formula dispatch: which admissible sets have a closed form.

_TWO_OPPOSITE = tuple(map(parse_colors, ("go", "rs", "by")))
_TWO_ADJACENT_DIRECT = tuple(map(parse_colors, ("bg", "bs", "oy", "gs")))
_TWO_ADJACENT_DUAL = tuple(map(parse_colors, ("ry", "rg", "gy", "bo")))
_THREE_NO_FORMULA = tuple(map(parse_colors, ("rgy", "bgs")))


def _catalan_count(n: int) -> int:
    return catalan_product(n)[0]


def _closed_forms(colors) -> tuple[Callable[[int], int], Callable[[int], QPoly] | None] | None:
    """(count, rank gf or None) as functions of n for the closed forms of
    J(T_n(S)), or None when S has none.

    Four of the adjacent 2-color sets carry the q-Catalan product directly;
    the other four are their duals, so their generating function is the
    degree-reversal of that product (complementation swaps ideals of a poset
    and its dual).
    """
    colorset = parse_colors(colors)
    if not is_admissible(colorset):
        raise ValueError("color set is not admissible")
    if len(colorset) == 1:
        return lambda n: prod(map(factorial, range(1, n + 1))), q_factorial_product
    if colorset in _TWO_OPPOSITE:
        return lambda n: prod(comb(n, j) for j in range(1, n + 1)), q_binomial_product
    if colorset in _TWO_ADJACENT_DIRECT:
        return _catalan_count, lambda n: catalan_product(n)[1]
    if colorset in _TWO_ADJACENT_DUAL:
        return _catalan_count, lambda n: catalan_product(n)[1].reversed_poly(comb(n + 1, 3))
    if len(colorset) == 3 and colorset not in _THREE_NO_FORMULA:
        return lambda n: 2 ** comb(n, 2), three_color_product
    if len(colorset) == 4:
        return asm_number, None
    if len(colorset) == 6:
        return tspp_number, None
    return None


def formula_count(colors, n: int) -> int | None:
    """Closed-form ideal count for T_n(S), or None when no formula is known."""
    forms = _closed_forms(colors)
    return forms[0](n) if forms else None


def formula_rank_gf(colors, n: int) -> QPoly | None:
    """Closed-form rank generating function for J(T_n(S)), or None."""
    forms = _closed_forms(colors)
    return forms[1](n) if forms and forms[1] else None
