"""Closed-form counting products and the tournament generating function.

Every product here is evaluated exactly. Quotients are computed as big-integer
products with divisibility checked before the final division.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from math import comb, factorial, prod

from .budget import guard
from .colors import parse_colors, require_admissible
from .polynomials import QPoly, SparsePoly, _q_pascal_row, q_factorial


def q_factorial_product(n: int) -> QPoly:
    """prod_{j=1..n} [j]_q! : the rank generating function for one color."""
    return QPoly.product(map(q_factorial, range(1, n + 1)))


def q_binomial_product(n: int) -> QPoly:
    """prod_{j=1..n} [n choose j]_q : two opposite colors, from one q-Pascal row."""
    return QPoly.product(_q_pascal_row(n)[1:])


def three_color_product(n: int) -> QPoly:
    """prod_{j=1..n-1} (1+q^j)^(n-j) : the nine formula-bearing 3-color sets."""
    return QPoly.product(QPoly({0: 1, j: 1}) ** (n - j) for j in range(1, n))


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


def _catalan_count(n: int) -> int:
    return prod(map(catalan_number, range(1, n + 1)))


def catalan_product(n: int) -> tuple[int, QPoly]:
    """(prod_{j=1..n} C_j, prod_{j=1..n} C_j(q)) for the adjacent 2-color sets."""
    return _catalan_count(n), QPoly.product(map(carlitz_riordan, range(1, n + 1)))


def asm_number(n: int) -> int:
    """prod_{j=0..n-1} (3j+1)!/(n+j)! : the count for every 4-color set."""
    if n < 1:
        raise ValueError("n must be at least 1")
    num = prod(factorial(3 * j + 1) for j in range(n))
    den = prod(factorial(n + j) for j in range(n))
    if num % den:
        raise ArithmeticError(f"factorial quotient not integral at n={n}")
    return num // den


def tspp_number(n: int) -> int:
    """Totally symmetric plane partitions in the (n-1)-cube: all six colors."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs = [(i, j) for i in range(1, n) for j in range(i, n)]
    num = prod(i + j + n - 2 for i, j in pairs)
    den = prod(i + 2 * j - 2 for i, j in pairs)
    if num % den:
        raise ArithmeticError(f"product not integral at n={n}")
    return num // den


def _pair_product(n: int, upset: int) -> SparsePoly:
    """prod_{1<=i<j<=n} (x_i + lambda^upset x_j), expanded; the term count is
    checked against the budget after every factor."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = SparsePoly.constant(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out = out * SparsePoly({(0, ((i, 1),)): 1, (upset, ((j, 1),)): 1})
            guard(out.term_count(), "generating function terms")
    return out


def tournament_gf(n: int) -> SparsePoly:
    """prod_{1<=i<j<=n} (x_i + lambda x_j), expanded.

    The monomial of a tournament carries lambda^(upsets) and x_v^(wins of v).
    """
    return _pair_product(n, 1)


# Formula dispatch: which admissible sets have a closed form.

_TWO_OPPOSITE = tuple(map(parse_colors, ("go", "rs", "by")))
_TWO_ADJACENT_DIRECT = tuple(map(parse_colors, ("bg", "bs", "oy", "gs")))
_TWO_ADJACENT_DUAL = tuple(map(parse_colors, ("ry", "rg", "gy", "bo")))
_THREE_NO_FORMULA = tuple(map(parse_colors, ("rgy", "bgs")))


def _closed_forms(
    colors, n: int
) -> tuple[Callable[[int], int], Callable[[int], QPoly] | None] | None:
    """(count, rank gf or None) as functions of n for the closed forms of
    J(T_n(S)), or None when S has none. T_n exists for n >= 1 only, and S
    must be admissible.

    Four of the adjacent 2-color sets carry the q-Catalan product directly;
    the other four are their duals, so their generating function is the
    degree-reversal of that product (complementation swaps ideals of a poset
    and its dual).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    colorset = require_admissible(colors)
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
    forms = _closed_forms(colors, n)
    return forms[0](n) if forms else None


def formula_rank_gf(colors, n: int) -> QPoly | None:
    """Closed-form rank generating function for J(T_n(S)), or None."""
    forms = _closed_forms(colors, n)
    return forms[1](n) if forms and forms[1] else None
