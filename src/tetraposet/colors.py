"""The six edge colors and admissibility of color subsets.

Vertices of the tetrahedral poset live at integer triples (c1, c2, c3). Each
color names a fixed lattice step, pointing up the order; three of the steps
are sums of the others (blue = green - red, orange = yellow - red,
silver = green - yellow), which is where the admissibility rules come from: a
color set is usable as an order relation only when it is closed under those
compositions.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum


# The members are declared in canonical order, and CANONICAL_ORDER is read
# off the declaration, so their order is significant.
class Color(Enum):
    RED = "r"
    BLUE = "b"
    GREEN = "g"
    ORANGE = "o"
    YELLOW = "y"
    SILVER = "s"

    def __repr__(self) -> str:
        return f"Color.{self.name}"


#: Canonical ordering used wherever a stable color order is needed.
CANONICAL_ORDER = tuple(Color)

#: Lattice step of an upward edge of each color, in (c1, c2, c3) coordinates.
STEP = {
    Color.RED: (1, 0, 0),
    Color.GREEN: (0, 1, 0),
    Color.YELLOW: (0, 0, 1),
    Color.BLUE: (-1, 1, 0),
    Color.ORANGE: (-1, 0, 1),
    Color.SILVER: (0, 1, -1),
}

#: Each rule is (premise pair, required color): the two premise steps sum to
#: the required step, so any set containing the pair must contain the sum.
ADMISSIBILITY_RULES = (
    (frozenset({Color.RED, Color.BLUE}), Color.GREEN),
    (frozenset({Color.ORANGE, Color.SILVER}), Color.BLUE),
    (frozenset({Color.SILVER, Color.YELLOW}), Color.GREEN),
    (frozenset({Color.RED, Color.ORANGE}), Color.YELLOW),
)

_BY_LETTER = {color.value: color for color in Color}


def sort_colors(colors: Iterable[Color]) -> tuple[Color, ...]:
    return tuple(sorted(colors, key=CANONICAL_ORDER.index))


def parse_colors(colors: str | Iterable[Color]) -> frozenset[Color]:
    """Accept a compact letter string like "gybo" or any iterable of Color."""
    if isinstance(colors, str):
        out = []
        for letter in colors:
            if letter not in _BY_LETTER:
                raise ValueError(
                    f"unknown color {letter!r}; expected letters from 'rbgoys'"
                )
            out.append(_BY_LETTER[letter])
        if len(set(out)) != len(out):
            raise ValueError(f"repeated color in {colors!r}")
        return frozenset(out)
    out = frozenset(colors)
    for c in out:
        if not isinstance(c, Color):
            raise ValueError(f"not a Color: {c!r}")
    return out


def format_colors(colors: Iterable[Color]) -> str:
    return "".join(color.value for color in sort_colors(colors))


def admissibility_violations(colors: str | Iterable[Color]) -> list[str]:
    """Human-readable description of every violated closure rule."""
    colorset = parse_colors(colors)
    violations = []
    for premise, required in ADMISSIBILITY_RULES:
        if premise <= colorset and required not in colorset:
            violations.append(
                f"{{{format_colors(premise)}}} requires {required.value}"
            )
    return violations


def is_admissible(colors: str | Iterable[Color]) -> bool:
    return not admissibility_violations(colors)


def require_admissible(colors: str | Iterable[Color]) -> frozenset[Color]:
    colorset = parse_colors(colors)
    violations = admissibility_violations(colorset)
    if violations:
        raise ValueError(
            f"color set {{{format_colors(colorset)}}} is not admissible: "
            + "; ".join(violations)
        )
    return colorset


def all_admissible_sets() -> tuple[frozenset[Color], ...]:
    """All admissible subsets, ordered by size then canonical letter string."""
    found = []
    members = list(CANONICAL_ORDER)
    for mask in range(1 << len(members)):
        subset = frozenset(c for i, c in enumerate(members) if mask >> i & 1)
        if is_admissible(subset):
            found.append(subset)
    found.sort(key=lambda s: (len(s), format_colors(s)))
    return tuple(found)
