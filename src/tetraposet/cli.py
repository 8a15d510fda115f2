"""Command-line front end.

Subcommands: count, convert, verify, export-dot. Outputs are deterministic:
identical inputs give byte-identical bytes (verify reports additionally carry
an elapsed_ms field, which is the one timing-dependent value). Counts and
polynomial coefficients are printed as decimal strings since they overflow
64-bit integers early.

Exit codes: 0 success, 2 invalid input, 3 no formula available,
4 constraint-family mismatch, 5 identity mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .arrays import StaircaseArray, _require_green
from .budget import BudgetError, enumeration_budget, guard
from .bijections import (
    Asm,
    FamilyMismatch,
    MonotoneTriangle,
    Tournament,
    Tsscpp,
    array_to_asm,
    array_to_mt,
    array_to_tournament,
    array_to_tsscpp,
    asm_to_array,
    mt_to_array,
    require_family,
    tournament_to_array,
    tsscpp_to_array,
)
from .colors import Color, format_colors, require_admissible
from .counting import count_ideals, enumerate_ideals, rank_gf
from .formulas import formula_count, formula_rank_gf
from .identities import IDENTITY_NAMES, verify_formulas, verify_identity
from .polynomials import QPoly
from .poset import OrderIdeal, array_to_ideal, build, ideal_to_array, to_dot

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_FORMULA = 3
EXIT_FAMILY = 4
EXIT_MISMATCH = 5

def _same(x):
    return x


#: family -> (type, to array, from array), the array being the hub
FAMILIES = {
    "asm": (Asm, asm_to_array, array_to_asm),
    "mt": (MonotoneTriangle, mt_to_array, array_to_mt),
    "array": (StaircaseArray, _same, _same),
    "tsscpp": (Tsscpp, tsscpp_to_array, array_to_tsscpp),
    "tournament": (Tournament, tournament_to_array, array_to_tournament),
    "ideal": (OrderIdeal, ideal_to_array, array_to_ideal),
}


class NoFormula(Exception):
    pass


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _gf_payload(gf) -> list[str]:
    return [str(c) for c in gf.to_coeff_list()]


def _cmd_count(args) -> int:
    colorset = require_admissible(args.colors)
    n = args.n
    if n < 1:
        raise ValueError("n must be at least 1")
    if args.seed_list:
        if args.q or args.method == "formula":
            raise ValueError("--seed-list cannot be combined with --q or --method formula")
        for ideal in enumerate_ideals(build(n).subposet(colorset)):
            payload = ideal.to_json_obj()
            payload["colors"] = format_colors(colorset)
            sys.stdout.write(_dump(payload) + "\n")
        return EXIT_OK

    if args.method == "formula":
        count = formula_count(colorset, n)
        if count is None:
            raise NoFormula(
                f"no product formula is known for {{{format_colors(colorset)}}}"
            )
        gf = None
        if args.q:
            gf = formula_rank_gf(colorset, n)
            if gf is None:
                raise NoFormula(
                    f"no closed rank generating function is known for "
                    f"{{{format_colors(colorset)}}}"
                )
    elif args.method == "enum":
        sizes: dict[int, int] = {}
        for ideal in enumerate_ideals(build(n).subposet(colorset)):
            sizes[len(ideal)] = sizes.get(len(ideal), 0) + 1
        count = sum(sizes.values())
        gf = QPoly(sizes) if args.q else None
    elif args.q:
        gf = rank_gf(build(n).subposet(colorset))
        count = gf(1)
    else:
        count = count_ideals(build(n).subposet(colorset))

    if args.q:
        payload = {
            "colors": format_colors(colorset),
            "count": str(count),
            "n": n,
            "rank_gf": _gf_payload(gf),
        }
        sys.stdout.write(_dump(payload) + "\n")
    else:
        sys.stdout.write(f"{count}\n")
    return EXIT_OK


def _ideal_colors(colors: str | None, n: int, missing: str) -> frozenset[Color]:
    if colors is None:
        raise ValueError(missing)
    return _require_green(n, colors)


def _read_json(path: str):
    """The JSON document at path, or on stdin for -. At most budget + 1
    characters are read, and a longer input is refused before parsing."""
    limit = max(enumeration_budget(), 0) + 1
    if path == "-":
        text = sys.stdin.read(limit)
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read(limit)
    guard(len(text), "input characters")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None


def _cmd_convert(args) -> int:
    payload = _read_json(args.input)
    family, to_array, _ = FAMILIES[args.src]
    obj = family.from_json_obj(payload)
    if args.src == "ideal":
        colors = payload.get("colors")  # a null field is no field
        if colors is None:
            colors = args.colors
        elif not isinstance(colors, str):
            raise ValueError(f'field "colors" must be a string of color letters, got {colors!r}')
        colorset = _ideal_colors(
            colors, obj.n, "converting from an ideal needs a colors field or --colors"
        )
        if not build(obj.n).subposet(colorset).is_ideal(obj.members):
            raise ValueError("vertex set is not an order ideal of that subposet")
    x = to_array(obj)
    out = FAMILIES[args.to][2](x).to_json_obj()
    if args.to == "ideal":
        colorset = _ideal_colors(args.colors, x.n, "converting to an ideal needs --colors")
        require_family(x, colorset)
        out["colors"] = format_colors(colorset)
    sys.stdout.write(_dump(out) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.n < 1:
        raise ValueError("n must be at least 1")
    if args.identity == "formulas":
        reports = verify_formulas(args.n)
    else:
        reports = [verify_identity(args.identity, args.n)]
    ok = True
    for report in reports:
        sys.stdout.write(_dump(report) + "\n")
        ok = ok and report["status"] == "ok"
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_export_dot(args) -> int:
    colorset = require_admissible(args.colors)
    dot = to_dot(build(args.n).subposet(colorset))
    if args.output == "-":
        sys.stdout.write(dot)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dot)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every
    later main call in the process. It holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="tetraposet",
        description="Tetrahedral poset order ideals: counting, bijections, "
        "identity verification, DOT export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count order ideals of T_n(S)")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--colors", required=True, help="color letters, e.g. gybo")
    p_count.add_argument("--q", action="store_true", help="also print the rank generating function")
    p_count.add_argument("--method", choices=("dp", "enum", "formula"), default="dp")
    p_count.add_argument(
        "--seed-list",
        action="store_true",
        help="stream every order ideal as JSON lines instead of counting",
    )
    p_count.set_defaults(func=_cmd_count)

    p_convert = sub.add_parser("convert", help="convert between object families")
    p_convert.add_argument("--from", dest="src", choices=FAMILIES, required=True)
    p_convert.add_argument("--to", choices=FAMILIES, required=True)
    p_convert.add_argument("--input", required=True, help="JSON file, or - for stdin")
    p_convert.add_argument(
        "--colors", help="color letters; needed when an ideal endpoint lacks them"
    )
    p_convert.set_defaults(func=_cmd_convert)

    p_verify = sub.add_parser("verify", help="verify an identity by exact expansion")
    p_verify.add_argument("--identity", choices=IDENTITY_NAMES, required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_dot = sub.add_parser("export-dot", help="write the Hasse diagram as DOT")
    p_dot.add_argument("--n", type=int, required=True)
    p_dot.add_argument("--colors", required=True)
    p_dot.add_argument("--output", required=True, help="file path, or - for stdout")
    p_dot.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # count and verify print exact answers whole; the int <-> str digit limit
    # guards the parsing of untrusted input, so convert, which parses JSON, keeps it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and args.command in ("count", "verify"):
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except NoFormula as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FORMULA
    except FamilyMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAMILY
    except (BudgetError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
