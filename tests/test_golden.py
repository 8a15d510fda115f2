"""Golden CLI corpus: the exact exit code, stdout and stderr of a fixed set of
invocations, replayed in process against golden_cli.json.

The corpus covers `count --q` for every admissible set at n = 1..7,
`--seed-list`, `convert` from and to every family, `export-dot`, `verify` for
every identity at n = 1..5 (with the timing field removed) and the CLI's error
paths. Rewrite it only for a deliberate output change, and log which records
changed:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import (
    ARRAY4_ROWS,
    ASM4_ROWS,
    MT4_ROWS,
    TOURNAMENT_ARRAYS_3,
    TSSCPP8_ARRAY_ROWS,
    TSSCPP8_ROWS,
)
from tetraposet import IDENTITY_NAMES, all_admissible_sets, cli, format_colors

DATA = Path(__file__).with_name("golden_cli.json")
_ELAPSED = re.compile(r'"elapsed_ms":\d+,')

#: (family, object, colors to pass when converting it to an ideal)
CONVERT_INPUTS = (
    ("asm", [[0, 1], [1, 0]], "gybo"),  # the README example
    ("asm", ASM4_ROWS, "gybo"),
    ("mt", MT4_ROWS, "gybo"),
    ("array", ARRAY4_ROWS, "gybo"),
    ("tsscpp", TSSCPP8_ROWS, "gyor"),
    ("array", TSSCPP8_ARRAY_ROWS, "gyor"),
) + tuple(("array", rows, "rbg") for rows in TOURNAMENT_ARRAYS_3)

ERROR_CASES = (
    (["convert", "--from", "asm", "--to", "tournament", "--input", "-"], json.dumps(ASM4_ROWS)),
    (["convert", "--from", "array", "--to", "ideal", "--input", "-", "--colors", "gyor"],
     json.dumps(ARRAY4_ROWS)),
    (["convert", "--from", "asm", "--to", "mt", "--input", "-"], "[[1, 0], [1, 0]]"),
    (["convert", "--from", "asm", "--to", "mt", "--input", "-"], "not json"),
    (["convert", "--from", "array", "--to", "ideal", "--input", "-"], json.dumps(ARRAY4_ROWS)),
    (["count", "--n", "4", "--colors", "rbgos"], None),
    (["count", "--n", "0", "--colors", "g"], None),
    (["count", "--n", "3", "--colors", "gybo", "--q", "--method", "formula"], None),
    (["verify", "--identity", "tsscpp-count", "--n", "-1"], None),
    (["verify", "--identity", "formulas", "--n", "0"], None),
    (["verify", "--identity", "rr", "--n", "0"], None),
    (["convert", "--from", "ideal", "--to", "array", "--input", "-"],
     '{"n":3,"vertices":[5],"colors":"g"}'),
    (["convert", "--from", "ideal", "--to", "array", "--input", "-"],
     '{"n":3,"vertices":[[0,0]],"colors":"g"}'),
) + tuple(
    (["convert", "--from", "ideal", "--to", "array", "--input", "-"], payload)
    for payload in (
        '{"n":3,"vertices":5,"colors":"g"}',
        '{"n":3,"colors":"g"}',
        "[1,2]",
        '{"n":3,"vertices":[],"colors":5}',
        '{"vertices":[],"colors":"g"}',
        '{"n":3,"vertices":[],"colors":"ry"}',
        '{"n":0,"vertices":[],"colors":"g"}',
    )
) + (
    (["convert", "--from", "array", "--to", "ideal", "--input", "-", "--colors", "ry"],
     json.dumps(TOURNAMENT_ARRAYS_3[0])),
) + tuple(
    (["convert", "--from", "tournament", "--to", "array", "--input", "-"], payload)
    for payload in (
        '{"games":[]}',
        '{"n":2}',
        '{"n":2,"games":5}',
        '{"n":2,"games":[[1,2,3,4]]}',
        "[1]",
    )
) + tuple(
    (["convert", "--from", src, "--to", "array", "--input", "-"], payload)
    for src, payload in (("asm", "5"), ("mt", "[5]"), ("array", "null"), ("tsscpp", '"ab"'))
)

#: convert inputs past the family objects: a null colors field is no field,
#: so --colors applies
PAYLOAD_CASES = (
    (["convert", "--from", "ideal", "--to", "array", "--input", "-", "--colors", "g"],
     '{"n":3,"vertices":[],"colors":null}'),
)


def run(group: str, argv: list[str], stdin: str | None = None) -> dict:
    """One in-process CLI call, recorded with the timing field removed."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return {
        "group": group,
        "argv": argv,
        "stdin": stdin,
        "code": code,
        "out": _ELAPSED.sub("", out.getvalue()),
        "err": err.getvalue(),
    }


def generate() -> list[dict]:
    sets = [format_colors(s) for s in all_admissible_sets()]
    records = [
        run("count", ["count", "--n", str(n), "--colors", s, "--q"])
        for n in range(1, 8)
        for s in sets
    ]
    records += [
        run("seed-list", ["count", "--n", "3", "--colors", s, "--seed-list"])
        for s in ("rbg", "bgoy")
    ]
    for src, obj, colors in CONVERT_INPUTS:
        for dst in cli.FAMILIES:
            argv = ["convert", "--from", src, "--to", dst, "--input", "-"]
            if dst == "ideal":
                argv += ["--colors", colors]
            there = run("convert", argv, json.dumps(obj))
            records.append(there)
            if there["code"] == 0:
                argv = ["convert", "--from", dst, "--to", src, "--input", "-"]
                records.append(run("convert", argv, there["out"]))
    records += [
        run("export-dot", ["export-dot", "--n", n, "--colors", s, "--output", "-"])
        for n, s in (("3", "rbg"), ("4", "gyor"), ("4", "rbgoys"))
    ]
    records += [
        run("verify", ["verify", "--identity", name, "--n", str(n)])
        for name in IDENTITY_NAMES
        for n in range(1, 6)
    ]
    records += [run("errors", argv, stdin) for argv, stdin in ERROR_CASES]
    records += [run("convert", argv, stdin) for argv, stdin in PAYLOAD_CASES]
    return records


def _records() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", ["count", "seed-list", "convert", "export-dot", "verify", "errors"])
def test_golden_cli(group):
    records = [r for r in _records() if r["group"] == group]
    assert records
    changed = [
        " ".join(r["argv"])
        for r in records
        if run(group, r["argv"], r["stdin"]) != r
    ]
    assert not changed, changed


if __name__ == "__main__":
    lines = [json.dumps(r, sort_keys=True) for r in generate()]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(lines)} records to {DATA}")
