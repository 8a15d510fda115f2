import contextlib
import copy
import functools
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tetraposet import (
    OrderIdeal,
    SparsePoly,
    StaircaseArray,
    array_to_ideal,
    build,
    cli,
    enumerate_arrays,
    identities,
    validate,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "4", "--colors", "gybo")
    assert (code, out, err) == (0, "42\n", "")


def test_count_no_formula_pair(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "5", "--colors", "rgy")
    assert (code, out) == (0, "2498\n")
    code, out, _ = run_cli(capsys, "count", "--n", "5", "--colors", "bgs")
    assert (code, out) == (0, "2498\n")


def test_count_q_payload(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "2", "--colors", "g", "--q")
    assert code == 0
    assert out == '{"colors":"g","count":"2","n":2,"rank_gf":["1","1"]}\n'


def test_count_methods_agree(capsys):
    outputs = set()
    for method in ("dp", "enum"):
        code, out, _ = run_cli(
            capsys, "count", "--n", "4", "--colors", "gyor", "--q", "--method", method
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_count_formula_method(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "5", "--colors", "gybo", "--method", "formula"
    )
    assert (code, out) == (0, "429\n")


def test_count_canonicalizes_colors(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--colors", "obyg", "--q")
    assert code == 0
    assert json.loads(out)["colors"] == "bgoy"


def test_count_deterministic_bytes(capsys):
    runs = {
        run_cli(capsys, "count", "--n", "4", "--colors", "gybo", "--q")[1]
        for _ in range(2)
    }
    assert len(runs) == 1


def test_exit_2_unknown_color(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "3", "--colors", "gx")
    assert code == 2
    assert "unknown color" in err


def test_exit_2_inadmissible_set_names_rule(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "4", "--colors", "rbgos")
    assert code == 2
    assert "requires" in err
    code, _, err = run_cli(capsys, "count", "--n", "4", "--colors", "rb")
    assert code == 2
    assert "g" in err


def test_exit_2_n_below_one(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "0", "--colors", "g")
    assert code == 2


def test_exit_2_n1_without_green(capsys):
    # n = 1 is the empty poset for every color set, green or not
    code, out, err = run_cli(capsys, "count", "--n", "1", "--colors", "s")
    assert (code, out, err) == (0, "1\n", "")


def test_n1_with_green(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "1", "--colors", "g", "--q")
    assert code == 0
    assert json.loads(out) == {"colors": "g", "count": "1", "n": 1, "rank_gf": ["1"]}


def test_n1_is_the_empty_poset(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "export-dot", "--n", "1", "--colors", "rs", "--output", "-")
    assert (code, out) == (0, 'digraph "T1_rs" {\n}\n')
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 1, "vertices": [], "colors": "g"}'))
    code, out, _ = run_cli(capsys, "convert", "--from", "ideal", "--to", "asm", "--input", "-")
    assert (code, out) == (0, "[[1]]\n")
    code, out, _ = run_cli(capsys, "verify", "--identity", "formulas", "--n", "1")
    assert code == 0
    assert all(json.loads(line)["status"] == "ok" for line in out.splitlines())


def test_exit_3_no_formula(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "4", "--colors", "rbgoy", "--method", "formula"
    )
    assert code == 3
    assert "rbgoy" in err


def test_exit_3_no_q_formula(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "3", "--colors", "gybo", "--q", "--method", "formula"
    )
    assert code == 3


def test_seed_list_streams_ideals(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--colors", "brg", "--seed-list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    sub = build(3).subposet("brg")
    seen = set()
    for line in lines:
        payload = json.loads(line)
        assert payload["colors"] == "rbg"
        ideal = OrderIdeal.from_json_obj(payload)
        assert sub.is_ideal(ideal.members)
        seen.add(ideal.members)
    assert len(seen) == 8


def test_seed_list_n1(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "1", "--colors", "g", "--seed-list")
    assert code == 0
    assert json.loads(out) == {"colors": "g", "n": 1, "vertices": []}


def test_exit_2_seed_list_with_q(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "3", "--colors", "brg", "--seed-list", "--q"
    )
    assert code == 2


def test_exit_2_budget(capsys, monkeypatch):
    monkeypatch.setenv("TETRAPOSET_BUDGET", "5")
    code, _, err = run_cli(capsys, "count", "--n", "4", "--colors", "brg", "--seed-list")
    assert code == 2
    assert "budget" in err


def test_exit_2_verify_budget(capsys, monkeypatch):
    monkeypatch.setenv("TETRAPOSET_BUDGET", "5")
    code, out, err = run_cli(capsys, "verify", "--identity", "schur", "--n", "4")
    assert (code, out) == (2, "")
    assert "budget" in err


def test_exit_2_verify_schur_lhs_budget(capsys, monkeypatch):
    """The pairwise product is guarded factor by factor, before any right side."""
    monkeypatch.setenv("TETRAPOSET_BUDGET", "5")
    code, out, err = run_cli(capsys, "verify", "--identity", "schur", "--n", "6")
    assert (code, out) == (2, "")
    assert "generating function terms" in err
    assert "Traceback" not in err


def test_exit_2_verify_rr_budget(capsys, monkeypatch):
    monkeypatch.setenv("TETRAPOSET_BUDGET", "100")
    code, out, err = run_cli(capsys, "verify", "--identity", "rr", "--n", "6")
    assert (code, out) == (2, "")
    assert "budget" in err


def test_convert_asm_to_tournament_family_mismatch(capsys, tmp_path, asm4_rows):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(asm4_rows))
    code, _, err = run_cli(
        capsys, "convert", "--from", "asm", "--to", "tournament", "--input", str(path)
    )
    assert code == 4
    assert "family" in err


def test_convert_array_to_tsscpp_family_mismatch(capsys, tmp_path, array4_rows):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(array4_rows))
    code, _, err = run_cli(
        capsys, "convert", "--from", "array", "--to", "tsscpp", "--input", str(path)
    )
    assert code == 4


# Runs cli.main on its arguments in a process capped at 1 GiB of address
# space, so a call that tries to allocate without bound fails with
# MemoryError instead of exhausting the host. The last stderr line is the
# time main took.
_CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from tetraposet import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


def test_convert_tournament_rejects_missing_games_fast(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 1000000000, "games": []}))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN,
         "convert", "--from", "tournament", "--to", "array", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    *err, elapsed = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert float(elapsed) < 1.0
    assert "winners must cover exactly the games" in "\n".join(err)


@pytest.mark.parametrize(
    "args",
    [
        ("count", "--n", "3000", "--colors", "g"),
        ("export-dot", "--n", "2000", "--colors", "g", "--output", "-"),
    ],
)
def test_oversized_poset_is_refused_before_it_is_built(args):
    """build(n) allocates C(n+1, 3) vertices; the budget refuses them first."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *args], capture_output=True, text=True
    )
    *err, elapsed = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert float(elapsed) < 1.0
    vertices = comb(int(args[2]) + 1, 3)
    assert len(err) == 1 and err[0].startswith(f"error: refusing to enumerate {vertices} vertices ")


def test_counting_dp_is_refused_past_the_budget():
    """The frontier DP checks its live states after every step; unchecked,
    this count fills the 1 GiB cap with states."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "count", "--n", "14", "--colors", "rgs"],
        capture_output=True,
        text=True,
        env={**os.environ, "TETRAPOSET_BUDGET": "1000"},
    )
    *err, elapsed = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert float(elapsed) < 10.0
    assert len(err) == 1 and re.fullmatch(r"error: refusing to enumerate \d+ DP states .*", err[0])


def test_convert_refuses_deeply_nested_input():
    """json.loads recurses once per nesting level, so past the interpreter's
    limit the input is refused instead of ending in a traceback."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN,
         "convert", "--from", "asm", "--to", "array", "--input", "-"],
        input="[" * 100000 + "]" * 100000,
        capture_output=True,
        text=True,
    )
    *err, elapsed = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert err == ["error: input JSON is nested too deeply"]
    assert float(elapsed) < 1.0


def test_convert_refuses_input_longer_than_the_budget(tmp_path):
    """convert reads budget + 1 characters at most and refuses a longer
    input before parsing it, even one that holds a valid object."""
    path = tmp_path / "a.json"
    path.write_text("[[0,1],[1,0]]" + " " * 10**6)
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN,
         "convert", "--from", "asm", "--to", "array", "--input", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "TETRAPOSET_BUDGET": "50"},
    )
    *err, elapsed = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert err == [
        "error: refusing to enumerate 51 input characters "
        "(budget 50; set TETRAPOSET_BUDGET to raise it)"
    ]


@functools.cache
def valid_objects() -> dict[str, list]:
    """family -> the JSON of its valid objects of order <= 4, by the array
    enumerators; ideals carry their colors."""
    out: dict[str, list] = {family: [] for family in cli.FAMILIES}
    for colors, family in (
        ("bgoy", "asm"), ("bgoy", "mt"), ("rgoy", "tsscpp"), ("rbg", "tournament"), ("rbgy", "array"),
    ):
        for n in range(1, 5):
            for x in enumerate_arrays(n, colors):
                out[family].append(cli.FAMILIES[family][2](x).to_json_obj())
                out["ideal"].append({**array_to_ideal(x).to_json_obj(), "colors": colors})
    return out


def leaf_paths(obj, path=()):
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaf_paths(v, path + (i,))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaf_paths(v, path + (k,))
    else:
        yield path


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "vertices", "games", "colors"]) | st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def mutated_object(draw, family: str):
    """A valid object of the family with one entry changed."""
    obj = copy.deepcopy(draw(st.sampled_from(valid_objects()[family])))
    *head, last = draw(st.sampled_from(list(leaf_paths(obj))))
    parent = obj
    for key in head:
        parent = parent[key]
    parent[last] = draw(st.integers(-2, 6) | json_values)
    return obj


@pytest.mark.parametrize("src", cli.FAMILIES)
def test_convert_fuzz_exits_cleanly(tmp_path_factory, src):
    """Any input to convert, to every family, ends in exit 0, 2 or 4 with no
    traceback. The budget is lowered so that an ideal's n builds a T_n of
    at most 10^4 vertices."""
    path = tmp_path_factory.mktemp("fuzz") / "input.json"

    @settings(max_examples=40, deadline=1000)
    @given(
        text=st.text(max_size=20) | json_values.map(json.dumps) | mutated_object(src).map(json.dumps),
        colors=st.sampled_from([None, "g", "bgoy", "rgoy", "rbg", "rbgy", "rb"]),
    )
    def run(text, colors):
        path.write_text(text, encoding="utf-8")
        for to in cli.FAMILIES:
            argv = ["convert", "--from", src, "--to", to, "--input", str(path)]
            if colors is not None:
                argv += ["--colors", colors]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2, 4), (to, code, err.getvalue())
            assert "Traceback" not in err.getvalue()

    with mock.patch.dict(os.environ, {"TETRAPOSET_BUDGET": "10000"}):
        run()


def test_convert_tournament_rejects_repeated_game(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"n": 2, "games": [[1, 2, 1], [1, 2, 2]]}))
    code, out, err = run_cli(
        capsys, "convert", "--from", "tournament", "--to", "array", "--input", str(path)
    )
    assert (code, out) == (2, "")
    assert "game 1 vs 2 is listed twice" in err


def test_convert_rejects_non_integer_json_numbers(capsys, tmp_path):
    cases = [
        ("array", [[1.7, 2], [2]], "1.7"),
        ("array", [[True, 2], [2]], "True"),
        ("ideal", {"n": 2, "vertices": [[0.0, 0, 0]]}, "0.0"),
        ("ideal", {"n": 2.0, "vertices": [], "colors": "g"}, "2.0"),
        ("tournament", {"n": 2, "games": [[1, 2, False]]}, "False"),
    ]
    for family, payload, shown in cases:
        path = tmp_path / "x.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "convert", "--from", family, "--to", "asm", "--input", str(path)
        )
        assert (code, out) == (2, "")
        assert f"expected an integer, got {shown}" in err


def test_convert_asm_chain(capsys, tmp_path, asm4_rows, mt4_rows, array4_rows):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(asm4_rows))
    code, out, _ = run_cli(
        capsys, "convert", "--from", "asm", "--to", "mt", "--input", str(path)
    )
    assert code == 0
    assert json.loads(out) == mt4_rows
    code, out, _ = run_cli(
        capsys, "convert", "--from", "asm", "--to", "array", "--input", str(path)
    )
    assert code == 0
    assert json.loads(out) == array4_rows


def test_convert_tsscpp_chain(capsys, tmp_path, tsscpp8_rows, tsscpp8_array_rows):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tsscpp8_rows))
    code, out, _ = run_cli(
        capsys, "convert", "--from", "tsscpp", "--to", "array", "--input", str(path)
    )
    assert code == 0
    assert json.loads(out) == tsscpp8_array_rows
    back = tmp_path / "x.json"
    back.write_text(out)
    code, out, _ = run_cli(
        capsys, "convert", "--from", "array", "--to", "tsscpp", "--input", str(back)
    )
    assert code == 0
    assert json.loads(out) == tsscpp8_rows


def test_convert_identity_asm_to_tournament(capsys, tmp_path):
    path = tmp_path / "id.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    code, out, _ = run_cli(
        capsys, "convert", "--from", "asm", "--to", "tournament", "--input", str(path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert all(w == min(i, j) for i, j, w in payload["games"])


def test_convert_stdin(capsys, monkeypatch, asm4_rows, mt4_rows):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(asm4_rows)))
    code, out, _ = run_cli(
        capsys, "convert", "--from", "asm", "--to", "mt", "--input", "-"
    )
    assert code == 0
    assert json.loads(out) == mt4_rows


def test_convert_short_mt_row_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[[1],[1]]"))
    code, out, err = run_cli(
        capsys, "convert", "--from", "mt", "--to", "asm", "--input", "-"
    )
    assert (code, out) == (2, "")
    assert err == "error: row 2 must have 2 entries\n"
    assert "Traceback" not in err


def test_convert_array_to_ideal_and_back(capsys, tmp_path, array4_rows):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(array4_rows))
    code, out, _ = run_cli(
        capsys,
        "convert", "--from", "array", "--to", "ideal",
        "--input", str(path), "--colors", "gybo",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["colors"] == "bgoy"
    assert payload["n"] == 4
    ideal_path = tmp_path / "i.json"
    ideal_path.write_text(out)
    code, out, _ = run_cli(
        capsys, "convert", "--from", "ideal", "--to", "array", "--input", str(ideal_path)
    )
    assert code == 0
    assert json.loads(out) == array4_rows


def test_convert_to_ideal_needs_colors(capsys, tmp_path, array4_rows):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(array4_rows))
    code, _, err = run_cli(
        capsys, "convert", "--from", "array", "--to", "ideal", "--input", str(path)
    )
    assert code == 2
    assert "--colors" in err


def test_convert_to_ideal_wrong_family(capsys, tmp_path, array4_rows):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(array4_rows))
    code, _, err = run_cli(
        capsys,
        "convert", "--from", "array", "--to", "ideal",
        "--input", str(path), "--colors", "gyor",
    )
    assert code == 4


def test_convert_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run_cli(
        capsys, "convert", "--from", "asm", "--to", "mt", "--input", str(path)
    )
    assert code == 2


def test_convert_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "convert", "--from", "asm", "--to", "mt",
        "--input", str(tmp_path / "absent.json"),
    )
    assert code == 2


def test_convert_invalid_asm(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps([[1, 0], [1, 0]]))
    code, _, err = run_cli(
        capsys, "convert", "--from", "asm", "--to", "mt", "--input", str(path)
    )
    assert code == 2


def test_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "rr", "--n", "3")
    assert code == 0
    report = json.loads(out)
    assert report["identity"] == "rr"
    assert report["n"] == 3
    assert report["status"] == "ok"
    assert report["first_diff_monomial"] is None
    assert isinstance(report["elapsed_ms"], int)


def test_verify_formulas_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "formulas", "--n", "3")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) > 30
    assert all(r["status"] == "ok" for r in reports)


def test_verify_mismatch_exit_5(capsys, monkeypatch):
    def fake(name, n):
        return {
            "identity": name,
            "n": n,
            "status": "mismatch",
            "first_diff_monomial": {"lambda": 1, "x": {}},
            "elapsed_ms": 0,
        }

    monkeypatch.setattr(cli, "verify_identity", fake)
    code, out, _ = run_cli(capsys, "verify", "--identity", "rr", "--n", "3")
    assert code == 5
    assert json.loads(out)["status"] == "mismatch"


def test_count_prints_past_the_int_digit_limit(capsys):
    """An exact count past the interpreter's int-to-str digit limit (4,300
    by default) is printed whole: T_60 of the empty set is an antichain of
    C(61, 3) vertices, so it has 2^C(61, 3) ideals, 10,835 digits. The
    limit is back in place once main returns."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "count", "--n", "60", "--colors", "")
    assert (code, err, len(out)) == (0, "", 10_836)
    assert Decimal(out) == 2 ** comb(61, 3)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_verify_prints_past_the_int_digit_limit(capsys, monkeypatch):
    """A mismatch report prints each side's coefficient whole, however long."""
    big = 10**5000
    monkeypatch.setitem(
        identities._IDENTITIES, "rr", lambda n: (SparsePoly.constant(big), SparsePoly.constant(1))
    )
    code, out, err = run_cli(capsys, "verify", "--identity", "rr", "--n", "2")
    assert (code, err) == (5, "")
    assert json.loads(out)["first_diff_monomial"]["lhs"] == "1" + "0" * 5000


def test_convert_keeps_the_int_digit_limit(capsys, tmp_path):
    """convert parses untrusted JSON, so it keeps the limit that guards
    against quadratic int parsing, also after a count in the same process."""
    run_cli(capsys, "count", "--n", "60", "--colors", "")
    path = tmp_path / "big.json"
    path.write_text("[[" + "1" * 5000 + "]]")
    code, out, err = run_cli(
        capsys, "convert", "--from", "asm", "--to", "array", "--input", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")


def test_export_dot_stdout(capsys):
    code, out, _ = run_cli(capsys, "export-dot", "--n", "2", "--colors", "rbgoys", "--output", "-")
    assert code == 0
    assert out == 'digraph "T2_rbgoys" {\n  "0,0,0";\n}\n'


def test_export_dot_file(capsys, tmp_path):
    target = tmp_path / "poset.dot"
    code, out, _ = run_cli(
        capsys, "export-dot", "--n", "4", "--colors", "brg", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith('digraph "T4_rbg" {')
    assert "[color=red]" in text and "[color=blue]" in text and "[color=green]" in text


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "tetraposet.cli", "count", "--n", "4", "--colors", "gyor"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "42\n"


def test_seed_list_arrays_round_trip(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "4", "--colors", "gybo", "--seed-list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 42
    from tetraposet import ideal_to_array

    for line in lines:
        ideal = OrderIdeal.from_json_obj(json.loads(line))
        x = ideal_to_array(ideal)
        assert isinstance(x, StaircaseArray)
        assert validate(x, "gybo")


def main_outcomes(capsys, monkeypatch, calls):
    """(exit code, stdout, stderr) of cli.main on each (argv, stdin) in turn,
    in one process; an argparse exit counts by its SystemExit code and the
    verify elapsed_ms field is zeroed."""
    outcomes = []
    for argv, stdin in calls:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        out = re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out)
        outcomes.append((code, out, err))
    return outcomes


def test_cached_parser_matches_a_fresh_parser(capsys, monkeypatch, asm4_rows):
    calls = [
        (["count", "--n", "x"], ""),
        (["count", "--n", "4", "--colors", "gybo", "--q"], ""),
        (["count", "--n", "4", "--colors", "gybo"], ""),
        (["verify", "--identity", "rr", "--n", "3"], ""),
        (["convert", "--from", "asm", "--to", "mt", "--input", "-"], json.dumps(asm4_rows)),
        (["count", "--help"], ""),
    ]
    cached = main_outcomes(capsys, monkeypatch, calls + calls)
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    fresh = main_outcomes(capsys, monkeypatch, calls)
    assert cached == fresh + fresh
    assert fresh[0][0] == ("SystemExit", 2)
    assert "argument --n: invalid int value: 'x'" in fresh[0][2]
    assert fresh[2][1] == "42\n"
    assert [code for code, _, _ in fresh[1:5]] == [0, 0, 0, 0]


def test_parser_is_built_once_per_process(capsys):
    cli._parser.cache_clear()
    for _ in range(3):
        assert cli.main(["count", "--n", "2", "--colors", "g"]) == 0
    assert capsys.readouterr().out == "2\n" * 3
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
