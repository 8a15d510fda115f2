import io
import json
import re
import subprocess
import sys
from math import comb

import pytest

from tetraposet import OrderIdeal, StaircaseArray, build, cli, validate


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
