"""Checks on the code itself: the public API is the pinned list, the benchmark
tracer's hooks still resolve, one small pass of each benchmark workload runs
clean, every module imports cleanly when it is loaded first, importing the
package loads no code generators, src/ keeps its invariants as exceptions
rather than asserts, and the sources parse as Python 3.10."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tetraposet
from tetraposet import IDENTITY_NAMES, QPoly, SparsePoly, verify_identity

from conftest import monomial, x

ROOT = Path(__file__).resolve().parents[1]


#: The package's public names, as __all__ lists them. A change to the public
#: API shows here as a diff.
PUBLIC_API = [
    "ASM_COLORS", "ArrayStats", "Asm", "AsmStats", "BudgetError", "CANONICAL_ORDER",
    "Color", "DEFAULT_BUDGET", "FamilyMismatch", "IDENTITY_NAMES", "MonotoneTriangle",
    "OrderIdeal", "QPoly", "SORTED_COLORS", "SparsePoly", "StaircaseArray", "Subposet",
    "TOURNAMENT_COLORS", "TSSCPP_COLORS", "TetraPoset", "Tournament", "Tsscpp", "Vertex",
    "admissibility_violations", "all_admissible_sets", "array_rank_gf", "array_stats",
    "array_to_asm", "array_to_ideal", "array_to_mt", "array_to_tournament",
    "array_to_tsscpp", "arrays", "asm_expansion_rhs", "asm_number", "asm_stats",
    "asm_to_array", "asm_to_mt", "bijections", "budget", "build", "carlitz_riordan",
    "catalan_number", "catalan_product", "colors", "count_arrays", "count_ideals",
    "counting", "enumerate_arrays", "enumerate_asms", "enumerate_ideals",
    "enumerate_row_shuffles", "enumerate_tournaments", "enumerate_tsscpps",
    "enumeration_budget", "first_difference", "format_colors", "formula_count",
    "formula_rank_gf", "formulas", "games", "ideal_to_array", "identities", "is_admissible",
    "mt_to_array", "mt_to_asm", "pairwise_product", "parse_colors", "polynomials", "poset",
    "q_binomial_product", "q_bracket", "q_factorial", "q_factorial_product", "rank_gf",
    "require_admissible", "robbins_rumsey_rhs", "row_shuffle_count", "schur_expansion_rhs",
    "sort_colors", "sort_to_tsscpp", "three_color_product", "to_dot", "tournament_gf",
    "tournament_to_array", "tspp_number", "tsscpp_expansion_rhs", "tsscpp_lambda_count",
    "tsscpp_to_array", "tsscpp_tournament_check", "validate", "verify_formulas",
    "verify_identity", "weight",
]


def test_public_api_is_pinned():
    assert tetraposet.__all__ == PUBLIC_API


def load_tracer() -> types.ModuleType:
    """Execute bench/tracer.py from its source text, so nothing is written
    next to it (no bytecode cache) and it is not registered as a module."""
    path = ROOT / "bench" / "tracer.py"
    module = types.ModuleType("bench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_tracer_targets_resolve():
    tracer = load_tracer()
    for name, module_name, path in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_tracer_wraps_sparse_mul_only():
    tracer = load_tracer().Tracer()
    sparse_mul, q_mul = SparsePoly.__mul__, QPoly.__mul__
    tracer.install()
    try:
        assert SparsePoly.__mul__ is not sparse_mul
        assert SparsePoly.__mul__.__wrapped__ is sparse_mul
        assert QPoly.__mul__ is q_mul
        assert x(1) * x(2) == monomial(0, {1: 1, 2: 1})
        assert QPoly.q() * QPoly.q() == QPoly.q(2)
    finally:
        tracer.uninstall()
    assert SparsePoly.__mul__ is sparse_mul
    assert QPoly.__mul__ is q_mul
    assert tracer.counters["polynomials.sparse_mul_term_pairs"] == 1


def test_tracer_sees_every_verify_layer():
    """Each verify run goes through the names the tracer rebinds, so a
    dispatch that held its own references would show up here as a layer
    with no spans."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for name in IDENTITY_NAMES:
            if name != "formulas":
                assert verify_identity(name, 3)["status"] == "ok"
    finally:
        tracer.uninstall()
    seen = {span[1] for span in tracer.spans}
    expected = {
        "identities.rr_rhs",
        "identities.asm_rhs",
        "identities.tsscpp_rhs",
        "identities.tsscpp_count_rhs",
        "identities.schur_rhs",
        "formulas.tournament_gf",
        "identities.pairwise_product",
    }
    assert expected <= seen, sorted(expected - seen)


@pytest.mark.parametrize("workload", ["count-table", "count-deep", "verify", "roundtrip"])
def test_benchmark_small_pass_is_clean(workload):
    """One --small pass of each benchmark workload, in its own worker process,
    exits 0 with no failed op and every output checked correct."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    worker = str(ROOT / "bench" / "worker.py")
    proc = subprocess.run(
        [sys.executable, worker, "--workload", workload, "--seed", "1", "--small"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["errors"]
    assert result["problems"] == []


def test_no_assert_in_src():
    src = Path(tetraposet.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "invariants must raise, python -O strips asserts: " + ", ".join(found)


def test_sources_parse_as_python_310():
    """CI also runs Python 3.10, so src/ and bench/ must parse with its
    grammar: newer syntax such as except* or type parameters fails here. This
    checks syntax only, not library calls that a newer Python adds."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Registers the package without running its __init__, which would load the
# modules in its own order, then imports one module before any other.
IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("tetraposet")
package.__path__ = [sys.argv[1]]
sys.modules["tetraposet"] = package
importlib.import_module("tetraposet." + sys.argv[2])
"""


def test_each_module_imports_first():
    src = Path(tetraposet.__file__).parent
    names = sorted(path.stem for path in src.glob("*.py") if path.stem != "__init__")
    assert "arrays" in names and "poset" in names
    for name in names:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_FIRST, str(src), name],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, f"importing tetraposet.{name} first:\n{proc.stderr}"


# Diffs sys.modules around the import, so whatever site preloads is not
# counted against the package.
COLD_START = """
import sys
before = set(sys.modules)
import tetraposet, tetraposet.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cold_start_loads_no_code_generators():
    """Every CLI call pays for the import, so the package must not pull in
    dataclasses or the modules it loads (inspect, ast, dis, tokenize)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "tetraposet.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(loaded)
