"""Self-check of the benchmark harness at n <= 4.

    python3 bench/selfcheck.py

Runs every workload at small sizes through run.py, untraced and traced, and
checks that the results carry exactly the metrics BENCHMARK.json names, that
exact counts repeat across seeds, that the per-op cap turns a slow op into a
failed op, that every output check rejects a tampered answer, that the speed
probe ignores interpreter state the program sets, and that the harness
refuses to run without the library sources. Exits 0 when all hold.
"""

from __future__ import annotations

import csv
import gc
import gzip
import json
import random
import statistics
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(*args: str) -> dict:
    proc = _run(*args)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# Per-layer metrics each workload must move, so that a wrapper that stops
# seeing its calls shows up as a failure rather than as a zero.
EXERCISED = {
    "count-table": (
        "cli.main_self_ms", "colors.require_admissible_ms", "poset.build_ms",
        "poset.subposet_ms", "counting.rank_gf_calls", "arrays.array_rank_gf_calls",
    ),
    "count-deep": (
        "cli.main_self_ms", "poset.build_ms", "counting.rank_gf_self_ms",
        "counting.rank_gf_calls",
    ),
    "verify": (
        "poset.build_ms", "arrays.arrays_enumerated", "arrays.row_shuffles_enumerated",
        "polynomials.sparse_mul_term_pairs", "polynomials.first_difference_ms",
        "formulas.tournament_gf_terms", "identities.array_stats_calls",
        "identities.asm_stats_ms", "identities.pairwise_product_ms", "bijections.calls",
        "budget.guard_count_ms",
    ),
    "roundtrip": (
        "poset.build_ms", "poset.ideal_to_array_ms", "poset.array_to_ideal_ms", "poset.is_ideal_ms",
        "counting.ideals_streamed", "arrays.validate_calls", "arrays.sort_to_tsscpp_ms",
        "bijections.asm_ms", "bijections.tournament_ms", "bijections.tsscpp_ms",
        "budget.guard_count_ms",
    ),
}


def _setup_builds(workload: str) -> int:
    """Top-level poset.build spans of the latest traced run: the set-up calls,
    the only ones that build rather than hit build's cache."""
    with gzip.open(OUT / f"spans-{workload}.csv.gz", "rt", encoding="utf-8") as spans:
        return sum(
            row["name"] == "poset.build" and row["parent"] == "-1"
            for row in csv.DictReader(spans)
        )


def check_results(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    for workload in workloads.WORKLOADS:
        common = ["--workload", workload, "--seconds", "1", "--small"]
        result = _result(*common, "--seed", "1", "--trace", "0")
        _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: keys")
        _expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
        metrics = result["metrics"]
        _expect(
            {k: v["unit"] for k, v in metrics.items()} == end_to_end,
            f"{workload}: end-to-end metrics {sorted(metrics)}",
        )
        _expect(all(v["value"] > 0 for v in metrics.values()), f"{workload}: a zero metric")
        counts = []
        for seed in ("1", "2"):
            traced = _result(*common, "--seed", seed, "--trace", "1")
            _expect(traced["correct"], f"{workload} traced: {traced}")
            layers = traced["metrics"]
            _expect(
                {k: v["unit"] for k, v in layers.items()} == per_layer,
                f"{workload}: per-layer metrics {sorted(layers)}",
            )
            idle = [k for k in EXERCISED[workload] if not layers[k]["value"] > 0]
            _expect(not idle, f"{workload}: per-layer metrics stuck at 0: {idle}")
            _expect(
                _setup_builds(workload) == len(workloads.setup_sizes(workload, True)),
                f"{workload}: the set-up builds are not traced",
            )
            counts.append({k: v["value"] for k, v in layers.items() if v["unit"] != "ms"})
        del counts[0]["trace.overhead_ratio"], counts[1]["trace.overhead_ratio"]
        _expect(counts[0] == counts[1], f"{workload}: counts differ across seeds")
        print(f"ok  {workload}: metrics, traced metrics, repeatable counts")


def check_cap() -> None:
    ops = workloads.make_ops("verify", True, random.Random(0))
    records, _, _ = workloads.run_ops(ops, 1e-6)
    errors = [error for _, _, _, error in records]
    _expect(
        all(error and error.startswith("timeout") for error in errors),
        f"per-op cap did not fail every op: {errors}",
    )
    print("ok  per-op cap records timeouts as failed ops")


def _noop_hook(*args):
    return None


def _with_state(set_state, fn):
    """fn() with a trace or profile hook or GC threshold set, restored after."""
    threshold = gc.get_threshold()
    set_state()
    try:
        return fn()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
        gc.set_threshold(*threshold)


def check_probe_isolation() -> None:
    """Hooks and GC settings that slow the program leave probe readings alone,
    so scaled times rise with the program rather than being scaled back."""
    states = {
        "profile hook": lambda: sys.setprofile(_noop_hook),
        "trace hook": lambda: sys.settrace(_noop_hook),
        "gc threshold 1": lambda: gc.set_threshold(1),
    }

    def reading():
        return statistics.median(workloads.probe() for _ in range(7))

    plain = reading()
    for name, set_state in states.items():
        ratio = _with_state(set_state, reading) / plain
        _expect(0.67 < ratio < 1.5, f"probe reads x{ratio:.2f} under a {name}")

    def scaled_s():
        _, _, scaled_ms = workloads.run_ops(
            workloads.make_ops("count-table", True, random.Random(0))
        )
        return sum(scaled_ms) / 1000

    plain = min(scaled_s() for _ in range(2))
    for name in ("profile hook", "gc threshold 1"):
        ratio = _with_state(states[name], scaled_s) / plain
        _expect(ratio > 1.3, f"scaled time rose only x{ratio:.2f} under a {name}")
    print("ok  probe readings ignore hooks and GC settings; scaled times show them")


def check_checks() -> None:
    """Every output check passes a real answer and rejects a tampered one."""
    from tetraposet.poset import OrderIdeal

    argv = ["count", "--n", "4", "--colors", "rgy", "--q"]
    code, out, err = workloads.run_cli(argv)
    good = json.loads(out)
    _expect(workloads.check_count(argv, (code, out, err), {}) is None, "real count rejected")
    for field, value in (("count", "97"), ("rank_gf", good["rank_gf"][:-1] + ["2"])):
        bad = dict(good, **{field: value})
        _expect(
            workloads.check_count(argv, (0, json.dumps(bad), ""), {}) is not None,
            f"tampered {field} accepted",
        )
    bgs = dict(good, colors="bgs", rank_gf=good["rank_gf"])
    gfs: dict = {}
    workloads.check_count(argv, (code, out, err), gfs)
    workloads.check_count(argv[:4] + ["bgs", "--q"], (0, json.dumps(bgs), ""), gfs)
    _expect(workloads.check_dual_pair(gfs) != [], "rgy/bgs duality not checked")
    _expect(workloads.check_extra_dual_pair(4) == [], "real rgy/bgs pair rejected")

    argv = ["verify", "--identity", "asm", "--n", "3"]
    code, out, err = workloads.run_cli(argv)
    _expect(workloads.check_verify(argv, (code, out, err)) is None, "real report rejected")
    bad = dict(json.loads(out), status="mismatch")
    _expect(
        workloads.check_verify(argv, (5, json.dumps(bad), "")) is not None,
        "mismatch report accepted",
    )

    ops = workloads.make_ops("roundtrip", True, random.Random(0))
    records, _, _ = workloads.run_ops(ops, 60)
    _expect(workloads.check("roundtrip", ops, records) == [], "real round trips rejected")
    _, _, stream = ops[0]
    ideal, x, y, back, is_ideal, extra = records[0][2]
    other = OrderIdeal(ideal.n, frozenset(list(ideal.members)[1:]) or frozenset({(0, 0, 0)}))
    _expect(
        workloads.check_roundtrip((ideal, x, y, other, is_ideal, extra), stream) is not None,
        "round trip to another ideal accepted",
    )
    _expect(workloads.check_streams(ops[1:], records[1:]) != [], "short stream accepted")
    print("ok  every output check rejects a tampered answer")


def check_bare_directory() -> None:
    """Without src/, run.py exits non-zero and prints no result."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("--workload", "count-table", "--seed", "1", "--seconds", "1", cwd=bare)
    _expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory produced a result")
    print("ok  refuses to run without the library sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        check_checks()
        check_cap()
        check_probe_isolation()
        check_bare_directory()
        check_results(spec)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
