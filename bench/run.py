"""Benchmark harness for tetraposet.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass of the workload runs in a fresh
worker process (bench/worker.py): one client, one thread, closed loop. Passes
repeat while another one still fits in --seconds. wall_s is the median pass
time; op_p50_ms and op_p90_ms are percentiles over the op list of each op's
median time across passes (the report gives their sample count). setup_s is
the median of the passes' set-up times.

Every reported time is scaled to a reference CPU speed, measured by a fixed
pure-Python loop timed in the same process while the ops run (see
workloads.REFERENCE_PROBE_S). The raw times are in the report.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and one
traced pass (same op order) and prints the per-layer metrics, including the
tracing overhead. The last line of stdout is the JSON result; the line before
it is a JSON report with the environment, every pass and the failures. The
same report is written to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "tetraposet"
OUT = BENCH / "out"

RUN_BUDGET_S = 170.0  # every run ends well inside 180 s


def _worker(args, *extra: str, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        *extra,
    ]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": args.seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
    }


def _run_passes(args, started: float) -> list[dict]:
    """Untraced passes until another pass would overrun --seconds."""
    passes: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        remaining = RUN_BUDGET_S - (time.perf_counter() - started)
        passes.append(_worker(args, "--pass-index", str(len(passes)), timeout=remaining))
        if time.perf_counter() - measure_start + passes[-1]["wall_s"] > args.seconds:
            return passes


def _end_to_end(args, started: float, report: dict) -> dict:
    passes = _run_passes(args, started)
    report["passes"] = passes
    # Every pass runs the same ops, only shuffled; the k-th op with a given
    # label is the same input in every pass.
    per_op: dict[tuple[str, int], list[float]] = defaultdict(list)
    for p in passes:
        seen: Counter = Counter()
        for label, _, ref_ms in p["ops"]:
            per_op[(label, seen[label])].append(ref_ms)
            seen[label] += 1
    op_ms = [statistics.median(times) for times in per_op.values()]
    report["op_samples"] = len(op_ms)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": (statistics.median(p["setup_ref_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_ref_s"] for p in passes), "s"),
        "op_p50_ms": (_percentile(op_ms, 50), "ms"),
        "op_p90_ms": (_percentile(op_ms, 90), "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _per_layer(args, started: float, report: dict) -> dict:
    plain = _worker(args, timeout=RUN_BUDGET_S)
    traced = _worker(args, "--trace", timeout=RUN_BUDGET_S - (time.perf_counter() - started))
    report["passes"] = [plain, traced]
    metrics = {}
    for name, value in traced.pop("layers").items():
        unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced["wall_ref_s"] / plain["wall_ref_s"], "ratio")
    return metrics


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="n <= 4 op lists, for the self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no tetraposet sources at {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    report = {"env": _environment(args)}
    try:
        metrics = (_per_layer if args.trace else _end_to_end)(args, started, report)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = report["passes"]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not any(p["problems"] for p in passes)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report["result"] = result
    for p in passes:
        p["ops"] = p["ops"] if len(p["ops"]) <= 300 else f"{len(p['ops'])} ops"
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}{'-small' if args.small else ''}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
