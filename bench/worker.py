"""One pass of one workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--pass-index K] [--trace] [--small]

Times set-up (first import of tetraposet and its CLI, plus build(n) for every
n the workload uses), runs the workload's op list once, checks every output,
and prints one JSON line with the raw times and the same times scaled to a
reference CPU speed (see workloads.REFERENCE_PROBE_S). run.py starts one
worker per pass and aggregates.

With --trace, the tracer covers the set-up builds (build is cached, so these
are the only calls that really build) and the op list, but not the making of
the op list; its set-up time then includes installing the tracer.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"


def _args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import tetraposet
    import tetraposet.cli  # the entry point every CLI op goes through
    from tetraposet import poset

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for n in workloads.setup_sizes(args.workload, args.small):
        poset.build(n)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if not Path(tetraposet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: tetraposet imported from {tetraposet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_probe_s = statistics.median(workloads.probe() for _ in range(5))
    result: dict = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * workloads.REFERENCE_PROBE_S / setup_probe_s,
    }

    rng = random.Random(f"{args.seed}:{args.pass_index}")
    ops = workloads.make_ops(args.workload, args.small, rng)
    if tracer is not None:
        tracer.install()
    records, wall_s, scaled_ms = workloads.run_ops(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}.csv.gz"  # latest traced run only
        tracer.write_spans(spans_file)
        result["spans_file"] = str(spans_file.relative_to(BENCH.parent))
        result["spans"] = len(tracer.spans)

    problems = workloads.check(args.workload, ops, records)
    if args.workload == "count-deep" and not args.small and args.pass_index == 0:
        problems += workloads.check_extra_dual_pair(workloads.EXTRA_CHECK_N)
    errors = [f"{label}: {error}" for label, _, _, error in records if error is not None]
    result.update(
        wall_s=wall_s,
        wall_ref_s=wall_s * sum(scaled_ms) / max(sum(ms for _, ms, _, _ in records), 1e-9),
        ops=[[label, ms, ref_ms] for (label, ms, _, _), ref_ms in zip(records, scaled_ms)],
        failed=len(errors),
        problems=problems,
        errors=errors[:20],
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
