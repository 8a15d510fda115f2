"""The benchmark's workloads: fixed op lists, the ops, and exact output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs are fixed; the seed only fixes op order.
Checks run on recorded outputs after the timed region.

This module imports tetraposet only inside functions, so that run.py can read
the workload names in a checkout without the library, and so that the worker
can time the first import as set-up.
"""

from __future__ import annotations

import gc
import io
import json
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import comb

WORKLOADS = ("count-table", "count-deep", "verify", "roundtrip")

# Sizes keep one pass within a few seconds, so that a run holds several
# passes; tsscpp at n = 6 alone would take as long as the other four.
DEEP_SETS = ("rgy", "bgs", "bgoy", "rgoy", "rbg", "rbgoys", "rs", "ry", "roy", "boy", "r")
IDENTITIES = (("rr", 6), ("asm", 6), ("tsscpp", 5), ("tsscpp-count", 6), ("schur", 6))
# (colors, n, family the arrays round-trip through)
STREAMS = (("bgoy", 6, "asm"), ("rbg", 5, "tournament"), ("rgoy", 5, "tsscpp"))
SMALL_STREAMS = (("bgoy", 4, "asm"), ("rbg", 4, "tournament"), ("rgoy", 4, "tsscpp"))

# rgy and bgs have no product formula; these are their common counts.
NO_FORMULA_COUNTS = {
    2: 2,
    3: 9,
    4: 96,
    5: 2498,
    6: 161422,
    7: 26217833,
    8: 10794429504,
}

# The counts of the dual pair rgy/bgs at n = 8 lie in no workload, so the
# first count-deep pass of a run computes them after its timed region.
EXTRA_CHECK_N = 8

OP_CAP_S = 60.0  # a slower op is recorded as a failed op


class OpTimeout(BaseException):
    """Raised by the per-op timer; BaseException so library code cannot catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout


# Every reported time is scaled to a CPU that runs probe() in 1 ms. On a shared
# host, co-tenant load changes how fast the CPU runs Python by up to about 2x
# for seconds to minutes at a time; probe() slows and speeds with it, so scaled
# times compare across runs where raw ones do not.
REFERENCE_PROBE_S = 0.001
PROBE_INTERVAL_S = 0.1  # CPU seconds between probes while ops run


def probe() -> float:
    """Seconds for a fixed pure-Python loop of tuple-keyed dict updates, the
    library's dominant operation; best of three. It calls nothing in
    tetraposet, so it measures only how fast the CPU runs Python right now.

    The loop runs with any trace or profile hook removed and the garbage
    collector off, all restored afterwards, so that interpreter state the
    program sets (hooks, GC thresholds, a large live heap) does not reach the
    reading and is not scaled out of the program's times."""
    trace, profile, gc_was_on = sys.gettrace(), sys.getprofile(), gc.isenabled()
    if trace is not None:
        sys.settrace(None)
    if profile is not None:
        sys.setprofile(None)
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            counts: dict = {}
            for i in range(3000):
                key = (i & 63, i >> 6)
                counts[key] = counts.get(key, 0) + i
            best = min(best, time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()
        if profile is not None:
            sys.setprofile(profile)
        if trace is not None:
            sys.settrace(trace)
    return best


def setup_sizes(workload: str, small: bool) -> tuple[int, ...]:
    """Every n the workload's ops use; set-up builds T_n for each."""
    if small:
        return (2, 3, 4) if workload == "count-table" else (4,)
    return {
        "count-table": (2, 3, 4, 5, 6),
        "count-deep": (7,),
        "verify": (5, 6),
        "roundtrip": (5, 6),
    }[workload]


def _cli_argvs(workload: str, small: bool) -> list[list[str]]:
    from tetraposet.colors import all_admissible_sets, format_colors

    if workload == "count-table":
        sizes = (2, 3, 4) if small else (2, 3, 4, 5, 6)
        sets = [format_colors(s) for s in all_admissible_sets()]
        return [_count_argv(s, n) for n in sizes for s in sets]
    if workload == "count-deep":
        return [_count_argv(s, 4 if small else 7) for s in DEEP_SETS]
    if workload == "verify":
        return [_verify_argv(x, min(n, 4) if small else n) for x, n in IDENTITIES]
    raise ValueError(f"{workload} has no cli ops")


def _count_argv(colors: str, n: int) -> list[str]:
    return ["count", "--n", str(n), "--colors", colors, "--q"]


def _verify_argv(identity: str, n: int) -> list[str]:
    return ["verify", "--identity", identity, "--n", str(n)]


def run_cli(argv: list[str]):
    """One in-process CLI call with stdout and stderr captured."""
    from tetraposet import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Stream:
    """One enumerate_ideals stream whose ideals are round-tripped one per op."""

    def __init__(self, colors: str, n: int, family: str):
        from tetraposet import formulas, poset

        self.colors, self.n, self.family = colors, n, family
        self.subposet = poset.build(n).subposet(colors)
        self.expected = formulas.formula_count(colors, n)
        self._ideals = None

    @property
    def ideals(self):
        """The stream, started on first use so that the timed (and traced)
        region holds the call to enumerate_ideals."""
        if self._ideals is None:
            from tetraposet import counting

            self._ideals = counting.enumerate_ideals(self.subposet)
        return self._ideals

    @property
    def label(self) -> str:
        return f"{self.colors}{self.n}"


def roundtrip_step(stream: Stream):
    """ideal -> array -> family object -> array -> ideal, plus row sorting
    for tournament arrays. Returns everything the check needs."""
    from tetraposet import arrays, bijections, poset

    ideal = next(stream.ideals)
    x = poset.ideal_to_array(ideal)
    extra = None
    if stream.family == "asm":
        y = bijections.asm_to_array(bijections.array_to_asm(x))
    elif stream.family == "tournament":
        y = bijections.tournament_to_array(bijections.array_to_tournament(x))
        extra = arrays.sort_to_tsscpp(x)
    else:
        y = bijections.tsscpp_to_array(bijections.array_to_tsscpp(x))
    back = poset.array_to_ideal(y)
    return ideal, x, y, back, stream.subposet.is_ideal(back.members), extra


def make_ops(workload: str, small: bool, rng) -> list[tuple]:
    """The workload's op list as (label, thunk, input) triples, shuffled by rng.

    The input is what the checks need: a Stream, or the CLI argv.
    """
    if workload == "roundtrip":
        streams = [Stream(*spec) for spec in (SMALL_STREAMS if small else STREAMS)]
        ops = [
            (s.label, partial(roundtrip_step, s), s) for s in streams for _ in range(s.expected)
        ]
    else:
        ops = [
            (" ".join(argv), partial(run_cli, argv), argv)
            for argv in _cli_argvs(workload, small)
        ]
    rng.shuffle(ops)
    return ops


class _Prober:
    """Takes a probe() reading every PROBE_INTERVAL_S of CPU time from a
    SIGPROF handler, so that long ops are sampled while they run, and keeps
    the time spent probing so that it can be left out of the op times."""

    def __init__(self):
        self.readings = [probe()]
        self.spent_s = 0.0

    def on_signal(self, signum, frame):
        t0 = time.perf_counter()
        self.readings.append(probe())
        self.spent_s += time.perf_counter() - t0


def run_ops(ops, cap_s: float = OP_CAP_S):
    """Run ops one after another, each under a wall-clock cap.

    Returns per-op records [label, ms, output or None, error or None], the
    wall time of the whole list, and each op's time in reference ms: its time
    scaled by REFERENCE_PROBE_S times the mean inverse of the probe readings
    taken while it ran and the last one before it. Probing is left out of
    every time. A timeout or exception fails only its op.
    """
    prober = _Prober()
    previous_alarm = signal.signal(signal.SIGALRM, _on_alarm)
    previous_prof = signal.signal(signal.SIGPROF, prober.on_signal)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    records, scaled_ms = [], []
    clock = time.perf_counter
    try:
        start = clock()
        for label, thunk, _ in ops:
            first, spent = len(prober.readings) - 1, prober.spent_s
            t0 = clock()
            output = error = None
            try:
                signal.setitimer(signal.ITIMER_REAL, cap_s)
                try:
                    output = thunk()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                error = f"timeout after {cap_s} s"
            except Exception as exc:  # one failed op must not end the run
                error = f"{type(exc).__name__}: {exc}"
            ms = (clock() - t0 - (prober.spent_s - spent)) * 1000
            readings = prober.readings[first:]
            records.append([label, ms, output, error])
            scaled_ms.append(ms * REFERENCE_PROBE_S * sum(1 / r for r in readings) / len(readings))
        wall_s = clock() - start - prober.spent_s
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGPROF, previous_prof)
        signal.signal(signal.SIGALRM, previous_alarm)
    return records, wall_s, scaled_ms


# ---------------------------------------------------------------- checks


def check_count(argv: list[str], output, gfs: dict) -> str | None:
    """Checks of one `count --q` output; stores its gf in gfs for pair checks."""
    from tetraposet.formulas import formula_count, formula_rank_gf

    code, out, err = output
    if code != 0:
        return f"exit {code}: {err.strip()}"
    n, colors = int(argv[2]), argv[4]
    payload = json.loads(out)
    if payload["colors"] != colors or payload["n"] != n:
        return f"payload is for {payload['colors']} n={payload['n']}"
    count = int(payload["count"])
    gf = [int(c) for c in payload["rank_gf"]]
    if count != sum(gf):
        return f"count {count} != gf sum {sum(gf)}"
    expected = formula_count(colors, n)
    if expected is not None and count != expected:
        return f"count {count} != formula {expected}"
    expected_gf = formula_rank_gf(colors, n)
    if expected_gf is not None and gf != expected_gf.to_coeff_list():
        return "rank gf differs from the q-formula"
    if colors in ("rgy", "bgs") and count != NO_FORMULA_COUNTS[n]:
        return f"count {count} != {NO_FORMULA_COUNTS[n]}"
    gfs[(colors, n)] = gf
    return None


def check_dual_pair(gfs: dict) -> list[str]:
    """rank_gf(rgy) is rank_gf(bgs) reversed at degree C(n+1, 3)."""
    problems = []
    for (colors, n), gf in gfs.items():
        if colors != "rgy" or ("bgs", n) not in gfs:
            continue
        degree = comb(n + 1, 3)
        padded = gfs[("bgs", n)] + [0] * (degree + 1 - len(gfs[("bgs", n)]))
        flipped = padded[::-1]
        while flipped and flipped[-1] == 0:
            flipped.pop()
        if gf != flipped:
            problems.append(f"rgy/bgs gf duality fails at n={n}")
    return problems


def check_extra_dual_pair(n: int) -> list[str]:
    """Counts and gf duality of rgy/bgs at an n outside the workloads."""
    gfs: dict = {}
    problems = []
    for colors in ("rgy", "bgs"):
        argv = _count_argv(colors, n)
        problem = check_count(argv, run_cli(argv), gfs)
        if problem:
            problems.append(f"{' '.join(argv)}: {problem}")
    return problems + check_dual_pair(gfs)


def check_verify(argv: list[str], output) -> str | None:
    """Every report has status ok; elapsed_ms is ignored."""
    code, out, err = output
    if code != 0:
        return f"exit {code}: {err.strip()}"
    identity, n_text = argv[2], argv[4]
    reports = [json.loads(line) for line in out.splitlines()]
    if len(reports) != 1:
        return f"{len(reports)} reports"
    report = reports[0]
    if (report["identity"], report["n"]) != (identity, int(n_text)):
        return f"report is for {report['identity']} n={report['n']}"
    if report["status"] != "ok" or report["first_diff_monomial"] is not None:
        return f"status {report['status']}: {report['first_diff_monomial']}"
    return None


def check_roundtrip(output, stream: Stream) -> str | None:
    ideal, x, y, back, back_is_ideal, extra = output
    if y != x:
        return f"array changed in the {stream.family} round trip"
    if back != ideal:
        return "round trip did not return to its starting ideal"
    if not back_is_ideal:
        return "round trip result is not an order ideal"
    if extra is not None and extra.rows != tuple(tuple(sorted(r)) for r in x.rows):
        return "sort_to_tsscpp did not sort every row"
    return None


def check_streams(ops, records) -> list[str]:
    """Each stream yielded exactly its closed-form count of distinct ideals."""
    seen: dict[Stream, set] = {stream: set() for _, _, stream in ops}
    for (_, _, stream), (_, _, output, _) in zip(ops, records):
        if output is not None:
            seen[stream].add(output[0])
    problems = []
    for stream, ideals in seen.items():
        if len(ideals) != stream.expected:
            problems.append(
                f"{stream.label}: {len(ideals)} distinct ideals, expected {stream.expected}"
            )
        if next(stream.ideals, None) is not None:
            problems.append(f"{stream.label}: stream has more than {stream.expected} ideals")
    return problems


def check(workload: str, ops, records) -> list[str]:
    """Mark wrong answers as op errors; return problems not tied to one op."""
    gfs: dict = {}
    for (_, _, op_input), record in zip(ops, records):
        output, error = record[2], record[3]
        if error is not None:
            continue
        try:
            if workload == "roundtrip":
                problem = check_roundtrip(output, op_input)
            elif workload == "verify":
                problem = check_verify(op_input, output)
            else:
                problem = check_count(op_input, output, gfs)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            problem = f"unreadable output: {exc!r}"
        if problem:
            record[3] = f"wrong answer: {problem}"
    problems = check_dual_pair(gfs)
    if workload == "roundtrip":
        problems += check_streams(ops, records)
    return problems
