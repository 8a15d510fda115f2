"""Span tracing of tetraposet from outside the library.

The tracer replaces public functions and methods with timing wrappers at the
places where calling modules look them up (for example both
``tetraposet.arrays.validate`` and the ``validate`` name bound inside
``tetraposet.bijections``), so the library itself is not edited. Each call
becomes a span (id, name, start, end, parent id) kept in memory and written
out at the end as gzip CSV; a wrapped generator gets one span per ``next()``.
Self time is a span's duration minus the time covered by its wrapped child
spans. Exact work counts (items streamed, multiplied term pairs, result
terms) are taken at the same wrappers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (span name, module, attribute path) for every wrapped callable.
TARGETS = (
    ("cli.main", "tetraposet.cli", "main"),
    ("colors.require_admissible", "tetraposet.colors", "require_admissible"),
    ("poset.build", "tetraposet.poset", "build"),
    ("poset.subposet", "tetraposet.poset", "TetraPoset.subposet"),
    ("poset.is_ideal", "tetraposet.poset", "Subposet.is_ideal"),
    ("poset.ideal_to_array", "tetraposet.poset", "ideal_to_array"),
    ("poset.array_to_ideal", "tetraposet.poset", "array_to_ideal"),
    ("counting.rank_gf", "tetraposet.counting", "rank_gf"),
    ("counting.count_ideals", "tetraposet.counting", "count_ideals"),
    ("counting.enumerate_ideals", "tetraposet.counting", "enumerate_ideals"),
    ("arrays.array_rank_gf", "tetraposet.arrays", "array_rank_gf"),
    ("arrays.count_arrays", "tetraposet.arrays", "count_arrays"),
    ("arrays.row_shuffle_count", "tetraposet.arrays", "row_shuffle_count"),
    ("arrays.enumerate_arrays", "tetraposet.arrays", "enumerate_arrays"),
    ("arrays.enumerate_row_shuffles", "tetraposet.arrays", "enumerate_row_shuffles"),
    ("arrays.validate", "tetraposet.arrays", "validate"),
    ("arrays.sort_to_tsscpp", "tetraposet.arrays", "sort_to_tsscpp"),
    ("polynomials.sparse_mul", "tetraposet.polynomials", "SparsePoly.__mul__"),
    ("polynomials.sparse_mul", "tetraposet.polynomials", "SparsePoly.__rmul__"),
    ("polynomials.first_difference", "tetraposet.polynomials", "first_difference"),
    ("formulas.tournament_gf", "tetraposet.formulas", "tournament_gf"),
    ("identities.rr_rhs", "tetraposet.identities", "robbins_rumsey_rhs"),
    ("identities.asm_rhs", "tetraposet.identities", "asm_expansion_rhs"),
    ("identities.tsscpp_rhs", "tetraposet.identities", "tsscpp_expansion_rhs"),
    ("identities.tsscpp_count_rhs", "tetraposet.identities", "tsscpp_lambda_count"),
    ("identities.schur_rhs", "tetraposet.identities", "schur_expansion_rhs"),
    ("identities.array_stats", "tetraposet.identities", "array_stats"),
    ("identities.asm_stats", "tetraposet.identities", "asm_stats"),
    ("identities.pairwise_product", "tetraposet.identities", "pairwise_product"),
    ("bijections.asm", "tetraposet.bijections", "array_to_asm"),
    ("bijections.asm", "tetraposet.bijections", "asm_to_array"),
    ("bijections.tournament", "tetraposet.bijections", "array_to_tournament"),
    ("bijections.tournament", "tetraposet.bijections", "tournament_to_array"),
    ("bijections.tsscpp", "tetraposet.bijections", "array_to_tsscpp"),
    ("bijections.tsscpp", "tetraposet.bijections", "tsscpp_to_array"),
)

# Enumerators count their objects before streaming; these are those counts.
_GUARD_COUNTS = ("counting.count_ideals", "arrays.count_arrays", "arrays.row_shuffle_count")
_ENUMERATORS = (
    "counting.enumerate_ideals",
    "arrays.enumerate_arrays",
    "arrays.enumerate_row_shuffles",
)


def _term_pairs(args, result) -> int:
    """Operand term counts multiplied together; an int operand is one term."""
    left, right = args
    return left.term_count() * (right.term_count() if hasattr(right, "term_count") else 1)


def _result_terms(args, result) -> int:
    return result.term_count()


# Exact work counters: (span name, counter name, measure(args, result)).
_COUNTERS = {
    "polynomials.sparse_mul": ("polynomials.sparse_mul_term_pairs", _term_pairs),
    "formulas.tournament_gf": ("formulas.tournament_gf_terms", _result_terms),
}


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id, time covered by child spans)
        self.spans: list[tuple[int, str, float, float, int, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs, measure=None):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += end - frame[1]
            self.spans.append((frame[0], name, frame[1], end, parent, frame[2]))
        if measure is not None:
            counter, fn_measure = measure
            self.counters[counter] += fn_measure(args, result)
        return result

    def _wrap(self, name: str, fn):
        measure = _COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, next, (it,), {})
                    except StopIteration:
                        return
                    self.counters[name + ".items"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        return wrapper

    def install(self) -> None:
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items() if key.startswith("tetraposet.")]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, wrapper)
            if cls_path:
                continue
            # Rebind the name in every module that imported the function.
            for module in modules:
                if module is not owner and vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        """Write spans as gzip CSV: id, name, start_s, end_s, parent id (-1 for none)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,name,start_s,end_s,parent\n")
            for sid, name, start, end, parent, _ in self.spans:
                out.write(f"{sid},{name},{start:.9f},{end:.9f},{parent}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: summed self ms, call counts and work counts."""
        self_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        names = {}
        for sid, name, start, end, parent, child in self.spans:
            names[sid] = name
            self_ms[name] += (end - start - child) * 1000
            calls[name] += 1
        guard_ms = 0.0
        array_route = 0
        for sid, name, start, end, parent, child in self.spans:
            parent_name = names.get(parent)
            if name in _GUARD_COUNTS and parent_name in _ENUMERATORS:
                guard_ms += (end - start) * 1000
            if name == "arrays.array_rank_gf" and parent_name == "counting.rank_gf":
                array_route += 1
        rank_calls = calls["counting.rank_gf"]
        return {
            "cli.main_self_ms": self_ms["cli.main"],
            "colors.require_admissible_ms": self_ms["colors.require_admissible"],
            "poset.build_ms": self_ms["poset.build"],
            "poset.subposet_ms": self_ms["poset.subposet"],
            "poset.ideal_to_array_ms": self_ms["poset.ideal_to_array"],
            "poset.array_to_ideal_ms": self_ms["poset.array_to_ideal"],
            "poset.is_ideal_ms": self_ms["poset.is_ideal"],
            "counting.rank_gf_self_ms": self_ms["counting.rank_gf"],
            "counting.rank_gf_calls": rank_calls,
            "counting.array_route_ratio": array_route / rank_calls if rank_calls else 0.0,
            "counting.enumerate_ideals_self_ms": self_ms["counting.enumerate_ideals"],
            "counting.ideals_streamed": self.counters["counting.enumerate_ideals.items"],
            "budget.guard_count_ms": guard_ms,
            "arrays.array_rank_gf_ms": self_ms["arrays.array_rank_gf"],
            "arrays.array_rank_gf_calls": calls["arrays.array_rank_gf"],
            "arrays.enumerate_arrays_self_ms": self_ms["arrays.enumerate_arrays"],
            "arrays.arrays_enumerated": self.counters["arrays.enumerate_arrays.items"],
            "arrays.row_shuffles_self_ms": self_ms["arrays.enumerate_row_shuffles"],
            "arrays.row_shuffles_enumerated": self.counters[
                "arrays.enumerate_row_shuffles.items"
            ],
            "arrays.validate_ms": self_ms["arrays.validate"],
            "arrays.validate_calls": calls["arrays.validate"],
            "arrays.sort_to_tsscpp_ms": self_ms["arrays.sort_to_tsscpp"],
            "polynomials.sparse_mul_ms": self_ms["polynomials.sparse_mul"],
            "polynomials.sparse_mul_calls": calls["polynomials.sparse_mul"],
            "polynomials.sparse_mul_term_pairs": self.counters[
                "polynomials.sparse_mul_term_pairs"
            ],
            "polynomials.first_difference_ms": self_ms["polynomials.first_difference"],
            "formulas.tournament_gf_ms": self_ms["formulas.tournament_gf"],
            "formulas.tournament_gf_terms": self.counters["formulas.tournament_gf_terms"],
            "identities.rr_rhs_self_ms": self_ms["identities.rr_rhs"],
            "identities.asm_rhs_self_ms": self_ms["identities.asm_rhs"],
            "identities.tsscpp_rhs_self_ms": self_ms["identities.tsscpp_rhs"],
            "identities.tsscpp_count_rhs_self_ms": self_ms["identities.tsscpp_count_rhs"],
            "identities.schur_rhs_self_ms": self_ms["identities.schur_rhs"],
            "identities.array_stats_ms": self_ms["identities.array_stats"],
            "identities.array_stats_calls": calls["identities.array_stats"],
            "identities.asm_stats_ms": self_ms["identities.asm_stats"],
            "identities.pairwise_product_ms": self_ms["identities.pairwise_product"],
            "bijections.asm_ms": self_ms["bijections.asm"],
            "bijections.tournament_ms": self_ms["bijections.tournament"],
            "bijections.tsscpp_ms": self_ms["bijections.tsscpp"],
            "bijections.calls": calls["bijections.asm"]
            + calls["bijections.tournament"]
            + calls["bijections.tsscpp"],
        }
