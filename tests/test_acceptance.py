"""Acceptance suite: seven end-to-end checks, one printed line each.

Each test exercises a full slice of the package (enumeration against closed
forms, bijective round trips, identity expansions, statistic bookkeeping) and
reports through record_criterion so the result lines appear in the terminal
summary.
"""

from math import comb

from tetraposet import (
    ASM_COLORS,
    SORTED_COLORS,
    TOURNAMENT_COLORS,
    TSSCPP_COLORS,
    Asm,
    MonotoneTriangle,
    QPoly,
    StaircaseArray,
    Tsscpp,
    all_admissible_sets,
    array_stats,
    array_to_asm,
    array_to_ideal,
    array_to_mt,
    array_to_tournament,
    array_to_tsscpp,
    asm_number,
    asm_stats,
    asm_to_array,
    asm_to_mt,
    build,
    count_arrays,
    enumerate_arrays,
    enumerate_ideals,
    enumerate_row_shuffles,
    enumerate_tournaments,
    formula_count,
    formula_rank_gf,
    ideal_to_array,
    mt_to_array,
    mt_to_asm,
    rank_gf,
    row_shuffle_count,
    sort_to_tsscpp,
    tournament_to_array,
    tsscpp_to_array,
    tsscpp_tournament_check,
    validate,
    verify_identity,
    weight,
)

from conftest import record_criterion, value_counts


def _run(number, label, fn):
    try:
        ok = fn()
    except Exception:
        record_criterion(number, label, False)
        raise
    record_criterion(number, label, bool(ok))


def _enumerated_sizes(sub):
    sizes = {}
    for ideal in enumerate_ideals(sub):
        sizes[len(ideal)] = sizes.get(len(ideal), 0) + 1
    return sizes


def test_criterion_1_enumerated_counts_match_formulas():
    def check():
        for n in range(2, 6):
            poset = build(n)
            for colorset in all_admissible_sets():
                expected = formula_count(colorset, n)
                if expected is None:
                    continue
                found = sum(1 for _ in enumerate_ideals(poset.subposet(colorset)))
                if found != expected:
                    return False
        return True

    _run(1, "enumerated ideal counts equal the product formulas for n=2..5", check)


def test_criterion_2_enumerated_gfs_match_q_formulas():
    def check():
        for n in range(2, 6):
            poset = build(n)
            for colorset in all_admissible_sets():
                expected = formula_rank_gf(colorset, n)
                if expected is None:
                    continue
                if QPoly(_enumerated_sizes(poset.subposet(colorset))) != expected:
                    return False
        return True

    _run(2, "enumerated rank generating functions equal the q-formulas for n=2..5", check)


def test_criterion_3_no_formula_pair():
    def check():
        expected = [1, 2, 9, 96, 2498, 161422]
        for n, want in zip(range(1, 7), expected):
            if count_arrays(n, "rgy") != want or count_arrays(n, "bgs") != want:
                return False
        for n in range(2, 6):
            poset = build(n)
            rgy = rank_gf(poset.subposet("rgy"))
            bgs = rank_gf(poset.subposet("bgs"))
            if bgs != rgy.reversed_poly(comb(n + 1, 3)):
                return False
        return True

    _run(3, "the two sets without formulas count 1,2,9,96,2498,161422 and are dual", check)


def test_criterion_4_round_trips(asm4_rows, mt4_rows, array4_rows, tsscpp8_rows, tsscpp8_array_rows):
    def check():
        a = Asm(asm4_rows)
        mt = asm_to_mt(a)
        x = mt_to_array(mt)
        if mt != MonotoneTriangle(mt4_rows) or x != StaircaseArray(array4_rows):
            return False
        if mt_to_asm(array_to_mt(x)) != a:
            return False
        t8 = Tsscpp(tsscpp8_rows)
        x8 = tsscpp_to_array(t8)
        if x8 != StaircaseArray(tsscpp8_array_rows) or array_to_tsscpp(x8) != t8:
            return False

        asms = set()
        for x in enumerate_arrays(4, ASM_COLORS):
            a = array_to_asm(x)
            if asm_to_array(a) != x:
                return False
            asms.add(a)
        if len(asms) != 42:
            return False

        tsscpps = set()
        for x in enumerate_arrays(4, TSSCPP_COLORS):
            t = array_to_tsscpp(x)
            if tsscpp_to_array(t) != x:
                return False
            tsscpps.add(t)
        if len(tsscpps) != 42:
            return False

        tournaments = set()
        for t in enumerate_tournaments(4):
            x = tournament_to_array(t)
            if array_to_tournament(x) != t:
                return False
            tournaments.add(t)
        if len(tournaments) != 64:
            return False

        for colorset in all_admissible_sets():
            if len(colorset) != 4:
                continue
            sub = build(4).subposet(colorset)
            for ideal in enumerate_ideals(sub):
                x = ideal_to_array(ideal)
                if not validate(x, colorset):
                    return False
                if weight(x) != len(ideal):
                    return False
                if array_to_ideal(x) != ideal:
                    return False
        return True

    _run(4, "bijections round trip on worked examples and on every order 4 object", check)


def test_criterion_5_identity_expansions():
    def check():
        for n in range(1, 6):
            for name in ("rr", "asm", "tsscpp", "schur"):
                if verify_identity(name, n)["status"] != "ok":
                    return False
        for n in range(1, 7):
            if verify_identity("tsscpp-count", n)["status"] != "ok":
                return False
        return True

    _run(5, "generating function identities expand to equal polynomials", check)


def test_criterion_6_statistics_and_fibers():
    def check():
        for n in range(1, 6):
            for x in enumerate_arrays(n, ASM_COLORS):
                a = array_to_asm(x)
                ast = asm_stats(a)
                if ast.inversions - ast.neg_count != array_stats(x).eq_total:
                    return False
                counts = value_counts(x)
                for j in range(1, n + 1):
                    col = sum((n - i) * a.rows[i - 1][j - 1] for i in range(1, n + 1))
                    if counts.get(j, 0) - 1 != col:
                        return False
            for t in enumerate_tournaments(n):
                beta = tournament_to_array(t)
                if t.upset_count() != array_stats(beta).eq_total:
                    return False
            seen = set()
            for alpha in enumerate_arrays(n, SORTED_COLORS):
                fiber = list(enumerate_row_shuffles(alpha))
                if len(fiber) != row_shuffle_count(alpha):
                    return False
                for beta in fiber:
                    if sort_to_tsscpp(beta) != alpha or beta in seen:
                        return False
                    seen.add(beta)
            if len(seen) != 2 ** comb(n, 2):
                return False
            if seen != set(enumerate_arrays(n, TOURNAMENT_COLORS)):
                return False
        return True

    _run(6, "statistics translate across bijections and sorting fibers partition", check)


def test_criterion_7_nested_upset_condition():
    def check():
        for n in range(1, 6):
            passing = sum(
                1 for t in enumerate_tournaments(n) if tsscpp_tournament_check(t)
            )
            if passing != asm_number(n):
                return False
        return True

    _run(7, "the nested upset condition selects exactly as many tournaments as there are ASMs", check)
