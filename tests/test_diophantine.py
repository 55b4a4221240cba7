import bisect
import math
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy

from gphi import arith, diophantine, equation, sieve
from gphi.arith import euler_phi, factorize, is_prime, odd_part, v2
from gphi.diophantine import (
    MAX_EXOTIC_SEGMENT,
    MAX_SEARCH_VALUE,
    CheckpointMismatchError,
    brute_force_solutions,
    classify_range,
    exotic_prime_search,
    oracle_comparison,
    relaxed_search,
)
from gphi.equation import (
    FAMILIES,
    InternalInconsistencyError,
    SolutionClass,
    SolutionKind,
    TraceCase,
    case_trace,
    classify,
    family_members,
    is_solution,
)
from gphi.sieve import (
    SearchCheckpoint,
    SegmentTooLargeError,
    SieveRangeError,
    read_checkpoint,
    totient_progression,
    write_checkpoint,
)

SOLUTIONS_BELOW_100 = [4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 70, 80, 94, 96]


def equation_holds(n):
    """Direct oracle, written out independently of the library internals."""
    tot = euler_phi(n)
    return tot + euler_phi(n + tot) == n


def lemma_admits(q, q_min, q_max):
    """The ratio lemma of diophantine._ratio_candidates, in exact fractions
    from scalar factorize: 2/3 < phi(s)/s <= (2 q_min + 2)/(3 q_min) *
    (257/256)^w, s the part of q made of primes below 257, w the largest
    with 257^w <= q_max."""
    ratio = Fraction(1)
    for p, _ in factorize(q).factors:
        if p < 257:
            ratio *= Fraction(p - 1, p)
    w = 0
    while 257 ** (w + 1) <= q_max:
        w += 1
    return Fraction(2, 3) < ratio <= Fraction(2 * q_min + 2, 3 * q_min) * Fraction(257, 256) ** w


def kind_id(kind):
    """The test id of a SolutionKind parameter, SolutionKind.NAME: a member
    is the string of its value, which pytest would take as the id."""
    return f"SolutionKind.{kind.name}"


_SIEVE_CLASS = sieve._sieve_class


def logging_builds(log):
    """sieve._sieve_class, but each base-prime build window appends its
    (lo, hi) to the list log.  A build window is a modulus-1 class sieve
    outside another one (the sieve of a window may first extend the cache
    to its own root, and those nested values are not logged)."""
    depth = [0]

    def spy(lo, hi, residue, modulus):
        if modulus == 1 and not depth[0]:
            log.append((lo, hi))
        depth[0] += modulus == 1
        try:
            return _SIEVE_CLASS(lo, hi, residue, modulus)
        finally:
            depth[0] -= modulus == 1

    return spy


class StopSearch(Exception):
    pass


def stop_after(k):
    """A progress callback that stops a search after its k-th segment, whose
    checkpoint is written before the callback runs."""
    seen = []

    def progress(*event):
        seen.append(event)
        if len(seen) == k:
            raise StopSearch(event)

    return progress


def no_segment(bounds):
    """A stand-in for _exotic_segment that sieves nothing."""
    raise StopSearch(f"sieved {bounds}")


class TestIsSolution:
    @pytest.mark.parametrize("n,expected", [(10, True), (2, False), (12, True), (1, False), (94, True)])
    def test_examples(self, n, expected):
        assert is_solution(n) is expected


class TestBruteForce:
    def test_up_to_20(self):
        assert brute_force_solutions(20) == [4, 6, 8, 10, 12, 14, 16, 20]

    def test_up_to_100(self):
        assert brute_force_solutions(100) == SOLUTIONS_BELOW_100

    def test_empty_below_4(self):
        assert brute_force_solutions(3) == []

    def test_matches_per_n_oracle(self):
        hits = set(brute_force_solutions(400))
        for n in range(1, 401):
            assert (n in hits) == equation_holds(n), n

    # The oracle reads the equation off whatever unit table it is given:
    # here one int32 table whose entries past the limit lie near 2^31, so
    # that most sums of the equation pass int32, with hits planted at n = 3
    # and 50.  Only n with tot + phi[n + tot] = n, in Python integers, are hits.
    def test_reads_the_equation_off_an_int32_table(self, monkeypatch):
        limit = 50
        rng = np.random.default_rng(7)
        table = np.zeros(2 * limit + 1, dtype=np.int32)
        table[2 : limit + 1] = [rng.integers(1, n) for n in range(2, limit + 1)]
        table[limit + 1 :] = rng.integers(2 ** 31 - 2 ** 20, 2 ** 31, size=limit, dtype=np.int32)
        table[3], table[5] = 2, 1
        table[50], table[80] = 30, 20
        unit = (2, 2 * limit + 1)
        monkeypatch.setattr(diophantine, "_phi_unit", lambda *b: table[2:] if b == unit else pytest.fail(b))
        expected = [n for n in range(2, limit + 1) if int(table[n]) + int(table[n + int(table[n])]) == n]
        assert expected[0] == 3 and expected[-1] == 50
        assert brute_force_solutions(limit) == expected

    # A unit's table is int32 when its top value is below 2^31 and int64
    # from there on, so the allocation a unit to 2^31 - 1 cannot get is 4
    # bytes per value, and one to 2^31 is 8; the allocation is stubbed to fail.
    @pytest.mark.parametrize("top, itemsize", [(2 ** 31 - 1, 4), (2 ** 31, 8)])
    def test_table_width(self, monkeypatch, top, itemsize):
        def refuse(shape, dtype):
            raise MemoryError()

        monkeypatch.setattr(np, "zeros", refuse)
        lo, hi = top + 1 - diophantine._ORACLE_UNIT, top + 1
        message = f"phi table on [{lo}, {hi}) needs {itemsize * (hi - lo)} bytes"
        with pytest.raises(MemoryError, match=f"^{re.escape(message)}$"):
            diophantine._phi_unit(lo, hi)

    # Each unit width puts a unit edge A at every value, every second, ...
    # value of the m axis; n = A//2 + 1, the least n a unit streams, is
    # checked at each.  Every limit to 24 moves the axis end through each
    # residue of the narrow widths; the limit top crosses every edge to
    # 2 * top.
    @pytest.mark.parametrize("unit, top", [(1, 200), (2, 500), (3, 600), (7, 1500), (64, 3000)])
    def test_unit_edges_against_one_table(self, monkeypatch, unit, top):
        phi = np.zeros(2 * top + 1, dtype=np.int64)
        phi[2:] = sieve.sieve_segment(2, 2 * top + 1).phi
        n = np.arange(2, top + 1)
        whole = n[phi[n] + phi[n + phi[n]] == n].tolist()
        monkeypatch.setattr(diophantine, "_ORACLE_UNIT", unit)
        for limit in [*range(1, 25), top]:
            assert brute_force_solutions(limit) == [x for x in whole if x <= limit], limit

    # The unit table, not the limit, bounds the oracle's memory.  Under
    # tracemalloc, 2^18-value units to 5 * 10^5 peak at 3.8 MiB: the
    # table's 1 MiB, a 2^18-value sieve window of phi(n) in int32 and the
    # check's temporaries on 2^16 values; one whole table to 10^6 reads
    # 15 MiB.  Smaller units re-sieve more n, which is slow under tracemalloc.
    def test_peak_memory_is_bounded_by_the_unit(self, monkeypatch):
        unit = 1 << 18
        monkeypatch.setattr(diophantine, "_ORACLE_UNIT", unit)
        brute_force_solutions(1000)  # import-time and cached allocations
        tracemalloc.start()
        try:
            hits = brute_force_solutions(5 * 10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hits) == 92
        assert peak < 6 * 2 ** 20

    # Under tracemalloc the oracle peaks at 10.4 bytes per unit of limit: 8
    # for its one int32 table to 2 * limit, the rest a sieve window's
    # arrays.
    def test_peak_memory_per_unit_of_limit(self):
        brute_force_solutions(1000)  # import-time and cached allocations
        limit = 10 ** 6
        tracemalloc.start()
        try:
            hits = brute_force_solutions(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hits) == 98
        assert peak <= 34 * limit

    # The oracle's re-sieved values grow as limit^2, so a limit past
    # MAX_ORACLE_LIMIT is refused before any table is built.
    def test_rejects_a_limit_past_the_oracle_maximum(self, monkeypatch):
        def no_table(lo, hi):
            raise RuntimeError(f"table on [{lo}, {hi})")

        monkeypatch.setattr(diophantine, "_phi_unit", no_table)
        with pytest.raises(SieveRangeError, match=f"above the oracle maximum {diophantine.MAX_ORACLE_LIMIT}$"):
            brute_force_solutions(diophantine.MAX_ORACLE_LIMIT + 1)
        with pytest.raises(RuntimeError, match="table on"):
            brute_force_solutions(diophantine.MAX_ORACLE_LIMIT)


class TestClassify:
    def test_70_is_family_35(self):
        cls = classify(70)
        assert cls.kind is SolutionKind.FAMILY_35 and cls.ell == 1

    def test_2_is_not_a_solution(self):
        # matches the 2^ell shape with ell = 1 but the oracle rejects it
        assert classify(2).kind is SolutionKind.NOT_SOLUTION

    def test_188_is_family_47(self):
        cls = classify(188)
        assert cls.kind is SolutionKind.FAMILY_47 and cls.ell == 2

    def test_named_families_shadow_exotic_forms(self):
        # 94 = 2 * 47 with 47 = 8*5+7 prime and phi(35) = 24 = 4*5+4,
        # so it matches the exotic shape too; the named tag wins.
        assert classify(94).kind is SolutionKind.FAMILY_47
        assert classify(10).kind is SolutionKind.FAMILY_5

    @pytest.mark.parametrize("kind", list(FAMILIES), ids=kind_id)
    def test_family_starts_at_its_least_ell(self, kind):
        q, least = FAMILIES[kind]
        assert classify(q << least).kind is kind
        assert classify(q << (least - 1)).kind is SolutionKind.NOT_SOLUTION

    # 70 is dropped by the oracle, then by the range classifier: the row
    # carries the verdict of each side, and every other row agrees.
    def test_mismatch_of_either_side_is_reported(self, monkeypatch):
        brute, ranged = diophantine.brute_force_solutions, diophantine.classify_range
        expected = {n: (n, True, True, classify(n)) for n in SOLUTIONS_BELOW_100}
        with monkeypatch.context() as patch:
            patch.setattr(diophantine, "brute_force_solutions", lambda limit: [n for n in brute(limit) if n != 70])
            assert list(oracle_comparison(100)) == list({**expected, 70: (70, False, True, classify(70))}.values())
        monkeypatch.setattr(diophantine, "classify_range", lambda limit: {n: c for n, c in ranged(limit).items() if n != 70})
        assert list(oracle_comparison(100)) == list({**expected, 70: (70, True, False, SolutionClass(SolutionKind.NOT_SOLUTION, 1))}.values())

    def test_equivalence_with_oracle_desk_scale(self):
        rows = list(oracle_comparison(20000))
        assert all(brute == classified for _, brute, classified, _ in rows)
        assert len(rows) == len([n for n in range(1, 20001) if classify(n).kind is not SolutionKind.NOT_SOLUTION])

    def test_odd_numbers_never_classify(self):
        for n in range(1, 500, 2):
            assert classify(n).kind is SolutionKind.NOT_SOLUTION


RANGE_TOP = 1 << 15


@pytest.fixture(scope="module")
def scalar_classes():
    """classify(n) for every n <= RANGE_TOP that it calls a solution."""
    classes = {n: classify(n) for n in range(1, RANGE_TOP + 1)}
    return {n: cls for n, cls in classes.items() if cls.kind is not SolutionKind.NOT_SOLUTION}


def family_edge_limits(kind):
    """q * 2^ell - 1, q * 2^ell and q * 2^ell + 1 for every member of one family up to RANGE_TOP."""
    q, least = FAMILIES[kind]
    return sorted({(q << ell) + d for ell in range(least, (RANGE_TOP // q).bit_length()) for d in (-1, 0, 1)})


def patch_shapes(monkeypatch, name, table):
    """Replace one shape table of equation, which classify reads, and its
    binding in diophantine, which classify_range reads for its candidates."""
    for module in (equation, diophantine):
        monkeypatch.setattr(module, name, table)


class TestClassifyRange:
    def test_agrees_with_classify_to_2_15(self, scalar_classes):
        classes = classify_range(RANGE_TOP)
        assert classes == scalar_classes
        assert list(classes) == sorted(classes)

    def test_agrees_with_classify_on_small_limits(self, scalar_classes):
        for limit in range(1, 65):
            assert classify_range(limit) == {n: c for n, c in scalar_classes.items() if n <= limit}, limit

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_limit_below_1_is_refused(self, limit):
        with pytest.raises(ValueError, match=f"expected n >= 1, got {limit}"):
            classify_range(limit)

    @pytest.mark.parametrize("kind", list(FAMILIES), ids=kind_id)
    def test_agrees_with_classify_at_family_members(self, kind, scalar_classes):
        for limit in family_edge_limits(kind):
            assert classify_range(limit) == {n: c for n, c in scalar_classes.items() if n <= limit}, limit

    @pytest.mark.parametrize("limit", [10, 14, 69, 70, 94, 100, 2000])
    def test_exotic_branch(self, monkeypatch, limit):
        # Without the family index, the known exotic m = 0, 5 give back
        # the odd parts 7, 47 (shape A) and 5, 35 (shape B).
        patch_shapes(monkeypatch, "_FAMILY_BY_ODD_PART", {})
        shapes = ((7, SolutionKind.EXOTIC_A, 0), (47, SolutionKind.EXOTIC_A, 5),
                  (5, SolutionKind.EXOTIC_B, 0), (35, SolutionKind.EXOTIC_B, 5))
        expected = {q << ell: SolutionClass(kind, ell, m)
                    for q, kind, m in shapes for ell in range(1, 12) if q << ell <= limit}
        assert classify_range(limit) == dict(sorted(expected.items()))
        for n, cls in expected.items():
            assert classify(n) == cls

    @pytest.mark.parametrize("first,second", [(SolutionKind.EXOTIC_A, SolutionKind.EXOTIC_B),
                                              (SolutionKind.EXOTIC_B, SolutionKind.EXOTIC_A)], ids=kind_id)
    def test_shapes_are_tried_in_classify_order(self, monkeypatch, first, second):
        # The real shapes never share an odd part: A needs q prime and B needs
        # phi(q) = (2q + 2)/3, both only at q = 5, which is not 7 mod 8.  Two
        # copies of one shape do, and the first listed wins in classify, which
        # classify_range asks.
        patch_shapes(monkeypatch, "_FAMILY_BY_ODD_PART", {})
        patch_shapes(monkeypatch, "_EXOTIC_SHAPES", {first: (8, 7), second: (8, 7)})
        expected = {14: SolutionClass(first, 1, 0), 28: SolutionClass(first, 2, 0),
                    56: SolutionClass(first, 3, 0), 94: SolutionClass(first, 1, 5)}
        assert classify_range(100) == expected
        for n, cls in expected.items():
            assert classify(n) == cls

    def test_a_search_that_misses_a_hit_is_caught(self, monkeypatch):
        # Without the family index only the search tree gives the odd parts
        # 35 and 47 (its hit q = 35, m = 5); the scalar classify still finds
        # 70 and 94.
        patch_shapes(monkeypatch, "_FAMILY_BY_ODD_PART", {})
        search = diophantine._relaxed_tree

        def tree(limit):
            hits, nodes, tried = search(limit)
            return [q for q in hits if q != 35], nodes, tried

        monkeypatch.setattr(diophantine, "_relaxed_tree", tree)
        with pytest.raises(InternalInconsistencyError, match="classify_range"):
            classify_range(100)

    def test_sample_of_a_long_range_is_checked(self, monkeypatch):
        # A classify that calls every even n a solution: an even sample point
        # that is no candidate shows it.
        monkeypatch.setattr(diophantine, "classify", lambda n: SolutionClass(SolutionKind.FAMILY_3 if n % 2 == 0 else SolutionKind.NOT_SOLUTION, v2(n)))
        with pytest.raises(InternalInconsistencyError, match=r"classify_range\(50000\) misses "):
            classify_range(50000)

    def test_positives_are_confirmed(self, monkeypatch):
        # The family index takes 9 for a family odd part; only the equation,
        # which classify checks, says no.
        monkeypatch.setitem(equation._FAMILY_BY_ODD_PART, 9, (SolutionKind.FAMILY_3, 1))
        with pytest.raises(InternalInconsistencyError, match="^18 matches shape family_3 but fails the defining equation$"):
            classify_range(20)


class TestCaseTrace:
    def test_70(self):
        trace = case_trace(70)
        assert trace.case is TraceCase.L2_GT_L1
        assert (trace.ell1, trace.ell2) == (1, 3)
        assert (trace.p, trace.alpha, trace.k, trace.q) == (47, 1, 2, 35)
        assert trace.phi_q_check

    def test_14(self):
        trace = case_trace(14)
        assert trace.case is TraceCase.L2_EQ_L1
        assert (trace.ell1, trace.ell2) == (1, 1)
        assert (trace.p, trace.alpha, trace.k, trace.q) == (7, 1, 2, 5)
        assert trace.phi_q_check

    def test_8_is_chain(self):
        assert case_trace(8).case is TraceCase.POWER_OF_2_CHAIN

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            case_trace(2)

    def test_structural_invariants_desk_scale(self):
        for n in brute_force_solutions(20000):
            trace = case_trace(n)
            if trace.case is TraceCase.POWER_OF_2_CHAIN:
                continue
            assert trace.alpha == 1
            assert trace.k == 2
            assert trace.phi_q_check
            assert trace.p % 4 == 3


class TestExoticSearch:
    def test_first_hundred(self):
        assert [(w.m, w.p, w.q) for w in exotic_prime_search(2, 100)] == [(0, 7, 5), (5, 47, 35)]

    def test_no_class_members_in_window(self):
        assert exotic_prime_search(48, 56) == []

    def test_empty_above_small_hits(self):
        assert exotic_prime_search(100, 10 ** 7) == []

    def test_witness_invariants(self):
        for w in exotic_prime_search(2, 1000):
            assert is_prime(w.p)
            assert w.p == 8 * w.m + 7 and w.q == 6 * w.m + 5
            assert euler_phi(w.q) == 4 * w.m + 4
            assert euler_phi((3 * w.p - 1) // 4) == (w.p + 1) // 2

    # Many segments: the same hits, per-segment progress and final
    # checkpoint bytes from two runs, and from a run resumed after a
    # progress callback stopped it at its fifth segment.
    def test_runs_and_a_resumed_run_agree(self, tmp_path):
        events = {}

        def search(name, stop_at=None):
            def progress(*event):
                events.setdefault(name, []).append(event)
                if len(events[name]) == stop_at:
                    raise StopSearch()

            return exotic_prime_search(2, 2 * 10 ** 6, segment_size=1 << 17,
                                       checkpoint_path=tmp_path / name, progress=progress)

        one = search("one")
        two = search("two")
        with pytest.raises(StopSearch):
            search("resumed", stop_at=5)
        assert read_checkpoint(tmp_path / "resumed").last_completed_hi == 2 + 5 * (1 << 17)
        resumed = search("resumed")
        assert [w.m for w in one] == [0, 5]
        assert one == two == resumed
        assert len(events["one"]) == 16
        assert events["one"] == events["two"] == events["resumed"]
        final = (tmp_path / "one").read_bytes()
        assert (tmp_path / "two").read_bytes() == (tmp_path / "resumed").read_bytes() == final

    # The benchmark's traced run requires the same call counts for every
    # exotic window and every state of the base-prime cache (cold at 2,
    # grown at the higher window, then warm), and whether or not a companion
    # passes the ratio filter (none of the 4 in the last window does); a
    # sieve recursing through its public names would call them more often
    # the higher the window, or the colder the cache.
    def test_segment_calls_do_not_grow_with_height(self, monkeypatch, cold_base_primes):
        calls = Counter()
        asked = []
        for module, names in ((sieve, ("base_primes", "primes_in_class", "totient_progression")),
                              (diophantine, ("primes_in_class", "totient_progression"))):
            for name in names:
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, f=original, n=name, **k: calls.update([n]) or f(*a, **k))
        progression = diophantine.totient_progression
        monkeypatch.setattr(diophantine, "totient_progression",
                            lambda *a, at, f=progression: asked.append(len(at)) or f(*a, at=at))
        counts = []
        for lo, width in ((2, 1 << 20), (9_900_000_000, 1 << 20), (9_900_000_000, 1 << 20), (9_900_000_000, 1 << 10)):
            calls.clear()
            diophantine._exotic_segment((lo, lo + width))
            counts.append(dict(calls))
        assert counts == 4 * [{"base_primes": 1, "primes_in_class": 1, "totient_progression": 1}]
        assert asked[-1] == 0 and min(asked[:-1]) > 0

    # The 2-adic lemma behind sieving p = 15 (mod 16) only: from one phi
    # table of the companions 6m+5, every hit m <= 10^6 is 0 or odd.
    def test_companion_hits_are_0_or_odd(self):
        limit = 10 ** 6
        _, phi = totient_progression(5, 6 * limit + 6, 5, 6)
        m = np.arange(limit + 1, dtype=np.int64)
        hits = m[phi == 4 * m + 4].tolist()
        assert hits == [0, 5, 215, 279935]
        assert all(h == 0 or h % 2 for h in hits)

    # The lemma's small cases: with at most two prime factors, 3*phi(q) =
    # 2q + 2 holds only at q = 5 and q = 35 = 5 * 7, (5 - 3)(7 - 3) = 8.
    def test_companions_with_two_primes_or_fewer(self):
        limit = 10 ** 5
        phi = sieve.sieve_segment(2, limit + 1).phi
        omega = np.zeros(limit + 1, dtype=np.int64)
        for p in sieve.base_primes(limit).tolist():
            omega[p::p] += 1
        q = np.arange(2, limit + 1, dtype=np.int64)
        assert q[(omega[2:] <= 2) & (3 * phi == 2 * q + 2)].tolist() == [5, 35]

    # m = 0 (p = 7) is the one hit outside the class 15 (mod 16).
    @pytest.mark.parametrize("lo, hi, hits", [(2, 7, []), (7, 8, [0]), (2, 48, [0, 5]), (8, 48, [5]), (47, 48, [5])])
    def test_segment_edges_at_the_small_hits(self, lo, hi, hits):
        assert diophantine._exotic_segment((lo, hi)) == hits

    # phi is evaluated only at the companions (3p - 1)/4 of the primes
    # p = 15 (mod 16), along the progression 11 (mod 12), that pass the
    # ratio lemma, here decided exactly from scalar factorize; they include
    # every true hit (q = 35, p = 47, in the window from 2).
    def test_phi_only_at_prime_companions(self, monkeypatch):
        calls = []
        original = diophantine.totient_progression

        def spy(lo, hi, residue, modulus, at=None):
            first, phi = original(lo, hi, residue, modulus, at=at)
            calls.append((residue, modulus, [first + modulus * int(j) for j in at]))
            return first, phi

        monkeypatch.setattr(diophantine, "totient_progression", spy)
        for lo, hi in [(2, 50_000), (10 ** 9, 10 ** 9 + (1 << 20))]:
            calls.clear()
            diophantine._exotic_segment((lo, hi))
            companions = [(3 * p - 1) // 4 for p in range(lo + (15 - lo) % 16, hi, 16) if is_prime(p)]
            q_min, q_max = companions[0], companions[-1]
            asked = [q for q in companions if lemma_admits(q, q_min, q_max)]
            assert calls == [(11, 12, asked)]
            assert 0 < len(asked) < len(companions) // 20
            assert {q for q in companions if 3 * euler_phi(q) == 2 * q + 2} <= set(asked)

    # A search sieves each base-prime value once: its build windows tile
    # [2, top) in order, from a cold cache up, and reach the root of the
    # largest value.
    def test_search_builds_base_primes_once(self, monkeypatch, cold_base_primes):
        windows = []
        monkeypatch.setattr(sieve, "_sieve_class", logging_builds(windows))
        hi = 2 + 16 * (1 << 17)
        witnesses = exotic_prime_search(2, hi, segment_size=1 << 17)
        assert [w.m for w in witnesses] == [0, 5]
        assert [a for a, _ in windows] == [2] + [b for _, b in windows[:-1]]
        assert all(a < b for a, b in windows)
        assert windows[-1][1] - 1 >= math.isqrt(hi - 1)

    # MAX_EXOTIC_SEGMENT is sized from a segment's peak of 0.82 bytes per
    # value of width near 10^10; numpy reports its buffers to tracemalloc.
    # Near 10^14 the sparse pass takes its 664,579 base primes in chunks, so
    # the peak does not grow with height.
    @pytest.mark.parametrize("lo", [9_900_000_000, 10 ** 14])
    def test_segment_peak_memory_per_value(self, lo):
        width = 1 << 22
        diophantine._exotic_segment((lo, lo + 64))  # import-time and cached allocations
        tracemalloc.start()
        try:
            diophantine._exotic_segment((lo, lo + width))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * width

    # Segments are made as they run: stopped after its first segment, a
    # search to 10^15 (about 2.4 * 10^8 segments) returns at once, holding
    # little more than the base primes to sqrt(10^15).
    def test_segments_stream_lazily(self):
        started = time.monotonic()
        tracemalloc.start()
        try:
            with pytest.raises(StopSearch):
                exotic_prime_search(2, 10 ** 15, progress=stop_after(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20
        assert time.monotonic() - started < 30

    def test_checkpoint_resume_reproduces_hits(self, tmp_path):
        lo, hi, seg = 2, 3_000_000, 1 << 19
        plain = exotic_prime_search(lo, hi, segment_size=seg)
        path = tmp_path / "resume.ckpt"
        with pytest.raises(StopSearch):
            exotic_prime_search(lo, hi, segment_size=seg, checkpoint_path=path, progress=stop_after(2))
        assert read_checkpoint(path).last_completed_hi == lo + 2 * seg  # interrupted
        resumed = exotic_prime_search(lo, hi, segment_size=seg, checkpoint_path=path)
        assert resumed == plain
        assert read_checkpoint(path).last_completed_hi == hi

    def test_checkpoint_mismatch_is_loud(self, tmp_path):
        path = tmp_path / "other.ckpt"
        exotic_prime_search(2, 1000, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError):
            exotic_prime_search(2, 2000, checkpoint_path=path)

    @pytest.mark.parametrize(
        "completed, hits",
        [
            (2 + 40 * 64, (0, 5)),  # beyond the search's end
            (2 - 64, ()),  # before its start
            (2 + 64 + 1, (0,)),  # off the segment grid
            (2, (0,)),  # a true hit, but outside the finished range
            (2 + 3 * 64, (0, 5, 999999)),  # hit beyond the finished range
            (2 + 3 * 64, (0, 1, 5)),  # p = 15 is not prime
            (2 + 3 * 64, (0, 2, 5)),  # p = 23 is prime, but phi(17) != 12
            (2 + 27 * 64, (0, 5, 215)),  # phi(1295) = 864, but p = 1727 = 11 * 157
        ],
    )
    def test_tampered_checkpoint_is_rejected(self, tmp_path, completed, hits):
        path = tmp_path / "tampered.ckpt"
        write_checkpoint(path, SearchCheckpoint("exotic:2:2000:64", completed, hits))
        with pytest.raises(CheckpointMismatchError):
            exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path)

    # A part-way checkpoint of [2, 2000) at 1730 holds exactly the hits 0
    # and 5 (p = 7, 47); one hit line deleted, added or changed is refused
    # before anything is sieved, and the file is left as it was.
    @pytest.mark.parametrize("hits, reason", [
        ((0,), "hit m=5 in [2, 1730) is missing"),
        ((5,), "hit m=0 in [2, 1730) is missing"),
        ((0, 5, 11), "hit m=11 is not a hit in [2, 1730)"),
        ((0, 6), "hit m=6 is not a hit in [2, 1730)"),
    ], ids=["deleted-5", "deleted-0", "added", "changed"])
    def test_part_way_checkpoint_lists_every_hit(self, tmp_path, hits, reason):
        path = tmp_path / "part.ckpt"
        write_checkpoint(path, SearchCheckpoint("exotic:2:2000:64", 2 + 27 * 64, (0, 5)))
        assert exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path) == exotic_prime_search(2, 2000)
        write_checkpoint(path, SearchCheckpoint("exotic:2:2000:64", 2 + 27 * 64, hits))
        content = path.read_bytes()
        with pytest.raises(CheckpointMismatchError, match=re.escape(f"checkpoint file {path}: {reason}")):
            exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path)
        assert path.read_bytes() == content

    def test_finished_checkpoint_resumes_to_same_hits(self, tmp_path):
        # 2000 is off the 64-grid from 2: the last segment is a short one
        path = tmp_path / "done.ckpt"
        first = exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path)
        assert read_checkpoint(path).last_completed_hi == 2000
        assert exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path) == first

    # A failed checkpoint write stops the search and leaves the checkpoint
    # of the segments finished before it.
    def test_failed_checkpoint_write_keeps_the_finished_segments(self, tmp_path, failing_checkpoint_write):
        with pytest.raises(OSError, match="disk full"):
            exotic_prime_search(2, 2 + 16 * 2**17, segment_size=2**17, checkpoint_path=tmp_path / "x.ckpt")
        assert read_checkpoint(tmp_path / "x.ckpt").last_completed_hi == 2 + 2**17

    def test_bad_range(self):
        with pytest.raises(ValueError):
            exotic_prime_search(10, 10)

    # With a stub segment, a broken width check sieves nothing.
    def test_rejects_oversized_segment(self, monkeypatch):
        monkeypatch.setattr(diophantine, "_exotic_segment", no_segment)
        with pytest.raises(SegmentTooLargeError):
            exotic_prime_search(2, 10 ** 12, segment_size=MAX_EXOTIC_SEGMENT + 1)
        with pytest.raises(StopSearch, match=f"sieved \\(2, {2 + MAX_EXOTIC_SEGMENT}\\)"):
            exotic_prime_search(2, 10 ** 12, segment_size=MAX_EXOTIC_SEGMENT)

    def test_huge_segment_size_over_small_range(self):
        assert [w.m for w in exotic_prime_search(2, 100, segment_size=10 ** 15)] == [0, 5]

    # 3p - 1 must fit in int64.  With a stub segment, a broken guard stops at
    # once instead of sieving near 10^18.
    def test_rejects_values_that_wrap_int64(self, monkeypatch):
        assert 3 * MAX_SEARCH_VALUE <= np.iinfo(np.int64).max < 3 * (MAX_SEARCH_VALUE + 1)
        monkeypatch.setattr(diophantine, "_exotic_segment", no_segment)
        lo = MAX_SEARCH_VALUE - (1 << 22)
        with pytest.raises(SieveRangeError):
            exotic_prime_search(lo, MAX_SEARCH_VALUE + 1)
        with pytest.raises(StopSearch, match=f"sieved \\({lo}, {MAX_SEARCH_VALUE}\\)"):
            exotic_prime_search(lo, MAX_SEARCH_VALUE)


class TestRatioFilter:
    """diophantine._ratio_candidates, which decides before any phi is sieved
    which companions q = 11 (mod 12) of a segment can satisfy 3*phi(q) =
    2q + 2."""

    LIMIT = 2 * 10 ** 6
    HITS = [35, 1295, 1679615]  # 1679615 = 1295 * 1297: r = 1297 needs w >= 1

    def test_ratio_primes_are_5_to_251(self):
        assert diophantine._RATIO_PRIMES == tuple(sympy.primerange(5, 257))

    # Every member below 2*10^6, prime companion or not, in windows of
    # several widths (the narrower, the closer q_min comes to a hit) and in
    # one-member windows at each hit (q_min = q_max = q, the tightest): the
    # hits the phi table shows are all kept, and few other members are.
    def test_keeps_every_hit_below_2_million(self):
        phi = sieve.sieve_segment(2, self.LIMIT).phi
        q = np.arange(11, self.LIMIT, 12, dtype=np.int64)
        hits = q[3 * phi[q - 2] == 2 * q + 2]
        assert hits.tolist() == self.HITS
        for width in (q.size, 1 << 14, 1 << 10):
            kept = np.concatenate([diophantine._ratio_candidates(int(q[a]), min(width, q.size - a))
                                   for a in range(0, q.size, width)])
            assert kept[(hits - 11) // 12].all(), width
            assert kept.sum() < q.size // 10, width
        for hit in self.HITS:
            assert diophantine._ratio_candidates(hit, 1).tolist() == [True]

    # The filter is the lemma, not a looser test.  The windows hold members
    # on both sides of each bound: those of 5500 members reach q_max in
    # [256^2, 257^2), where w = 1 but would be 2 in base 256, and those from
    # 95 and 191 hold members between the bounds with (257/256)^w and with
    # (256/255)^w.
    @pytest.mark.parametrize("first, count", [
        (11, 1), (35, 1), (11, 60), (47, 60), (11, 5500), (23, 5500), (35, 5500), (47, 5500),
        (59, 5500), (95, 5493), (191, 5485),
    ])
    def test_agrees_with_the_exact_lemma(self, first, count):
        members = range(first, first + 12 * count, 12)
        expected = [lemma_admits(q, first, members[-1]) for q in members]
        assert diophantine._ratio_candidates(first, count).tolist() == expected


class TestRelaxedSearch:
    def test_small_limits(self):
        assert relaxed_search(4) == []
        assert relaxed_search(40) == [5, 35]

    def test_known_list(self):
        assert relaxed_search(2_000_000) == [5, 35, 1295, 1679615]

    # The scan holds one window of the sweep at a time, not the range, and
    # drops it before it sieves the next: about 2.3 MiB to 10^7 with
    # 2^18-value int32 windows (5 MiB when each came as an int64 copy).
    # relaxed_search scans only [2, 2^21] and its tree holds base primes to
    # sqrt(10^7) and a stack of prefixes.
    def test_peak_memory_to_10_million(self):
        for search in (diophantine._scan_hits, relaxed_search):
            search(10)  # import-time and cached allocations
            tracemalloc.start()
            try:
                hits = search(10 ** 7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert hits == [5, 35, 1295, 1679615]
            assert peak < 4 * 2 ** 20, search

    # The search maximum, shared with the exotic search, must act before any
    # sieving; the window stream calls sieve.sieve_segment.
    def test_rejects_values_that_wrap_int64(self, monkeypatch):
        def no_sieve(lo, hi):
            raise RuntimeError(f"sieved [{lo}, {hi})")

        monkeypatch.setattr(sieve, "sieve_segment", no_sieve)
        with pytest.raises(SieveRangeError):
            relaxed_search(MAX_SEARCH_VALUE + 1)
        with pytest.raises(RuntimeError, match="sieved"):
            relaxed_search(MAX_SEARCH_VALUE)

    # A window below 2^31 comes in int32, where 3*phi(n) wraps for n past
    # about 7.2 * 10^8.  A stub stream hands one int32 window near 1.5 * 10^9
    # with phi(n) = floor((2n + 2)/3) planted at three neighbours, one of each
    # class mod 3: only the one with n = 2 (mod 3) is a hit.
    def test_exact_on_an_int32_window(self, monkeypatch):
        lo, width = 1_500_000_000, 1000
        phi = np.ones(width, dtype=np.int32)
        hit = lo + 500 + (2 - lo - 500) % 3
        for n in (hit - 1, hit, hit + 1):
            phi[n - lo] = (2 * n + 2) // 3
        bounds = (2, lo + width)
        monkeypatch.setattr(diophantine, "sweep_windows", lambda *b: iter([(lo, phi)]) if b == bounds else pytest.fail(b))
        assert 3 * int(phi[hit - lo]) == 2 * hit + 2 > 2 ** 31
        assert diophantine._scan_hits(lo + width - 1) == [hit]

    def test_hits_are_odd_with_the_right_class(self):
        for n in relaxed_search(2_000_000):
            assert n % 6 == 5
            assert 3 * euler_phi(n) == 2 * n + 2

    def test_correspondence_with_exotic_hits(self):
        # n = 6m+5 relaxed hits with 8m+7 prime are exactly the exotic hits
        relaxed = relaxed_search(10 ** 6)
        from_relaxed = {(n - 5) // 6 for n in relaxed if is_prime(8 * (n - 5) // 6 + 7)}
        exotic = {w.m for w in exotic_prime_search(2, 8 * ((10 ** 6 - 5) // 6) + 8)}
        assert from_relaxed == exotic == {0, 5}


def squarefree_cyclic(limit):
    """(q, phi(q), q's primes ascending) for every q in (1, limit] that is
    squarefree, cyclic (no prime of q divides p - 1 for a prime p of q) and
    made of primes of at least 5: a walk bounded by q <= limit alone, on
    sympy's primes."""
    primes = list(sympy.primerange(5, limit + 1))
    stack = [(1, 1, 0, ())]
    while stack:
        a, phi_a, first, factors = stack.pop()
        for k in range(first, len(primes)):
            p = primes[k]
            if a * p > limit:
                break
            if math.gcd(a, p - 1) == 1:
                node = (a * p, phi_a * (p - 1), factors + (p,))
                yield node
                stack.append((*node[:2], k + 1, node[2]))


class TestRelaxedTree:
    @pytest.fixture(scope="class")
    def scanned(self):
        return diophantine._scan_hits(10 ** 7)

    def test_equals_the_scan(self, scanned):
        assert scanned == [5, 35, 1295, 1679615]
        for limit in [*range(1, 3001), 10 ** 4, 10 ** 5, 2 * 10 ** 6, 10 ** 7]:
            assert diophantine._relaxed_tree(limit)[0] == [n for n in scanned if n <= limit], limit

    # classify_range(1) searches the tree to 0: its root alone, with no base primes.
    def test_limit_0_visits_the_root_only(self):
        assert diophantine._relaxed_tree(0) == ([], 1, 0)

    # Prefixes visited and primes taken by the three-or-more loops.  The
    # node counts are those of an earlier prototype of the same tree (also
    # 20,901 at 10^15 and 82,114 at 10^16).  Dropping the cyclic test adds
    # nodes; a break turned into a skip adds loop steps.
    @pytest.mark.parametrize("limit, nodes, tried", [
        (10 ** 7, 31, 46), (10 ** 10, 268, 503), (10 ** 12, 943, 1780),
    ])
    def test_node_counts(self, limit, nodes, tried):
        assert diophantine._relaxed_tree(limit) == ([5, 35, 1295, 1679615], nodes, tried)

    # Every squarefree cyclic q <= 2 * 10^6 from primes of at least 5: the
    # tree finds exactly its hits, and wherever the loop's break fires at
    # q's prefix a and prime s, with two or more primes of q above s,
    # 3*phi(q) > 2q + 2 as _breaks claims, for every such q, not just hits.
    def test_no_bound_removes_a_hit(self):
        limit = 2 * 10 ** 6
        hits, broken = [], 0
        for q, phi_q, factors in squarefree_cyclic(limit):
            if 3 * phi_q == 2 * q + 2:
                hits.append(q)
            a, phi_a = 1, 1
            for s in factors[:-2]:
                if diophantine._breaks(a, phi_a * (s - 1), s, limit):
                    broken += 1
                    assert 3 * phi_q > 2 * q + 2, (q, a, s)
                a, phi_a = a * s, phi_a * (s - 1)
        assert broken > 1000
        assert sorted(hits) == diophantine._relaxed_tree(limit)[0] == [5, 35, 1295, 1679615]

    # The window test against a reference list comprehension: at the search
    # maximum on the prefix 13*17*19*23*29*31*41*61, over its whole window
    # (P, sqrt(X/a)] of more than 500 primes with operands past 2^50, and on
    # the prefix 35, where it finds the pair (37, 1297) of
    # 1679615 = 35 * 37 * 1297.
    def test_window_test_is_exact_at_the_search_maximum(self):
        def python_pairs(a, phi_a, s):
            f, d = 3 * phi_a, 3 * phi_a - 2 * a
            pairs = [(p, (f * (p - 1) + 2) // (d * p - f)) for p in s if (f * (p - 1) + 2) % (d * p - f) == 0]
            return [(p, r) for p, r in pairs if r > p]

        a = 13 * 17 * 19 * 23 * 29 * 31 * 41 * 61
        phi_a = 12 * 16 * 18 * 22 * 28 * 30 * 40 * 60
        f, d = 3 * phi_a, 3 * phi_a - 2 * a
        s = [p for p in sieve.base_primes(math.isqrt(MAX_SEARCH_VALUE // a)).tolist() if p > max(61, f // d)]
        assert len(s) > 500
        assert f * s[-1] > 2 ** 50
        assert diophantine._window_pairs(f, d, s) == python_pairs(a, phi_a, s)
        s = [p for p in sieve.base_primes(2000).tolist() if p > 36]  # F = 72, D = 2
        pairs = diophantine._window_pairs(72, 2, s)
        assert pairs == python_pairs(35, 24, s)
        assert dict(pairs)[37] == 1297

    # Every node of the tree to 10^12 (a = (F - D)/2, P its largest prime, 3
    # at the root): the window clipped at d = Ds - F < sqrt(N) gives the
    # pairs of the whole window (P, sqrt(X/a)], and those of the divisors
    # d < sqrt(N) of N = F^2 - D(F - 2) with s = (d + F)/D a prime in it;
    # every clipped end stays within the base primes.
    def test_the_clipped_window_loses_no_pair(self, monkeypatch):
        limit = 10 ** 12
        windows = []
        close = diophantine._window_pairs
        monkeypatch.setattr(diophantine, "_window_pairs",
                            lambda f, d, primes: windows.append((f, d)) or close(f, d, primes))
        assert diophantine._relaxed_tree(limit) == ([5, 35, 1295, 1679615], 943, 1780)
        assert len(windows) == 943
        primes = sieve.base_primes(math.isqrt(limit)).tolist()
        bound = min(diophantine._integer_root(3 * limit, 3) + 1, math.isqrt(limit))
        ends, found = [], 0
        for f, d in windows:
            a = (f - d) // 2
            big_p = max(sympy.primefactors(a), default=3)
            n = f * f - d * (f - 2)
            top = math.isqrt(limit // a)
            end = min(top, (f + math.isqrt(n)) // d)
            ends.append(end)
            window = primes[bisect.bisect_right(primes, max(big_p, f // d)) : bisect.bisect_right(primes, top)]
            pairs = close(f, d, [s for s in window if s <= end])
            assert pairs == close(f, d, window), a
            divisor_pairs = [((x + f) // d, (n // x + f) // d) for x in sympy.divisors(n)
                             if x * x < n and (x + f) % d == 0 and (n // x + f) % d == 0]
            assert pairs == [(s, r) for s, r in divisor_pairs if big_p < s <= top and is_prime(s)], a
            found += len(pairs)
        assert found > 0
        assert max(ends) <= bound

    # The tree factors nothing: diophantine does not import factorize.
    def test_factors_nothing(self, monkeypatch):
        monkeypatch.setattr(arith, "factorize", lambda n: pytest.fail(f"factorized {n}"))
        assert not hasattr(diophantine, "factorize")
        assert diophantine._relaxed_tree(10 ** 14) == ([5, 35, 1295, 1679615], 10394, 17725)

    # A relaxed hit q with p = (4q + 1)/3 prime is the companion of the exotic
    # prime p, and the other way round.
    def test_witnesses_match_the_exotic_search(self):
        limit = 10 ** 8
        tree = {q for q in diophantine._relaxed_tree(limit)[0] if is_prime((4 * q + 1) // 3)}
        assert tree == {w.q for w in exotic_prime_search(2, (4 * limit + 1) // 3 + 1)} == {5, 35}


class TestFamilyMembers:
    def test_family_5(self):
        assert family_members(SolutionKind.FAMILY_5, 3) == [10, 20, 40]

    def test_powers_of_two_start_at_4(self):
        assert family_members(SolutionKind.POWER_OF_2, 4) == [4, 8, 16]

    def test_family_47(self):
        assert family_members(SolutionKind.FAMILY_47, 2) == [94, 188]

    # 2^191 is the largest power of 2 within the 192-bit width; the check
    # comes before any member is built, so a huge exponent costs nothing.
    def test_members_stay_within_the_width(self):
        assert family_members(SolutionKind.POWER_OF_2, 191)[-1] == 1 << 191
        assert family_members(SolutionKind.FAMILY_47, 186)[-1] == 47 << 186
        for kind, ell_max in ((SolutionKind.POWER_OF_2, 192), (SolutionKind.FAMILY_47, 187),
                              (SolutionKind.POWER_OF_2, 10 ** 18)):
            with pytest.raises(ValueError, match="192-bit width"):
                family_members(kind, ell_max)

    def test_exotic_kinds_need_m(self):
        with pytest.raises(ValueError):
            family_members(SolutionKind.EXOTIC_A, 3)
        assert family_members(SolutionKind.EXOTIC_A, 3, m=5) == [94, 188, 376]
        assert family_members(SolutionKind.EXOTIC_B, 3, m=0) == [10, 20, 40]

    @pytest.mark.parametrize("kind", list(FAMILIES), ids=kind_id)
    def test_named_kinds_refuse_m(self, kind):
        with pytest.raises(ValueError, match="exotic kinds only"):
            family_members(kind, 2, m=5)

    def test_exotic_kinds_need_an_exotic_m(self):
        with pytest.raises(ValueError):
            family_members(SolutionKind.EXOTIC_B, 3, m=-1)
        with pytest.raises(ValueError):
            family_members(SolutionKind.EXOTIC_A, 3, m=1)  # 15 is not prime
        with pytest.raises(ValueError):
            family_members(SolutionKind.EXOTIC_B, 3, m=1)

    def test_not_solution_rejected(self):
        with pytest.raises(ValueError):
            family_members(SolutionKind.NOT_SOLUTION, 3)

    def test_ell_max_below_1_rejected(self):
        with pytest.raises(ValueError, match="^ell_max must be positive$"):
            family_members(SolutionKind.FAMILY_3, 0)

    def test_exotic_sufficiency(self):
        # both 2^l(8m+7) and 2^l(6m+5) solve the equation for known m
        for m in (0, 5):
            for ell in range(1, 21):
                assert is_solution((8 * m + 7) << ell)
                assert is_solution((6 * m + 5) << ell)
