import math
import multiprocessing
import os
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
import sympy

from gphi import diophantine, sieve
from gphi.arith import euler_phi, factorize, is_prime, odd_part, v2
from gphi.diophantine import (
    MAX_EXOTIC_SEGMENT,
    MAX_JOBS,
    MAX_SEARCH_VALUE,
    FAMILIES,
    CheckpointMismatchError,
    InternalInconsistencyError,
    SolutionClass,
    SolutionKind,
    TraceCase,
    brute_force_solutions,
    case_trace,
    classify,
    classify_range,
    exotic_prime_search,
    family_members,
    is_solution,
    relaxed_search,
    theorem_mismatches,
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


_SIEVE_CLASS = sieve._sieve_class
_EXOTIC_SEGMENT = diophantine._exotic_segment
_BUILD_LOG = "GPHI_TEST_BUILD_LOG"  # where spawned workers log their builds


def logging_builds(log):
    """sieve._sieve_class, but each base-prime build window appends
    "<pid> <lo> <hi>" to log.  A build window is a modulus-1 class sieve
    outside another one (the sieve of a window may first extend the cache
    to its own root, and those nested values are not logged)."""
    depth = [0]

    def spy(lo, hi, residue, modulus):
        if modulus == 1 and not depth[0]:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {lo} {hi}\n")
        depth[0] += modulus == 1
        try:
            return _SIEVE_CLASS(lo, hi, residue, modulus)
        finally:
            depth[0] -= modulus == 1

    return spy


def exotic_segment_logging_builds(bounds):
    """diophantine._exotic_segment in a spawned pool worker, which logs its
    builds to the file named by _BUILD_LOG."""
    if sieve._sieve_class is _SIEVE_CLASS:
        sieve._sieve_class = logging_builds(os.environ[_BUILD_LOG])
    return _EXOTIC_SEGMENT(bounds)


def build_windows(log):
    """pid -> the [lo, hi) windows of that process's base-prime builds, in order."""
    windows = defaultdict(list)
    for line in log.read_text().splitlines():
        pid, lo, hi = map(int, line.split())
        windows[pid].append((lo, hi))
    return windows


def assert_each_value_sieved_once(windows):
    """Each process's build windows tile [2, top) in order: every base-prime
    value is sieved once, from a cold cache up."""
    for pid, wins in windows.items():
        assert [lo for lo, _ in wins] == [2] + [hi for _, hi in wins[:-1]], pid
        assert all(lo < hi for lo, hi in wins), pid


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

    @pytest.mark.parametrize("kind", list(FAMILIES))
    def test_family_starts_at_its_least_ell(self, kind):
        q, least = FAMILIES[kind]
        assert classify(q << least).kind is kind
        assert classify(q << (least - 1)).kind is SolutionKind.NOT_SOLUTION

    def test_mismatch_of_either_side_is_reported(self, monkeypatch):
        brute = diophantine.brute_force_solutions
        monkeypatch.setattr(diophantine, "brute_force_solutions", lambda limit: [n for n in brute(limit) if n != 70])
        assert theorem_mismatches(100) == ([70], 18)

    def test_equivalence_with_oracle_desk_scale(self):
        mismatches, count = theorem_mismatches(20000)
        assert mismatches == []
        assert count == len([n for n in range(1, 20001) if classify(n).kind is not SolutionKind.NOT_SOLUTION])

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


class TestClassifyRange:
    def test_agrees_with_classify_to_2_15(self, scalar_classes):
        classes = classify_range(RANGE_TOP)
        assert classes == scalar_classes
        assert list(classes) == sorted(classes)

    def test_agrees_with_classify_on_small_limits(self, scalar_classes):
        for limit in range(-1, 65):
            assert classify_range(limit) == {n: c for n, c in scalar_classes.items() if n <= limit}, limit

    @pytest.mark.parametrize("kind", list(FAMILIES))
    def test_agrees_with_classify_at_family_members(self, kind, scalar_classes):
        for limit in family_edge_limits(kind):
            assert classify_range(limit) == {n: c for n, c in scalar_classes.items() if n <= limit}, limit

    @pytest.mark.parametrize("limit", [10, 14, 69, 70, 94, 100, 2000])
    def test_exotic_branch(self, monkeypatch, limit):
        # Without the family index, the known exotic m = 0, 5 give back
        # the odd parts 7, 47 (shape A) and 5, 35 (shape B).
        monkeypatch.setattr(diophantine, "_FAMILY_BY_ODD_PART", {})
        shapes = ((7, SolutionKind.EXOTIC_A, 0), (47, SolutionKind.EXOTIC_A, 5),
                  (5, SolutionKind.EXOTIC_B, 0), (35, SolutionKind.EXOTIC_B, 5))
        expected = {q << ell: SolutionClass(kind, ell, m)
                    for q, kind, m in shapes for ell in range(1, 12) if q << ell <= limit}
        assert classify_range(limit) == dict(sorted(expected.items()))
        for n, cls in expected.items():
            assert classify(n) == cls

    @pytest.mark.parametrize("first,second", [(SolutionKind.EXOTIC_A, SolutionKind.EXOTIC_B),
                                              (SolutionKind.EXOTIC_B, SolutionKind.EXOTIC_A)])
    def test_shapes_are_tried_in_classify_order(self, monkeypatch, first, second):
        # The real shapes never share an odd part: A needs q prime and B needs
        # phi(q) = (2q + 2)/3, both only at q = 5, which is not 7 mod 8.  Two
        # copies of one shape do, and the first listed wins in both classifiers.
        monkeypatch.setattr(diophantine, "_FAMILY_BY_ODD_PART", {})
        monkeypatch.setattr(diophantine, "_EXOTIC_SHAPES", {first: (8, 7), second: (8, 7)})
        expected = {14: SolutionClass(first, 1, 0), 28: SolutionClass(first, 2, 0),
                    56: SolutionClass(first, 3, 0), 94: SolutionClass(first, 1, 5)}
        assert classify_range(100) == expected
        for n, cls in expected.items():
            assert classify(n) == cls

    def test_disagreement_with_classify_raises(self, monkeypatch):
        scalar = diophantine.classify
        monkeypatch.setattr(diophantine, "classify", lambda n: SolutionClass(SolutionKind.NOT_SOLUTION, v2(n)) if n == 70 else scalar(n))
        with pytest.raises(InternalInconsistencyError, match="classify_range"):
            classify_range(100)

    def test_a_search_that_misses_a_hit_is_caught(self, monkeypatch):
        # Without the family index only the search gives the odd parts 35
        # and 47 (m = 5); the scalar classify still finds 70 and 94.
        monkeypatch.setattr(diophantine, "_FAMILY_BY_ODD_PART", {})
        search = diophantine.exotic_prime_search
        monkeypatch.setattr(diophantine, "exotic_prime_search",
                            lambda lo, hi: [w for w in search(lo, hi) if w.m != 5])
        with pytest.raises(InternalInconsistencyError, match="classify_range"):
            classify_range(100)

    def test_sample_of_a_long_range_is_checked(self, monkeypatch):
        # A classify that is wrong on every n: any sample point shows it.
        monkeypatch.setattr(diophantine, "classify", lambda n: SolutionClass(SolutionKind.NOT_SOLUTION, -1))
        with pytest.raises(InternalInconsistencyError, match="classify_range"):
            classify_range(50000)

    def test_positives_are_confirmed(self, monkeypatch):
        # Both classifiers take 9 for a family odd part; only the equation says no.
        monkeypatch.setitem(diophantine._FAMILY_BY_ODD_PART, 9, (SolutionKind.FAMILY_3, 1))
        scalar = diophantine.classify
        monkeypatch.setattr(diophantine, "classify", lambda n: SolutionClass(SolutionKind.FAMILY_3, 1) if n == 18 else scalar(n))
        with pytest.raises(InternalInconsistencyError, match="classify_range: 18 matches"):
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

    # Many segments through the pool: the same hits, per-segment progress and
    # final checkpoint bytes serially, in parallel, and resumed in parallel.
    def test_deterministic_across_jobs(self, tmp_path):
        events = {}

        def search(name, jobs, max_segments=None):
            return exotic_prime_search(2, 2 * 10 ** 6, segment_size=1 << 17, jobs=jobs,
                                       checkpoint_path=tmp_path / name, max_segments=max_segments,
                                       progress=lambda *e: events.setdefault(name, []).append(e))

        serial = search("serial", 1)
        parallel = search("parallel", 2)
        search("resumed", 2, max_segments=5)
        assert read_checkpoint(tmp_path / "resumed").last_completed_hi == 2 + 5 * (1 << 17)
        resumed = search("resumed", 2)
        assert [w.m for w in serial] == [0, 5]
        assert serial == parallel == resumed
        assert len(events["serial"]) == 16
        assert events["serial"] == events["parallel"] == events["resumed"]
        final = (tmp_path / "serial").read_bytes()
        assert (tmp_path / "parallel").read_bytes() == (tmp_path / "resumed").read_bytes() == final

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

    # A search sieves each base-prime value once per process: no process,
    # the search's or a forked worker, builds a window twice, and together
    # they reach the root of the largest value.  The log file also collects
    # the builds of workers.
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_search_builds_base_primes_once(self, jobs, monkeypatch, tmp_path, cold_base_primes):
        log = tmp_path / "builds"
        monkeypatch.setattr(sieve, "_sieve_class", logging_builds(log))
        hi = 2 + 16 * (1 << 17)
        witnesses = exotic_prime_search(2, hi, segment_size=1 << 17, jobs=jobs)
        assert [w.m for w in witnesses] == [0, 5]
        windows = build_windows(log)
        assert_each_value_sieved_once(windows)
        assert max(wins[-1][1] for wins in windows.values()) - 1 >= math.isqrt(hi - 1)

    # A spawned worker inherits no cache.  Its segments extend their own,
    # each from where the last one stopped, so every worker sieves each
    # base-prime value once; the search's process, which runs no segment,
    # builds none.  The hits are those of the serial search.
    def test_pool_search_under_spawn(self, monkeypatch, tmp_path, cold_base_primes):
        log = tmp_path / "builds"
        monkeypatch.setenv(_BUILD_LOG, str(log))
        monkeypatch.setattr(sieve, "_sieve_class", logging_builds(log))
        monkeypatch.setattr(diophantine, "_exotic_segment", exotic_segment_logging_builds)
        hi, seg = 2 + 16 * (1 << 14), 1 << 14
        previous = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            pooled = exotic_prime_search(2, hi, segment_size=seg, jobs=2)
        finally:
            multiprocessing.set_start_method(previous, force=True)
        windows = build_windows(log)
        assert windows and os.getpid() not in windows
        assert_each_value_sieved_once(windows)
        assert pooled == exotic_prime_search(2, hi, segment_size=seg)
        assert [w.m for w in pooled] == [0, 5]

    # MAX_EXOTIC_SEGMENT is sized from a segment's peak of 0.82 bytes per
    # value of width near 10^10; numpy reports its buffers to tracemalloc.
    def test_segment_peak_memory_per_value(self):
        lo, width = 9_900_000_000, 1 << 22
        diophantine._exotic_segment((lo, lo + 64))  # import-time and cached allocations
        tracemalloc.start()
        try:
            diophantine._exotic_segment((lo, lo + width))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.9 * width

    # Segments are made as they run: stopped after its first segment, a
    # search to 10^15 (about 2.4 * 10^8 segments) returns at once, its
    # parent holding little more than the base primes to sqrt(10^15).
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_segments_stream_lazily(self, jobs):
        class Stop(Exception):
            pass

        def stop(*event):
            raise Stop(event)

        started = time.monotonic()
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                exotic_prime_search(2, 10 ** 15, jobs=jobs, progress=stop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20
        assert time.monotonic() - started < 30

    def test_checkpoint_resume_reproduces_hits(self, tmp_path):
        lo, hi, seg = 2, 3_000_000, 1 << 19
        plain = exotic_prime_search(lo, hi, segment_size=seg)
        path = tmp_path / "resume.ckpt"
        exotic_prime_search(lo, hi, segment_size=seg, checkpoint_path=path, max_segments=2)
        from gphi.sieve import read_checkpoint

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

    def test_finished_checkpoint_resumes_to_same_hits(self, tmp_path):
        # 2000 is off the 64-grid from 2: the last segment is a short one
        path = tmp_path / "done.ckpt"
        first = exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path)
        assert read_checkpoint(path).last_completed_hi == 2000
        assert exotic_prime_search(2, 2000, segment_size=64, checkpoint_path=path) == first

    def test_bad_range(self):
        with pytest.raises(ValueError):
            exotic_prime_search(10, 10)

    # Checked before any pool starts, so MAX_JOBS + 1 starts nothing.
    @pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1, "2", True, None])
    def test_rejects_bad_worker_count(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            exotic_prime_search(2, 100, jobs=jobs)

    # max_segments=0: no segment is sieved even if the width check fails.
    def test_rejects_oversized_segment(self):
        with pytest.raises(SegmentTooLargeError):
            exotic_prime_search(2, 10 ** 12, segment_size=MAX_EXOTIC_SEGMENT + 1, max_segments=0)
        assert exotic_prime_search(2, 10 ** 12, segment_size=MAX_EXOTIC_SEGMENT, max_segments=0) == []

    def test_huge_segment_size_over_small_range(self):
        assert [w.m for w in exotic_prime_search(2, 100, segment_size=10 ** 15)] == [0, 5]

    # 3p - 1 must fit in int64.  max_segments=0: a broken guard returns at
    # once instead of sieving near 10^18.
    def test_rejects_values_that_wrap_int64(self):
        assert 3 * MAX_SEARCH_VALUE <= np.iinfo(np.int64).max < 3 * (MAX_SEARCH_VALUE + 1)
        lo = MAX_SEARCH_VALUE - (1 << 22)
        with pytest.raises(SieveRangeError):
            exotic_prime_search(lo, MAX_SEARCH_VALUE + 1, max_segments=0)
        assert exotic_prime_search(lo, MAX_SEARCH_VALUE, max_segments=0) == []


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

    # 3*phi(n) must fit in int64; the guard must act before any sieving.
    def test_rejects_values_that_wrap_int64(self, monkeypatch):
        def no_sieve(lo, hi):
            raise RuntimeError(f"sieved [{lo}, {hi})")

        monkeypatch.setattr(diophantine, "sieve_segment", no_sieve)
        with pytest.raises(SieveRangeError):
            relaxed_search(MAX_SEARCH_VALUE + 1)
        with pytest.raises(RuntimeError, match="sieved"):
            relaxed_search(MAX_SEARCH_VALUE)

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


class TestFamilyMembers:
    def test_family_5(self):
        assert family_members(SolutionKind.FAMILY_5, 3) == [10, 20, 40]

    def test_powers_of_two_start_at_4(self):
        assert family_members(SolutionKind.POWER_OF_2, 4) == [4, 8, 16]

    def test_family_47(self):
        assert family_members(SolutionKind.FAMILY_47, 2) == [94, 188]

    def test_exotic_kinds_need_m(self):
        with pytest.raises(ValueError):
            family_members(SolutionKind.EXOTIC_A, 3)
        assert family_members(SolutionKind.EXOTIC_A, 3, m=5) == [94, 188, 376]
        assert family_members(SolutionKind.EXOTIC_B, 3, m=0) == [10, 20, 40]

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

    def test_exotic_sufficiency(self):
        # both 2^l(8m+7) and 2^l(6m+5) solve the equation for known m
        for m in (0, 5):
            for ell in range(1, 21):
                assert is_solution((8 * m + 7) << ell)
                assert is_solution((6 * m + 5) << ell)
