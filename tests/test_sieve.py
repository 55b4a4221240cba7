import bisect
import math
import os
import random
import tracemalloc

import numpy as np
import pytest
import sympy

from gphi import sieve
from gphi.arith import _TRIAL_PRIMES, euler_phi
from gphi.sieve import (
    _BLOCK,
    _STRIDED_HITS,
    _sparse_split,
    _sparse_strikes,
    SearchCheckpoint,
    SegmentTooLargeError,
    SieveRangeError,
    base_primes,
    primes_in_class,
    read_checkpoint,
    sieve_segment,
    totient_progression,
    write_checkpoint,
)


def phi_by_gcd_count(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestBasePrimes:
    def test_10(self):
        assert base_primes(10).tolist() == [2, 3, 5, 7]

    def test_2(self):
        assert base_primes(2).tolist() == [2]

    def test_30(self):
        assert base_primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_rejects_tiny_limit(self):
        with pytest.raises(SieveRangeError):
            base_primes(1)

    def test_matches_sympy_for_every_limit(self):
        primes = list(sympy.primerange(2, 5001))
        for limit in range(2, 5001):
            assert base_primes(limit).tolist() == primes[: bisect.bisect_right(primes, limit)], limit

    # arith takes its trial divisors from is_prime, not from the sieve.
    def test_agrees_with_the_trial_division_primes(self):
        assert _TRIAL_PRIMES == base_primes(1000).tolist()
        # int64 trial divisors would overflow against wide cofactors
        assert all(type(p) is int for p in _TRIAL_PRIMES)


class TestSieveSegment:
    def test_2_to_8(self):
        seg = sieve_segment(2, 8)
        assert seg.phi.tolist() == [phi_by_gcd_count(n) for n in range(2, 8)]
        assert seg.phi.tolist() == [1, 2, 2, 4, 2, 6]

    def test_10_to_12(self):
        assert sieve_segment(10, 12).phi.tolist() == [4, 10]

    def test_high_segment_matches_euler_phi(self):
        lo = 1 << 20
        seg = sieve_segment(lo, lo + 4)
        assert seg.phi.tolist() == [euler_phi(n) for n in range(lo, lo + 4)]

    def test_random_agreement_with_euler_phi(self):
        rng = random.Random(20240817)
        for _ in range(60):
            n = rng.randrange(2, 10 ** 7)
            assert int(sieve_segment(n, n + 1).phi[0]) == euler_phi(n)

    def test_concatenation_invariance(self):
        a, b, c = 5000, 6234, 8000
        whole = sieve_segment(a, c)
        left = sieve_segment(a, b)
        right = sieve_segment(b, c)
        assert np.array_equal(np.concatenate([left.phi, right.phi]), whole.phi)

    def test_is_the_modulus_one_progression(self):
        lo, hi = 10 ** 9, 10 ** 9 + 5000
        first, phi = totient_progression(lo, hi, 0, 1)
        assert first == lo
        assert np.array_equal(sieve_segment(lo, hi).phi, phi)

    def test_range_underflow(self):
        with pytest.raises(SieveRangeError):
            sieve_segment(1, 10)

    def test_segment_too_large(self):
        with pytest.raises(SegmentTooLargeError):
            sieve_segment(2, 2 + (1 << 23))


class TestPrimesInClass:
    def test_7_mod_8(self):
        assert primes_in_class(2, 100, 7, 8).tolist() == [7, 23, 31, 47, 71, 79]

    def test_even_prime(self):
        assert primes_in_class(2, 10, 0, 2).tolist() == [2]

    def test_3_mod_4(self):
        assert primes_in_class(2, 50, 3, 4).tolist() == [3, 7, 11, 19, 23, 31, 43, 47]

    def test_interior_window(self):
        assert primes_in_class(100, 200, 1, 4).tolist() == [101, 109, 113, 137, 149, 157, 173, 181, 193, 197]

    def test_bad_class(self):
        with pytest.raises(ValueError):
            primes_in_class(2, 10, 5, 4)

    # Every class, also those sharing a factor with the modulus, on windows
    # that start below 2, at a base prime p (p itself must survive), and at
    # p^2 and p^2 +- modulus, where striking by p begins.
    @pytest.mark.parametrize("modulus", [1, 2, 3, 4, 6, 8, 9, 12, 30])
    def test_matches_sympy_in_every_class(self, modulus):
        windows = [(-7, 60), (0, 0), (0, 3), (1, 2), (-5, -9), (2, 2), (2, 3)]
        for p in (2, 3, 5, 7, 11, 13, 97, 10007):
            windows += [(p, p + 150), (p * p, p * p + 150)]
            windows += [(p * p - modulus, p * p + 150), (p * p + modulus, p * p + 150)]
        for lo, hi in windows:
            primes = list(sympy.primerange(max(lo, 2), hi))
            for residue in range(modulus):
                got = primes_in_class(lo, hi, residue, modulus)
                assert got.dtype == np.int64
                assert got.tolist() == [p for p in primes if p % modulus == residue], (lo, hi, residue)

    # Windows that start at 3 or above must be non-empty; below that they
    # are clipped to start at 2 and may come out empty.
    @pytest.mark.parametrize("lo, hi", [(3, 3), (10, 10), (10, 5), (10 ** 9, 2)])
    def test_empty_or_inverted_window_above_2(self, lo, hi):
        with pytest.raises(SieveRangeError):
            primes_in_class(lo, hi, 1, 2)


class TestTotientProgression:
    def test_matches_euler_phi(self):
        first, phi = totient_progression(5, 5000, 5, 6)
        assert first == 5
        for j, value in enumerate(range(5, 5000, 6)):
            assert int(phi[j]) == euler_phi(value), value

    def test_prime_power_values(self):
        # 125 = 5^3 sits in the class 5 mod 6
        first, phi = totient_progression(125, 126, 5, 6)
        assert int(phi[0]) == 100

    # Windows hold the value 1, prime powers (125, 2^k, 3^k), values whose
    # largest prime factor exceeds sqrt(hi), and values above 10^12.
    @pytest.mark.parametrize("modulus", [1, 2, 6, 8, 30])
    @pytest.mark.parametrize(
        "lo, hi",
        [(1, 400), ((1 << 20) - 40, (1 << 20) + 40), (3 ** 13 - 40, 3 ** 13 + 40), (10 ** 12, 10 ** 12 + 60)],
    )
    def test_matches_scalar_phi_in_every_class(self, lo, hi, modulus):
        for residue in range(modulus):
            if math.gcd(residue, modulus) != 1:
                continue
            first, phi = totient_progression(lo, hi, residue, modulus)
            values = range(first, hi, modulus)
            assert phi.tolist() == [euler_phi(v) for v in values], (residue, modulus)

    # A window of several cache blocks must equal single-block windows joined,
    # and match scalar phi on both sides of every block edge.
    @pytest.mark.parametrize("lo, residue, modulus", [(1, 0, 1), (10 ** 9 + 1, 5, 6)])
    def test_block_edges(self, lo, residue, modulus):
        count = 3 * _BLOCK + 77
        hi = lo + modulus * count
        first, phi = totient_progression(lo, hi, residue, modulus)
        assert phi.size == count
        piece = modulus * (_BLOCK // 3)
        joined = [totient_progression(a, min(a + piece, hi), residue, modulus)[1]
                  for a in range(first, hi, piece)]
        assert np.array_equal(np.concatenate(joined), phi)
        edges = [b + d for b in range(0, count, _BLOCK) for d in (-1, 0, 1)]
        for j in [j for j in edges if 0 <= j < count] + [count - 1]:
            assert int(phi[j]) == euler_phi(first + modulus * j), j

    def test_requires_coprime_class(self):
        with pytest.raises(ValueError):
            totient_progression(2, 100, 3, 6)

    def test_empty_window(self):
        # no value congruent to 5 mod 6 inside [6, 10)
        _, phi = totient_progression(6, 10, 5, 6)
        assert phi.size == 0


class TestSparseTier:
    """Primes above the modulus that strike fewer than _STRIDED_HITS members
    are applied in one vectorized pass; both kernels must still agree with
    scalar phi and sympy on every member."""

    MODULI = [1, 2, 6, 8, 30]

    @staticmethod
    def check(lo, hi, residue, modulus):
        first, phi = totient_progression(lo, hi, residue, modulus)
        members = range(first, hi, modulus)
        assert phi.tolist() == [euler_phi(v) for v in members], (lo, hi, residue, modulus)
        got = primes_in_class(lo, hi, residue, modulus).tolist()
        assert got == [v for v in members if sympy.isprime(v)], (lo, hi, residue, modulus)

    # 1009 < 1013 < 1019 are sparse in a 201-member window near 10^9: values
    # with several sparse prime factors, and 1009^2 and 1009^3, all coprime
    # to every modulus here.
    @pytest.mark.parametrize("modulus", MODULI)
    @pytest.mark.parametrize("v", [1009 * 1013 * 1019, 1009 ** 2 * 7, 1009 ** 2 * 1013, 1009 ** 3, 1009 ** 3 * 11])
    def test_sparse_factors_and_powers(self, v, modulus):
        lo, hi = v - 100 * modulus, v + 100 * modulus + 1
        primes = base_primes(math.isqrt(hi - 1))
        assert primes[_sparse_split(primes, 201, modulus)] <= 1009
        self.check(lo, hi, v % modulus, modulus)

    # 4096 members: primes up to 64 (and the modulus) stride, larger ones are
    # sparse, so the tier boundary falls inside the window.
    @pytest.mark.parametrize("modulus", MODULI)
    def test_window_across_the_tier_boundary(self, modulus):
        lo = 10 ** 9 + 7
        count = 64 * _STRIDED_HITS
        hi = lo + modulus * count
        primes = base_primes(math.isqrt(hi - 1))
        split = _sparse_split(primes, count, modulus)
        assert 0 < split < primes.size and primes[split - 1] <= max(count // _STRIDED_HITS, modulus)
        for residue in (r for r in range(modulus) if math.gcd(r, modulus) == 1):
            self.check(lo, hi, residue, modulus)

    # A small batch size makes one window's strikes span many batches.
    @pytest.mark.parametrize("modulus", MODULI)
    def test_hits_span_several_batches(self, monkeypatch, modulus):
        monkeypatch.setattr(sieve, "_SPARSE_BATCH", 16)
        v = 1009 * 1013 * 1019
        lo, hi = v - 100 * modulus, v + 100 * modulus + 1
        first = lo + (v - lo) % modulus
        primes = base_primes(math.isqrt(hi - 1))
        sparse = primes[_sparse_split(primes, 201, modulus):]
        batches = list(_sparse_strikes(first, modulus, 201, sparse, from_square=False))
        assert len(batches) >= 3
        self.check(lo, hi, v % modulus, modulus)


def adjacent_primes_near(near, residue, modulus):
    """Adjacent primes P < P2 below near with P*P2 = residue (mod modulus).
    Around P*P2 the square root of the window's top lies in [P, P2), so P is
    the largest base prime a kernel needs there, and P*P2 needs it."""
    p2 = sympy.prevprime(near)
    while True:
        p = sympy.prevprime(p2)
        if p * p2 % modulus == residue:
            return p, p2
        p2 = p


class TestEvaluatedMembers:
    """totient_progression(..., at=...) gives phi at the chosen members only,
    equal to the full array at those indices and to scalar phi."""

    @staticmethod
    def check(lo, hi, residue, modulus, at):
        first, full = totient_progression(lo, hi, residue, modulus)
        at = np.asarray(at, dtype=np.int64)
        got_first, phi = totient_progression(lo, hi, residue, modulus, at=at)
        assert got_first == first
        assert phi.dtype == np.int64 and phi.size == at.size
        assert phi.tolist() == full[at].tolist()
        assert phi.tolist() == [euler_phi(first + modulus * int(j)) for j in at]

    @pytest.mark.parametrize("modulus", [1, 6, 12, 30])
    @pytest.mark.parametrize("lo", [1, 10 ** 9 + 7, 10 ** 12])
    def test_index_sets(self, lo, modulus):
        residue = max(r for r in range(modulus) if math.gcd(r, modulus) == 1)
        hi = lo + modulus * 3000
        count = totient_progression(lo, hi, residue, modulus)[1].size
        rng = random.Random(lo + modulus)
        for at in ([], [0], [count - 1], [count // 2], [0, count - 1],
                   sorted(rng.sample(range(count), 200)), range(count)):
            self.check(lo, hi, residue, modulus, list(at))

    # Members struck by sparse primes only, and all of them: these are
    # where the strikes are filtered to the chosen members.
    @pytest.mark.parametrize("modulus", [1, 6, 12, 30])
    def test_sparse_tier_members(self, modulus):
        v = 1009 ** 2 * 1013
        residue = v % modulus
        lo, hi = v - 100 * modulus, v + 100 * modulus + 1
        first = lo + (residue - lo) % modulus
        primes = base_primes(math.isqrt(hi - 1))
        split = _sparse_split(primes, 201, modulus)
        struck = sorted({int(j) for js, _ in _sparse_strikes(first, modulus, 201, primes[split:], False) for j in js})
        assert (v - first) // modulus in struck
        self.check(lo, hi, residue, modulus, struck)
        self.check(lo, hi, residue, modulus, struck[1::2])
        self.check(lo, hi, residue, modulus, [j for j in range(201) if j not in struck])

    # Members divisible by 5^k and 7^k, whose powers pass _DENSE_BELOW and
    # the strided tier, and by the square and cube of the sparse prime 1009,
    # near 10^12: each with 40 random members around it.
    @pytest.mark.parametrize("residue, modulus", [(0, 1), (11, 12)])
    @pytest.mark.parametrize("base, powers", [(5, range(1, 18)), (7, range(1, 15)), (1009, (2, 3))])
    def test_prime_power_members(self, base, powers, residue, modulus):
        rng = random.Random(base * modulus)
        for k in powers:
            pk = base ** k
            t = -(-10 ** 12 // pk)
            t += (residue * pow(pk, -1, modulus) - t) % modulus
            v = pk * t
            lo, hi = v - 60 * modulus, v + 60 * modulus + 1
            at = sorted({60, *rng.sample(range(121), 40)})
            assert (lo + (residue - lo) % modulus) + modulus * 60 == v
            self.check(lo, hi, residue, modulus, at)

    # With a small _BLOCK the modulus tests of the dense and strided primes
    # run a few members at a time.
    def test_modulus_tests_span_several_chunks(self, monkeypatch):
        monkeypatch.setattr(sieve, "_BLOCK", 64)
        lo = 10 ** 9 + 7
        self.check(lo, lo + 12 * 3000, 11, 12, range(0, 3000, 3))

    def test_empty_progression(self):
        first, phi = totient_progression(6, 10, 5, 6, at=[])
        assert phi.size == 0

    @pytest.mark.parametrize("at", [[-1], [201], [3, 3], [5, 4]])
    def test_rejects_indices_outside_or_out_of_order(self, at):
        with pytest.raises(ValueError, match="at must ascend"):
            totient_progression(10 ** 6, 10 ** 6 + 6 * 201, 5, 6, at=at)


class TestBasePrimeCache:
    """base_primes keeps the largest base primes built so far; both kernels
    slice them, and build them first where the cache falls short."""

    CLASSES = [(0, 1), (5, 6), (11, 12), (15, 16), (7, 30)]

    # Windows around P*P2 need the largest base prime P: from a cache warmed
    # short of the root (bound P, which the kernels grow), to it and past it,
    # both kernels equal their cold results and the scalar oracles.
    @pytest.mark.parametrize("residue, modulus", CLASSES)
    def test_window_needing_the_largest_base_prime(self, residue, modulus, cold_base_primes):
        p, p2 = adjacent_primes_near(10 ** 6, residue, modulus)
        v = p * p2
        lo, hi = v - 60 * modulus, v + 60 * modulus + 1
        root = math.isqrt(hi - 1)
        assert p <= root < p2
        first, phi = totient_progression(lo, hi, residue, modulus)
        primes = primes_in_class(lo, hi, residue, modulus)
        members = range(first, hi, modulus)
        assert phi.tolist() == [euler_phi(x) for x in members]
        assert primes.tolist() == [x for x in members if sympy.isprime(x)]
        at = np.arange(0, phi.size, 6)  # P*P2 is member 60
        for bound in (p, p2 - 1, 4 * p2):
            cold_base_primes()
            base_primes(bound)
            assert np.array_equal(totient_progression(lo, hi, residue, modulus)[1], phi)
            assert np.array_equal(totient_progression(lo, hi, residue, modulus, at=at)[1], phi[at])
            assert np.array_equal(primes_in_class(lo, hi, residue, modulus), primes)
            assert sieve._cache[0] == max(bound, root)

    def test_does_not_build_its_own(self, monkeypatch, cold_base_primes):
        base_primes(10 ** 5)
        calls = []
        monkeypatch.setattr(sieve, "_sieve_class", lambda *a, f=sieve._sieve_class: calls.append(a) or f(*a))
        first, phi = totient_progression(10 ** 9, 10 ** 9 + 12 * 500, 11, 12)
        assert phi.tolist() == [euler_phi(first + 12 * j) for j in range(phi.size)]
        assert calls == []
        primes_in_class(10 ** 9, 10 ** 9 + 16 * 500, 15, 16)
        assert calls == [(10 ** 9, 10 ** 9 + 16 * 500, 15, 16)]

    def test_read_only(self):
        primes = base_primes(100)
        with pytest.raises(ValueError):
            primes[0] = 4
        assert base_primes(100)[0] == 2

    # A build sieves _BASE_WINDOW values at a time, from the cache's bound on:
    # small windows put edges on and next to primes, from a cold cache and
    # from a warm one.
    @pytest.mark.parametrize("window", [1, 2, 3, 16, 97, 1000])
    def test_identical_across_window_edges(self, window, monkeypatch, cold_base_primes):
        expected = list(sympy.primerange(2, 5001))
        monkeypatch.setattr(sieve, "_BASE_WINDOW", window)
        assert base_primes(5000).tolist() == expected
        cold_base_primes()
        assert base_primes(97).tolist() == expected[:25]
        assert base_primes(5000).tolist() == expected
        assert base_primes(1000).tolist() == expected[:168]

    # One flag per value of a window, not of the range: the peak is the
    # primes themselves, old and new arrays at once (about 0.53 B/value
    # each at 10^7), where one unsegmented flag array read 2.06 B/value.
    def test_build_peak_memory_per_value(self, cold_base_primes):
        limit = 10 ** 7
        tracemalloc.start()
        try:
            primes = base_primes(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert primes.size == 664579
        assert peak < 1.25 * limit

    # An extension sieves only the values past the cache's bound, in windows
    # that tile (a, b]; a limit within the bound sieves nothing.  Every root
    # of these windows is within a, so no window extends the cache itself.
    def test_extension_sieves_only_new_values(self, monkeypatch, cold_base_primes):
        a, b = 10 ** 4, 10 ** 6
        sieve._primes_to(a)
        windows = []
        original = sieve._sieve_class

        def spy(lo, hi, residue, modulus):
            if modulus == 1:
                windows.append((lo, hi))
            return original(lo, hi, residue, modulus)

        monkeypatch.setattr(sieve, "_BASE_WINDOW", 1 << 16)
        monkeypatch.setattr(sieve, "_sieve_class", spy)
        assert sieve._primes_to(b).tolist() == list(sympy.primerange(2, b + 1))
        assert len(windows) > 1 and windows[0][0] == a + 1 and windows[-1][1] == b + 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(windows, windows[1:]))
        windows.clear()
        for limit in (a, b - 1, b):
            sieve._primes_to(limit)
        assert windows == []

    def test_smaller_limit_after_larger(self, cold_base_primes):
        base_primes(10 ** 4)
        expected = list(sympy.primerange(2, 10 ** 4 + 1))
        for limit in (2, 3, 4, 96, 97, 98, 9972, 9973, 10 ** 4):
            assert base_primes(limit).tolist() == expected[: bisect.bisect_right(expected, limit)], limit
        assert sieve._cache[0] == 10 ** 4


class TestSearchClasses:
    """The exotic search's classes: primes 15 (mod 16) and their companions
    (3p - 1)/4, which lie in 11 (mod 12), on windows near 10^12."""

    @pytest.mark.parametrize("lo", [10 ** 12, 10 ** 12 + 10 ** 6 + 3])
    def test_primes_15_mod_16(self, lo):
        hi = lo + 16 * 400
        got = primes_in_class(lo, hi, 15, 16).tolist()
        assert got == [p for p in range(lo + (15 - lo) % 16, hi, 16) if sympy.isprime(p)]
        assert {(3 * p - 1) // 4 % 12 for p in got} == {11}

    @pytest.mark.parametrize("lo", [10 ** 12, 10 ** 12 + 10 ** 6 + 3])
    def test_totients_11_mod_12(self, lo):
        hi = lo + 12 * 400
        first, phi = totient_progression(lo, hi, 11, 12)
        assert first % 12 == 11
        assert phi.tolist() == [euler_phi(q) for q in range(first, hi, 12)]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "search.ckpt"
        cp = SearchCheckpoint("exotic:2:100:64", 66, (0, 5))
        write_checkpoint(path, cp)
        assert read_checkpoint(path) == cp

    def test_file_format(self, tmp_path):
        path = tmp_path / "search.ckpt"
        write_checkpoint(path, SearchCheckpoint("exotic:2:100:64", 66, (0, 5)))
        assert path.read_text() == "search_id exotic:2:100:64\ncompleted 66\n0\n5\n"

    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: events.append("fsync") or fsync(fd))
        monkeypatch.setattr(os, "replace", lambda a, b: events.append("replace") or replace(a, b))
        write_checkpoint(tmp_path / "search.ckpt", SearchCheckpoint("x", 10, ()))
        assert events == ["fsync", "replace"]

    def test_rejects_unsorted_hits(self):
        with pytest.raises(ValueError):
            SearchCheckpoint("x", 10, (5, 0))

    def test_rejects_duplicate_hits(self):
        with pytest.raises(ValueError):
            SearchCheckpoint("x", 10, (5, 5))

    def test_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            read_checkpoint(path)
