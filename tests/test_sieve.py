import bisect
import math
import os
import random
import stat
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from gphi import sieve
from gphi.arith import _TRIAL_PRIMES, euler_phi
from gphi.sieve import (
    _BLOCK,
    _STRIDED_HITS,
    _WHEEL,
    _first_index,
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

    # The sweep works in int32 when its top member is below 2^31, in int64
    # from 2^31 on, and returns phi in that dtype.  Full 2^20-value windows
    # ending one below, at and one above 2^31 agree with the scalar phi on a
    # seeded sample, on both ends, and on every multiple of p^2 for the
    # sparse primes p (46337^2 lies in each window).  Their sparse
    # tier is not empty, so the window below 2^31 runs it in int32.
    @pytest.mark.parametrize("top", [2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1])
    def test_windows_at_the_int32_edge(self, top):
        width = 1 << 20
        lo = top - width + 1
        phi = sieve_segment(lo, top + 1).phi
        assert phi.dtype == (np.int32 if top < 2 ** 31 else np.int64) and phi.size == width
        primes = base_primes(math.isqrt(top))
        sparse = primes[_sparse_split(primes, width, 1) :].tolist()
        assert sparse
        picks = set(random.Random(top).sample(range(width), 400)) | {0, width - 1}
        for p in sparse:
            picks.update(range(-lo % (p * p), width, p * p))
        assert 46337 ** 2 - lo in picks
        for k in sorted(picks):
            assert int(phi[k]) == euler_phi(lo + k), lo + k

    # The width rule: int32 exactly when the top member is below 2^31, in the
    # sweep and in what it returns.
    @pytest.mark.parametrize("top, dtype", [(2 ** 31 - 1, np.int32), (2 ** 31, np.int64)])
    def test_width_rule(self, monkeypatch, top, dtype):
        widths = []
        finish = sieve._finish

        def spy(phi, acc, v):
            widths.append(phi.dtype)
            finish(phi, acc, v)

        monkeypatch.setattr(sieve, "_finish", spy)
        phi = sieve_segment(top - 99, top + 1).phi
        assert widths == [dtype] and sieve.sweep_dtype(top) == dtype
        assert phi.dtype == dtype
        assert phi.tolist() == [euler_phi(v) for v in range(top - 99, top + 1)]

    # Under tracemalloc a 2^20 window peaks at phi and acc: about 8.3-8.9
    # bytes per value in int32 (12.1 when phi came back as an int64 copy,
    # 16.6 when every window was swept in int64), 16.8 in int64 just above
    # 2^31.
    @pytest.mark.parametrize("lo, bound", [(2, 9), (2 ** 31 - (1 << 20), 9), (2 ** 31 + 1, 17)])
    def test_window_peak_memory_per_value(self, lo, bound):
        width = 1 << 20
        sieve_segment(lo, lo + width)  # base primes and import-time allocations
        tracemalloc.start()
        try:
            sieve_segment(lo, lo + width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * width

    def test_range_underflow(self):
        with pytest.raises(SieveRangeError):
            sieve_segment(1, 10)

    def test_segment_too_large(self):
        with pytest.raises(SegmentTooLargeError):
            sieve_segment(2, 2 + (1 << 23))


class TestPrimesInClass:
    def test_7_mod_8(self):
        assert primes_in_class(2, 100, 7, 8).tolist() == [7, 23, 31, 47, 71, 79]

    # 0 mod 2 holds the prime 2, but the class shares 2 with the modulus.
    def test_even_prime(self):
        with pytest.raises(ValueError, match="coprime"):
            primes_in_class(2, 10, 0, 2)

    def test_3_mod_4(self):
        assert primes_in_class(2, 50, 3, 4).tolist() == [3, 7, 11, 19, 23, 31, 43, 47]

    def test_interior_window(self):
        assert primes_in_class(100, 200, 1, 4).tolist() == [101, 109, 113, 137, 149, 157, 173, 181, 193, 197]

    def test_bad_class(self):
        with pytest.raises(ValueError):
            primes_in_class(2, 10, 5, 4)

    # Every coprime class on windows that start below 2, at a base prime p
    # (which strikes itself and must be marked again), and at p^2 and
    # p^2 +- modulus; every other class is refused.
    @pytest.mark.parametrize("modulus", [1, 2, 3, 4, 6, 8, 9, 12, 30])
    def test_matches_sympy_in_every_class(self, modulus):
        windows = [(-7, 60), (0, 0), (0, 3), (1, 2), (-5, -9), (2, 2), (2, 3)]
        for p in (2, 3, 5, 7, 11, 13, 97, 10007):
            windows += [(p, p + 150), (p * p, p * p + 150)]
            windows += [(p * p - modulus, p * p + 150), (p * p + modulus, p * p + 150)]
        for lo, hi in windows:
            primes = list(sympy.primerange(max(lo, 2), hi))
            for residue in range(modulus):
                if math.gcd(residue, modulus) != 1:
                    with pytest.raises(ValueError, match="coprime"):
                        primes_in_class(lo, hi, residue, modulus)
                    continue
                got = primes_in_class(lo, hi, residue, modulus)
                assert got.dtype == np.int64
                assert got.tolist() == [p for p in primes if p % modulus == residue], (lo, hi, residue)

    # Windows whose sparse base primes lie inside them, so they strike
    # themselves and only the re-mark keeps them: 37, 41 and 43 in the
    # 2000 values from 2, and 47, 79 and 127 among the first 2000 members
    # of 15 mod 16.
    @pytest.mark.parametrize("residue, modulus, sparse", [(0, 1, [37, 41, 43]), (15, 16, [47, 79, 127])])
    def test_sparse_base_primes_inside_the_window(self, residue, modulus, sparse):
        lo, hi = 2, 2 + modulus * 2000
        first = lo + (residue - lo) % modulus
        primes = base_primes(math.isqrt(first + modulus * 1999))
        tail = primes[_sparse_split(primes, 2000, modulus):]
        assert [p for p in tail.tolist() if p % modulus == residue] == sparse
        got = primes_in_class(lo, hi, residue, modulus).tolist()
        assert got == [p for p in sympy.primerange(lo, hi) if p % modulus == residue]

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


class TestWheel:
    """The sweep starts phi and acc from the wheel of period _WHEEL = 2520,
    which holds the prime powers 2, 4, 8, 3, 9, 5 and 7; the strikes add
    16, 27, 25, 49 and every other prime power, and 2, 3, 5 and 7 never
    reach the sparse tier, which would apply their full exponent again."""

    # Windows from 2 whose last members are 16, 27, 25, 49, 2^k or 7^2*k,
    # with too few members for 2, 3, 5 and 7 to stride.
    def test_every_window_from_2_to_600(self):
        phi = [euler_phi(v) for v in range(2, 600)]
        for hi in range(3, 601):
            assert sieve_segment(2, hi).phi.tolist() == phi[: hi - 2], hi

    # Moduli sharing primes with the wheel and moduli coprime to it; counts
    # that cross block edges and wheel periods; starts at 1, at 2 and near
    # 2^40.  Each example checks every member near the start, the end, each
    # block edge and the first wheel periods, and 64 more at random, in both
    # the sweep and the at path.
    @settings(max_examples=60, deadline=None)
    @given(
        modulus=st.sampled_from([1, 2, 6, 12, 16, 2520, 11, 77]),
        lo=st.one_of(st.just(1), st.just(2), st.integers(2 ** 40 - 5000, 2 ** 40 + 5000)),
        count=st.one_of(st.integers(1, 3 * _WHEEL), st.integers(1, 3 * _BLOCK + 77)),
        pick=st.integers(0, 2 ** 32),
    )
    @example(modulus=1, lo=2, count=3 * _BLOCK + 77, pick=0)
    @example(modulus=16, lo=1, count=3 * _BLOCK + 77, pick=1)
    @example(modulus=2520, lo=2 ** 40, count=_BLOCK + 1, pick=2)
    @example(modulus=77, lo=2 ** 40 - 3, count=_WHEEL + 1, pick=3)
    def test_sweep_and_at_path_match_euler_phi(self, modulus, lo, count, pick):
        residue = [r for r in range(modulus) if math.gcd(r, modulus) == 1][pick % sympy.totient(modulus)]
        first = lo + (residue - lo) % modulus
        hi = first + modulus * (count - 1) + 1
        got_first, phi = totient_progression(lo, hi, residue, modulus)
        assert got_first == first and phi.size == count
        near = [0, count - 1, *range(0, count, _BLOCK), *range(0, min(count, 4 * _WHEEL), _WHEEL)]
        rng = random.Random(pick)
        at = sorted({j for b in near for j in range(b - 3, b + 4) if 0 <= j < count}
                    | {rng.randrange(count) for _ in range(64)})
        want = [euler_phi(first + modulus * j) for j in at]
        assert phi[at].tolist() == want
        assert totient_progression(lo, hi, residue, modulus, at=at)[1].tolist() == want


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
        batches = list(_sparse_strikes(first, modulus, 201, sparse))
        assert len(batches) >= 3
        self.check(lo, hi, v % modulus, modulus)

    # The strike rule is the least j with d | first + modulus*j, and the
    # sparse pass, its vectorized form, starts each prime there.
    @pytest.mark.parametrize("modulus", MODULI)
    def test_first_index_is_the_least_struck_member(self, modulus):
        first = 10 ** 12 + 1 + modulus * 7
        first += (1 - first) % modulus
        for d in (11, 13, 121, 1331, 1009, 1013 ** 2):
            j = _first_index(first, modulus, d)
            assert 0 <= j < d and (first + modulus * j) % d == 0
            assert all((first + modulus * i) % d for i in range(j))
        primes = base_primes(2000)
        sparse = primes[_sparse_split(primes, 6400, modulus):]
        assert sparse.size > 200
        starts = {}
        for js, ps in _sparse_strikes(first, modulus, 6400, sparse):
            for j, p in zip(js.tolist(), ps.tolist()):
                starts.setdefault(p, j)
        assert starts == {p: _first_index(first, modulus, p) for p in sparse.tolist()}


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
        struck = sorted({int(j) for js, _ in _sparse_strikes(first, modulus, 201, primes[split:]) for j in js})
        assert (v - first) // modulus in struck
        self.check(lo, hi, residue, modulus, struck)
        self.check(lo, hi, residue, modulus, struck[1::2])
        self.check(lo, hi, residue, modulus, [j for j in range(201) if j not in struck])

    # Members divisible by 5^k and 7^k, whose powers pass the wheel's 5 and
    # 7 and the strided tier's 5^2, 7^2 and beyond, and by the square and
    # cube of the sparse prime 1009, near 10^12: each with 40 random members
    # around it.
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

    # With a small _BLOCK the modulus tests of the primes below the sparse
    # split run a few members at a time.
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

    # A build sieves _SWEEP_WINDOW values at a time, from the cache's bound on:
    # small windows put edges on and next to primes, from a cold cache and
    # from a warm one.
    @pytest.mark.parametrize("window", [1, 2, 3, 16, 97, 1000])
    def test_identical_across_window_edges(self, window, monkeypatch, cold_base_primes):
        expected = list(sympy.primerange(2, 5001))
        monkeypatch.setattr(sieve, "_SWEEP_WINDOW", window)
        assert base_primes(5000).tolist() == expected
        cold_base_primes()
        assert base_primes(97).tolist() == expected[:25]
        assert base_primes(5000).tolist() == expected
        assert base_primes(1000).tolist() == expected[:168]

    # One flag per value of a window, not of the range, and one array of
    # primes, sized once by the bound on pi(10^7): a peak of 0.62 B/value
    # with 2^18-value windows (0.83 with 2^20), where old and new arrays at
    # once read 1.06 and one unsegmented flag array 2.06.
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

        monkeypatch.setattr(sieve, "_SWEEP_WINDOW", 1 << 16)
        monkeypatch.setattr(sieve, "_sieve_class", spy)
        assert sieve._primes_to(b).tolist() == list(sympy.primerange(2, b + 1))
        assert len(windows) > 1 and windows[0][0] == a + 1 and windows[-1][1] == b + 1
        assert all(hi == lo for (_, hi), (lo, _) in zip(windows, windows[1:]))
        windows.clear()
        for limit in (a, b - 1, b):
            sieve._primes_to(limit)
        assert windows == []

    # A segment whose root rises past the cache's bound appends its few new
    # primes in the spare capacity: its peak is that of the same segment on
    # a warm cache, where copying the whole cache added 0.15 B/value at
    # 10^12 and 1.27 at 10^14.
    @pytest.mark.parametrize("lo", [10 ** 12, 10 ** 14])
    def test_extension_peak_memory_per_value(self, lo, cold_base_primes):
        from gphi.diophantine import _exotic_segment

        width = 1 << 22
        _exotic_segment((lo - width, lo))
        bound = sieve._cache[0]
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                _exotic_segment((lo, lo + width))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert sieve._cache[0] > bound
        assert peaks[0] <= peaks[1] + 0.02 * width

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

    # The file is synced before the rename, and its directory after it, so
    # a crash at any point leaves the old or the new checkpoint.
    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def synced(fd):
            info = os.fstat(fd)
            events.append(("fsync", "directory" if stat.S_ISDIR(info.st_mode) else "file", info.st_ino))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", synced)
        monkeypatch.setattr(os, "replace", lambda a, b: events.append(("replace",)) or replace(a, b))
        path = tmp_path / "search.ckpt"
        write_checkpoint(path, SearchCheckpoint("x", 10, ()))
        assert events == [
            ("fsync", "file", path.stat().st_ino),
            ("replace",),
            ("fsync", "directory", tmp_path.stat().st_ino),
        ]

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
