import math
import os
import random

import numpy as np
import pytest

from gphi.arith import _primes_below, euler_phi
from gphi.sieve import (
    _BLOCK,
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

    def test_is_the_trial_division_source(self):
        primes = _primes_below(1000)
        assert primes == base_primes(1000).tolist()
        # int64 trial divisors would overflow against wide cofactors
        assert all(type(p) is int for p in primes)


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
