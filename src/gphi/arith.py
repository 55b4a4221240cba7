"""Exact integer arithmetic: factorization, Euler totient, 2-adic valuation,
and the totient-increment map g(n) = n + phi(n) with its iteration.

Everything here is a pure function of its inputs.  The randomized stage of
factorization seeds its generator from the number being factored, so results
are reproducible and concurrent calls never contend.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from enum import Enum

from .sieve import base_primes

# Working integer width.  g at most doubles per step, so orbits of desk-scale
# length fit comfortably; anything beyond is reported as truncation instead of
# silently growing without bound.
NATURAL_BITS = 192
NATURAL_MAX = (1 << NATURAL_BITS) - 1

TRIAL_DIVISION_BOUND = 10 ** 6

# Trial-divide cheap primes first, then primality-check the cofactor so a
# large prime remainder skips the rest of the trial range.
_CHEAP_PRIME_LIMIT = 1000


class NaturalOverflowError(OverflowError):
    """A value exceeded the supported integer width (NATURAL_BITS bits)."""


def _check_natural(n):
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"expected an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")


@functools.cache
def _primes_below(bound):
    # Python ints: an int64 trial divisor overflows against a wide cofactor.
    return base_primes(bound).tolist() if bound >= 2 else []


# Strong-pseudoprime bases: deterministic for n < 3317044064679887385961981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin primality test, deterministic below ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    bases = _MR_BASES
    if n >= _MR_DETERMINISTIC_LIMIT:
        rng = random.Random(n)
        bases = _MR_BASES + tuple(rng.randrange(2, n - 1) for _ in range(16))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n, rng):
    """Find a nontrivial factor of an odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        d = r = q = 1
        x = ys = y
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = math.gcd(q, n)
                k += m
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition as an ascending tuple of (prime, exponent)."""

    factors: tuple

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    @property
    def value(self):
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out


def _strip_primes(cof, primes, start, limit, found):
    i = start
    while i < len(primes):
        p = primes[i]
        if p > limit or p * p > cof:
            break
        if cof % p == 0:
            e = 0
            while cof % p == 0:
                cof //= p
                e += 1
            found[p] = e
        i += 1
    return cof, i


def _split_composite(m, found, rng):
    if is_prime(m):
        found[m] = found.get(m, 0) + 1
        return
    d = _brent_rho(m, rng)
    _split_composite(d, found, rng)
    _split_composite(m // d, found, rng)


def factorize(n, trial_bound=TRIAL_DIVISION_BOUND):
    """Exact prime factorization: trial division by sieved primes up to
    trial_bound, then Brent's rho on whatever composite cofactor remains."""
    _check_natural(n)
    if n == 1:
        return Factorization(())
    found = {}
    primes = _primes_below(trial_bound)
    cof, i = _strip_primes(n, primes, 0, _CHEAP_PRIME_LIMIT, found)
    if cof > 1 and not is_prime(cof):
        cof, i = _strip_primes(cof, primes, i, trial_bound, found)
        if cof > 1:
            if is_prime(cof):
                found[cof] = found.get(cof, 0) + 1
            else:
                _split_composite(cof, found, random.Random(cof))
            cof = 1
    if cof > 1:
        found[cof] = found.get(cof, 0) + 1
    return Factorization(tuple(sorted(found.items())))


def euler_phi(n):
    """Euler's totient, computed exactly from the factorization of n."""
    _check_natural(n)
    out = 1
    for p, e in factorize(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def g(n):
    """One step of the totient-increment map, n + phi(n)."""
    value = n + euler_phi(n)
    if value > NATURAL_MAX:
        raise NaturalOverflowError(f"g({n}) exceeds {NATURAL_BITS} bits")
    return value


@dataclass(frozen=True)
class Orbit:
    """A computed prefix [g_0(n), g_1(n), ...] of the iteration of g."""

    values: tuple
    truncated: bool

    @property
    def last_valid_k(self):
        return len(self.values) - 1


def iterate_g(n, k_max):
    """Iterate g from n for up to k_max steps.

    Overflow is not an error: the orbit is truncated at the last value that
    fits the working width and the result is flagged accordingly.
    """
    _check_natural(n)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    values = [n]
    truncated = False
    for _ in range(k_max):
        try:
            values.append(g(values[-1]))
        except NaturalOverflowError:
            truncated = True
            break
    return Orbit(tuple(values), truncated)


def v2(n):
    """2-adic valuation: the largest e with 2^e dividing n."""
    _check_natural(n)
    return (n & -n).bit_length() - 1


def odd_part(n):
    return n >> v2(n)


class LemmaKind(Enum):
    STRICTLY_MORE = "strictly_more"
    EQUAL = "equal"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class LemmaVerdict:
    """Comparison of the 2-adic valuations of n and phi(n)."""

    kind: LemmaKind
    two_adic_n: int
    two_adic_phi: int


def lemma_predicate(n):
    """Compare v2(phi(n)) with v2(n) for n = 2^l * q, l >= 1, q > 1 odd.

    Inputs outside that shape (odd n, and powers of two including 1 and 2)
    get a NotApplicable verdict so range sweeps need no precondition.
    """
    _check_natural(n)
    ell = v2(n)
    two_adic_phi = v2(euler_phi(n))
    if ell == 0 or n >> ell == 1:
        return LemmaVerdict(LemmaKind.NOT_APPLICABLE, ell, two_adic_phi)
    if two_adic_phi == ell:
        return LemmaVerdict(LemmaKind.EQUAL, ell, two_adic_phi)
    if two_adic_phi > ell:
        return LemmaVerdict(LemmaKind.STRICTLY_MORE, ell, two_adic_phi)
    raise AssertionError(f"v2(phi({n})) < v2({n}); totient computation is broken")
