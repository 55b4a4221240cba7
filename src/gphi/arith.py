"""Exact integer arithmetic: factorization, Euler totient, 2-adic valuation,
and the totient-increment map g(n) = n + phi(n) with its iteration.

Everything here is a pure function of its inputs.  The randomized stage of
factorization seeds its generator from the number being factored, so results
are reproducible and concurrent calls never contend.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

# Working integer width.  g at most doubles per step, so orbits of desk-scale
# length fit comfortably; anything beyond is reported as truncation instead of
# silently growing without bound.
NATURAL_BITS = 192
NATURAL_MAX = (1 << NATURAL_BITS) - 1

TRIAL_DIVISION_BOUND = 1000


class NaturalOverflowError(OverflowError):
    """A value exceeded the supported integer width (NATURAL_BITS bits)."""


def _check_natural(n):
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"expected an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")


# Strong-pseudoprime bases, and pairs (psi_k, k): psi_k is the least strong
# pseudoprime to the first k bases, so those k alone decide every n < psi_k.
# Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 1993
# (k <= 8); Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017 (k <= 13).  psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BASE_COUNTS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


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
    for psi, k in _MR_BASE_COUNTS:
        if n < psi:
            bases = _MR_BASES[:k]
            break
    else:
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


# The trial divisors, from is_prime itself (below 2047 one base decides it),
# so that arith needs no sieve.
_TRIAL_PRIMES = [p for p in range(2, TRIAL_DIVISION_BOUND + 1) if is_prime(p)]


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

    @classmethod
    def _proven(cls, factors):
        """One whose primes the caller has just proven: skips the re-check."""
        self = object.__new__(cls)
        object.__setattr__(self, "factors", factors)
        return self

    @property
    def value(self):
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out


def _integer_root(m, k):
    """floor(m ** (1/k)): isqrt for squares, else Newton's method from above."""
    if k == 2:
        return math.isqrt(m)
    x = 1 << -(-m.bit_length() // k)
    while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
        x = y
    return x


def _split_composite(m, found, rng, mult=1):
    """Add the prime factors of m ** mult to found; m has none up to
    TRIAL_DIVISION_BOUND.  A perfect power r^k is split as r, since rho would
    need about sqrt(r) steps on it; r > TRIAL_DIVISION_BOUND bounds the k.
    rng() returns the generator that every rho call of one factorization shares."""
    if is_prime(m):
        found[m] = found.get(m, 0) + mult
        return
    k = 2
    while TRIAL_DIVISION_BOUND ** k <= m:
        r = _integer_root(m, k)
        if r ** k == m:
            return _split_composite(r, found, rng, mult * k)
        k += 1
    d = _brent_rho(m, rng())
    _split_composite(d, found, rng, mult)
    _split_composite(m // d, found, rng, mult)


def factorize(n):
    """Exact prime factorization: the power of 2 in one shift, trial division
    by the primes up to TRIAL_DIVISION_BOUND, then _split_composite on the
    cofactor.  Each prime is proven once, so the result skips the re-check."""
    _check_natural(n)
    twos = (n & -n).bit_length() - 1
    found = {2: twos} if twos else {}
    cof = n >> twos
    for p in _TRIAL_PRIMES:
        if p * p > cof:
            if cof > 1:  # no prime factor below p: cof is prime
                found[cof] = 1
            break
        if cof % p == 0:
            e = 0
            while cof % p == 0:
                cof //= p
                e += 1
            found[p] = e
    else:
        if cof > 1:
            rng = None

            # Seeding a generator costs about a third of a typical
            # factorization, and most cofactors are prime: seed it only
            # when rho runs.
            def shared_rng():
                nonlocal rng
                if rng is None:
                    rng = random.Random(cof)
                return rng

            _split_composite(cof, found, shared_rng)
    return Factorization._proven(tuple(sorted(found.items())))


def euler_phi(n):
    """Euler's totient, computed exactly from the factorization of n."""
    _check_natural(n)
    out = 1
    for p, e in factorize(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def g(n):
    """One step of the totient-increment map, n + phi(n).  An n at or past
    NATURAL_MAX overflows without being factored, since phi(n) >= 1."""
    if n >= NATURAL_MAX or (value := n + euler_phi(n)) > NATURAL_MAX:
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


def iterate_g(n, k_max, successors=None):
    """Iterate g from n for up to k_max steps.

    Overflow is not an error: the orbit is truncated at the last value that
    fits the working width and the result is flagged accordingly.  A dict
    passed as successors maps v to g(v): steps found there are not
    recomputed, and every step computed that fits is added to it.
    """
    _check_natural(n)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if successors is None:
        successors = {}
    values = [n]
    truncated = False
    for _ in range(k_max):
        v = values[-1]
        if v not in successors:
            try:
                successors[v] = g(v)
            except NaturalOverflowError:
                truncated = True
                break
        values.append(successors[v])
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
