import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gphi import arith, equation
from gphi.arith import (
    Factorization,
    LemmaKind,
    NATURAL_MAX,
    NaturalOverflowError,
    euler_phi,
    factorize,
    g,
    is_prime,
    iterate_g,
    lemma_predicate,
    odd_part,
    v2,
)


def phi_by_gcd_count(n):
    """Independent totient oracle: literal count of coprime residues."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert factorize(1).factors == ()

    def test_35(self):
        assert factorize(35).factors == ((5, 1), (7, 1))

    def test_1679615(self):
        assert factorize(1679615).factors == ((5, 1), (7, 1), (37, 1), (1297, 1))

    def test_prime_power(self):
        assert factorize(2 ** 10 * 3 ** 4).factors == ((2, 10), (3, 4))

    def test_large_semiprime_uses_rho(self):
        p, q = 1000003, 1000033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_large_prime_cofactor(self):
        p = 10 ** 12 + 39  # prime
        assert is_prime(p)
        assert factorize(6 * p).factors == ((2, 1), (3, 1), (p, 1))

    @given(st.integers(min_value=1, max_value=10 ** 12))
    def test_roundtrip(self, n):
        fac = factorize(n)
        assert fac.value == n
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_matches_trial_division(self):
        for n in range(1, 20001):
            expected, cof, p = [], n, 2
            while cof > 1:
                if p * p > cof:
                    expected.append((cof, 1))
                    break
                e = 0
                while cof % p == 0:
                    cof //= p
                    e += 1
                if e:
                    expected.append((p, e))
                p += 1
            assert factorize(n).factors == tuple(expected), n

    def test_high_powers_of_two(self):
        # One shift takes the whole power of 2; the odd part factors as it does alone.
        for q in (1, 3, 5, 7, 35, 47, 1679615, 10 ** 12 + 39, 1000003 * 1000033):
            n = q << 1500
            assert factorize(n).factors == ((2, 1500),) + factorize(q).factors
            assert dict(factorize(n).factors) == sympy.factorint(n)

    def test_generator_is_seeded_only_for_rho(self, monkeypatch):
        seeds = []

        class Recording(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(arith.random, "Random", Recording)
        p, q = 1000003, 1000033
        assert factorize(6 * (10 ** 12 + 39)).factors == ((2, 1), (3, 1), (10 ** 12 + 39, 1))
        assert factorize(7 * p * p).factors == ((7, 1), (p, 2))
        assert seeds == []
        assert factorize(6 * p * q).factors == ((2, 1), (3, 1), (p, 1), (q, 1))
        assert seeds == [p * q]
        # Three primes take two rho splits, each seeded with the composite it
        # splits: first the cofactor, then the two-prime part left of it.
        r = 1000037
        seeds.clear()
        assert factorize(p * q * r).factors == ((p, 1), (q, 1), (r, 1))
        assert len(seeds) == 2
        assert seeds[0] == p * q * r
        assert seeds[1] in (p * q, p * r, q * r)

    def test_each_prime_is_proven_once(self, monkeypatch):
        proven = []
        monkeypatch.setattr(arith, "is_prime", lambda n: proven.append(n) or is_prime(n))
        # a cofactor below the square of the next trial prime is prime without a test
        assert factorize(2 * 3 * 5 * 7 * 11 * 13 * 997).factors == tuple((p, 1) for p in (2, 3, 5, 7, 11, 13, 997))
        assert proven == []
        assert factorize(6 * (10 ** 12 + 39)).factors == ((2, 1), (3, 1), (10 ** 12 + 39, 1))
        assert proven == [10 ** 12 + 39]
        # a Factorization built directly still checks its primes
        Factorization(((2, 1), (10 ** 12 + 39, 1)))
        assert proven[1:] == [2, 10 ** 12 + 39]

    @pytest.mark.parametrize("k", range(2, 7))
    def test_integer_root_is_the_floor(self, k):
        for m in range(201):
            root = 0
            while (root + 1) ** k <= m:
                root += 1
            assert arith._integer_root(m, k) == root, (m, k)

    def test_factorization_validates_primes(self):
        with pytest.raises(ValueError):
            Factorization(((4, 1),))
        with pytest.raises(ValueError):
            Factorization(((5, 1), (3, 1)))
        with pytest.raises(ValueError, match="^exponents must be positive$"):
            Factorization(((2, 0),))


class TestEulerPhi:
    def test_one(self):
        assert euler_phi(1) == 1

    @pytest.mark.parametrize("k", range(1, 11))
    def test_powers_of_two(self, k):
        assert euler_phi(2 ** k) == 2 ** (k - 1)

    def test_35(self):
        assert euler_phi(35) == 24 == phi_by_gcd_count(35)

    def test_agrees_with_gcd_count_small(self):
        for n in range(1, 1000):
            assert euler_phi(n) == phi_by_gcd_count(n)

    @given(st.integers(min_value=1, max_value=10 ** 4))
    @settings(max_examples=150)
    def test_agrees_with_gcd_count(self, n):
        assert euler_phi(n) == phi_by_gcd_count(n)

    @given(
        st.integers(min_value=1, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6),
    )
    @settings(max_examples=200)
    def test_multiplicative_on_coprime_split(self, a, b):
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    @given(st.integers(min_value=1, max_value=500_000))
    @settings(max_examples=200)
    def test_doubling_law_for_even(self, m):
        n = 2 * m
        assert euler_phi(2 * n) == 2 * euler_phi(n)


# factorize alone checks its argument; euler_phi and is_solution, which
# reach it first thing, raise its exceptions with its messages.
@pytest.mark.parametrize("func", [factorize, euler_phi, equation.is_solution])
@pytest.mark.parametrize("n, error, message", [
    (0, ValueError, "expected n >= 1, got 0"),
    (-3, ValueError, "expected n >= 1, got -3"),
    (True, TypeError, "expected an integer, got bool"),
    (2.0, TypeError, "expected an integer, got float"),
])
def test_bad_argument_message(func, n, error, message):
    with pytest.raises(error) as info:
        func(n)
    assert str(info.value) == message


class TestMap:
    def test_g_of_one(self):
        assert g(1) == 2

    @pytest.mark.parametrize("k", range(1, 11))
    def test_g_on_powers_of_two(self, k):
        assert g(2 ** k) == 3 * 2 ** (k - 1)

    def test_g_10(self):
        assert g(10) == 14

    def test_iterate_from_10(self):
        assert iterate_g(10, 4).values == (10, 14, 20, 28, 40)

    def test_iterate_from_4(self):
        assert iterate_g(4, 4).values == (4, 6, 8, 12, 16)

    def test_zero_iterations(self):
        orbit = iterate_g(1, 0)
        assert orbit.values == (1,) and not orbit.truncated

    def test_negative_iterations(self):
        with pytest.raises(ValueError, match="^k_max must be nonnegative$"):
            iterate_g(3, -1)

    def test_overflow_truncates(self):
        orbit = iterate_g(1 << 191, 5)
        assert orbit.truncated
        assert orbit.values == (1 << 191, 3 << 190)
        assert orbit.last_valid_k == 1
        assert orbit.values[-1] <= NATURAL_MAX

    def test_g_overflow_is_explicit(self):
        with pytest.raises(NaturalOverflowError):
            g(3 << 190)

    # n + phi(n) > n, so an n at or past the width overflows before it is
    # factored: a hard n there would otherwise hold up the truncation.
    def test_overflow_at_the_width_does_not_factor(self, monkeypatch):
        def fail(n):
            raise AssertionError(f"euler_phi({n}) called")

        monkeypatch.setattr(arith, "euler_phi", fail)
        with pytest.raises(NaturalOverflowError):
            g(NATURAL_MAX)
        orbit = iterate_g(NATURAL_MAX + 1, 3)
        assert orbit.truncated and orbit.values == (NATURAL_MAX + 1,)


class TestValuation:
    @pytest.mark.parametrize("n,e", [(7, 0), (8, 3), (12, 2), (1, 0)])
    def test_v2(self, n, e):
        assert v2(n) == e

    def test_odd_part(self):
        assert odd_part(12) == 3
        assert odd_part(7) == 7


class TestLemmaPredicate:
    def test_equal_for_6(self):
        verdict = lemma_predicate(6)
        assert verdict.kind is LemmaKind.EQUAL
        assert verdict.two_adic_n == verdict.two_adic_phi == 1

    def test_strictly_more_for_10(self):
        verdict = lemma_predicate(10)
        assert verdict.kind is LemmaKind.STRICTLY_MORE
        assert (verdict.two_adic_n, verdict.two_adic_phi) == (1, 2)

    def test_equal_for_18(self):
        assert lemma_predicate(18).kind is LemmaKind.EQUAL

    @pytest.mark.parametrize("n", [1, 2, 8, 1024, 7, 35])
    def test_out_of_scope_inputs(self, n):
        assert lemma_predicate(n).kind is LemmaKind.NOT_APPLICABLE

    def test_equality_characterization_sweep(self):
        # equality exactly when the odd part is p^a with p = 3 (mod 4)
        for n in range(2, 20000, 2):
            verdict = lemma_predicate(n)
            if verdict.kind is LemmaKind.NOT_APPLICABLE:
                continue
            q = odd_part(n)
            fac = factorize(q).factors
            is_pp3 = len(fac) == 1 and fac[0][0] % 4 == 3
            assert (verdict.kind is LemmaKind.EQUAL) == is_pp3, n

    def test_odd_case_clause(self):
        # phi of odd q >= 3 is even, and not divisible by 4 exactly on
        # prime powers p^a with p = 3 (mod 4)
        for q in range(3, 20000, 2):
            tot = euler_phi(q)
            assert tot % 2 == 0
            fac = factorize(q).factors
            is_pp3 = len(fac) == 1 and fac[0][0] % 4 == 3
            assert (tot % 4 != 0) == is_pp3, q


class TestIsPrime:
    def test_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(1105)

    def test_large(self):
        assert is_prime(2 ** 89 - 1)
        assert not is_prime((2 ** 89 - 1) * 3)


# The least strong pseudoprime to the first k prime bases, for each k where
# is_prime changes how many bases it uses, and the k = 13 one past them all.
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def sympy_products(seed, count):
    """Seeded 100-192-bit products of random 20-64-bit primes drawn by
    sympy.  At most one factor exceeds 28 bits, so rho (gphi's and sympy's)
    only ever has to split off factors below 2^28."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        target = rng.randint(100, 192)
        primes = [sympy.nextprime(rng.randrange(1 << 39, 1 << 64))]
        while math.prod(primes).bit_length() < target:
            if len(primes) > 1 and rng.random() < 0.1:
                primes.append(rng.choice(primes[1:]))
            else:
                bits = rng.randint(20, 28)
                primes.append(sympy.nextprime(rng.randrange(1 << (bits - 1), 1 << bits)))
        n = math.prod(primes)
        if 100 <= n.bit_length() <= 192:
            out.append(n)
    return out


class TestSympyOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_wide_products(self, seed):
        for n in sympy_products(seed, 4):
            assert dict(factorize(n).factors) == sympy.factorint(n), n
            assert euler_phi(n) == sympy.totient(n), n
            assert not is_prime(n)
            for p in sympy.factorint(n):
                assert is_prime(p), p

    def test_prime_powers(self):
        # rho alone needs about sqrt(p) steps on a power of p.  Splitting pq
        # in p^2 q^2 is still rho's job (about 1 s with a 40-bit q).
        rng = random.Random(11)
        primes = [sympy.nextprime(rng.randrange(1 << 39, 1 << 64)) for _ in range(3)]
        q = sympy.nextprime(rng.randrange(1 << 39, 1 << 40))
        cases = [3976087 * 16057360620716157689 ** 2, primes[0] ** 2 * q ** 2]
        cases += [p ** e for p in primes for e in (2, 3)]
        for n in cases:
            assert dict(factorize(n).factors) == sympy.factorint(n), n
        assert factorize(cases[0]).factors == ((3976087, 1), (16057360620716157689, 2))

    def test_strong_pseudoprimes_are_composite(self):
        for n in STRONG_PSEUDOPRIMES:
            assert not sympy.isprime(n)
            assert not is_prime(n), n

    def test_windows_around_thresholds(self):
        for psi in STRONG_PSEUDOPRIMES:
            for n in range(max(psi - 3000, 0), psi + 3001):
                assert is_prime(n) == sympy.isprime(n), n

    def test_random_odd_values(self):
        rng = random.Random(7)
        for _ in range(3000):
            n = rng.getrandbits(rng.randint(12, 192)) | 1
            assert is_prime(n) == sympy.isprime(n), n
