"""Solving and classifying phi(n) + phi(n + phi(n)) = n.

The brute-force enumerator is the independent oracle: it evaluates the
equation directly from bulk totient tables and never consults the
classifier.  classify() goes the other way, matching n against the known
solution shapes and then confirming every positive match against the
equation, so a transcription bug turns into a loud error instead of a
wrong answer.  classify_range() classifies whole sweeps from the family
index and the exotic search, held to classify on a sample of each range.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .arith import _check_natural, euler_phi, factorize, is_prime, v2
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_SIEVE_VALUE,
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


# exotic_prime_search's pool forks all its workers at once: the count is capped.
MAX_JOBS = 256

# Widest exotic segment.  At its peak a segment holds at most 1.5 bytes per
# value of width (1.36 at 2^22 wide near 10^10, 1.31 at 2^24), nearly all of
# it phi and acc of the one-in-sixteen companions of odd m (the prime flags
# of the class 15 mod 16 take 1/16 byte), so its arrays stay near 600 MB.
# The base primes come on top: the cache of sieve.base_primes, which outlives
# the search, at 8 bytes per prime up to sqrt(MAX_SEARCH_VALUE) at most.
MAX_EXOTIC_SEGMENT = 400_000_000

# Both searches triple values in int64 (3p - 1 in _exotic_segment, 3*phi(n)
# in relaxed_search), so no value they sieve may exceed a third of its range.
MAX_SEARCH_VALUE = (2**63 - 1) // 3


class InternalInconsistencyError(RuntimeError):
    """A structural match passed form checks but failed the defining equation."""


class CheckpointMismatchError(ValueError):
    """Checkpoint on disk belongs to a different search or fails validation."""


def is_solution(n):
    """True iff phi(n) + phi(n + phi(n)) = n."""
    _check_natural(n)
    tot = euler_phi(n)
    return tot + euler_phi(n + tot) == n


def _phi_table(limit):
    """phi(v) for 2 <= v <= limit, indexed by value (phi[0] and phi[1] unused)."""
    if limit >= MAX_SIEVE_VALUE:
        raise SieveRangeError(f"phi table to {limit} reaches the sieve maximum {MAX_SIEVE_VALUE}")
    try:
        phi = np.zeros(limit + 1, dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # numpy raises ValueError past its size cap
        raise MemoryError(f"phi table to {limit} needs {8 * (limit + 1)} bytes") from exc
    for lo in range(2, limit + 1, DEFAULT_SEGMENT_SIZE):
        hi = min(lo + DEFAULT_SEGMENT_SIZE, limit + 1)
        phi[lo:hi] = sieve_segment(lo, hi).phi
    return phi


def brute_force_solutions(limit):
    """All solutions n <= limit by direct evaluation of the equation.

    Deliberately ignorant of the classification; used as its oracle.
    """
    _check_natural(limit)
    if limit < 2:
        return []
    phi = _phi_table(2 * limit)
    n = np.arange(2, limit + 1, dtype=np.int64)
    tot = phi[n]
    hits = n[tot + phi[n + tot] == n]
    return [int(x) for x in hits]


class SolutionKind(Enum):
    NOT_SOLUTION = "not_solution"
    POWER_OF_2 = "power_of_2"
    FAMILY_3 = "family_3"
    FAMILY_5 = "family_5"
    FAMILY_7 = "family_7"
    FAMILY_35 = "family_35"
    FAMILY_47 = "family_47"
    EXOTIC_A = "exotic_a"
    EXOTIC_B = "exotic_b"


# The named families, kind -> (odd part q, least ell): members q << ell, ell >= least.
FAMILIES = {
    SolutionKind.POWER_OF_2: (1, 2),
    SolutionKind.FAMILY_3: (3, 1),
    SolutionKind.FAMILY_5: (5, 1),
    SolutionKind.FAMILY_7: (7, 1),
    SolutionKind.FAMILY_35: (35, 1),
    SolutionKind.FAMILY_47: (47, 1),
}
_FAMILY_BY_ODD_PART = {q: (kind, least) for kind, (q, least) in FAMILIES.items()}

# The exotic shapes, kind -> (a, b): odd parts a*m + b with _is_exotic(m), ell >= 1.
_EXOTIC_SHAPES = {SolutionKind.EXOTIC_A: (8, 7), SolutionKind.EXOTIC_B: (6, 5)}


def _is_exotic(m):
    """p = 8m+7 is prime and phi(6m+5) = 4m+4: the scalar reference of
    _exotic_segment, its one vectorized form."""
    return is_prime(8 * m + 7) and euler_phi(6 * m + 5) == 4 * m + 4


@dataclass(frozen=True)
class SolutionClass:
    """Which branch of the solution structure n falls into."""

    kind: SolutionKind
    ell: int
    exotic_m: int = None


def classify(n):
    """Match n = 2^ell * q against the known solution shapes.

    Named family tags take precedence over the exotic forms (the known
    exotic parameters m = 0, 5 reproduce odd parts 7, 5, 47, 35), so the
    classification is a function of n.  Every positive match is confirmed
    against the defining equation before it is returned.
    """
    _check_natural(n)
    ell = v2(n)
    q = n >> ell
    kind = SolutionKind.NOT_SOLUTION
    exotic_m = None
    if q in _FAMILY_BY_ODD_PART:
        family, least = _FAMILY_BY_ODD_PART[q]
        if ell >= least:
            kind = family
    elif ell >= 1:
        for shape, (a, b) in _EXOTIC_SHAPES.items():
            if q % a == b and _is_exotic(q // a):
                kind, exotic_m = shape, q // a
                break
    if kind is SolutionKind.NOT_SOLUTION:
        return SolutionClass(kind, ell)
    if not is_solution(n):
        raise InternalInconsistencyError(
            f"{n} matches shape {kind.value} but fails the defining equation"
        )
    return SolutionClass(kind, ell, exotic_m)


# classify_range checks this many n of its range (all of a shorter one)
# against the scalar classify.
_RANGE_SAMPLE_SIZE = 1024


def classify_range(limit):
    """{n: classify(n)} for every n <= limit that classify calls a solution,
    in ascending order.

    Family members come from the family index, exotic odd parts a*m + b
    <= limit // 2 from exotic_prime_search to their largest p = 8m+7; that
    search rests on the odd-m lemma of _exotic_segment, which the oracle
    checks too.  Family odd parts are left out and the shapes are tried in
    classify's order.  Every positive is re-confirmed against the equation,
    and a sample of the range seeded by limit is checked against classify.
    """
    # odd part -> (kind, least ell, exotic m); setdefault lets the families,
    # then the shapes in order, take precedence as they do in classify.
    odd_parts = {q: (kind, least, None) for q, (kind, least) in _FAMILY_BY_ODD_PART.items()}
    top = max(limit, 0) // 2
    if (hi := (4 * top + 1) // 3 + 1) > MAX_SEARCH_VALUE:
        raise SieveRangeError(f"limit {limit} needs p below {hi}, past the search maximum {MAX_SEARCH_VALUE}")
    hits = [w.m for w in exotic_prime_search(2, hi)] if top >= 2 else []
    for shape, (a, b) in _EXOTIC_SHAPES.items():
        for m in hits:  # an odd part above top gives no n <= limit below
            odd_parts.setdefault(a * m + b, (shape, 1, m))
    classes = {}
    for q, (kind, ell, m) in odd_parts.items():
        while q << ell <= limit:
            classes[q << ell] = SolutionClass(kind, ell, m)
            ell += 1
    classes = dict(sorted(classes.items()))
    for n, cls in classes.items():
        if not is_solution(n):
            raise InternalInconsistencyError(
                f"classify_range: {n} matches shape {cls.kind.value} but fails the defining equation"
            )
    population = range(1, limit + 1)
    if len(population) > _RANGE_SAMPLE_SIZE:
        population = random.Random(limit).sample(population, _RANGE_SAMPLE_SIZE)
    for n in population:
        got = classes.get(n, SolutionClass(SolutionKind.NOT_SOLUTION, v2(n)))
        expected = classify(n)
        if got != expected:
            raise InternalInconsistencyError(
                f"classify_range({limit}) gives {got} for {n}, classify gives {expected}"
            )
    return classes


def oracle_comparison(limit):
    """Sweep [1, limit] with the brute-force oracle and the range classifier,
    yielding (n, brute verdict, classification) for every n either calls a
    solution."""
    solutions = set(brute_force_solutions(limit))
    classified = classify_range(limit)
    for n in sorted(solutions | classified.keys()):
        cls = classified.get(n, SolutionClass(SolutionKind.NOT_SOLUTION, v2(n)))
        yield n, n in solutions, cls


def theorem_mismatches(limit):
    """Compare the brute-force oracle with the classifier over [1, limit].

    Returns (mismatched n values, solution count).
    """
    rows = list(oracle_comparison(limit))
    mismatches = [n for n, brute, cls in rows if brute != (cls.kind is not SolutionKind.NOT_SOLUTION)]
    return mismatches, sum(brute for _, brute, _ in rows)


class TraceCase(Enum):
    POWER_OF_2_CHAIN = "power_of_2_chain"
    L2_GT_L1 = "l2_gt_l1"
    L2_EQ_L1 = "l2_eq_l1"


@dataclass(frozen=True)
class ProofTrace:
    """Witness data placing a solution within the structural case analysis."""

    ell1: int
    ell2: int
    case: TraceCase
    p: int = None
    alpha: int = None
    k: int = None
    q: int = None
    phi_q_check: bool = None


def _single_prime_power(value, context):
    fac = factorize(value).factors
    if len(fac) != 1:
        raise InternalInconsistencyError(f"{context}: {value} is not a prime power")
    return fac[0]


def case_trace(n):
    """Extract the (ell1, ell2, p, alpha, k, q) witness for a solution n.

    In the l2 > l1 case the prime power sits in the odd part of n + phi(n);
    in the l2 = l1 case it is the odd part of n itself.  Either way
    3p - 1 = 2^k * q with phi(q) = (2/3)(q + 1) for genuine solutions.
    """
    if not is_solution(n):
        raise ValueError(f"case_trace requires a solution, {n} is not one")
    tot = euler_phi(n)
    ell1 = v2(n)
    ell2 = v2(tot)
    if n >> ell1 in (1, 3):
        return ProofTrace(ell1, ell2, TraceCase.POWER_OF_2_CHAIN)
    if ell2 > ell1:
        case = TraceCase.L2_GT_L1
        total = n + tot
        if v2(total) != ell1:
            raise InternalInconsistencyError(f"v2({n} + phi) != v2({n})")
        p, alpha = _single_prime_power(total >> v2(total), f"trace({n})")
    elif ell2 == ell1:
        case = TraceCase.L2_EQ_L1
        p, alpha = _single_prime_power(n >> ell1, f"trace({n})")
    else:
        raise InternalInconsistencyError(f"v2(phi({n})) < v2({n}) for a solution")
    if p % 4 != 3:
        raise InternalInconsistencyError(f"trace({n}): prime {p} is not 3 mod 4")
    k = v2(3 * p - 1)
    q = (3 * p - 1) >> k
    phi_q_check = 3 * euler_phi(q) == 2 * (q + 1)
    return ProofTrace(ell1, ell2, case, p, alpha, k, q, phi_q_check)


@dataclass(frozen=True)
class ExoticWitness:
    """A prime p = 8m + 7 whose companion q = 6m + 5 has phi(q) = 4m + 4."""

    m: int
    p: int
    q: int


def _exotic_segment(bounds):
    """Hits m with 8m+7 prime in [lo, hi) and phi(6m+5) = 4m+4, ascending.

    Only odd m are sieved, by a 2-adic lemma: every m > 0 with
    phi(6m+5) = 4m+4 is odd.  With q = 6m+5, 3*phi(q) = 2q + 2, so a prime
    dividing both q and phi(q) divides 3*phi(q) - 2q = 2; q is odd, so it
    is squarefree and 2^omega(q) divides phi(q) = 4(m+1).  omega(q) = 1
    gives q = 5, m = 0.  omega(q) = 2 gives q = ab with (a-3)(b-3) = 8, so
    q = 35 and m = 5, which is odd.  omega(q) >= 3 puts 8 | 4(m+1), so m is
    odd.  Odd m are the primes p = 8m+7 = 15 (mod 16), whose companions
    q = (3p-1)/4 lie in the progression 11 (mod 12); p = 7 (m = 0) is
    checked on its own with the scalar _is_exotic.

    phi is evaluated only at the companions of the primes found; both
    kernels slice their base primes from the cache of base_primes."""
    lo, hi = bounds
    hits = [0] if lo <= 7 < hi and _is_exotic(0) else []
    p = primes_in_class(lo, hi, 15, 16)
    if p.size == 0:
        return hits
    q = (3 * p - 1) // 4
    first = int(q[0])
    _, phi = totient_progression(first, int(q[-1]) + 1, 11, 12, at=(q - first) // 12)
    return hits + ((p[phi == (p + 1) // 2] - 7) // 8).tolist()


def _pool_segments(pool, segments, window):
    """(bounds, hits) of each segment in order, read lazily, at most window in flight."""
    pending = [(b, pool.submit(_exotic_segment, b)) for b in islice(segments, window)]
    while pending:
        bounds, future = pending.pop(0)
        yield bounds, future.result()
        pending += [(b, pool.submit(_exotic_segment, b)) for b in islice(segments, 1)]


def exotic_prime_search(
    lo,
    hi,
    segment_size=DEFAULT_SEGMENT_SIZE,
    jobs=1,
    checkpoint_path=None,
    max_segments=None,
    progress=None,
):
    """Find all m with p = 8m+7 prime in [lo, hi) and phi(6m+5) = 4m+4.

    Segment by segment, the p-range is sieved for primes in class 15 mod 16
    (hits other than m = 0 have odd m, see _exotic_segment) and phi is
    sieved at their companions q = (3p-1)/4 along the progression 11 mod 12.
    The base primes up to sqrt(hi) fill the cache of base_primes before any
    segment runs, so segments, and forked pool workers, slice it.  A pool is
    fed segments lazily and its results merge in ascending range order; a
    checkpoint file makes the search resumable.
    max_segments limits how many segments run (for tests and partial runs).
    """
    if not 2 <= lo < hi:
        raise ValueError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_SEARCH_VALUE:
        raise SieveRangeError(f"range end {hi} above the search maximum {MAX_SEARCH_VALUE}")
    if segment_size < 8:
        raise ValueError("segment_size too small")
    if min(segment_size, hi - lo) > MAX_EXOTIC_SEGMENT:
        raise SegmentTooLargeError(
            f"segment size {segment_size} exceeds {MAX_EXOTIC_SEGMENT} on [{lo}, {hi})"
        )
    if isinstance(jobs, bool) or not isinstance(jobs, int) or not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"jobs must be an integer from 1 to {MAX_JOBS}, got {jobs!r}")
    search_id = f"exotic:{lo}:{hi}:{segment_size}"
    if checkpoint_path is not None:
        _check_checkpoint_dir(checkpoint_path)
    start = lo
    hits = []
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        cp = read_checkpoint(checkpoint_path)
        if cp.search_id != search_id:
            raise CheckpointMismatchError(
                f"checkpoint is for {cp.search_id!r}, not {search_id!r}"
            )
        _check_resume(cp, lo, hi, segment_size)
        start = cp.last_completed_hi
        hits = list(cp.hits)
    starts = range(start, hi, segment_size)[:max_segments]
    segments = ((a, min(a + segment_size, hi)) for a in starts)
    if starts:  # p < hi and q < p: one build covers the roots of both ranges
        base_primes(max(math.isqrt(hi - 1), 2))
    pool = ProcessPoolExecutor(jobs) if jobs > 1 else None
    with pool or nullcontext():
        if pool:
            results = _pool_segments(pool, segments, 4 * jobs)
        else:
            results = ((bounds, _exotic_segment(bounds)) for bounds in segments)
        for (seg_lo, seg_hi), seg_hits in results:
            hits.extend(seg_hits)
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, SearchCheckpoint(search_id, seg_hi, tuple(hits)))
            if progress is not None:
                progress(seg_lo, seg_hi, seg_hits)
    return [ExoticWitness(m, 8 * m + 7, 6 * m + 5) for m in hits]


def _check_checkpoint_dir(path):
    """Refuse a checkpoint path whose directory cannot take the file, before
    any segment is sieved."""
    directory = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
        raise ValueError(f"checkpoint {path}: {directory} is not a writable directory")


def _check_resume(cp, lo, hi, segment_size):
    """Reject a checkpoint whose progress is not a segment end of [lo, hi),
    or whose hits lie outside the finished range or fail the condition."""
    done = cp.last_completed_hi
    if not lo <= done <= hi or (done != hi and (done - lo) % segment_size):
        raise CheckpointMismatchError(f"checkpoint progress {done} is not a segment end of [{lo}, {hi})")
    for m in cp.hits:
        if not (lo <= 8 * m + 7 < done and _is_exotic(m)):
            raise CheckpointMismatchError(f"checkpoint hit m={m} is not a hit in [{lo}, {done})")


def relaxed_search(limit):
    """All n <= limit with 3*phi(n) = 2n + 2 (the primality-free relaxation).

    Scans every n: hits are provably odd, but that is cheap to re-derive and
    the evenness claim stays a tested property instead of an assumption.
    """
    _check_natural(limit)
    if limit > MAX_SEARCH_VALUE:
        raise SieveRangeError(f"limit {limit} above the search maximum {MAX_SEARCH_VALUE}")
    found = []
    twice_index = np.arange(0, 2 * min(DEFAULT_SEGMENT_SIZE, limit), 2, dtype=np.int64)
    for lo in range(2, limit + 1, DEFAULT_SEGMENT_SIZE):
        hi = min(lo + DEFAULT_SEGMENT_SIZE, limit + 1)
        phi = sieve_segment(lo, hi).phi
        phi *= 3  # in place, no temporaries: 3*phi(lo + j) - 2*lo - 2 == 2*j
        phi -= 2 * lo + 2
        found.extend(lo + int(j) for j in np.flatnonzero(phi == twice_index[: hi - lo]))
    return found


def family_members(kind, ell_max, m=None):
    """Members 2^ell * q of one solution family, from its least ell up to
    ell_max, each re-confirmed as a solution (so an exotic kind's m must
    satisfy _is_exotic)."""
    if ell_max < 1:
        raise ValueError("ell_max must be positive")
    if kind in FAMILIES:
        q, start = FAMILIES[kind]
    elif kind in _EXOTIC_SHAPES:
        if m is None:
            raise ValueError("exotic families require the parameter m")
        if not _is_exotic(m):
            raise ValueError(f"m={m} is not exotic: needs 8m+7 prime and phi(6m+5) = 4m+4")
        a, b = _EXOTIC_SHAPES[kind]
        q, start = a * m + b, 1
    else:
        raise ValueError(f"no family for kind {kind!r}")
    members = [q << ell for ell in range(start, ell_max + 1)]
    for candidate in members:
        if not is_solution(candidate):
            raise InternalInconsistencyError(f"{candidate} is not a solution")
    return members
