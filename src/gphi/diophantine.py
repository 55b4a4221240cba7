"""Solving and classifying phi(n) + phi(n + phi(n)) = n in bulk.

The brute-force enumerator is the independent oracle: it evaluates the
equation directly from bulk totient tables and never consults the
classifier.  The classifier, equation.classify, goes the other way: it
matches n against the known solution shapes and confirms every positive
match against the equation, so a transcription bug turns into a loud
error instead of a wrong answer.  classify_range() runs classify on the
few candidates of a whole sweep, the family odd parts and the exotic ones
of the search tree below, and checks a sample of each range for a
solution it missed.  relaxed_search() solves 3*phi(q) = 2q + 2 on a
search tree of prefixes of q's primes, held to a phi scan of [2, 2^21]
in every run.
"""

from __future__ import annotations

import bisect
import math
import os
import random
from dataclasses import dataclass

import numpy as np

# euler_phi and sieve_segment go uncalled here; perfbench's tracer test reads both.
from .arith import _TRIAL_PRIMES, _check_natural, _integer_root, euler_phi, is_prime, v2
from .equation import (
    _EXOTIC_SHAPES,
    _FAMILY_BY_ODD_PART,
    InternalInconsistencyError,
    SolutionClass,
    SolutionKind,
    _is_exotic,
    classify,
)
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    SearchCheckpoint,
    SegmentTooLargeError,
    SieveRangeError,
    _checkpoint_temp,
    _first_index,
    base_primes,
    primes_in_class,
    read_checkpoint,
    sieve_segment,
    sweep_dtype,
    sweep_windows,
    totient_progression,
    write_checkpoint,
)

# Widest exotic segment.  Near 10^10 a segment peaks at 0.82 bytes per value
# of width at 2^22 wide (0.76 at 2^24), under tracemalloc: nearly all of it
# the float64 ratio of _ratio_candidates and its flags, one each per
# one-in-sixteen companion of odd m; phi and acc hold only the companions
# that pass.  So its arrays stay near 330 MB.  On top come the base primes,
# the cache of sieve.base_primes, which outlives the search, at 8 bytes per
# prime up to sqrt(MAX_SEARCH_VALUE) at most, and the sparse strike pass's
# arrays of about 48 bytes per base prime, taken 2^14 primes at a time, so
# bounded at any height (0.78 bytes per value of a 2^22 segment near 10^14).
MAX_EXOTIC_SEGMENT = 400_000_000

# The exotic search triples p in int64 (3p - 1 in _exotic_segment), so no p
# may exceed a third of int64's range; relaxed_search takes the same maximum,
# and classify_range takes it for limit // 2.
MAX_SEARCH_VALUE = (2**63 - 1) // 3

# Widest unit of the theorem oracle's m axis: a unit holds phi on at most
# this many values, 256 MiB in int32 and 512 above 2^31, so its table, not
# the limit, bounds the oracle's memory.  Up to a limit of 2^25 there is
# one unit, the whole table to 2 * limit.
_ORACLE_UNIT = 1 << 26

# Values the oracle checks against its table at a time: the check's
# temporaries, about 22 bytes per value, then stay in cache, which makes it
# a third faster than on whole sieve windows.
_CHECK_BLOCK = 1 << 16

# Largest limit brute_force_solutions takes.  Past one unit each unit
# re-sieves phi(n) for n in (A/2, min(A, limit + 1)), about limit^2 / 2^27
# values in all, so the run time grows as limit^2: verify-theorem took
# 12.6 s to 10^8 and 472-527 s to 10^9 on a 2-core Xeon, so an estimated
# 17 hours at this maximum (int64 above 2^31), and years at 10^12.
MAX_ORACLE_LIMIT = 10**10


class CheckpointMismatchError(ValueError):
    """Checkpoint on disk belongs to a different search or fails validation."""


def _phi_unit(lo, hi):
    """phi(v) for lo <= v < hi at index v - lo, in sweep_dtype(hi - 1), filled by sweep_windows."""
    dtype = sweep_dtype(hi - 1)
    try:
        phi = np.zeros(hi - lo, dtype=dtype)
    except MemoryError as exc:
        raise MemoryError(f"phi table on [{lo}, {hi}) needs {dtype.itemsize * (hi - lo)} bytes") from exc
    for a, window in sweep_windows(lo, hi):
        phi[a - lo : a - lo + window.size] = window
        del window  # so the next window is sieved without this one alive
    return phi


def _unit_hits(table, start, lo, tot):
    """The n = lo + j, tot[j] = phi(n), whose m = n + phi(n) lies in the unit
    of table (phi(v) at index v - start) and has phi(m) = n - phi(n).  The
    arithmetic is int64 whatever the table's dtype, _CHECK_BLOCK values at
    a time."""
    hits = []
    for b in range(0, tot.size, _CHECK_BLOCK):
        phi_n = tot[b : b + _CHECK_BLOCK]
        at = np.arange(lo + b - start, lo + b - start + phi_n.size)
        at += phi_n  # m - start; negative ones wrap past every index as uint64
        inside = at.view(np.uint64) < table.size
        phi_m = table.take(at, mode="clip")
        rest = np.arange(lo + b, lo + b + phi_n.size)
        rest -= phi_n  # n - phi(n)
        inside &= phi_m == rest
        hits += (lo + b + np.flatnonzero(inside)).tolist()
    return hits


def brute_force_solutions(limit):
    """All solutions n <= limit by direct evaluation of the equation.

    Deliberately ignorant of the classification; used as its oracle.
    The axis [2, 2 * limit] of m = n + phi(n) is split into units [A, B)
    of at most _ORACLE_UNIT values, each with its own phi table.  Since
    phi(n) <= n - 1, the n whose m falls in a unit lie in (A/2, B): phi(n)
    is read off the table for n >= A and sieved again, window by window of
    sweep_windows, for n < A.  n is a solution when table[m - A] == n - phi(n),
    so no sum of the equation (up to 3 * limit) is formed.
    """
    _check_natural(limit)
    if limit > MAX_ORACLE_LIMIT:
        raise SieveRangeError(f"limit {limit} above the oracle maximum {MAX_ORACLE_LIMIT}")
    hits = []
    for start in range(2, 2 * limit + 1, _ORACLE_UNIT):
        end = min(start + _ORACLE_UNIT, 2 * limit + 1)
        table = _phi_unit(start, end)
        for lo, tot in sweep_windows(start // 2 + 1, min(start, limit + 1)):
            hits += _unit_hits(table, start, lo, tot)
        hits += _unit_hits(table, start, start, table[: max(0, min(end, limit + 1) - start)])
        del table  # so the next unit's table is filled without this one alive
    return sorted(hits)


# classify_range checks this many n of its range (all of a shorter one) for
# solutions, by classify, that are not among its candidates.
_RANGE_SAMPLE_SIZE = 1024


def classify_range(limit):
    """{n: classify(n)} for every n <= limit that classify calls a solution,
    in ascending order.

    classify decides the candidates n = q * 2^ell <= limit, ell >= 1, for
    the family odd parts q and the exotic odd parts a*m + b.  An exotic odd
    part <= limit // 2 has its companion q = 6m + 5 <= limit // 2, a hit of
    _relaxed_tree(limit // 2) with (4q + 1)/3 = 8m + 7 prime, so no totient
    is sieved.  A sample of the range seeded by limit is checked for
    solutions that are not candidates.
    """
    _check_natural(limit)
    if (top := limit // 2) > MAX_SEARCH_VALUE:
        raise SieveRangeError(f"limit {limit} needs the search tree to {top}, past the search maximum {MAX_SEARCH_VALUE}")
    hits = _exotic_hits(top)
    odd_parts = set(_FAMILY_BY_ODD_PART) | {a * m + b for a, b in _EXOTIC_SHAPES.values() for m in hits}
    candidates = {q << ell for q in odd_parts for ell in range(1, (limit // q).bit_length())}
    classes = {n: cls for n in sorted(candidates) if (cls := classify(n)).kind is not SolutionKind.NOT_SOLUTION}
    population = range(1, limit + 1)
    if len(population) > _RANGE_SAMPLE_SIZE:
        population = random.Random(limit).sample(population, _RANGE_SAMPLE_SIZE)
    for n in population:
        if n not in candidates and (cls := classify(n)).kind is not SolutionKind.NOT_SOLUTION:
            raise InternalInconsistencyError(f"classify_range({limit}) misses {n}, which classify calls {cls.kind.value}")
    return classes


def oracle_comparison(limit):
    """Sweep [1, limit] with the brute-force oracle and the range classifier,
    yielding (n, brute verdict, classifier verdict, classification) for every
    n either calls a solution, in ascending order; the two sides disagree on
    n where the verdicts differ."""
    solutions = set(brute_force_solutions(limit))
    classes = classify_range(limit)
    for n in sorted(solutions | classes.keys()):
        cls = classes.get(n, SolutionClass(SolutionKind.NOT_SOLUTION, v2(n)))
        yield n, n in solutions, n in classes, cls


@dataclass(frozen=True)
class ExoticWitness:
    """A prime p = 8m + 7 whose companion q = 6m + 5 has phi(q) = 4m + 4."""

    m: int
    p: int
    q: int


# The ratio filter of _exotic_segment: the primes 5..251 make up a companion's
# part s, every prime of its cofactor r is at least _RATIO_SPLIT.
_RATIO_SPLIT = 257
_RATIO_PRIMES = tuple(p for p in _TRIAL_PRIMES if 5 <= p < _RATIO_SPLIT)
# Slack on both float thresholds of _ratio_candidates, far above their rounding.
_RATIO_MARGIN = 1e-12


def _ratio_candidates(first, count):
    """Flags of the members q = first + 12j, j < count, of the progression
    11 (mod 12): False only where 3*phi(q) = 2q + 2 is impossible by the
    ratio lemma of _exotic_segment, with q_min = first and q_max = first +
    12(count - 1).

    phi(s)/s = prod (l - 1)/l over the primes l in _RATIO_PRIMES dividing q,
    multiplied up in float64 by one strided pass per l.  Fewer than 14 of
    them divide q (the 14 least multiply past 2^62 > MAX_SEARCH_VALUE), and
    each factor and each product is rounded once, so a product is off by
    less than 28 * 2^-53 < 4e-15 of its value (< 1); the upper bound is the
    exact fraction rounded once (Python's int / int).  Both thresholds are widened by
    _RATIO_MARGIN = 1e-12, so no q that satisfies the lemma is dropped."""
    ratio = np.ones(count)
    for ell in _RATIO_PRIMES:
        ratio[_first_index(first, 12, ell) :: ell] *= (ell - 1) / ell
    q_max, w = first + 12 * (count - 1), 0
    while _RATIO_SPLIT ** (w + 1) <= q_max:
        w += 1
    upper = (2 * first + 2) * _RATIO_SPLIT**w / (3 * first * (_RATIO_SPLIT - 1) ** w)
    return (ratio > 2 / 3 - _RATIO_MARGIN) & (ratio <= upper + _RATIO_MARGIN)


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

    phi is evaluated only at the companions of the primes found that pass
    a ratio lemma (the phi(n)/n bound of the searches for Lehmer's totient
    problem), checked by _ratio_candidates over the segment's companions
    q_min..q_max.  Lemma: write q = s*r, s made of the primes 5..251 (q is
    coprime to 6) and every prime of r at least 257; if 3*phi(q) = 2q + 2,
    then 2/3 < phi(s)/s <= (2*q_min + 2)/(3*q_min) * (257/256)^w with
    w = floor(log_257 q_max).  Proof: phi(q)/q = (2q + 2)/(3q) lies in
    (2/3, (2*q_min + 2)/(3*q_min)], since q_min <= q.  phi(s)/s =
    (phi(q)/q) / (phi(r)/r), and phi(r)/r = prod (1 - 1/l) over the primes
    l of r is at most 1 and at least (256/257)^omega(r), with
    257^omega(r) <= r <= q_max, so omega(r) <= w.  phi(s)/s depends only on
    which of the 52 primes 5..251 divide q, so 52 strided passes decide it;
    near 5*10^9 about one prime companion in 200 passes.  Exact phi alone
    decides a hit.  Both kernels take their base primes from the cache of
    base_primes, extending it to their roots, and totient_progression runs,
    and reads that cache, even when no companion passes."""
    lo, hi = bounds
    hits = [0] if lo <= 7 < hi and _is_exotic(0) else []
    p = primes_in_class(lo, hi, 15, 16)
    if p.size == 0:
        return hits
    q = (3 * p - 1) // 4
    first = int(q[0])
    at = (q - first) // 12
    keep = _ratio_candidates(first, int(at[-1]) + 1)[at]
    p = p[keep]
    _, phi = totient_progression(first, int(q[-1]) + 1, 11, 12, at=at[keep])
    return hits + ((p[phi == (p + 1) // 2] - 7) // 8).tolist()


def _resume(path, search_id, lo, hi, segment_size):
    """(start, hits) of the search search_id on [lo, hi) from the checkpoint
    file at path, or (lo, []) when there is none.  Before any segment is
    sieved it refuses a path that names no file (empty, ending in a
    separator, or an existing directory), whose temp file is there and not a
    regular file, or whose directory cannot take the file, then a checkpoint
    of another search, progress that is not a segment end of [lo, hi), and a
    hit list other than the hits of the finished range [lo, done), which
    _relaxed_tree decides; each message names the file."""
    if path is None:
        return lo, []
    if not os.path.basename(path) or os.path.isdir(path):
        raise ValueError(f"checkpoint {path}: names no file")
    tmp = _checkpoint_temp(path)
    if os.path.exists(tmp) and not os.path.isfile(tmp):
        raise ValueError(f"checkpoint {path}: its temp file {tmp} is not a regular file")
    directory = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
        raise ValueError(f"checkpoint {path}: {directory} is not a writable directory")
    if not os.path.exists(path):
        return lo, []
    cp = read_checkpoint(path)
    if cp.search_id != search_id:
        raise CheckpointMismatchError(f"checkpoint file {path} is for {cp.search_id!r}, not {search_id!r}")
    done = cp.last_completed_hi
    if not lo <= done <= hi or (done != hi and (done - lo) % segment_size):
        raise CheckpointMismatchError(f"checkpoint file {path}: progress {done} is not a segment end of [{lo}, {hi})")
    # A hit with p = 8m + 7 < done has its companion (3p - 1)/4 at most (3(done - 1) - 1)/4.
    expected = [m for m in _exotic_hits((3 * (done - 1) - 1) // 4) if 8 * m + 7 >= lo]
    for m in cp.hits:
        if m not in expected:
            raise CheckpointMismatchError(f"checkpoint file {path}: hit m={m} is not a hit in [{lo}, {done})")
    for m in expected:
        if m not in cp.hits:
            raise CheckpointMismatchError(f"checkpoint file {path}: hit m={m} in [{lo}, {done}) is missing")
    return done, list(cp.hits)


def exotic_prime_search(
    lo,
    hi,
    segment_size=DEFAULT_SEGMENT_SIZE,
    checkpoint_path=None,
    progress=None,
):
    """Find all m with p = 8m+7 prime in [lo, hi) and phi(6m+5) = 4m+4.

    Segment by segment, the p-range is sieved for primes in class 15 mod 16
    (hits other than m = 0 have odd m, see _exotic_segment) and phi is
    sieved at those of their companions q = (3p-1)/4, along the progression
    11 mod 12, that pass a ratio lemma on phi(s)/s, s the part of q made of
    the primes 5..251 (stated and proven in _exotic_segment).  The segments
    run in this process, in ascending range order, and their kernels extend
    the cache of base_primes to their own roots.  A checkpoint file, read by
    _resume, written after each segment and before progress(seg_lo, seg_hi,
    seg_hits), makes the search resumable.
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
    search_id = f"exotic:{lo}:{hi}:{segment_size}"
    start, hits = _resume(checkpoint_path, search_id, lo, hi, segment_size)
    for seg_lo in range(start, hi, segment_size):
        seg_hi = min(seg_lo + segment_size, hi)
        seg_hits = _exotic_segment((seg_lo, seg_hi))
        hits.extend(seg_hits)
        if checkpoint_path is not None:
            write_checkpoint(checkpoint_path, SearchCheckpoint(search_id, seg_hi, tuple(hits)))
        if progress is not None:
            progress(seg_lo, seg_hi, seg_hits)
    return [ExoticWitness(m, 8 * m + 7, 6 * m + 5) for m in hits]


# relaxed_search checks the enumerator against the phi scan up to this value:
# about 60 ms of CPU on a 2-core Xeon, and it holds all four known hits 5, 35,
# 1295 and 1679615.
_RELAXED_PREFIX = 1 << 21


def _scan_hits(top):
    """All n in [2, top] with 3*phi(n) = 2n + 2, from the phi sweep.

    Compares phi(n) with (2n + 2)/3 in int64 for every n = 2 (mod 3), the
    class where 3 | 2n + 2: hits are provably odd, but that is cheap to
    re-derive and the evenness claim stays a tested property.  The scan
    walks [2, top] by sweep_windows, so its arrays are sized by one window.
    It is the oracle of _relaxed_tree and shares none of its search logic;
    both read the cache of base_primes.
    """
    found = []
    for lo, phi in sweep_windows(2, top + 1):
        n0 = lo + (2 - lo) % 3  # n = n0 + 3k, where (2n + 2)/3 = (2*n0 + 2)/3 + 2k
        phi = phi[n0 - lo :: 3]
        third = (2 * n0 + 2) // 3
        found += (n0 + 3 * np.flatnonzero(phi == np.arange(third, third + 2 * phi.size, 2))).tolist()
        del phi  # so the next window is sieved without this one alive
    return found


def _window_pairs(big_f, big_d, primes):
    """The pairs (s, r) of the two-more close with F = big_f, D = big_d
    over the primes s of a list, each with D*s > F: those where
    r = (F(s - 1) + 2)/(Ds - F) is an integer above s.  Python ints, so
    exact at any size."""
    pairs = []
    for s in primes:
        num, den = big_f * (s - 1) + 2, big_d * s - big_f
        if num % den == 0 and (r := num // den) > s:
            pairs.append((s, r))
    return pairs


def _breaks(a, phi_as, s, limit):
    """Whether the three-or-more loop of _relaxed_tree at the prefix a stops
    at its prime s, phi(as) = phi_as: with j the largest integer with
    s^j <= X/(as), X = limit,
        3*phi(as)*(s - 1)^j * a*s^3 >= 2*(a*s^3 + 1) * as * s^j.
    Then no q <= X in the subtree of a*s solves 3*phi(q) = 2q + 2: such a q
    is a*s times at least two primes, each above s, so q > a*s^3, and at most j,
    so phi(q)/q > phi(as)/(as) * ((s - 1)/s)^j, which the inequality puts
    at or above 2/3 + 2/(3*a*s^3) > 2/3 + 2/(3q) = phi(q)/q.  As s grows,
    phi(as)/(as) and ((s - 1)/s)^j rise (j does not grow) and the right
    side falls, so the break holds for every larger s too."""
    cube = a * s**3
    j, power = 0, 1
    while power * s <= limit // (a * s):
        j, power = j + 1, power * s
    return 3 * phi_as * (s - 1) ** j * cube >= 2 * (cube + 1) * a * s * power


def _relaxed_tree(limit):
    """(hits, nodes, tried): every q <= limit with 3*phi(q) = 2q + 2,
    ascending, from a search tree; nodes counts the prefixes it visited and
    tried the primes its three-or-more loops took.

    A hit q is odd, prime to 3, squarefree and cyclic: a prime dividing q
    and phi(q) divides 3*phi(q) - 2q = 2, and 3 | q would put 3 | 2q + 2.
    The nodes are prefixes a of q's ascending primes, largest prime P, all
    at least 5, with phi(a)/a > 2/3, since each further prime lowers the
    ratio and phi(q)/q = 2/3 + 2/(3q).  With F = 3*phi(a) > 2a and
    D = F - 2a, a node closes q = a*r, q = a*s*r and longer q:
    - one more prime r: r*D = F + 2.  Only at the root a = 1 (r = 5); every
      other node comes from a loop below, whose parent's two-more close
      covers its one-more close.
    - two more primes P < s < r: (Ds - F)(Dr - F) = N = F^2 - D(F - 2) > 0,
      so d = Ds - F < sqrt(N) and s <= (F + isqrt(N)) // D; and
      a*s^2 < a*s*r <= X, so s <= sqrt(X/a).  _window_pairs tests the base
      primes s in (max(P, F // D), min(isqrt(X/a), (F + isqrt(N)) // D)],
      and r is proven with is_prime.  Nothing is factored.
    - three or more: the children a*s, for the primes s with Ds > F (that
      is phi(as)/(as) > 2/3), a*s^3 < X and gcd(a, s - 1) = 1 (cyclic),
      up to the first s where _breaks.
    Every bound is exact integer arithmetic.  A window's s is below
    (3X)^(1/3): at the root (F = 3, D = 1, N = 8) the clip is s <= 5, and
    for a > 1, a is odd with primes of at least 5, so phi(a) and D are even,
    D >= 2, and N < F^2 gives s < 2F/D <= F < 3a; with a*s^2 <= X that is
    s^3 < 3X.  A loop's s is below X^(1/3).  So base primes up to
    min((3X)^(1/3) + 1, sqrt(X)) cover both; a node that would need a prime
    past them raises InternalInconsistencyError.  The search is D. H.
    Lehmer's for his totient problem (Bull. AMS 1932): the last prime
    follows from the cofactor, and phi(q)/q bounds the tree.
    """
    bound = min(_integer_root(3 * limit, 3) + 1, math.isqrt(limit))
    listed = base_primes(bound).tolist() if bound >= 2 else []
    hits, nodes, tried = [], 0, 0
    stack = [(1, 1, 3)]  # (a, phi(a), P): q is prime to 6, so its primes exceed 3
    while stack:
        a, phi_a, big_p = stack.pop()
        nodes += 1
        big_f = 3 * phi_a
        big_d = big_f - 2 * a
        if a == 1 and (big_f + 2) % big_d == 0:  # the one-more close, at the root only
            r = (big_f + 2) // big_d
            if big_p < r <= limit // a and is_prime(r):
                hits.append(a * r)
        first = bisect.bisect_right(listed, max(big_p, big_f // big_d))  # the least s with s > P, Ds > F
        end = min(math.isqrt(limit // a), (big_f + math.isqrt(big_f * big_f - big_d * (big_f - 2))) // big_d)
        if end > bound:
            raise InternalInconsistencyError(f"relaxed tree: prefix {a} needs primes to {end}, past the base primes to {bound}")
        pairs = _window_pairs(big_f, big_d, listed[first : bisect.bisect_right(listed, end)])
        hits += [a * s * r for s, r in pairs if a * s * r <= limit and is_prime(r)]
        for i in range(first, len(listed)):
            s = listed[i]
            if a * s**3 >= limit:
                break
            tried += 1
            phi_as = phi_a * (s - 1)
            if _breaks(a, phi_as, s, limit):
                break
            if math.gcd(a, s - 1) == 1:
                stack.append((a * s, phi_as, s))
        else:  # out of base primes
            if a * (bound + 1) ** 3 < limit:
                raise InternalInconsistencyError(f"relaxed tree: prefix {a} runs past the base primes to {bound}")
    return sorted(hits), nodes, tried


def _exotic_hits(top):
    """The m with p = 8m + 7 prime and phi(6m + 5) = 4m + 4, ascending, whose
    companion q = 6m + 5 = (3p - 1)/4 is at most top: the hits q of
    _relaxed_tree(top) with (4q + 1)/3 prime."""
    return [(q - 5) // 6 for q in _relaxed_tree(top)[0] if is_prime((4 * q + 1) // 3)]


def relaxed_search(limit):
    """All n <= limit with 3*phi(n) = 2n + 2 (the primality-free relaxation).

    The hits come from the search tree of _relaxed_tree.  First the phi
    scan _scan_hits runs on [2, min(limit, 2^21)], which holds the four
    known hits; if the tree's hits there differ from the scan's, the search
    raises InternalInconsistencyError, so every run carries an independent
    check.
    """
    _check_natural(limit)
    if limit > MAX_SEARCH_VALUE:
        raise SieveRangeError(f"limit {limit} above the search maximum {MAX_SEARCH_VALUE}")
    top = min(limit, _RELAXED_PREFIX)
    scanned = _scan_hits(top)
    hits = _relaxed_tree(limit)[0]
    if (tree := [q for q in hits if q <= top]) != scanned:
        raise InternalInconsistencyError(f"relaxed_search: the search tree finds {tree} up to {top}, the phi scan {scanned}")
    return hits
