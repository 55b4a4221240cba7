"""Solving and classifying phi(n) + phi(n + phi(n)) = n.

The brute-force enumerator is the independent oracle: it evaluates the
equation directly from bulk totient tables and never consults the
classifier.  classify() goes the other way, matching n against the known
solution shapes and then confirming every positive match against the
equation, so a transcription bug turns into a loud error instead of a
wrong answer.  classify_range() classifies whole sweeps from the family
index and the exotic search, held to classify on a sample of each range.

The scalar side (is_solution, the solution shapes, family_members and
case_trace) lives in equation, which needs no numpy; its names are
re-exported here.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

# euler_phi is not called here, but stays reachable as diophantine.euler_phi.
from .arith import _TRIAL_PRIMES, _check_natural, euler_phi, v2
from .equation import (
    _EXOTIC_SHAPES,
    FAMILIES,
    InternalInconsistencyError,
    ProofTrace,
    SolutionKind,
    TraceCase,
    _is_exotic,
    case_trace,
    family_members,
    is_solution,
)
from .limits import MAX_JOBS
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    MAX_SIEVE_VALUE,
    SearchCheckpoint,
    SegmentTooLargeError,
    SieveRangeError,
    primes_in_class,
    read_checkpoint,
    sieve_segment,
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
# arrays of about 48 bytes per base prime up to sqrt(hi), which grow with
# height, not width (7.7 bytes per value of a 2^22 segment near 10^14).
MAX_EXOTIC_SEGMENT = 400_000_000

# Both searches triple values in int64 (3p - 1 in _exotic_segment, 3*phi(n)
# in relaxed_search), so no value they sieve may exceed a third of its range.
MAX_SEARCH_VALUE = (2**63 - 1) // 3


class CheckpointMismatchError(ValueError):
    """Checkpoint on disk belongs to a different search or fails validation."""


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


# The family index of classify and classify_range: odd part q -> (kind, least ell).
_FAMILY_BY_ODD_PART = {q: (kind, least) for kind, (q, least) in FAMILIES.items()}


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
        ratio[(-first * pow(12, -1, ell)) % ell :: ell] *= (ell - 1) / ell
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


def _pool_segments(pool, segments, window):
    """(bounds, hits) of each segment in order, read lazily, at most window in
    flight, each run by _exotic_segment."""
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
    sieved at those of their companions q = (3p-1)/4, along the progression
    11 mod 12, that pass a ratio lemma on phi(s)/s, s the part of q made of
    the primes 5..251 (stated and proven in _exotic_segment).  Each
    segment's kernels extend the cache of base_primes, in whichever process
    runs it, to their own roots.  A pool, started only for jobs > 1,
    is fed segments lazily and its results merge in ascending range order;
    a checkpoint file makes the search resumable.
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
                f"checkpoint file {checkpoint_path} is for {cp.search_id!r}, not {search_id!r}"
            )
        _check_resume(checkpoint_path, cp, lo, hi, segment_size)
        start = cp.last_completed_hi
        hits = list(cp.hits)
    starts = range(start, hi, segment_size)[:max_segments]
    segments = ((a, min(a + segment_size, hi)) for a in starts)
    pool = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a search with a pool loads it

        pool = ProcessPoolExecutor(jobs)
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


def _check_resume(path, cp, lo, hi, segment_size):
    """Reject the checkpoint cp, read from path, whose progress is not a
    segment end of [lo, hi), or whose hits lie outside the finished range or
    fail the condition; each message names the file."""
    done = cp.last_completed_hi
    if not lo <= done <= hi or (done != hi and (done - lo) % segment_size):
        raise CheckpointMismatchError(
            f"checkpoint file {path}: progress {done} is not a segment end of [{lo}, {hi})"
        )
    for m in cp.hits:
        if not (lo <= 8 * m + 7 < done and _is_exotic(m)):
            raise CheckpointMismatchError(f"checkpoint file {path}: hit m={m} is not a hit in [{lo}, {done})")


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
