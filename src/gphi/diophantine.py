"""Solving and classifying phi(n) + phi(n + phi(n)) = n.

The brute-force enumerator is the independent oracle: it evaluates the
equation directly from bulk totient tables and never consults the
classifier.  classify() goes the other way, matching n against the known
solution shapes and then confirming every positive match against the
equation, so a transcription bug turns into a loud error instead of a
wrong answer.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import _check_natural, euler_phi, factorize, is_prime, v2
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    SearchCheckpoint,
    primes_in_class,
    read_checkpoint,
    sieve_segment,
    totient_progression,
    write_checkpoint,
)


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
    """phi(v) for all v <= limit, indexed by value (phi[0] unused)."""
    phi = np.zeros(limit + 1, dtype=np.int64)
    if limit >= 1:
        phi[1] = 1
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


_FAMILY_BY_ODD_PART = {
    3: SolutionKind.FAMILY_3,
    5: SolutionKind.FAMILY_5,
    7: SolutionKind.FAMILY_7,
    35: SolutionKind.FAMILY_35,
    47: SolutionKind.FAMILY_47,
}


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
    if ell >= 2 and q == 1:
        kind = SolutionKind.POWER_OF_2
    elif ell >= 1 and q in _FAMILY_BY_ODD_PART:
        kind = _FAMILY_BY_ODD_PART[q]
    elif ell >= 1 and q > 1:
        if q % 8 == 7:
            m = (q - 7) // 8
            if is_prime(q) and euler_phi(6 * m + 5) == 4 * m + 4:
                kind = SolutionKind.EXOTIC_A
                exotic_m = m
        if kind is SolutionKind.NOT_SOLUTION and q % 6 == 5:
            m = (q - 5) // 6
            if is_prime(8 * m + 7) and euler_phi(q) == 4 * m + 4:
                kind = SolutionKind.EXOTIC_B
                exotic_m = m
    if kind is SolutionKind.NOT_SOLUTION:
        return SolutionClass(kind, ell)
    if not is_solution(n):
        raise InternalInconsistencyError(
            f"{n} matches shape {kind.value} but fails the defining equation"
        )
    return SolutionClass(kind, ell, exotic_m)


def theorem_mismatches(limit):
    """Compare the brute-force oracle with the classifier over [1, limit].

    Returns (mismatched n values, solution count).
    """
    solutions = set(brute_force_solutions(limit))
    mismatches = []
    for n in range(1, limit + 1):
        if (classify(n).kind is not SolutionKind.NOT_SOLUTION) != (n in solutions):
            mismatches.append(n)
    return mismatches, len(solutions)


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
    """Hits m with 8m+7 prime in [lo, hi) and phi(6m+5) = 4m+4."""
    lo, hi = bounds
    primes = primes_in_class(lo, hi, 7, 8)
    if primes.size == 0:
        return []
    companions = (3 * primes - 1) // 4
    first, phi = totient_progression(int(companions[0]), int(companions[-1]) + 1, 5, 6)
    ok = phi[(companions - first) // 6] == (primes + 1) // 2
    return [int(m) for m in (primes[ok] - 7) // 8]


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

    The p-range is sieved for primes in class 7 mod 8 while the companion
    q-range is totient-sieved along the progression 5 mod 6, segment by
    segment.  Results are merged in ascending range order regardless of
    worker scheduling; a checkpoint file makes the search resumable.
    max_segments limits how many segments run (for tests and partial runs).
    """
    if not 2 <= lo < hi:
        raise ValueError(f"need 2 <= lo < hi, got [{lo}, {hi})")
    if segment_size < 8:
        raise ValueError("segment_size too small")
    search_id = f"exotic:{lo}:{hi}:{segment_size}"
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
    segments = [(a, min(a + segment_size, hi)) for a in range(start, hi, segment_size)]
    if max_segments is not None:
        segments = segments[:max_segments]
    if segments:
        if jobs and jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = pool.map(_exotic_segment, segments)
                _collect_segments(segments, results, hits, search_id, checkpoint_path, progress)
        else:
            results = map(_exotic_segment, segments)
            _collect_segments(segments, results, hits, search_id, checkpoint_path, progress)
    return [ExoticWitness(m, 8 * m + 7, 6 * m + 5) for m in hits]


def _check_resume(cp, lo, hi, segment_size):
    """Reject a checkpoint whose progress is not a segment end of [lo, hi),
    or whose hits lie outside the finished range or fail the condition."""
    done = cp.last_completed_hi
    if not lo <= done <= hi or (done != hi and (done - lo) % segment_size):
        raise CheckpointMismatchError(f"checkpoint progress {done} is not a segment end of [{lo}, {hi})")
    for m in cp.hits:
        p = 8 * m + 7
        if not (lo <= p < done and is_prime(p) and euler_phi(6 * m + 5) == 4 * m + 4):
            raise CheckpointMismatchError(f"checkpoint hit m={m} is not a hit in [{lo}, {done})")


def _collect_segments(segments, results, hits, search_id, checkpoint_path, progress):
    for (seg_lo, seg_hi), seg_hits in zip(segments, results):
        hits.extend(seg_hits)
        if checkpoint_path is not None:
            write_checkpoint(
                checkpoint_path, SearchCheckpoint(search_id, seg_hi, tuple(hits))
            )
        if progress is not None:
            progress(seg_lo, seg_hi, seg_hits)


def relaxed_search(limit, segment_size=DEFAULT_SEGMENT_SIZE):
    """All n <= limit with 3*phi(n) = 2n + 2 (the primality-free relaxation).

    Scans every n: hits are provably odd, but that is cheap to re-derive and
    the evenness claim stays a tested property instead of an assumption.
    """
    _check_natural(limit)
    found = []
    twice_index = np.arange(0, 2 * min(segment_size, limit), 2, dtype=np.int64)
    for lo in range(2, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        phi = sieve_segment(lo, hi, max_size=segment_size).phi
        phi *= 3  # in place, no temporaries: 3*phi(lo + j) - 2*lo - 2 == 2*j
        phi -= 2 * lo + 2
        found.extend(lo + int(j) for j in np.flatnonzero(phi == twice_index[: hi - lo]))
    return found


_NAMED_ODD_PARTS = {
    SolutionKind.POWER_OF_2: 1,
    SolutionKind.FAMILY_3: 3,
    SolutionKind.FAMILY_5: 5,
    SolutionKind.FAMILY_7: 7,
    SolutionKind.FAMILY_35: 35,
    SolutionKind.FAMILY_47: 47,
}


def family_members(kind, ell_max, m=None):
    """Members 2^ell * q of one solution family, each re-confirmed as a
    solution (ell from 2 for powers of two, from 1 otherwise)."""
    if ell_max < 1:
        raise ValueError("ell_max must be positive")
    if kind in _NAMED_ODD_PARTS:
        q = _NAMED_ODD_PARTS[kind]
        start = 2 if kind is SolutionKind.POWER_OF_2 else 1
    elif kind in (SolutionKind.EXOTIC_A, SolutionKind.EXOTIC_B):
        if m is None:
            raise ValueError("exotic families require the parameter m")
        q = 8 * m + 7 if kind is SolutionKind.EXOTIC_A else 6 * m + 5
        start = 1
    else:
        raise ValueError(f"no family for kind {kind!r}")
    members = []
    for ell in range(start, ell_max + 1):
        candidate = q << ell
        if not is_solution(candidate):
            raise InternalInconsistencyError(f"{candidate} is not a solution")
        members.append(candidate)
    return members
