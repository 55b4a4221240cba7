"""Segmented bulk sieves: totients along arithmetic progressions (a whole
range is the modulus-1 case), primes in arithmetic progressions, and
line-based checkpoints for long searches.

Segments are independent work units; callers that parallelize must merge
results in ascending range order so output stays deterministic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEGMENT_SIZE = 1 << 22

# int64 headroom: phi and the smooth-part accumulator acc of a value never
# exceed the value, so the values themselves are the only magnitude constraint.
MAX_SIEVE_VALUE = 1 << 62

_BLOCK = 1 << 16  # totient_progression: phi and acc of a block (1 MiB) fit in L2
_DENSE_BELOW = 1 << 8  # smaller prime powers hit every block 256 or more times
# A prime striking fewer members than this costs more in interpreter overhead
# than in its strided write; such primes go through one vectorized pass.
_STRIDED_HITS = 64
_SPARSE_BATCH = 1 << 14  # strikes expanded at once by the sparse pass


class SieveRangeError(ValueError):
    """Range bounds outside what the sieve supports."""


class SegmentTooLargeError(ValueError):
    """Requested segment exceeds the configured size bound."""


def base_primes(limit):
    """All primes <= limit, ascending: a read-only int64 slice of the cache."""
    if limit < 2:
        raise SieveRangeError(f"base_primes needs limit >= 2, got {limit}")
    if limit > MAX_SIEVE_VALUE:
        raise SieveRangeError(f"limit {limit} above supported maximum")
    return _primes_to(limit)


# The largest base primes built so far, (bound, every prime <= bound): one tuple,
# replaced in one statement, so no reader sees a bound without its array.
_cache = (1, np.empty(0, dtype=np.int64))


def _primes_to(limit):
    """The primes <= limit, read-only, sliced from _cache after rebuilding it
    to limit if limit is above its bound.  _sieve_class takes its base primes
    here, not from the public base_primes, so that a cold and a warm cache
    give the same base_primes call counts."""
    global _cache
    bound, primes = _cache
    if limit > bound:
        primes = _sieve_class(2, limit + 1, 0, 1)
        primes.flags.writeable = False
        _cache = (limit, primes)
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def _progression(lo, hi, residue, modulus):
    """(first, count): the least v >= lo with v = residue (mod modulus), and the members in [lo, hi)."""
    first = lo + (residue - lo) % modulus
    return first, max(0, (hi - first + modulus - 1) // modulus)


def _sparse_split(primes, count, modulus):
    """Index of the first sparse prime in the ascending primes: from there on
    each p strikes fewer than _STRIDED_HITS of count members and exceeds the
    modulus, so it is coprime to the modulus and below 2^31."""
    return int(np.searchsorted(primes, max(count // _STRIDED_HITS, modulus), side="right"))


def _inverses(modulus, primes):
    """modulus^-1 mod p for each prime p > modulus in an int64 array.

    The inverse is (1 + k*p) / modulus with k = -(p mod modulus)^-1 mod
    modulus, so one Python pow per distinct residue p mod modulus gives it;
    as k*(p // modulus) + (1 + k*r) // modulus no step leaves int64."""
    res = primes % modulus
    keys = sorted(set(res.tolist()))
    ks = [-pow(r, -1, modulus) % modulus for r in keys]
    at = np.searchsorted(np.array(keys, dtype=np.int64), res)
    k = np.array(ks, dtype=np.int64)[at]
    c = np.array([(1 + kr * r) // modulus for kr, r in zip(ks, keys)], dtype=np.int64)[at]
    return k * (primes // modulus) + c


def _sparse_strikes(first, modulus, count, primes, from_square):
    """Batches (j, p) of equal-length arrays: every index j < count whose
    member first + modulus*j is a multiple of p, for each p in primes, all
    from a _sparse_split tail; with from_square only members >= p^2.  The
    first index of p is -first / modulus (mod p), from residues below 2^31,
    so products stay below 2^62."""
    j0 = (-first) % primes * _inverses(modulus, primes) % primes
    if from_square:
        start = np.maximum(0, -((first - primes * primes) // modulus))
        j0 = start + (j0 - start) % primes
    hits = np.maximum(0, (count - j0 + primes - 1) // primes)
    keep = hits > 0
    primes, j0, hits = primes[keep], j0[keep], hits[keep]
    if primes.size == 0:
        return
    ends = np.cumsum(hits)
    cuts = np.searchsorted(ends, np.arange(_SPARSE_BATCH, int(ends[-1]), _SPARSE_BATCH), side="right")
    edges = [0, *cuts.tolist(), primes.size]
    for a, b in zip(edges, edges[1:]):
        if a == b:  # only with a batch smaller than one prime's strikes
            continue
        p, j, n = primes[a:b], j0[a:b], hits[a:b]
        ps = np.repeat(p, n)
        step = ps.copy()
        last = j + (n - 1) * p
        # each run of p starts by jumping from the previous run's last index
        step[np.cumsum(n) - n] = j - np.concatenate(([0], last[:-1]))
        yield np.cumsum(step, out=step), ps


def _sieve_class(lo, hi, residue, modulus):
    """Primes p = residue (mod modulus) in [lo, hi), lo >= 2, ascending, from one
    flag per member of the class.  Each base prime p, from the cache of
    _primes_to (itself filled by this sieve), strikes its multiples in the
    class from the first at or above p^2.

    Base primes come in two tiers.  Strided: each p up to the _sparse_split
    point writes every p-th member in one slice, or every member if p divides
    modulus and residue, or none if p divides the modulus only; the flags are
    one byte each, so no small prime needs the block loop of
    totient_progression.  Sparse: all larger p, which strike fewer than
    _STRIDED_HITS members each, are struck together by _sparse_strikes."""
    first, count = _progression(lo, hi, residue, modulus)
    flags = np.ones(count, dtype=bool)
    primes = _primes_to(math.isqrt(first + modulus * (count - 1)) if count else 0)
    split = _sparse_split(primes, count, modulus)
    for p in primes[:split].tolist():
        start = max(0, -((first - p * p) // modulus))  # first member >= p^2
        if modulus % p:
            start += (-(first + modulus * start) * pow(modulus, -1, p)) % p
            flags[start::p] = False
        elif residue % p == 0:
            flags[start:] = False
    for j, _ in _sparse_strikes(first, modulus, count, primes[split:], from_square=True):
        flags[j] = False  # a repeated index strikes the same flag again
    return np.flatnonzero(flags) * modulus + first


@dataclass(frozen=True)
class SieveSegment:
    """Per-element totient over [lo, hi)."""

    lo: int
    hi: int
    phi: np.ndarray


def _check_range(lo, hi, max_size=None):
    if lo < 2:
        raise SieveRangeError(f"range must start at 2 or above, got {lo}")
    if hi <= lo:
        raise SieveRangeError(f"empty or inverted range [{lo}, {hi})")
    if hi > MAX_SIEVE_VALUE:
        raise SieveRangeError(f"range end {hi} above supported maximum")
    if max_size is not None and hi - lo > max_size:
        raise SegmentTooLargeError(f"segment [{lo}, {hi}) exceeds {max_size} elements")


def sieve_segment(lo, hi):
    """Exact phi array for every integer in [lo, hi), at most DEFAULT_SEGMENT_SIZE."""
    _check_range(lo, hi, DEFAULT_SEGMENT_SIZE)
    return SieveSegment(lo, hi, totient_progression(lo, hi, 0, 1)[1])


def primes_in_class(lo, hi, residue, modulus):
    """All primes p in [lo, hi) with p congruent to residue mod modulus; the
    base primes are sliced from the cache of base_primes."""
    if modulus < 1 or not 0 <= residue < modulus:
        raise ValueError(f"invalid residue class {residue} mod {modulus}")
    _check_range(max(lo, 2), max(hi, 3))
    return _sieve_class(max(lo, 2), hi, residue, modulus)


def totient_progression(lo, hi, residue, modulus, at=None):
    """Totients of every value v in [lo, hi) with v = residue (mod modulus).

    Requires gcd(residue, modulus) = 1 so the progression avoids the primes
    dividing the modulus entirely; array index j holds phi(first + modulus*j).
    Returns (first, phi).  With at, an ascending array of such indices, phi
    holds the totients of those members only, in that order: the sparse
    strikes and the final division then touch only them, while the dense
    and strided tiers, cheaper per member, still sweep every member (the
    exotic search reads about one companion in eleven).  The base primes
    up to sqrt(hi - 1) come from base_primes, a slice of its cache.

    Bays & Hudson's progression sieve (BIT 1977) without division in the
    loop: each prime power p^e multiplies phi by p - 1 or p and the smooth
    part acc by p; v // acc is then 1 or v's one prime factor above sqrt(hi).
    Prime powers come in three tiers by how many members they hit.  Dense
    (p^e < _DENSE_BELOW), which touch most cache lines, run block by block
    in cache, as does the final division over every member.  Strided ones sweep the whole
    range once per power.  Sparse primes, each hitting fewer than
    _STRIDED_HITS members (see _sparse_split), are applied together from
    _sparse_strikes: a hit v of p gets phi *= (p - 1) * p^(e-1) and
    acc *= p^e, e found by dividing v by p while it divides, through
    np.multiply.at, since two sparse primes may divide one value.
    """
    if modulus < 1 or math.gcd(residue, modulus) != 1:
        raise ValueError(f"residue {residue} not coprime to modulus {modulus}")
    if lo < 1 or hi <= lo or hi > MAX_SIEVE_VALUE:
        raise SieveRangeError(f"bad progression range [{lo}, {hi})")
    first, count = _progression(lo, hi, residue, modulus)
    if at is not None:
        at = np.asarray(at, dtype=np.int64)
        if at.size and not (0 <= at[0] and at[-1] < count and np.all(at[1:] > at[:-1])):
            raise ValueError(f"at must ascend within the {count} members of [{lo}, {hi})")
    if count == 0 or at is not None and at.size == 0:
        return first, np.empty(0, dtype=np.int64)
    top = first + modulus * (count - 1)
    phi = np.ones(count, dtype=np.int64)
    acc = np.ones(count, dtype=np.int64)
    dense = []  # (p^e, first index it divides, phi factor, p), run per block
    primes = base_primes(max(math.isqrt(hi - 1), 2))
    split = _sparse_split(primes, count, modulus)
    for p in primes[:split].tolist():
        pe = p
        while pe <= top and modulus % p:
            j0 = (-first * pow(modulus, -1, pe)) % pe
            if j0 >= count:
                break
            if pe < _DENSE_BELOW:
                dense.append((pe, j0, p - 1 if pe == p else p, p))
            else:
                phi[j0::pe] *= p - 1 if pe == p else p
                acc[j0::pe] *= p
            pe *= p
    wanted = None
    if at is not None:
        wanted = np.zeros(count, dtype=bool)
        wanted[at] = True
    for j, p in _sparse_strikes(first, modulus, count, primes[split:], from_square=False):
        if wanted is not None:
            keep = wanted[j]
            j, p = j[keep], p[keep]
        np.multiply.at(phi, j, p - 1)
        np.multiply.at(acc, j, p)
        rest = (first + modulus * j) // p
        while (more := np.flatnonzero(rest % p == 0)).size:  # p^2, p^3, ... divide these
            j, p = j[more], p[more]
            rest = rest[more] // p
            np.multiply.at(phi, j, p)
            np.multiply.at(acc, j, p)
    for b0 in range(0, count, _BLOCK):
        block_phi, block_acc = phi[b0 : b0 + _BLOCK], acc[b0 : b0 + _BLOCK]
        for pe, j0, factor, p in dense:
            block_phi[(j0 - b0) % pe :: pe] *= factor
            block_acc[(j0 - b0) % pe :: pe] *= p
        if at is None:
            rem = (first + modulus * np.arange(b0, b0 + block_phi.size, dtype=np.int64)) // block_acc - 1
            np.multiply(block_phi, rem, out=block_phi, where=rem > 0)
    if at is not None:
        phi, acc = phi[at], acc[at]
        rem = (first + modulus * at) // acc - 1
        np.multiply(phi, rem, out=phi, where=rem > 0)
    return first, phi


@dataclass(frozen=True)
class SearchCheckpoint:
    """Resumable progress record for a segmented search."""

    search_id: str
    last_completed_hi: int
    hits: tuple

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.hits, self.hits[1:])):
            raise ValueError("checkpoint hits must be strictly ascending")


def write_checkpoint(path, checkpoint):
    """Write a checkpoint atomically (temp file + rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(f"search_id {checkpoint.search_id}\n")
        fh.write(f"completed {checkpoint.last_completed_hi}\n")
        for hit in checkpoint.hits:
            fh.write(f"{hit}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("search_id ") or not lines[1].startswith("completed "):
        raise ValueError(f"malformed checkpoint file {path}")
    search_id = lines[0][len("search_id ") :]
    completed = int(lines[1].split()[1])
    hits = tuple(int(line) for line in lines[2:] if line)
    return SearchCheckpoint(search_id, completed, hits)
