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


class SieveRangeError(ValueError):
    """Range bounds outside what the sieve supports."""


class SegmentTooLargeError(ValueError):
    """Requested segment exceeds the configured size bound."""


def base_primes(limit):
    """All primes <= limit, ascending, as an int64 array."""
    if limit < 2:
        raise SieveRangeError(f"base_primes needs limit >= 2, got {limit}")
    if limit > MAX_SIEVE_VALUE:
        raise SieveRangeError(f"limit {limit} above supported maximum")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


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


def sieve_segment(lo, hi, max_size=DEFAULT_SEGMENT_SIZE):
    """Exact phi array for every integer in [lo, hi)."""
    _check_range(lo, hi, max_size)
    return SieveSegment(lo, hi, totient_progression(lo, hi, 0, 1)[1])


def primes_in_class(lo, hi, residue, modulus):
    """All primes p in [lo, hi) with p congruent to residue mod modulus."""
    if modulus < 1 or not 0 <= residue < modulus:
        raise ValueError(f"invalid residue class {residue} mod {modulus}")
    _check_range(max(lo, 2), max(hi, 3))
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(hi - lo, dtype=bool)
    root = math.isqrt(hi - 1)
    if root >= 2:
        for p in base_primes(root).tolist():
            first = max(p * p, ((lo + p - 1) // p) * p)
            if first < hi:
                flags[first - lo :: p] = False
    primes = lo + np.flatnonzero(flags)
    return primes[primes % modulus == residue]


def totient_progression(lo, hi, residue, modulus):
    """Totients of every value v in [lo, hi) with v = residue (mod modulus).

    Requires gcd(residue, modulus) = 1 so the progression avoids the primes
    dividing the modulus entirely; array index j holds phi(first + modulus*j).
    Returns (first, phi).

    Bays & Hudson's progression sieve (BIT 1977) without division in the
    loop: each prime power p^e multiplies phi by p - 1 or p and the smooth
    part acc by p; v // acc is then 1 or v's one prime factor above sqrt(hi).
    Small prime powers, which touch most cache lines, and the final division
    run block by block in cache; larger ones sweep the whole range at once.
    """
    if modulus < 1 or math.gcd(residue, modulus) != 1:
        raise ValueError(f"residue {residue} not coprime to modulus {modulus}")
    if lo < 1 or hi <= lo or hi > MAX_SIEVE_VALUE:
        raise SieveRangeError(f"bad progression range [{lo}, {hi})")
    first = lo + (residue - lo) % modulus
    if first >= hi:
        return first, np.empty(0, dtype=np.int64)
    count = (hi - first + modulus - 1) // modulus
    top = first + modulus * (count - 1)
    phi = np.ones(count, dtype=np.int64)
    acc = np.ones(count, dtype=np.int64)
    dense = []  # (p^e, first index it divides, phi factor, p), run per block
    root = math.isqrt(hi - 1)
    # below 4 the prime 2 is surplus, and harmless: acc holds exact p-parts
    for p in base_primes(max(root, 2)).tolist():
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
    for b0 in range(0, count, _BLOCK):
        block_phi, block_acc = phi[b0 : b0 + _BLOCK], acc[b0 : b0 + _BLOCK]
        for pe, j0, factor, p in dense:
            block_phi[(j0 - b0) % pe :: pe] *= factor
            block_acc[(j0 - b0) % pe :: pe] *= p
        rem = (first + modulus * np.arange(b0, b0 + block_phi.size, dtype=np.int64)) // block_acc - 1
        np.multiply(block_phi, rem, out=block_phi, where=rem > 0)
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
