"""Segmented bulk sieves: totients along arithmetic progressions (a whole
range is the modulus-1 case), primes in arithmetic progressions, and
line-based checkpoints for long searches.

A segment's result depends only on its bounds, so a search that runs its
segments in ascending range order finds the same hits however it splits
its range.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .limits import DEFAULT_SEGMENT_SIZE

# int64 headroom: phi and the smooth-part accumulator acc of a value never
# exceed the value, so the values themselves are the only magnitude constraint.
MAX_SIEVE_VALUE = 1 << 62

_BLOCK = 1 << 16  # members per _finish of the sweep, and per modulus test batch of _totients_at
# A prime striking fewer members than this costs more in interpreter overhead
# than in its strided write; such primes go through one vectorized pass.
_STRIDED_HITS = 64
_SPARSE_BATCH = 1 << 14  # strikes expanded at once by the sparse pass
# Sparse primes taken at once: their per-prime arrays (about 48 bytes each)
# stay bounded however high the window lies.
_SPARSE_CHUNK = 1 << 14
# Values per window of the full-range sweep (sweep_windows) and of a base-prime
# build (_primes_to).  Under tracemalloc the relaxed phi scan to 10^7 peaks at
# 2.3 MiB and base_primes(10^7) at 0.62 bytes per value (0.83 at 2^20 values).
# At 2^20 the scan takes as long to 10^7, and 2.7 s of CPU, not 2.9, to 10^8.
_SWEEP_WINDOW = 1 << 18


# The wheel (Pritchard, "Explaining the wheel sieve", Acta Informatica 1982):
# for each residue r mod _WHEEL, the phi and acc factors of the prime powers
# dividing _WHEEL that divide r, so of every v = r (mod _WHEEL).  The sweep
# starts from these tables and strikes only the prime powers not dividing
# _WHEEL: 16, 27, 25, 49 and every power of a prime above 7.
_WHEEL = 2 ** 3 * 3 ** 2 * 5 * 7
_WHEEL_PRIMES = (2, 3, 5, 7)


def _wheel_tables():
    r = np.arange(_WHEEL, dtype=np.int64)
    phi = np.ones(_WHEEL, dtype=np.int64)
    acc = np.ones(_WHEEL, dtype=np.int64)
    for p in _WHEEL_PRIMES:
        pe = p
        while _WHEEL % pe == 0:
            hit = r % pe == 0
            phi[hit] *= p - 1 if pe == p else p
            acc[hit] *= p
            pe *= p
    return phi, acc


_WHEEL_PHI, _WHEEL_ACC = _wheel_tables()


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


# The largest base primes built so far, (bound, every prime <= bound, buffer):
# the primes are a read-only view of the start of the buffer, whose spare
# capacity takes the primes of later extensions in place.  One tuple,
# replaced in one statement, so no reader sees a bound without its array.
_cache = (1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _primes_to(limit):
    """The primes <= limit, read-only, sliced from _cache after extending it
    to limit if limit is above its bound.  The extension sieves the values
    past the bound _SWEEP_WINDOW at a time, so a build holds one flag per
    value of a window, not of the whole range; a window ends below the
    square of the bound before it, so its own base primes are all cached.
    Each window's primes are written past the cached ones, into a buffer
    that, when it must grow, at least doubles and takes pi(limit) < limit /
    (ln limit - 3/2) primes (Rosser & Schoenfeld, Illinois J. Math. 1962,
    for limit > e^1.5; below, the bound is negative and the count rules),
    so a cold build allocates once and a slowly rising bound copies the
    cache only now and then.  _sieve_class takes its base primes here, not
    from the public base_primes, so that a cold and a warm cache give the
    same base_primes call counts."""
    global _cache
    bound, primes, buffer = _cache
    while bound < limit:
        hi = min(bound + 1 + _SWEEP_WINDOW, (bound + 1) ** 2, limit + 1)
        new = _sieve_class(bound + 1, hi, 0, 1)
        count = primes.size + new.size
        if count > buffer.size:
            grown = np.empty(max(count, int(limit / (math.log(limit) - 1.5)), 2 * buffer.size), dtype=np.int64)
            grown[: primes.size] = primes
            buffer = grown
        buffer[primes.size : count] = new
        primes = buffer[:count]
        primes.flags.writeable = False
        bound = hi - 1
        _cache = (bound, primes, buffer)
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def _progression(lo, hi, residue, modulus):
    """(first, count): the least v >= lo with v = residue (mod modulus), and the members in [lo, hi)."""
    first = lo + (residue - lo) % modulus
    return first, max(0, (hi - first + modulus - 1) // modulus)


def _first_index(first, modulus, d):
    """The strike rule: the least j >= 0 with d | first + modulus*j, for d coprime to the modulus."""
    return -first * pow(modulus, -1, d) % d


def _sparse_split(primes, count, modulus):
    """Index of the first sparse prime in the ascending primes: from there on
    each p strikes fewer than _STRIDED_HITS of count members and exceeds the
    modulus, so it is coprime to the modulus and below 2^31.  It also
    exceeds 7: the sweep presets the primes of the wheel, and _strike would
    apply their full exponent again."""
    floor = max(count // _STRIDED_HITS, modulus, _WHEEL_PRIMES[-1])
    return int(np.searchsorted(primes, floor, side="right"))


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


def _sparse_strikes(first, modulus, count, primes):
    """Batches (j, p) of equal-length arrays: every index j < count whose
    member first + modulus*j is a multiple of p, for each p in primes, all
    from a _sparse_split tail.  The first index of p is _first_index(first,
    modulus, p), here vectorized over the primes from residues below 2^31,
    so products stay below 2^62.  Primes are taken _SPARSE_CHUNK at a time."""
    for c0 in range(0, primes.size, _SPARSE_CHUNK):
        chunk = primes[c0 : c0 + _SPARSE_CHUNK]
        j0 = (-first) % chunk * _inverses(modulus, chunk) % chunk
        hits = np.maximum(0, (count - j0 + chunk - 1) // chunk)
        keep = hits > 0
        chunk, j0, hits = chunk[keep], j0[keep], hits[keep]
        if chunk.size == 0:
            continue
        ends = np.cumsum(hits)
        cuts = np.searchsorted(ends, np.arange(_SPARSE_BATCH, int(ends[-1]), _SPARSE_BATCH), side="right")
        edges = [0, *cuts.tolist(), chunk.size]
        for a, b in zip(edges, edges[1:]):
            if a == b:  # only with a batch smaller than one prime's strikes
                continue
            p, j, n = chunk[a:b], j0[a:b], hits[a:b]
            ps = np.repeat(p, n)
            step = ps.copy()
            last = j + (n - 1) * p
            # each run of p starts by jumping from the previous run's last index
            step[np.cumsum(n) - n] = j - np.concatenate(([0], last[:-1]))
            yield np.cumsum(step, out=step), ps


def _sieve_class(lo, hi, residue, modulus):
    """Primes p = residue (mod modulus) in [lo, hi), lo >= 2, gcd(residue,
    modulus) = 1, ascending, from one flag per member of the class.  Each
    base prime p, from the cache of _primes_to (itself filled by this
    sieve), strikes its multiples in the class from the first, by the rule
    of totient_progression.  A composite member has a prime factor at most
    sqrt(hi), none dividing the modulus, so it is struck; a prime member is
    struck only as a base prime, by itself, and the base primes of the
    window and class (none above the first window) are marked again.

    Base primes come in the two tiers of totient_progression.  Strided: each
    p up to the _sparse_split point not dividing the modulus writes every
    p-th member in one slice.  Sparse: all larger p, which strike fewer than
    _STRIDED_HITS members each, are struck together by _sparse_strikes."""
    first, count = _progression(lo, hi, residue, modulus)
    flags = np.ones(count, dtype=bool)
    primes = _primes_to(math.isqrt(first + modulus * (count - 1)) if count else 0)
    split = _sparse_split(primes, count, modulus)
    for p in primes[:split].tolist():
        if modulus % p:
            flags[_first_index(first, modulus, p) :: p] = False
    for j, _ in _sparse_strikes(first, modulus, count, primes[split:]):
        flags[j] = False  # a repeated index strikes the same flag again
    own = primes[int(np.searchsorted(primes, first)) :]
    flags[(own[own % modulus == residue] - first) // modulus] = True
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
    """Exact phi array, in sweep_dtype(hi - 1), for every integer in [lo, hi), at most DEFAULT_SEGMENT_SIZE."""
    _check_range(lo, hi, DEFAULT_SEGMENT_SIZE)
    return SieveSegment(lo, hi, totient_progression(lo, hi, 0, 1)[1])


def sweep_dtype(top):
    """The dtype of the full-range sweep up to top: int32 below 2^31, else
    int64.  Exact: every number the sweep holds for a member v (phi, acc,
    each partial product, v // acc) is at most v (see _finish)."""
    return np.dtype(np.int32 if top < 2**31 else np.int64)


def sweep_windows(lo, hi):
    """(a, sieve_segment(a, b).phi) for the _SWEEP_WINDOW-value windows [a, b) tiling [lo, hi)."""
    for a in range(lo, hi, _SWEEP_WINDOW):
        yield a, sieve_segment(a, min(a + _SWEEP_WINDOW, hi)).phi


def primes_in_class(lo, hi, residue, modulus):
    """All primes p = residue (mod modulus) in [lo, hi), gcd(residue, modulus)
    = 1 as in totient_progression; base primes come from base_primes' cache."""
    if modulus < 1 or not 0 <= residue < modulus or math.gcd(residue, modulus) != 1:
        raise ValueError(f"residue class {residue} mod {modulus} is not a coprime class")
    _check_range(max(lo, 2), max(hi, 3))
    return _sieve_class(max(lo, 2), hi, residue, modulus)


def totient_progression(lo, hi, residue, modulus, at=None):
    """Totients of every value v in [lo, hi) with v = residue (mod modulus).

    Requires gcd(residue, modulus) = 1 so the progression avoids the primes
    dividing the modulus entirely; array index j holds phi(first + modulus*j).
    Returns (first, phi).  The base primes up to sqrt(hi - 1) come from
    base_primes, a slice of its cache, even when no member is asked for.

    With at, an ascending array of such indices, phi holds the totients of
    those members only, in that order, and no array is sized by the whole
    progression but one flag per member (see _totients_at); the exotic
    search asks for a few hundred of a segment's 2^18 companions.

    Bays & Hudson's progression sieve (BIT 1977) without division in the
    loop: each prime power p^e multiplies phi by p - 1 or p and the smooth
    part acc by p; v // acc is then 1 or v's one prime factor above sqrt(hi).
    phi and acc start from the wheel of period _WHEEL = 2520 (Pritchard,
    Acta Informatica 1982), which holds the factors of 2, 4, 8, 3, 9, 5 and
    7; the other prime powers come in two tiers by how many members they
    hit.  Strided: each power of a prime up to the _sparse_split point
    writes one slice over the window, from its _first_index.  Sparse
    primes, each above 7 and hitting fewer than _STRIDED_HITS members, are
    applied together from _sparse_strikes by _strike, since two sparse
    primes may divide one value.  The final division over every member
    (_finish, unmasked) runs _BLOCK members at a time.

    The sweep works, and returns phi, in sweep_dtype(top) of its top member;
    a window peaks at about 8.3-8.9 bytes per value in int32 and 17 in int64.
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
    primes = base_primes(max(math.isqrt(hi - 1), 2))
    if count == 0 or at is not None and at.size == 0:
        return first, np.empty(0, dtype=np.int64)
    split = _sparse_split(primes, count, modulus)
    if at is not None:
        return first, _totients_at(first, modulus, count, at, primes, split)
    top = first + modulus * (count - 1)
    dtype = sweep_dtype(top)
    # The wheel's factors repeat with period _WHEEL in j: gather them once
    # and tile them over the progression.
    j = np.arange(min(count, _WHEEL), dtype=np.int64)
    residues = (first % _WHEEL + modulus % _WHEEL * j) % _WHEEL
    phi = np.resize(_WHEEL_PHI.astype(dtype)[residues], count)
    acc = np.resize(_WHEEL_ACC.astype(dtype)[residues], count)
    for p in primes[:split].tolist():
        pe = p
        while pe <= top and modulus % p:
            if _WHEEL % pe:  # the wheel presets the others
                j0 = _first_index(first, modulus, pe)
                if j0 >= count:
                    break
                phi[j0::pe] *= p - 1 if pe == p else p
                acc[j0::pe] *= p
            pe *= p
    for j, p in _sparse_strikes(first, modulus, count, primes[split:]):
        _strike(phi, acc, j, first + modulus * j, p)
    for b0 in range(0, count, _BLOCK):
        b1 = min(b0 + _BLOCK, count)
        _finish(phi[b0:b1], acc[b0:b1], np.arange(first + modulus * b0, first + modulus * b1, modulus, dtype=dtype))
    return first, phi


def _finish(phi, acc, v):
    """phi *= q - 1 where v // acc is a prime q, the one factor of v above
    sqrt(hi) the strikes left; v // acc = 1 leaves phi as it is, so the
    multiply needs no mask.  v is overwritten.  Nothing here outgrows v:
    acc is a product of prime powers dividing v, so it divides v; phi is at
    most acc before and at most v after, and v // acc - 1 < v.  So any
    dtype that holds v holds them all, int32 included."""
    v //= acc
    v -= 1
    phi *= np.maximum(v, 1, out=v)


def _strike(phi, acc, i, v, p):
    """For each strike k, the prime p[k] dividing the value v[k] at index
    i[k]: phi[i] *= (p - 1) * p^(e-1) and acc[i] *= p^e, e found by dividing
    v by p while it divides.  np.multiply.at, since an index may repeat; p
    takes the dtype of phi, as ufunc.at is slow on a mix of dtypes."""
    p = p.astype(phi.dtype, copy=False)
    np.multiply.at(phi, i, p - 1)
    np.multiply.at(acc, i, p)
    rest = v // p
    while (more := np.flatnonzero(rest % p == 0)).size:  # p^2, p^3, ... divide these
        i, p = i[more], p[more]
        rest = rest[more] // p
        np.multiply.at(phi, i, p)
        np.multiply.at(acc, i, p)


def _totients_at(first, modulus, count, at, primes, split):
    """phi at the members first + modulus*j, j in at, of count: the at path of
    totient_progression, whose arrays are sized by at.  The base primes
    before split are found by one modulus test of every read member against
    all of them, _BLOCK tests at a time; the sparse rest come from
    _sparse_strikes over the whole progression, of which only the strikes
    on read members are kept (a flag per member marks them, and their
    places in at come from a binary search).  Both go through _strike, so
    the two tiers and the final division are those of the sweep."""
    v = first + modulus * at
    phi = np.ones(at.size, dtype=np.int64)
    acc = np.ones(at.size, dtype=np.int64)
    small = primes[:split]
    rows = max(1, _BLOCK // max(small.size, 1))
    for r0 in range(0, at.size, rows):
        i, k = np.nonzero(v[r0 : r0 + rows, None] % small == 0)
        i += r0
        _strike(phi, acc, i, v[i], small[k])
    read = np.zeros(count, dtype=bool)
    read[at] = True
    for j, p in _sparse_strikes(first, modulus, count, primes[split:]):
        keep = read[j]
        i = np.searchsorted(at, j[keep])
        _strike(phi, acc, i, v[i], p[keep])
    _finish(phi, acc, v)
    return phi


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
    """Write a checkpoint atomically and durably: the temp file is synced,
    renamed over path, and then its directory is synced, so a crash after
    the rename cannot lose the file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(f"search_id {checkpoint.search_id}\n")
        fh.write(f"completed {checkpoint.last_completed_hi}\n")
        for hit in checkpoint.hits:
            fh.write(f"{hit}\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def read_checkpoint(path):
    """The checkpoint in the file at path.  A file that is not one, by its
    header, its text, its numbers or its hits, raises ValueError naming it."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if len(lines) < 2 or not lines[0].startswith("search_id ") or not lines[1].startswith("completed "):
            raise ValueError()
        search_id = lines[0][len("search_id ") :]
        completed = int(lines[1][len("completed ") :])
        hits = tuple(int(line) for line in lines[2:] if line)
        return SearchCheckpoint(search_id, completed, hits)
    except ValueError as exc:  # UnicodeDecodeError is one too
        reason = f": {exc}" if str(exc) else ""
        raise ValueError(f"malformed checkpoint file {path}{reason}") from exc
