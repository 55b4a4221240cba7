"""Orbit relations of the totient-increment map: detection of
g_{k+r}(n) = M * g_k(n), persistence certificates for power-of-2
multipliers, and the reduction of the r = 2 case to the Diophantine
equation phi(m) + phi(m + phi(m)) = m.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import _check_natural, NaturalOverflowError, iterate_g
from .equation import is_solution

DEFAULT_K_MAX = 64
# Default largest shift r of detect_relations (orbit) and of scan_orbits.
DEFAULT_R_MAX = 25
DEFAULT_SCAN_R_MAX = 9


class Persistence(Enum):
    # Proven forever only where _doubling_refusal finds no reason to refuse;
    # anything else is claimed only as far as verified.
    PROVEN_FOREVER = "proven_forever"
    VERIFIED_ONLY = "verified_only"


@dataclass(frozen=True)
class OrbitRelation:
    """g_{k+r}(n) = multiplier * g_k(n) for all k in [k0, verified_to_k]."""

    n: int
    k0: int
    r: int
    multiplier: int
    verified_to_k: int
    persistent: Persistence
    related_r: int = None


def _doubling_refusal(anchor, multiplier):
    """Why phi(2m) = 2 phi(m) cannot carry g_{k+r} = multiplier * g_k forward
    from the anchor value g_k, or None when it can.  It can when the
    multiplier (>= 2) is 2^s and the anchor x is even: then g(2^s x) =
    2^s g(x), and g(x) is even again, so the relation holds for every later
    k.  (x = 2 never anchors one: its orbit 3, 5, 9, ... stays odd.)"""
    if multiplier & (multiplier - 1):
        return f"multiplier {multiplier} not a power of 2"
    if anchor % 2:
        return f"anchor value {anchor} is odd"
    return None


def detect_relations(n, k_max=DEFAULT_K_MAX, r_max=DEFAULT_R_MAX, successors=None):
    """Detect every shift r <= r_max whose ratio g_{k+r}/g_k is a fixed
    integer >= 2 from some minimal k0 through the end of the computed orbit.

    When a shift is a multiple of a smaller detected shift with the matching
    multiplier power, both are reported and the larger carries related_r.
    successors is passed on to iterate_g.
    """
    _check_natural(n)
    if not 1 <= r_max <= k_max:
        raise ValueError(f"need k_max >= r_max >= 1, got k_max={k_max} r_max={r_max}")
    values = iterate_g(n, k_max, successors=successors).values
    top = len(values) - 1
    relations = []
    by_r = {}
    for r in range(1, min(r_max, top) + 1):  # past top no pair of values is r apart
        last = top - r
        quot, rem = divmod(values[last + r], values[last])
        if rem or quot < 2:
            continue
        k0 = last
        while k0 > 0 and values[k0 - 1 + r] == quot * values[k0 - 1]:
            k0 -= 1
        proven = _doubling_refusal(values[k0], quot) is None
        related = None
        for r0, m0 in by_r.items():
            if r % r0 == 0 and m0 ** (r // r0) == quot:
                related = r0
                break
        relations.append(
            OrbitRelation(
                n,
                k0,
                r,
                quot,
                last,
                Persistence.PROVEN_FOREVER if proven else Persistence.VERIFIED_ONLY,
                related,
            )
        )
        by_r[r] = quot
    return relations


@dataclass(frozen=True)
class PersistenceResult:
    """Outcome of the doubling-law persistence check for one (n, k0, r)."""

    n: int
    k0: int
    r: int
    proven: bool
    multiplier: int = None
    power_of_two_exponent: int = None
    reason: str = None


def doubling_persistence(n, k0, r):
    """Certify g_{k+r}(n) = 2^s * g_k(n) for all k >= k0, or refuse with the
    reason of _doubling_refusal, the certificate detect_relations also uses.
    """
    _check_natural(n)
    if k0 < 0 or r < 1:
        raise ValueError("need k0 >= 0 and r >= 1")
    orbit = iterate_g(n, k0 + r)
    if orbit.truncated:
        raise NaturalOverflowError(f"orbit of {n} overflows before k = {k0 + r}")
    anchor = orbit.values[k0]
    target = orbit.values[k0 + r]
    quot, rem = divmod(target, anchor)
    if rem or quot < 2:
        return PersistenceResult(n, k0, r, False, reason="no integer multiplier >= 2")
    reason = _doubling_refusal(anchor, quot)
    if reason:
        return PersistenceResult(n, k0, r, False, multiplier=quot, reason=reason)
    return PersistenceResult(n, k0, r, True, multiplier=quot, power_of_two_exponent=quot.bit_length() - 1)


def reduce_to_diophantine(n, k_max):
    """Least k <= k_max with m = g_k(n) solving phi(m) + phi(m + phi(m)) = m.

    Returns (k, m) or None.  Such an m is exactly a value with g(g(m)) = 2m:
    the orbit's r = 2 doubling at k, which _doubling_refusal certifies.
    """
    _check_natural(n)
    if k_max < 1:
        raise ValueError("k_max must be positive")
    for k, m in enumerate(iterate_g(n, k_max).values):
        if is_solution(m):
            return k, m
    return None


def scan_orbits(limit, k_max=DEFAULT_K_MAX, r_max=DEFAULT_SCAN_R_MAX):
    """detect_relations over every n <= limit, streamed in ascending n.

    Orbits of different n merge, so one successor map, kept for this call
    only, lets each value be factored once.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    successors = {}
    for n in range(2, limit + 1):
        yield from detect_relations(n, k_max, r_max, successors=successors)
