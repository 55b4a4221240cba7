"""The equation phi(n) + phi(n + phi(n)) = n in scalar arithmetic: the test
of one n, the known solution shapes and classify, their one reader, the
members of each family, and the structural witness of a solution.

Nothing here needs numpy, so the package, orbits and the scalar commands
load this module without the bulk sieves; diophantine, which classifies
and searches in bulk, imports only the names it reads.

A solution's kind (SolutionKind) and a trace's case (TraceCase) are
ValueEnums: each member is the string of its value, so records hold them
as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import NATURAL_BITS, ValueEnum, _check_natural, euler_phi, factorize, is_prime, v2


class InternalInconsistencyError(RuntimeError):
    """A structural match passed form checks but failed the defining equation."""


def is_solution(n):
    """True iff phi(n) + phi(n + phi(n)) = n; euler_phi checks n."""
    tot = euler_phi(n)
    return tot + euler_phi(n + tot) == n


class SolutionKind(ValueEnum):
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

# The exotic shapes, kind -> (a, b): odd parts a*m + b with _is_exotic(m), ell >= 1.
_EXOTIC_SHAPES = {SolutionKind.EXOTIC_A: (8, 7), SolutionKind.EXOTIC_B: (6, 5)}


def _is_exotic(m):
    """p = 8m+7 is prime and phi(6m+5) = 4m+4: the scalar reference of its
    two vectorized forms, diophantine._exotic_segment on a range of p and
    diophantine._exotic_hits on the search tree of companions 6m+5."""
    return is_prime(8 * m + 7) and euler_phi(6 * m + 5) == 4 * m + 4


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
    against the defining equation before it is returned; v2 checks n.
    """
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


def family_members(kind, ell_max, m=None):
    """Members 2^ell * q of one solution family, from its least ell up to
    ell_max, each re-confirmed as a solution (so an exotic kind's m must
    satisfy _is_exotic, and only an exotic kind takes m); ValueError first
    if one passes NATURAL_BITS bits."""
    if ell_max < 1:
        raise ValueError("ell_max must be positive")
    if kind in FAMILIES:
        if m is not None:
            raise ValueError(f"m is a parameter of the exotic kinds only, not of {kind.value}")
        q, start = FAMILIES[kind]
    elif kind in _EXOTIC_SHAPES:
        if m is None:
            raise ValueError("exotic families require the parameter m")
        a, b = _EXOTIC_SHAPES[kind]
        q, start = a * m + b, 1
    else:
        raise ValueError(f"no family for kind {kind!r}")
    if q.bit_length() + ell_max > NATURAL_BITS:
        raise ValueError(f"member {q} * 2^{ell_max} is past the {NATURAL_BITS}-bit width")
    if kind in _EXOTIC_SHAPES and not _is_exotic(m):
        raise ValueError(f"m={m} is not exotic: needs 8m+7 prime and phi(6m+5) = 4m+4")
    members = [q << ell for ell in range(start, ell_max + 1)]
    for candidate in members:
        if not is_solution(candidate):
            raise InternalInconsistencyError(f"{candidate} is not a solution")
    return members


class TraceCase(ValueEnum):
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
    _check_natural(n)
    if n.bit_length() > NATURAL_BITS:
        raise ValueError(f"n = {n} is past the {NATURAL_BITS}-bit width")
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
