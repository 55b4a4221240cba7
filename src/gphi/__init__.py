"""Toolkit for the iterated map g(n) = n + phi(n): the Diophantine equation
phi(n) + phi(n + phi(n)) = n, segmented totient searches, and orbit
relations g_{k+r}(n) = M * g_k(n).

The scalar modules (arith, equation with classify, orbits) are imported
with the package.  The names of the bulk modules, diophantine and sieve,
which need numpy, are served on first use by __getattr__ and never stored
here, so that a name read while a tracer has rebound it in its module is
not kept afterwards."""

import importlib

from .arith import (
    Factorization,
    LemmaKind,
    LemmaVerdict,
    NaturalOverflowError,
    Orbit,
    euler_phi,
    factorize,
    g,
    is_prime,
    iterate_g,
    lemma_predicate,
    odd_part,
    v2,
)
from .equation import (
    InternalInconsistencyError,
    ProofTrace,
    SolutionClass,
    SolutionKind,
    TraceCase,
    case_trace,
    classify,
    family_members,
    is_solution,
)
from .orbits import (
    OrbitRelation,
    Persistence,
    PersistenceResult,
    detect_relations,
    doubling_persistence,
    reduce_to_diophantine,
    scan_orbits,
)

__version__ = "0.1.0"

# Exported name -> the bulk module that defines it.
_BULK = {
    **dict.fromkeys(
        (
            "ExoticWitness",
            "brute_force_solutions",
            "classify_range",
            "exotic_prime_search",
            "relaxed_search",
        ),
        "diophantine",
    ),
    **dict.fromkeys(
        (
            "SearchCheckpoint",
            "SieveSegment",
            "base_primes",
            "primes_in_class",
            "read_checkpoint",
            "sieve_segment",
            "totient_progression",
            "write_checkpoint",
        ),
        "sieve",
    ),
}


def __getattr__(name):
    if name not in _BULK:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_BULK[name]}"), name)


def __dir__():
    return sorted({*globals(), *_BULK})
