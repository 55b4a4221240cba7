"""Toolkit for the iterated map g(n) = n + phi(n): the Diophantine equation
phi(n) + phi(n + phi(n)) = n, segmented totient searches, and orbit
relations g_{k+r}(n) = M * g_k(n)."""

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
from .diophantine import (
    ExoticWitness,
    InternalInconsistencyError,
    ProofTrace,
    SolutionClass,
    SolutionKind,
    TraceCase,
    brute_force_solutions,
    case_trace,
    classify,
    classify_range,
    exotic_prime_search,
    family_members,
    is_solution,
    relaxed_search,
    theorem_mismatches,
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
from .sieve import (
    SearchCheckpoint,
    SieveSegment,
    base_primes,
    primes_in_class,
    read_checkpoint,
    sieve_segment,
    totient_progression,
    write_checkpoint,
)

__version__ = "0.1.0"
