"""Command-line front end: every search and verification as a reproducible
subcommand with machine-readable output.

Data records go to stdout, one JSON object per line (or CSV rows with
--format csv).  Progress and the run summary's timing stay off the data
stream where they would break byte-for-byte reproducibility: JSON mode
appends one summary line whose only nondeterministic field is elapsed_ms,
CSV mode sends the summary to stderr.

Exit codes: 0 success, 1 verification failure or search inconsistency,
2 usage or parameter error, including a limit whose tables cannot be allocated
and a search worker that died (the out-of-memory killer is the likely cause).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor

from . import arith, diophantine, orbits
from .diophantine import MAX_JOBS, SolutionKind
from .sieve import DEFAULT_SEGMENT_SIZE, SegmentTooLargeError, SieveRangeError

JOBS_ENV_VAR = "GPHI_JOBS"


def resolve_jobs(jobs):
    """Worker count from --jobs, else GPHI_JOBS, else 1; ValueError unless it
    is an integer in [1, MAX_JOBS]."""
    source = "--jobs" if jobs is not None else JOBS_ENV_VAR
    raw = jobs if jobs is not None else os.environ.get(JOBS_ENV_VAR) or "1"
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_JOBS:
        raise ValueError(f"{source} must be an integer from 1 to {MAX_JOBS}, got {raw!r}")
    return value


def _relation_record(rel):
    return {
        "n": rel.n,
        "k0": rel.k0,
        "r": rel.r,
        "multiplier": rel.multiplier,
        "verified_to_k": rel.verified_to_k,
        "persistent": rel.persistent.value,
        "related_r": rel.related_r,
    }


def _classify_record(n, cls):
    return {"n": n, "kind": cls.kind.value, "ell": cls.ell, "exotic_m": cls.exotic_m}


def _cmd_solutions(args):
    records = []
    code = 0
    if args.method == "brute":
        records = [{"n": n} for n in diophantine.brute_force_solutions(args.limit)]
    elif args.method == "classify":
        records = [_classify_record(n, cls) for n, cls in diophantine.classify_range(args.limit).items()]
    else:
        for n, brute, cls in diophantine.oracle_comparison(args.limit):
            classified = cls.kind is not SolutionKind.NOT_SOLUTION
            records.append({**_classify_record(n, cls), "brute": brute, "classified": classified})
        code = int(any(r["brute"] != r["classified"] for r in records))
    return records, code, []


def _cmd_verify_theorem(args):
    rows = list(diophantine.oracle_comparison(args.limit))
    records = [
        {"n": n, "brute": diophantine.is_solution(n), "classified": not brute, "kind": cls.kind.value}
        for n, brute, cls in rows
        if brute != (cls.kind is not SolutionKind.NOT_SOLUTION)
    ]
    n_solutions = sum(brute for _, brute, _ in rows)
    notes = [f"solutions={n_solutions}", f"mismatches={len(records)}"]
    return records, (1 if records else 0), notes


def _cmd_search_exotic(args):
    def progress(seg_lo, seg_hi, seg_hits):
        print(f"segment [{seg_lo}, {seg_hi}) done, hits={seg_hits}", file=sys.stderr)

    witnesses = diophantine.exotic_prime_search(
        args.lo,
        args.hi,
        segment_size=args.segment_size,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        progress=progress if args.progress else None,
    )
    records = [{"m": w.m, "p": w.p, "q": w.q} for w in witnesses]
    return records, 0, []


def _cmd_search_relaxed(args):
    return [{"n": n} for n in diophantine.relaxed_search(args.limit)], 0, []


def _cmd_orbit(args):
    successors = {}
    relations = orbits.detect_relations(args.n, args.kmax, args.rmax, successors=successors)
    notes = []
    orbit = arith.iterate_g(args.n, args.kmax, successors=successors)
    if orbit.truncated:
        notes.append(f"orbit truncated at k={orbit.last_valid_k} (width limit)")
    return [_relation_record(rel) for rel in relations], 0, notes


def _cmd_scan_orbits(args):
    relations = orbits.scan_orbits(args.limit, args.kmax, args.rmax)
    return [_relation_record(rel) for rel in relations], 0, []


def _cmd_families(args):
    kinds = [SolutionKind(args.kind)] if args.kind else diophantine.FAMILIES
    records = [
        {"kind": kind.value, "ell": arith.v2(n), "n": n}
        for kind in kinds
        for n in diophantine.family_members(kind, args.max_exponent, m=args.m)
    ]
    return records, 0, []


def _cmd_trace(args):
    trace = diophantine.case_trace(args.n)
    record = {
        "n": args.n,
        "ell1": trace.ell1,
        "ell2": trace.ell2,
        "case": trace.case.value,
        "p": trace.p,
        "alpha": trace.alpha,
        "k": trace.k,
        "q": trace.q,
        "phi_q_check": trace.phi_q_check,
    }
    return [record], 0, []


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="gphi",
        description="Searches and verifications for the iterated map g(n) = n + phi(n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solutions", parents=[common], help="solutions of phi(n) + phi(n + phi(n)) = n")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--method", choices=("brute", "classify", "both"), default="both")
    p.set_defaults(handler=_cmd_solutions)

    p = sub.add_parser("verify-theorem", parents=[common], help="oracle vs classifier equivalence sweep")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cmd_verify_theorem)

    p = sub.add_parser("search-exotic", parents=[common], help="search primes p = 8m+7 with phi(6m+5) = 4m+4")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE)
    p.add_argument("--jobs", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--progress", action="store_true", help="per-segment progress on stderr")
    p.set_defaults(handler=_cmd_search_exotic)

    p = sub.add_parser("search-relaxed", parents=[common], help="solutions of 3*phi(n) = 2n + 2")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cmd_search_relaxed)

    p = sub.add_parser("orbit", parents=[common], help="orbit relations for a single n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=orbits.DEFAULT_K_MAX)
    p.add_argument("--rmax", type=int, default=25)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("scan-orbits", parents=[common], help="orbit relations for all n up to a limit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--kmax", type=int, default=orbits.DEFAULT_K_MAX)
    p.add_argument("--rmax", type=int, default=9)
    p.add_argument("--jobs", default=None, help="validated and echoed; the scan runs in one process")
    p.set_defaults(handler=_cmd_scan_orbits)

    p = sub.add_parser("families", parents=[common], help="members of the known solution families")
    p.add_argument("--max-exponent", type=int, default=10)
    p.add_argument("--kind", choices=[k.value for k in SolutionKind if k is not SolutionKind.NOT_SOLUTION])
    p.add_argument("--m", type=int, default=None, help="parameter m for exotic kinds")
    p.set_defaults(handler=_cmd_families)

    p = sub.add_parser("trace", parents=[common], help="structural witness data for one solution")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_trace)

    return parser


def _emit(records, summary, fmt, out):
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record) + "\n")
        out.write(json.dumps(summary) + "\n")
    else:
        if records:
            writer = csv.DictWriter(out, fieldnames=list(records[0].keys()))
            writer.writeheader()
            writer.writerows(records)
        print(json.dumps(summary), file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        if hasattr(args, "jobs"):
            args.jobs = resolve_jobs(args.jobs)
        records, code, notes = args.handler(args)
    except (diophantine.InternalInconsistencyError,) as exc:
        print(f"error: inconsistency: {exc}", file=sys.stderr)
        return 1
    except (ValueError, SieveRangeError, SegmentTooLargeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except BrokenExecutor:
        print("error: a worker process died; a --checkpoint keeps the segments finished before it",
              file=sys.stderr)
        return 2
    elapsed_ms = int((time.monotonic() - started) * 1000)
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "command", "format") and not callable(value)
    }
    summary = {
        "record": "summary",
        "command": args.command,
        "parameters": parameters,
        "count": len(records),
        "truncations": notes,
        "exit_code": code,
        "elapsed_ms": elapsed_ms,
    }
    _emit(records, summary, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
