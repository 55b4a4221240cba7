"""The benchmark's workloads: which gphi CLI job each one runs, at what size,
and how its output is checked.

Each workload is a real `gphi` subcommand with every option at its default
except the size and `--jobs`, so a later change of a default is measured the
way users meet it.  A check returns None for a correct output and a one-line
reason otherwise.  The checks import `gphi.arith` for scalar re-verification;
they run outside every timed region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

# Known solutions of phi(n) + phi(n + phi(n)) = n are 2^l * q with q = 1
# (l >= 2) or q in {3, 5, 7, 35, 47} (l >= 1); verified far past every limit
# used here, so the expected count follows from the limit alone.
_FAMILY_ODD_PARTS = {1: 2, 3: 1, 5: 1, 7: 1, 35: 1, 47: 1}

# Exotic hits (m, p, q) with p = 8m + 7 prime and phi(6m + 5) = 4m + 4:
# exactly m = 0 and m = 5 below 10^10.
_EXOTIC_HITS = ((0, 7, 5), (5, 47, 35))
EXOTIC_TOP = 10**10

# All n <= 2 * 10^7 with 3 * phi(n) = 2n + 2.
_RELAXED_HITS = (5, 35, 1295, 1679615)

# sha256 of the data records (every stdout line but the summary) of
# `scan-orbits --limit 400 --kmax 64 --rmax 25`, identical for --jobs 1 and 2.
_ORBITS_DIGEST = "4cc2eb091d8b41628a067d2a21ad0de868faddb06645f5639567a3a6e9e5fc08"
_ORBITS_RECORDS = 2318
_ORBITS_SAMPLE = 16

# Golden-ratio step of the Weyl sequence that spreads exotic windows evenly.
_GOLDEN = 0.6180339887498949

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: arguments after `gphi`, the output check, the
    number of values it covers and the checkpoint file it owns, if any."""

    argv: tuple
    check: Check
    values: int
    checkpoint: Optional[Path] = None


def _split_output(lines):
    """(data records, summary) from JSON-lines output, or raise ValueError."""
    if not lines:
        raise ValueError("no output")
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])
    if not isinstance(summary, dict) or summary.get("record") != "summary":
        raise ValueError("last line is not a summary record")
    if summary.get("count") != len(records):
        raise ValueError(f"summary count {summary.get('count')} != {len(records)} records")
    return records, summary


def _checked(body):
    """Wrap a check body with the exit-code and summary checks every job shares."""

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        try:
            lines = stdout.splitlines()
            records, summary = _split_output(lines)
            if summary.get("exit_code") != 0:
                return f"summary exit_code {summary.get('exit_code')}"
            return body(records, summary, lines)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            return f"unreadable output: {exc}"

    return check


def expected_solutions(limit):
    """Number of solutions n <= limit of the Diophantine equation."""
    count = 0
    for q, ell_min in _FAMILY_ODD_PARTS.items():
        ell = ell_min
        while q << ell <= limit:
            count += 1
            ell += 1
    return count


def check_theorem(limit):
    expected = [f"solutions={expected_solutions(limit)}", "mismatches=0"]

    def body(records, summary, _):
        if records:
            return f"{len(records)} mismatch records"
        if summary["truncations"] != expected:
            return f"notes {summary['truncations']} != {expected}"
        return None

    return _checked(body)


def check_exotic(lo, hi, checkpoint):
    from gphi.arith import euler_phi, is_prime

    expected = [{"m": m, "p": p, "q": q} for m, p, q in _EXOTIC_HITS if lo <= p < hi]

    def body(records, summary, _):
        if records != expected:
            return f"hits {records} != {expected}"
        for rec in records:
            m, p, q = rec["m"], rec["p"], rec["q"]
            if p != 8 * m + 7 or q != 6 * m + 5:
                return f"record {rec} has the wrong shape"
            if not is_prime(p) or euler_phi(q) != 4 * m + 4:
                return f"record {rec} fails the scalar re-check"
        lines = Path(checkpoint).read_text().splitlines()
        if lines[1] != f"completed {hi}":
            return f"checkpoint stops at {lines[1]!r}, not {hi}"
        return None

    return _checked(body)


def check_relaxed(limit):
    from gphi.arith import euler_phi

    expected = [{"n": n} for n in _RELAXED_HITS if n <= limit]

    def body(records, summary, _):
        if records != expected:
            return f"hits {records} != {expected}"
        for rec in records:
            n = rec["n"]
            if 3 * euler_phi(n) != 2 * n + 2:
                return f"hit {n} fails 3*phi(n) = 2n + 2"
        return None

    return _checked(body)


def verify_relation(rel, values):
    """None if the orbit prefix `values` bears out relation record `rel`."""
    k0, r, mult, last = rel["k0"], rel["r"], rel["multiplier"], rel["verified_to_k"]
    if last + r >= len(values):
        return f"relation {rel} reaches past the orbit"
    if any(values[k + r] != mult * values[k] for k in range(k0, last + 1)):
        return f"relation {rel} does not hold on the orbit"
    if k0 > 0 and values[k0 - 1 + r] == mult * values[k0 - 1]:
        return f"relation {rel} has a non-minimal onset"
    return None


def check_orbits(kmax, seed):
    from gphi.arith import iterate_g

    def body(records, summary, lines):
        data = "".join(line + "\n" for line in lines[:-1])
        digest = hashlib.sha256(data.encode()).hexdigest()
        if len(records) != _ORBITS_RECORDS or digest != _ORBITS_DIGEST:
            return f"{len(records)} records with digest {digest[:12]}, not the reference"
        for rel in random.Random(seed).sample(records, _ORBITS_SAMPLE):
            problem = verify_relation(rel, iterate_g(rel["n"], kmax).values)
            if problem:
                return problem
        return None

    return _checked(body)


def exotic_windows(seed, width):
    """Endless window starts LO in [2, 10^10 - width]: all 2 for seed 0,
    otherwise an evenly spread Weyl sequence from a seeded offset, so that a
    run's median covers the whole range and not one costlier corner of it."""
    span = EXOTIC_TOP - width - 2
    offset = random.Random(seed).random() if seed else 0.0
    i = 0
    while True:
        yield 2 if seed == 0 else 2 + int(((offset + i * _GOLDEN) % 1.0) * span)
        i += 1


THEOREM_LIMIT = 250_000
EXOTIC_WIDTH = 10**8
RELAXED_LIMIT = 10**7
ORBITS_LIMIT = 400
ORBITS_KMAX = 64
_ORBIT_ARGS = ("--kmax", str(ORBITS_KMAX), "--rmax", "25")


@dataclass(frozen=True)
class Workload:
    """A named job stream: `jobs(seed, workers, workdir)` yields full-size
    jobs without end, `setup_job(workers, workdir)` is the same command at
    minimal size."""

    name: str
    why: str
    jobs: Callable[[int, int, Path], Iterator[Job]]
    setup_job: Callable[[int, Path], Job]


def _theorem_job(limit):
    return Job(("verify-theorem", "--limit", str(limit)), check_theorem(limit), limit)


def _exotic_job(lo, hi, workers, checkpoint):
    argv = ("search-exotic", "--from", str(lo), "--to", str(hi), "--jobs", str(workers),
            "--checkpoint", str(checkpoint))
    return Job(argv, check_exotic(lo, hi, checkpoint), hi - lo, checkpoint)


def _exotic_jobs(seed, workers, workdir):
    for i, lo in enumerate(exotic_windows(seed, EXOTIC_WIDTH)):
        yield _exotic_job(lo, lo + EXOTIC_WIDTH, workers, workdir / f"exotic-{i}.ckpt")


def _relaxed_job(limit):
    return Job(("search-relaxed", "--limit", str(limit)), check_relaxed(limit), limit)


def _orbits_jobs(seed, workers, workdir):
    argv = ("scan-orbits", "--limit", str(ORBITS_LIMIT), *_ORBIT_ARGS, "--jobs", str(workers))
    check = check_orbits(ORBITS_KMAX, seed)
    while True:
        yield Job(argv, check, ORBITS_LIMIT - 1)


def _orbits_setup(workers, workdir):
    argv = ("scan-orbits", "--limit", "2", *_ORBIT_ARGS, "--jobs", str(workers))
    return Job(argv, _checked(lambda records, summary, lines: None), 1)


# theorem, relaxed and orbits take only a limit: their jobs are the same for
# every seed.  Sizes put one job near 2 s on a 2-core Xeon, so a run takes
# about ten samples; each keeps the shape of the paper-scale job it stands for.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "theorem",
            "verify-theorem to 2.5e5: the paper's central check; scalar classify, is_prime "
            "and factorize on small n, with the phi sieve a small share",
            lambda seed, workers, workdir: itertools.repeat(_theorem_job(THEOREM_LIMIT)),
            lambda workers, workdir: _theorem_job(2),
        ),
        Workload(
            "exotic",
            "search-exotic over seeded 1e8 windows below 1e10 with 2 jobs: progression "
            "sieve, process pool and checkpoint writes, no scalar arithmetic",
            _exotic_jobs,
            lambda workers, workdir: _exotic_job(2, 3, workers, workdir / "exotic-setup.ckpt"),
        ),
        Workload(
            "relaxed",
            "search-relaxed to 1e7: the full-range sieve_segment phi kernel, which theorem "
            "barely exercises; sets peak memory",
            lambda seed, workers, workdir: itertools.repeat(_relaxed_job(RELAXED_LIMIT)),
            lambda workers, workdir: _relaxed_job(2),
        ),
        Workload(
            "orbits",
            "scan-orbits to 400 (kmax 64, rmax 25) with 2 jobs: arith on large orbit values, "
            "where trial division dominates, plus the orbit pool and record output",
            _orbits_jobs,
            _orbits_setup,
        ),
    )
}
