import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import gphi
from gphi import arith, cli, diophantine, orbits, sieve
from gphi.cli import MAX_JOBS, main, resolve_jobs
from gphi.diophantine import SolutionClass, SolutionKind
from gphi.sieve import MAX_SIEVE_VALUE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out):
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["record"] == "summary"
    return lines[:-1], lines[-1]


@pytest.fixture
def misclassify_70(monkeypatch):
    """The family index of classify, broken to start family 35 at ell = 2, so
    classify, and classify_range, which asks it, miss the solution 70."""
    monkeypatch.setitem(diophantine._FAMILY_BY_ODD_PART, 35, (SolutionKind.FAMILY_35, 2))


@pytest.fixture
def factorize_calls(monkeypatch):
    """How often arith.factorize is called on each value; euler_phi, and so
    g, look it up in arith on every call."""
    calls = Counter()
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.update([n]) or factorize(n))
    return calls


def emitted(results):
    """The JSON records the CLI writes for these library results."""
    return [json.loads(cli._RECORD_JSON.encode(cli._record(result))) for result in results]


def strip_timing(out):
    records, summary = json_records(out)
    summary = dict(summary)
    summary.pop("elapsed_ms")
    return records, summary


def cli_env():
    """The environment of a separate interpreter that imports this gphi."""
    src = str(Path(gphi.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestSolutions:
    def test_brute(self, capsys):
        code, out, _ = run(capsys, "solutions", "--limit", "20", "--method", "brute")
        records, summary = json_records(out)
        assert code == 0
        assert [r["n"] for r in records] == [4, 6, 8, 10, 12, 14, 16, 20]
        assert summary["count"] == 8

    def test_both_agrees(self, capsys):
        code, out, _ = run(capsys, "solutions", "--limit", "100")
        records, _ = json_records(out)
        assert code == 0
        assert all(r["brute"] and r["classified"] for r in records)
        assert {r["n"] for r in records if r["kind"] == "family_35"} == {70}

    def test_records_to_100(self, capsys):
        code, out, _ = run(capsys, "solutions", "--limit", "100")
        shapes = [
            (4, "power_of_2", 2), (6, "family_3", 1), (8, "power_of_2", 3), (10, "family_5", 1),
            (12, "family_3", 2), (14, "family_7", 1), (16, "power_of_2", 4), (20, "family_5", 2),
            (24, "family_3", 3), (28, "family_7", 2), (32, "power_of_2", 5), (40, "family_5", 3),
            (48, "family_3", 4), (56, "family_7", 3), (64, "power_of_2", 6), (70, "family_35", 1),
            (80, "family_5", 4), (94, "family_47", 1), (96, "family_3", 5),
        ]
        expected = [
            json.dumps({"n": n, "kind": kind, "ell": ell, "exotic_m": None, "brute": True, "classified": True})
            for n, kind, ell in shapes
        ]
        assert code == 0
        assert out.splitlines()[:-1] == expected

    def test_disagreement_exits_1(self, capsys, misclassify_70):
        code, out, _ = run(capsys, "solutions", "--limit", "100")
        records, summary = json_records(out)
        assert code == summary["exit_code"] == 1
        assert [r for r in records if not r["classified"]] == [
            {"n": 70, "kind": "not_solution", "ell": 1, "exotic_m": None, "brute": True, "classified": False}
        ]

    def test_classify_method(self, capsys):
        code, out, _ = run(capsys, "solutions", "--limit", "50", "--method", "classify")
        records, _ = json_records(out)
        assert code == 0
        assert [r["n"] for r in records] == [4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48]

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_classify_limit_below_1_exits_2(self, capsys, limit):
        code, out, err = run(capsys, "solutions", "--limit", limit, "--method", "classify")
        assert (code, out, err) == (2, "", f"error: expected n >= 1, got {limit}\n")


class TestVerifyTheorem:
    def test_desk_scale(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--limit", "10000")
        records, summary = json_records(out)
        assert code == 0
        assert records == []
        assert "mismatches=0" in summary["truncations"]

    def test_mismatch_exits_1(self, capsys, misclassify_70):
        code, out, _ = run(capsys, "verify-theorem", "--limit", "100")
        records, summary = json_records(out)
        assert code == summary["exit_code"] == 1
        assert records == [{"n": 70, "brute": True, "classified": False, "kind": "not_solution"}]
        assert summary["truncations"] == ["solutions=19", "mismatches=1"]

    # classify_range decides its candidates with classify, so a classify
    # that misses 70 is a mismatch with the oracle.
    def test_range_and_scalar_disagreement_exits_1(self, capsys, monkeypatch):
        classify = diophantine.classify
        monkeypatch.setattr(
            diophantine, "classify",
            lambda n: SolutionClass(SolutionKind.NOT_SOLUTION, 1) if n == 70 else classify(n),
        )
        code, out, _ = run(capsys, "verify-theorem", "--limit", "100")
        records, summary = json_records(out)
        assert code == summary["exit_code"] == 1
        assert records == [{"n": 70, "brute": True, "classified": False, "kind": "not_solution"}]

    # At 10^15 the brute-force phi table would take 14 PiB; sieved a unit at
    # a time it would run for years instead.  The limit is refused by name,
    # past the oracle maximum, before anything is sieved.
    @pytest.mark.parametrize("command", [
        ("verify-theorem",),
        ("solutions", "--method", "brute"),
    ])
    def test_unallocatable_limit_exits_2(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sieve, "sieve_segment", lambda lo, hi: pytest.fail(f"sieved [{lo}, {hi})"))
        code, out, err = run(capsys, *command, "--limit", str(10 ** 15))
        assert (code, out) == (2, "")
        assert err == f"error: limit {10 ** 15} above the oracle maximum {diophantine.MAX_ORACLE_LIMIT}\n"

    # Just below the sieve maximum, where one whole table passed numpy's own
    # size cap, the oracle maximum refuses the limit too, with --method both.
    def test_table_past_numpy_size_cap_exits_2(self, capsys):
        limit = MAX_SIEVE_VALUE // 2 - 1
        code, out, err = run(capsys, "solutions", "--limit", str(limit), "--method", "both")
        assert (code, out) == (2, "")
        assert err == f"error: limit {limit} above the oracle maximum {diophantine.MAX_ORACLE_LIMIT}\n"

    # Below 2^31 a unit's table is int32: the one for --limit 10^6, whose
    # allocation is stubbed to fail, would take 4 bytes per value of the
    # one unit [2, 2 * 10^6 + 1).
    def test_int32_table_names_its_bytes(self, capsys, monkeypatch):
        import numpy as np

        zeros = np.zeros

        def refuse(shape, dtype):
            if shape == 2 * 10 ** 6 - 1:
                raise MemoryError()
            return zeros(shape, dtype)

        monkeypatch.setattr(np, "zeros", refuse)
        code, out, err = run(capsys, "verify-theorem", "--limit", str(10 ** 6))
        assert (code, out) == (2, "")
        assert err == "error: out of memory: phi table on [2, 2000001) needs 7999996 bytes\n"

    # At 10^23 the table would hold values past the int64 sieve; the oracle
    # maximum, far below, refuses the limit by name first.
    @pytest.mark.parametrize("command", [
        ("verify-theorem",),
        ("solutions", "--method", "brute"),
    ])
    def test_limit_past_the_sieve_maximum_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--limit", str(10 ** 23))
        assert (code, out) == (2, "")
        assert err == f"error: limit {10 ** 23} above the oracle maximum {diophantine.MAX_ORACLE_LIMIT}\n"
        assert diophantine.MAX_ORACLE_LIMIT < MAX_SIEVE_VALUE // 2

    # The classifier sieves no totient and runs no exotic search: at 10^15
    # it takes its exotic m from the search tree to limit // 2, whose only
    # exotic hits, m = 0 and 5, give family odd parts.
    def test_classify_to_10_15_sieves_nothing(self, capsys, monkeypatch):
        limit = 10 ** 15
        for module in (sieve, diophantine):
            for name in ("sieve_segment", "totient_progression", "primes_in_class"):
                monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name}{a}"))
        monkeypatch.setattr(diophantine, "exotic_prime_search", lambda *a, **k: pytest.fail(f"searched {a}"))
        code, out, err = run(capsys, "solutions", "--limit", str(limit), "--method", "classify")
        records, _ = json_records(out)
        assert (code, err) == (0, "")
        family_members = {q << ell for q, least in diophantine.FAMILIES.values()
                          for ell in range(least, limit.bit_length()) if q << ell <= limit}
        assert [r["n"] for r in records] == sorted(family_members)

    # At 10^23 the search tree would run to limit // 2, past the int64
    # bound of its search maximum; the classifier refuses the limit by name
    # before searching.
    def test_classify_limit_past_the_search_maximum_exits_2(self, capsys):
        code, out, err = run(capsys, "solutions", "--limit", str(10 ** 23), "--method", "classify")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: limit {10 ** 23} ") and err.count("\n") == 1
        assert str(diophantine.MAX_SEARCH_VALUE) in err

    # 2 * MAX_SEARCH_VALUE + 2 is the least limit whose half passes the
    # search maximum; it is refused before the tree runs.
    def test_first_classify_limit_past_the_search_maximum_exits_2(self, capsys, monkeypatch):
        limit = 2 * diophantine.MAX_SEARCH_VALUE + 2
        monkeypatch.setattr(diophantine, "_relaxed_tree", lambda top: pytest.fail(f"searched to {top}"))
        code, out, err = run(capsys, "solutions", "--limit", str(limit), "--method", "classify")
        assert (code, out) == (2, "")
        assert err == (f"error: limit {limit} needs the search tree to {limit // 2}, "
                       f"past the search maximum {diophantine.MAX_SEARCH_VALUE}\n")

    # The oracle is wrong here, not the classifier: the record reports the
    # two verdicts that disagree, the oracle's and the classifier's.
    def test_mismatch_record_reports_both_verdicts(self, capsys, monkeypatch):
        brute = diophantine.brute_force_solutions
        monkeypatch.setattr(diophantine, "brute_force_solutions", lambda limit: sorted(brute(limit) + [9]))
        code, out, _ = run(capsys, "verify-theorem", "--limit", "100")
        records, summary = json_records(out)
        assert code == summary["exit_code"] == 1
        assert records == [{"n": 9, "brute": True, "classified": False, "kind": "not_solution"}]
        assert summary["truncations"] == ["solutions=20", "mismatches=1"]

    # A MemoryError without text gets no dangling separator.
    def test_bare_memory_error_exits_2(self, capsys, monkeypatch):
        def no_memory(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "_cmd_search_relaxed", no_memory)
        assert run(capsys, "search-relaxed", "--limit", "10") == (2, "", "error: out of memory\n")


class TestSearchExotic:
    def test_small_window(self, capsys):
        code, out, _ = run(capsys, "search-exotic", "--from", "2", "--to", "100")
        records, _ = json_records(out)
        assert code == 0
        assert records == [{"m": 0, "p": 7, "q": 5}, {"m": 5, "p": 47, "q": 35}]

    # The job count is echoed and changes nothing else: the same records,
    # progress lines and checkpoint bytes with every --jobs.
    def test_output_independent_of_jobs(self, capsys, tmp_path):
        runs = []
        for jobs in ("1", "2", "4"):
            path = tmp_path / f"jobs-{jobs}.ckpt"
            code, out, err = run(capsys, "search-exotic", "--from", "2", "--to", "2000000", "--segment-size", "131072",
                                 "--progress", "--checkpoint", str(path), "--jobs", jobs)
            records, summary = strip_timing(out)
            assert summary["parameters"].pop("jobs") == int(jobs)
            summary["parameters"].pop("checkpoint")
            runs.append((code, records, summary, err, path.read_bytes()))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][3].count("\n") == 16

    def test_checkpoint_written(self, capsys, tmp_path):
        path = tmp_path / "cp.txt"
        code, out, _ = run(
            capsys, "search-exotic", "--from", "2", "--to", "1000", "--checkpoint", str(path)
        )
        assert code == 0
        text = path.read_text().splitlines()
        assert text[0].startswith("search_id exotic:2:1000:")
        assert text[1] == "completed 1000"
        assert text[2:] == ["0", "5"]

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "search-exotic", "--from", "50", "--to", "10")
        assert code == 2
        assert err.startswith("error:")

    def test_oversized_segment_is_usage_error(self, capsys, monkeypatch):
        # a small cap, so a broken check would run a tiny search, not a huge one
        monkeypatch.setattr(diophantine, "MAX_EXOTIC_SEGMENT", 100)
        code, out, err = run(
            capsys, "search-exotic", "--from", "2", "--to", "1000", "--segment-size", "500"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # A broken guard would reach the (failing) segment sieve, not sieve near 10^18.
    def test_range_end_that_wraps_int64_is_usage_error(self, capsys, monkeypatch):
        def no_segment(bounds):
            raise RuntimeError(f"sieved {bounds}")

        monkeypatch.setattr(diophantine, "_exotic_segment", no_segment)
        hi = diophantine.MAX_SEARCH_VALUE + 1
        code, out, err = run(capsys, "search-exotic", "--from", str(hi - 1000), "--to", str(hi))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # A checkpoint write that fails in the middle of a search exits 2 with
    # its one line.
    def test_failed_checkpoint_write_is_one_error_line(self, capsys, tmp_path, failing_checkpoint_write):
        path = tmp_path / "x.ckpt"
        code, out, err = run(capsys, "search-exotic", "--from", "2", "--to", str(2 + 16 * 2**17),
                             "--segment-size", str(2**17), "--checkpoint", str(path))
        assert (code, out) == (2, "")
        assert err == "error: disk full\n"

    # Refused before the base primes or any segment: a broken check would
    # reach the failing stand-ins below instead of naming the path.
    def test_unwritable_checkpoint_directory_is_usage_error(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("sieved")

        monkeypatch.setattr(diophantine, "_exotic_segment", fail)
        monkeypatch.setattr(sieve, "_primes_to", fail)
        path = tmp_path / "missing" / "x.ckpt"
        code, out, err = run(
            capsys, "search-exotic", "--from", "2", "--to", "1000", "--checkpoint", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: checkpoint {path}:") and err.count("\n") == 1
        assert ".tmp" not in err
        assert not (tmp_path / "missing").exists()

    # A path that names no file, being empty, ending in a separator or an
    # existing directory, is refused before any segment with one line naming
    # it, and no temp file is left behind.
    @pytest.mark.parametrize("path", ["", "missing/", "taken/", "taken"])
    def test_checkpoint_path_naming_no_file_is_usage_error(self, capsys, tmp_path, monkeypatch, path):
        def fail(*args, **kwargs):
            raise RuntimeError("sieved")

        monkeypatch.setattr(diophantine, "_exotic_segment", fail)
        monkeypatch.setattr(sieve, "_primes_to", fail)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").mkdir()
        code, out, err = run(
            capsys, "search-exotic", "--from", "2", "--to", "1000", "--checkpoint", path
        )
        assert (code, out) == (2, "")
        assert err == f"error: checkpoint {path}: names no file\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]

    def test_tampered_checkpoint_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cp.txt"
        path.write_text("search_id exotic:2:1000:64\ncompleted 5000\n0\n5\n999999\n")
        code, out, err = run(
            capsys, "search-exotic", "--from", "2", "--to", "1000", "--segment-size", "64",
            "--checkpoint", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # A readable checkpoint that belongs to another search, or whose progress
    # or hits do not fit this one, exits 2 with one line naming the file.
    @pytest.mark.parametrize("content, reason", [
        ("search_id exotic:2:1000:32\ncompleted 66\n0\n", "is for 'exotic:2:1000:32', not 'exotic:2:1000:64'"),
        ("search_id exotic:2:1000:64\ncompleted 5000\n0\n", ": progress 5000 is not a segment end of [2, 1000)"),
        ("search_id exotic:2:1000:64\ncompleted 66\n0\n2\n", ": hit m=2 is not a hit in [2, 66)"),
        ("search_id exotic:2:1000:64\ncompleted 66\n", ": hit m=0 in [2, 66) is missing"),
    ], ids=["search-id", "progress", "hit", "missing-hit"])
    def test_mismatched_checkpoint_names_the_file(self, capsys, tmp_path, content, reason):
        path = tmp_path / "cp.txt"
        path.write_text(content)
        code, out, err = run(
            capsys, "search-exotic", "--from", "2", "--to", "1000", "--segment-size", "64",
            "--checkpoint", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: checkpoint file {path}")
        assert reason in err and err.count("\n") == 1
        assert path.read_text() == content

    # A checkpoint that cannot be read exits 2 with one line naming the file
    # and the reason.
    @pytest.mark.parametrize("content, reason", [
        (b"search_id exotic:2:1000:64\ncompleted abc\n", "invalid literal for int()"),
        (b"search_id exotic:2:1000:64\ncompleted \n", "invalid literal for int()"),
        (b"search_id exotic:2:1000:64\ncompleted 66\n\xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"search_id exotic:2:1000:64\ncompleted 66\n0\n0\n", "checkpoint hits must be strictly ascending"),
    ], ids=["not-an-integer", "no-number", "not-utf-8", "repeated-hit"])
    def test_malformed_checkpoint_names_the_file(self, capsys, tmp_path, content, reason):
        path = tmp_path / "cp.txt"
        path.write_bytes(content)
        code, out, err = run(
            capsys, "search-exotic", "--from", "2", "--to", "1000", "--segment-size", "64",
            "--checkpoint", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed checkpoint file {path}: {reason}")
        assert err.count("\n") == 1
        assert path.read_bytes() == content


def live_group_members(pgid):
    """Pids of the processes of group pgid that have not exited, from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:  # the process has gone
            continue
        if int(group) == pgid and state not in "ZX":
            pids.append(int(stat.parent.name))
    return pids


def finished_segments(path, segment_size):
    """Segments of a search from 2 that the checkpoint at path records, 0 without one."""
    return (sieve.read_checkpoint(path).last_completed_hi - 2) // segment_size if path.exists() else 0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process groups from /proc")
class TestCrashResume:
    """search-exotic --checkpoint killed by SIGKILL with its whole process
    group: before its first checkpoint, and once the checkpoint shows 10 and
    100 finished segments.  Run again, it prints the stdout, minus
    elapsed_ms, and leaves the checkpoint bytes of a run that was never
    killed."""

    SEGMENT = 131072
    HI = 10 ** 8  # 763 segments, about 2 s of work on a 2-core host

    def test_killed_search_resumes_to_the_same_output(self, tmp_path):
        argv = (sys.executable, "-m", "gphi.cli", "search-exotic", "--from", "2", "--to", str(self.HI),
                "--segment-size", str(self.SEGMENT), "--checkpoint", "search.ckpt")

        def start(cwd):  # in a process group of its own, which the kill takes whole
            return subprocess.Popen(argv, cwd=cwd, env=cli_env(), text=True, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, start_new_session=True)

        def complete(cwd):
            with start(cwd) as proc:
                out, err = proc.communicate(timeout=120)
            assert (proc.returncode, err) == (0, "")
            return strip_timing(out), (cwd / "search.ckpt").read_bytes()

        (tmp_path / "plain").mkdir()
        plain = complete(tmp_path / "plain")
        for segments in (0, 10, 100):
            cwd = tmp_path / f"killed-{segments}"
            cwd.mkdir()
            checkpoint = cwd / "search.ckpt"
            with start(cwd) as proc:
                try:
                    deadline = time.monotonic() + 60
                    while segments and finished_segments(checkpoint, self.SEGMENT) < segments:
                        assert proc.poll() is None and time.monotonic() < deadline
                        time.sleep(0.001)
                finally:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate(timeout=60)
            assert proc.returncode == -signal.SIGKILL
            deadline = time.monotonic() + 10
            while live_group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert live_group_members(proc.pid) == []
            done = finished_segments(checkpoint, self.SEGMENT)
            assert segments <= done < (self.HI - 2) // self.SEGMENT
            assert checkpoint.exists() == (segments > 0)
            assert complete(cwd) == plain, segments


class TestSearchRelaxed:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "search-relaxed", "--limit", "40")
        records, _ = json_records(out)
        assert code == 0
        assert [r["n"] for r in records] == [5, 35]

    # The phi scan checks the search tree on [2, 2^21] in every run: a tree
    # that loses 1295 exits 1 with one line and no records.
    def test_tree_against_the_scan_exits_1(self, capsys, monkeypatch):
        tree = diophantine._relaxed_tree

        def lossy(limit):
            hits, *counts = tree(limit)
            return [q for q in hits if q != 1295], *counts

        monkeypatch.setattr(diophantine, "_relaxed_tree", lossy)
        code, out, err = run(capsys, "search-relaxed", "--limit", "2000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: inconsistency:") and err.count("\n") == 1


class TestOrbit:
    def test_3114(self, capsys):
        code, out, _ = run(capsys, "orbit", "--n", "3114", "--rmax", "25")
        records, _ = json_records(out)
        assert code == 0
        (rel,) = [r for r in records if r["r"] == 25]
        assert rel["multiplier"] == 729
        assert rel["persistent"] == "verified_only"

    def test_factors_each_value_once(self, capsys, monkeypatch):
        calls = []
        euler_phi = arith.euler_phi

        def counted(n):
            calls.append(n)
            return euler_phi(n)

        monkeypatch.setattr(arith, "euler_phi", counted)
        code, _, _ = run(capsys, "orbit", "--n", "3114", "--rmax", "25")
        assert code == 0
        assert len(calls) == len(set(calls)) == 64

    # g(v) factors v before it finds that v + phi(v) overflows; the successor
    # map records the overflow, so the note's walk does not factor v again.
    # At 192 bits g(3 * 2^190) overflows; with the width cut to 20 bits the
    # orbit of 3 stops at 804573, and that of the paper's 10 at 917504
    # (k = 33), past its one relation (r, multiplier, verified_to_k, persistent).
    @pytest.mark.parametrize("n, width, last", [
        (1 << 191, arith.NATURAL_MAX, 3 << 190), (3, (1 << 20) - 1, 804573), (10, (1 << 20) - 1, 917504),
    ])
    def test_factors_an_overflowing_value_once(self, capsys, monkeypatch, factorize_calls, n, width, last):
        monkeypatch.setattr(arith, "NATURAL_MAX", width)
        orbit = arith.iterate_g(n, 64)
        expected = emitted(orbits.detect_relations(n, 64, 2))
        relations = [(rec["r"], rec["multiplier"], rec["verified_to_k"], rec["persistent"]) for rec in expected]
        assert relations == ([(2, 2, 31, "proven_forever")] if n == 10 else [])
        factorize_calls.clear()
        code, out, _ = run(capsys, "orbit", "--n", str(n), "--kmax", "64", "--rmax", "2")
        records, summary = json_records(out)
        assert orbit.truncated and orbit.values[-1] == last
        assert (code, records) == (0, expected)
        assert summary["truncations"] == [f"orbit truncated at k={orbit.last_valid_k} (width limit)"]
        assert factorize_calls == Counter(orbit.values)

    def test_truncation_note(self, capsys):
        code, out, _ = run(capsys, "orbit", "--n", str(1 << 191), "--kmax", "8", "--rmax", "2")
        _, summary = json_records(out)
        assert code == 0
        assert any("truncated" in note for note in summary["truncations"])

    # A 211-bit semiprime (the next primes after 2^100 and 2^110) is past the
    # width, so it is truncated at k = 0 without being factored; factoring it
    # would take far longer than the timeout.  A separate interpreter, so that
    # the timeout can stop it.
    def test_hard_n_past_the_width_is_not_factored(self):
        n = 1645504557321206042154969182916951289002478841103157145133653303
        proc = subprocess.run(
            [sys.executable, "-m", "gphi.cli", "orbit", "--n", str(n), "--kmax", "2", "--rmax", "1"],
            capture_output=True, text=True, env=cli_env(), timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        _, summary = json_records(proc.stdout)
        assert summary["truncations"] == ["orbit truncated at k=0 (width limit)"]

    # The orbit of 2^190 truncates at k = 3, so no shift past 3 has a pair of
    # values; the relation loop stops there instead of running to --rmax.
    def test_rmax_past_a_short_orbit_is_not_looped(self):
        n = 1 << 190
        proc = subprocess.run(
            [sys.executable, "-m", "gphi.cli", "orbit", "--n", str(n), "--kmax", str(10**9), "--rmax", str(10**9)],
            capture_output=True, text=True, env=cli_env(), timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        records, summary = json_records(proc.stdout)
        assert [(r["r"], r["multiplier"]) for r in records] == [(2, 2), (3, 3)]
        assert summary["truncations"] == ["orbit truncated at k=3 (width limit)"]

    def test_repeat_runs_identical(self, capsys):
        _, out1, _ = run(capsys, "orbit", "--n", "385", "--rmax", "20")
        _, out2, _ = run(capsys, "orbit", "--n", "385", "--rmax", "20")
        assert strip_timing(out1) == strip_timing(out2)


class TestScanOrbits:
    def test_includes_r9_family(self, capsys):
        code, out, _ = run(capsys, "scan-orbits", "--limit", "300", "--rmax", "9")
        records, _ = json_records(out)
        assert code == 0
        hits = {r["n"] for r in records if r["r"] == 9 and r["multiplier"] == 9}
        assert {130, 170, 234, 260, 266} <= hits

    # With the width cut to 20 bits, orbits of n <= 40 merge into values
    # whose g overflows, 804573 and 786432 among them, each reached from ten
    # n: the successor map records each overflow, so no value is factored
    # twice, and the relations are those of orbits walked one by one.
    def test_factors_each_overflowing_value_once(self, capsys, monkeypatch, factorize_calls):
        monkeypatch.setattr(arith, "NATURAL_MAX", (1 << 20) - 1)
        expected = emitted(rel for n in range(2, 41) for rel in orbits.detect_relations(n, 64, 2))
        factorize_calls.clear()
        code, out, _ = run(capsys, "scan-orbits", "--limit", "40", "--kmax", "64", "--rmax", "2")
        records, summary = json_records(out)
        assert (code, records, summary["truncations"]) == (0, expected, [])
        assert {804573, 786432} <= factorize_calls.keys()
        assert max(factorize_calls.values()) == 1

    def test_jobs_is_echoed_but_changes_nothing(self, capsys):
        _, out1, _ = run(capsys, "scan-orbits", "--limit", "60", "--jobs", "1")
        _, out3, _ = run(capsys, "scan-orbits", "--limit", "60", "--jobs", "3")
        records1, summary1 = strip_timing(out1)
        records3, summary3 = strip_timing(out3)
        assert records1 == records3
        assert (summary1["parameters"].pop("jobs"), summary3["parameters"].pop("jobs")) == (1, 3)
        assert summary1 == summary3


class TestFamilies:
    def test_default_families(self, capsys):
        code, out, _ = run(capsys, "families", "--max-exponent", "3")
        records, _ = json_records(out)
        assert code == 0
        assert [(r["kind"], r["ell"], r["n"]) for r in records] == [
            ("power_of_2", 2, 4), ("power_of_2", 3, 8),
            ("family_3", 1, 6), ("family_3", 2, 12), ("family_3", 3, 24),
            ("family_5", 1, 10), ("family_5", 2, 20), ("family_5", 3, 40),
            ("family_7", 1, 14), ("family_7", 2, 28), ("family_7", 3, 56),
            ("family_35", 1, 70), ("family_35", 2, 140), ("family_35", 3, 280),
            ("family_47", 1, 94), ("family_47", 2, 188), ("family_47", 3, 376),
        ]

    def test_exotic_kind_with_m(self, capsys):
        code, out, _ = run(capsys, "families", "--kind", "exotic_b", "--m", "5", "--max-exponent", "2")
        records, _ = json_records(out)
        assert code == 0
        assert [r["n"] for r in records] == [70, 140]

    # 47 * 2^186 is the last member within the 192-bit width.
    def test_max_exponent_up_to_the_width(self, capsys):
        code, out, _ = run(capsys, "families", "--max-exponent", "186")
        records, _ = json_records(out)
        assert code == 0
        assert records[-1] == {"kind": "family_47", "ell": 186, "n": 47 << 186}
        assert max(r["n"] for r in records).bit_length() == 192

    # 47 * 2^187 (and 35 * 2^187) pass 2^192; the width is checked before
    # any member is built, so a huge exponent fails at once.
    @pytest.mark.parametrize("exponent", ["187", "20000"])
    def test_max_exponent_past_the_width_is_parameter_error(self, capsys, exponent):
        started = time.monotonic()
        code, out, err = run(capsys, "families", "--max-exponent", exponent)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "192-bit width" in err and err.count("\n") == 1
        assert time.monotonic() - started < 1

    # --m belongs to the exotic kinds: with the named families, all or one,
    # it is refused before any member is built.
    @pytest.mark.parametrize("kind", [[], ["--kind", "family_3"]], ids=["all", "family_3"])
    def test_m_with_a_named_kind_is_parameter_error(self, capsys, kind):
        code, out, err = run(capsys, "families", *kind, "--m", "5", "--max-exponent", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "exotic kinds only" in err and err.count("\n") == 1

    # m = 1 is not exotic: 15 is not prime
    @pytest.mark.parametrize("kind", ["exotic_a", "exotic_b"])
    def test_non_exotic_m_is_parameter_error(self, capsys, kind):
        code, out, err = run(capsys, "families", "--kind", kind, "--m", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # 6m + 5 = P*Q with P and Q 101-bit primes and 8m + 7 prime, so checking
    # that m is exotic would factor a 202-bit semiprime by rho.  The member
    # (8m + 7) * 2 passes the width, which is checked first.
    def test_exotic_m_past_the_width_is_not_factored(self):
        pq = 1869960064239292605795499058881 * 2004967107266085912556071254723
        m = (pq - 5) // 6
        assert 6 * m + 5 == pq and arith.is_prime(8 * m + 7) and m.bit_length() == 199
        proc = subprocess.run(
            [sys.executable, "-m", "gphi.cli", "families", "--kind", "exotic_a", "--m", str(m), "--max-exponent", "1"],
            capture_output=True, text=True, env=cli_env(), timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: member") and "192-bit width" in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestTrace:
    def test_70(self, capsys):
        code, out, _ = run(capsys, "trace", "--n", "70")
        records, _ = json_records(out)
        assert code == 0
        assert records[0] == {
            "n": 70,
            "ell1": 1,
            "ell2": 3,
            "case": "l2_gt_l1",
            "p": 47,
            "alpha": 1,
            "k": 2,
            "q": 35,
            "phi_q_check": True,
        }

    def test_non_solution_is_parameter_error(self, capsys):
        code, _, err = run(capsys, "trace", "--n", "2")
        assert code == 2
        assert "error:" in err

    # 2*P*Q, P and Q 110-bit primes: 221 bits, which is_solution would
    # factor by rho before finding it is no solution.
    def test_n_past_the_width_is_not_factored(self):
        n = 2 * 1104592565965467938560570651178647 * 919845431762468729702909402745709
        assert n.bit_length() == 221
        proc = subprocess.run(
            [sys.executable, "-m", "gphi.cli", "trace", "--n", str(n)],
            capture_output=True, text=True, env=cli_env(), timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: n = {n} is past the 192-bit width\n"


class TestInterface:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "solutions")[0] == 2

    def test_csv_format(self, capsys):
        code, out, err = run(capsys, "search-relaxed", "--limit", "40", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n"
        assert lines[1:] == ["5", "35"]
        assert json.loads(err)["record"] == "summary"

    def test_json_records_roundtrip(self, capsys):
        _, out, _ = run(capsys, "trace", "--n", "94")
        for line in out.splitlines():
            assert json.loads(json.dumps(json.loads(line))) == json.loads(line)

    def test_jobs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GPHI_JOBS", "2")
        code, out, _ = run(capsys, "search-exotic", "--from", "2", "--to", "100000")
        _, summary = json_records(out)
        assert code == 0
        assert summary["parameters"]["jobs"] == 2


class TestJobs:
    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("GPHI_JOBS", "3")
        assert resolve_jobs("5") == 5
        assert resolve_jobs(None) == 3

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("GPHI_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("GPHI_JOBS", "")
        assert resolve_jobs(None) == 1

    def test_cap_is_accepted(self):
        assert resolve_jobs(str(MAX_JOBS)) == MAX_JOBS

    @pytest.mark.parametrize("raw", ["0", "-3", str(MAX_JOBS + 1), "abc", "2.5"])
    def test_rejects_bad_flag(self, raw):
        with pytest.raises(ValueError, match="--jobs"):
            resolve_jobs(raw)

    @pytest.mark.parametrize("raw", ["0", "abc", str(MAX_JOBS + 1)])
    def test_rejects_bad_env(self, monkeypatch, raw):
        monkeypatch.setenv("GPHI_JOBS", raw)
        with pytest.raises(ValueError, match="GPHI_JOBS"):
            resolve_jobs(None)

    # Refused before the scan starts.
    def test_bad_count_exits_2(self, capsys):
        code, out, err = run(capsys, "scan-orbits", "--limit", "10", "--jobs", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --jobs") and err.count("\n") == 1


# Every record shape and every refusal of every command, pinned byte for
# byte: the exit code, the sha256 of stdout and of stderr with elapsed_ms
# masked, and the bytes of every file the run leaves in its directory, so key
# order, CSV headers, enum spelling, messages and checkpoints cannot drift in
# a refactor.
EMPTY = hashlib.sha256(b"").hexdigest()
CKPT = "c.ckpt"
EXOTIC_1E6 = ("search-exotic", "--from", "2", "--to", "1000000", "--segment-size", "131072", "--progress")
EXOTIC_1E3 = ("search-exotic", "--from", "2", "--to", "1000", "--segment-size", "64", "--checkpoint", CKPT)
COMPLETE = b"search_id exotic:2:1000000:131072\ncompleted 1000000\n0\n5\n"
TOO_HIGH = str(diophantine.MAX_SEARCH_VALUE + 1)


def golden(argv, out, err=EMPTY, code=0, files=None, given=None, env=None, id=None):
    """A row of the golden table: gphi <argv> run in an empty directory, which
    holds the checkpoint file CKPT with the bytes given, if any, under the
    extra environment variables env."""
    return pytest.param(argv, given, env or {}, (code, out, err, files or {}), id=id or " ".join(argv))


def refused(argv, err, **row):
    """A row that exits 2 with nothing on stdout."""
    return golden(argv, EMPTY, err, code=2, **row)


def refused_checkpoint(given, err, id):
    """A row that refuses the checkpoint file given and leaves it as it was."""
    return refused(EXOTIC_1E3, err, files={CKPT: given}, given=given, id=id)


GOLDEN_OUTPUTS = [
    golden(("orbit", "--n", "3114"), "d4ce92e51a2e1bfa46b0cf6cebd0f36897b0129453519d03d66b97d34f96597e"),
    golden(("orbit", "--n", "6", "--format", "csv"), "2ed96ea0293525db1080bd1bc2aecb65a72b08d36626cd0346f6b2f38c5ddca7", "a3988935742ea40cfb09fc887b350dab01d20b3e1b39250c766a438542539706"),
    golden(("orbit", "--n", str(2**100), "--kmax", "64"), "5a40d92b578bae6c6c641145b1d7b0be4eba5156f89e843354549941675c0968"),
    golden(("scan-orbits", "--limit", "300"), "8485e2f7e9af4d360789e4ad068d2c225de21e4b03c6f2969f4c4ee179711447"),
    golden(("scan-orbits", "--limit", "60", "--format", "csv"), "58dd9e69435ba490d472ef21e1437ba041b663e54408f45cfbc7505b0b6d0424", "024c40d3583a2b37f3b5a148c45b52e6ec2d6e533a205899afd61f6a727d07be"),
    golden(("solutions", "--limit", "100000", "--method", "classify"), "8158b6f4d7debb42df488450cf3ab3c340f8f48ca6a558022044c072f9e24d37"),
    golden(("solutions", "--limit", "5000", "--method", "both"), "aea573d8c0ab69fda67bd1086b47eb25561a86d136d2d2c3b3214e4dbef00a9f"),
    golden(("solutions", "--limit", "5000", "--method", "both", "--format", "csv"), "18857cba135795a4478d04412f54ed68d6465182212053c84493431124d752fb", "436ef4be437239c9bb49f77422f43741159b80f7ac3ac07309acff28b8ff1099"),
    golden(("trace", "--n", "70"), "403fd80fc0cc041d806b2683aaf6bf00c579084293d68335596a587ad4ee235a"),
    golden(("trace", "--n", "94"), "97e2e2f84f742f45c28c039fc8277c1ea94a285868567972c4b6ea46ef3afd65"),
    golden(("trace", "--n", "12"), "64ac2b3189f930acda9a9a686250caa9e9d16ea436afb999e2d16c034be2c44d"),
    golden(("trace", "--n", "70", "--format", "csv"), "917b9305cd3f782184bef4b326765296ff9654282104934cd8573710bd64c3ae", "2056741cd13089e48e8e6176b00b3a917b83fd32430d4ca85efe666e63e7adbf"),
    golden(("search-exotic", "--from", "2", "--to", "100000"), "50c58c582440da4a63c8f5084a546846f3ff87db87406549562c0ae43b32127e"),
    golden(("search-exotic", "--from", "2", "--to", "100000", "--format", "csv"), "5709016a30e2f621f28f7d2b240d8c10c83b06c0d0148e1413764a72ed78e974", "dcc7b8a1b0c82a101e8e3d74aaa136604958037b7bf54d3877a17647b66f8d3d"),
    golden(("verify-theorem", "--limit", "100000"), "2a2eacd9fe0e72fc3f8a1428bbda807661a04d583acb33263d2e28509bc62121"),
    golden(("families",), "6089b27eeaf5485c0281674ede633caf0abb41d407b3a266d4dc29a58025ffd2"),
    golden(("verify-theorem", "--limit", "100000", "--format", "csv"), EMPTY,
           "2a2eacd9fe0e72fc3f8a1428bbda807661a04d583acb33263d2e28509bc62121"),
    golden(("solutions", "--limit", "5000", "--method", "brute", "--format", "csv"),
           "3e62a065031b23c7ce0518dddb8c591ceca24aac30e402ed700e3793e9989217",
           "2df5faf6e5475fe2395e18c63ce8a75fa7e15b2e1f26a99b1ff491996947a8bf"),
    golden(("search-relaxed", "--limit", "10000000"), "bb637cbe3c412908d020f47fd63571f9d830b5c1bf78f4a9aa2549b3fc7fce89"),
    golden(("search-relaxed", "--limit", "10000000", "--format", "csv"), "e8511e97eb7988683d0df7b7dce71ea8126ec00f9c867a2fa656183f83967bc6", "6c5f788049bfc776ff0d7a8509b3584a86f08e4f3b7e9aaa2048387836a0eca8"),
    # The search with per-segment progress: fresh, with a checkpoint, resumed
    # from the finished file and from one written after two segments.
    golden(EXOTIC_1E6, "aa2f5d246c3961834b602324146e332725c39c4630d7d325e8434f3678ca3ddb", "ccc59818a5aec67ce7c3247fe3882b561043052b3f7a4d152d63a2762277d577"),
    golden(EXOTIC_1E6 + ("--checkpoint", CKPT), "fe25c9ae22281a819e4b6b624954e7df7154bc990de23f12a895d97e4fb57003", "ccc59818a5aec67ce7c3247fe3882b561043052b3f7a4d152d63a2762277d577", files={CKPT: COMPLETE}),
    golden(EXOTIC_1E6 + ("--checkpoint", CKPT), "fe25c9ae22281a819e4b6b624954e7df7154bc990de23f12a895d97e4fb57003", EMPTY, files={CKPT: COMPLETE},
           given=COMPLETE, id="resumed from the end"),
    golden(EXOTIC_1E6 + ("--checkpoint", CKPT), "fe25c9ae22281a819e4b6b624954e7df7154bc990de23f12a895d97e4fb57003", "197a42c8e76e2fa7d87a15f6aa48c44bacae93936ab06a5f97eae18627b13ddd", files={CKPT: COMPLETE},
           given=b"search_id exotic:2:1000000:131072\ncompleted 262146\n0\n5\n", id="resumed part-way"),
    # Every refusal exits 2 with one line on stderr and nothing on stdout.
    refused(("search-exotic", "--from", "10", "--to", "5"), "f15fcbede280ad2633ae5fec741d9e3483b774b6ef077befaaa52424a6ef8a85"),
    refused(("search-exotic", "--from", "2", "--to", TOO_HIGH), "2c25e66efcc5b1abdca19bcf849380673a1c9a8222760e8067b43fdc75329c5f"),
    refused(("search-exotic", "--from", "2", "--to", "1000", "--segment-size", "4"), "b1deb19dc6bbe7ab15bf08ae2c22749ca4026b6b88174c0ae86b4e6f1d866d75"),
    refused(("search-exotic", "--from", "2", "--to", "1000", "--jobs", "0"), "6b2e1549400c6077a12790ce74c2d56a1ad4dd931b7e164284c1ca77099aec63"),
    refused(("scan-orbits", "--limit", "2"), "40314c2b2cebdd942891227ac2a855e2b601c430f9d9eef555dcfe4a7c9d55da",
            env={"GPHI_JOBS": "abc"}, id="GPHI_JOBS=abc scan-orbits --limit 2"),
    refused(("search-relaxed", "--limit", TOO_HIGH), "613da29310665d7f7cf004dd7053f84f49a16cc8f1bdef34d9525b6478cc81be"),
    refused(("verify-theorem", "--limit", "10000000001"), "94bdf88f26999937cfec46d78fc2c6c319048ddefedbd3de75f68720f685d618"),
    refused(("solutions", "--method", "classify", "--limit", str(2 * diophantine.MAX_SEARCH_VALUE + 2)),
            "1727de82d19da826f58cab7884febdf4ebf037fdeeafd984cbd301a5fe47a565"),
    refused(("solutions", "--limit", "0"), "a109fc24269e8e95db7fabe8bce4021d390c0f557939c0e182f9d407249a3363"),
    refused(("families", "--m", "5"), "b567c9b1ed98903c5dc41f58e1d8b735acee559dbdd289dc4063202bbae04f45"),
    refused(("families", "--max-exponent", "200"), "c4dbde1b5834c181bba0c9c7b3c7319fd49e6696ca8dfbeab54b708909fb103d"),
    refused(("families", "--kind", "exotic_a", "--m", "4"), "8af9ac56b245dd8e72fb89079d888d6ae1dc2e90aa248dc3d20e5436a6497465"),
    refused(("trace", "--n", str(2**192)), "1556f13a8fe8e8ba43d60ac2f41ddff9b1e8925b8eefd88b815c38ae36f7ae13"),
    refused(("trace", "--n", "2"), "15c01e9f82becc0835ca41b8c3b0542db987464f6faf34a1acf13a77ad4618d5"),
    refused(("orbit", "--n", "5", "--kmax", "3", "--rmax", "5"), "515506eb5df18a48ec86c399ef69986aa99d37598a9096e2809177a1f9dcd3a8"),
    refused(("scan-orbits", "--limit", "1"), "97ed3edb567367b7975b9ea1b9b0901477796569134392f67b9da0aa7ec218ad"),
    refused_checkpoint(b"search_id exotic:2:1000:32\ncompleted 66\n0\n", "726a1cf59aabc91a677a73668f1dc2fd31cab0b6851de0decf6170d7ec13d259", "checkpoint of another search"),
    refused_checkpoint(b"search_id exotic:2:1000:64\ncompleted 5000\n0\n", "bdb81bcfb49d55dfd7da6c29fb279bd7513f0b336c0884bca944daa02fcaa774", "checkpoint progress past the range"),
    refused_checkpoint(b"search_id exotic:2:1000:64\ncompleted 66\n0\n2\n", "e50081c55fca38858d6dccad17e0425292c56511ab77136a1be03adb167fc023", "checkpoint with a false hit"),
    refused_checkpoint(b"search_id exotic:2:1000:64\ncompleted 66\n", "282cb521b183253ad7e760384fe7eda23382e5b805a163befe510b834034fc4d", "checkpoint missing a hit"),
    refused_checkpoint(b"search_id exotic:2:1000:64\ncompleted abc\n", "f81a7b93f83288cfcf88942fb7107220654e08ac2ec9ce6ffcfb6a89131dc053", "malformed checkpoint"),
    # A checkpoint path that names no file is refused before any segment.
    refused(("search-exotic", "--from", "2", "--to", "1000", "--checkpoint", ""),
            "d99263c1611be06ad676f6625934d062db5d33ca319c7390a56ce2a98263a031",
            id="search-exotic --from 2 --to 1000 --checkpoint ''"),
    refused(("search-exotic", "--from", "2", "--to", "1000", "--checkpoint", "."), "f3679a137e60bde5a027d3708facc4cbce958618957880ac6845e638da7ce0b9"),
]


@pytest.mark.parametrize("argv, given, env, expected", GOLDEN_OUTPUTS)
def test_golden_output(capsys, monkeypatch, tmp_path, argv, given, env, expected):
    monkeypatch.delenv("GPHI_JOBS", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    if given is not None:
        (tmp_path / CKPT).write_bytes(given)
    code, out, err = run(capsys, *argv)
    digests = [hashlib.sha256(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text).encode()).hexdigest()
               for text in (out, err)]
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert (code, *digests, files) == expected
