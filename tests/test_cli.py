import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gphi
from gphi import arith, cli, diophantine, sieve
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
    """The family index both classifiers read, broken to start family 35 at
    ell = 2, so the range and the scalar classifier both miss the solution 70."""
    monkeypatch.setitem(diophantine._FAMILY_BY_ODD_PART, 35, (SolutionKind.FAMILY_35, 2))


def die(bounds):
    """A segment whose worker process dies at once, as under the OOM killer."""
    os._exit(9)


def strip_timing(out):
    records, summary = json_records(out)
    summary = dict(summary)
    summary.pop("elapsed_ms")
    return records, summary


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

    def test_range_and_scalar_disagreement_exits_1(self, capsys, monkeypatch):
        classify = diophantine.classify
        monkeypatch.setattr(
            diophantine, "classify",
            lambda n: SolutionClass(SolutionKind.NOT_SOLUTION, 1) if n == 70 else classify(n),
        )
        code, out, err = run(capsys, "verify-theorem", "--limit", "100")
        assert code == 1
        assert out == ""
        assert err.startswith("error: inconsistency:") and err.count("\n") == 1

    # At 10^15 the brute-force phi table would take 14 PiB, more than any
    # address space, so its allocation fails at once.
    @pytest.mark.parametrize("command", [
        ("verify-theorem",),
        ("solutions", "--method", "brute"),
    ])
    def test_unallocatable_limit_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--limit", str(10 ** 15))
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory: phi table to ") and err.count("\n") == 1

    # Just below the sieve maximum a table is past numpy's own size cap,
    # where numpy raises ValueError, not MemoryError; both name the table.
    def test_table_past_numpy_size_cap_exits_2(self, capsys):
        limit = MAX_SIEVE_VALUE // 2 - 1
        code, out, err = run(capsys, "solutions", "--limit", str(limit), "--method", "brute")
        assert code == 2
        assert out == ""
        assert err == f"error: out of memory: phi table to {2 * limit} needs {8 * (2 * limit + 1)} bytes\n"

    # At 10^23 the table would hold values past the int64 sieve, which is
    # refused by name before any allocation.
    @pytest.mark.parametrize("command", [
        ("verify-theorem",),
        ("solutions", "--method", "brute"),
    ])
    def test_limit_past_the_sieve_maximum_exits_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--limit", str(10 ** 23))
        assert code == 2
        assert out == ""
        assert err.startswith("error: phi table to ") and err.count("\n") == 1
        assert str(MAX_SIEVE_VALUE) in err

    # The classifier builds no table: at 10^15 it asks the exotic search,
    # stubbed here, for every p = 8m+7 that an odd part <= limit // 2 needs.
    def test_classify_asks_the_exotic_search(self, capsys, monkeypatch):
        limit = 10 ** 15
        asked = []
        monkeypatch.setattr(diophantine, "exotic_prime_search", lambda *a, **k: asked.append((a, k)) or [])
        monkeypatch.setattr(diophantine, "_phi_table", lambda top: pytest.fail(f"phi table to {top}"))
        code, out, err = run(capsys, "solutions", "--limit", str(limit), "--method", "classify")
        records, _ = json_records(out)
        assert (code, err) == (0, "")
        assert asked == [((2, (4 * (limit // 2) + 1) // 3 + 1), {})]
        family_members = {q << ell for q, least in diophantine.FAMILIES.values()
                          for ell in range(least, limit.bit_length()) if q << ell <= limit}
        assert [r["n"] for r in records] == sorted(family_members)

    # At 10^23 the exotic search would pass the int64 bound of its tripled
    # values; the classifier refuses the limit by name before searching.
    def test_classify_limit_past_the_search_maximum_exits_2(self, capsys):
        code, out, err = run(capsys, "solutions", "--limit", str(10 ** 23), "--method", "classify")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: limit {10 ** 23} ") and err.count("\n") == 1
        assert str(diophantine.MAX_SEARCH_VALUE) in err

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

    def test_output_independent_of_jobs(self, capsys):
        _, out1, _ = run(capsys, "search-exotic", "--from", "2", "--to", "1000000", "--jobs", "1")
        _, out4, _ = run(capsys, "search-exotic", "--from", "2", "--to", "1000000", "--jobs", "4")
        records1, summary1 = strip_timing(out1)
        records4, summary4 = strip_timing(out4)
        assert records1 == records4
        summary1["parameters"].pop("jobs")
        summary4["parameters"].pop("jobs")
        assert summary1 == summary4

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

    def test_dead_worker_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(diophantine, "_exotic_segment", die)
        code, out, err = run(capsys, "search-exotic", "--from", "2", "--to", "1000000", "--jobs", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: a worker process died") and err.count("\n") == 1

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
    ], ids=["search-id", "progress", "hit"])
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


class TestSearchRelaxed:
    def test_small(self, capsys):
        code, out, _ = run(capsys, "search-relaxed", "--limit", "40")
        records, _ = json_records(out)
        assert code == 0
        assert [r["n"] for r in records] == [5, 35]


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
        src = str(Path(gphi.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "gphi.cli", "orbit", "--n", str(n), "--kmax", "2", "--rmax", "1"],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        _, summary = json_records(proc.stdout)
        assert summary["truncations"] == ["orbit truncated at k=0 (width limit)"]

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

    # m = 1 is not exotic: 15 is not prime
    @pytest.mark.parametrize("kind", ["exotic_a", "exotic_b"])
    def test_non_exotic_m_is_parameter_error(self, capsys, kind):
        code, out, err = run(capsys, "families", "--kind", kind, "--m", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


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

    # Validation happens before any pool starts, so "0" here starts nothing.
    def test_bad_count_exits_2(self, capsys):
        code, out, err = run(capsys, "scan-orbits", "--limit", "10", "--jobs", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --jobs") and err.count("\n") == 1
