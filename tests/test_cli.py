import json

import pytest

from gphi.cli import MAX_JOBS, main, resolve_jobs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out):
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["record"] == "summary"
    return lines[:-1], lines[-1]


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

    def test_truncation_note(self, capsys):
        code, out, _ = run(capsys, "orbit", "--n", str(1 << 191), "--kmax", "8", "--rmax", "2")
        _, summary = json_records(out)
        assert code == 0
        assert any("truncated" in note for note in summary["truncations"])

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


class TestFamilies:
    def test_default_families(self, capsys):
        code, out, _ = run(capsys, "families", "--max-exponent", "3")
        records, _ = json_records(out)
        assert code == 0
        by_kind = {}
        for r in records:
            by_kind.setdefault(r["kind"], []).append(r["n"])
        assert by_kind["power_of_2"] == [4, 8]
        assert by_kind["family_5"] == [10, 20, 40]
        assert by_kind["family_47"] == [94, 188, 376]

    def test_exotic_kind_with_m(self, capsys):
        code, out, _ = run(capsys, "families", "--kind", "exotic_b", "--m", "5", "--max-exponent", "2")
        records, _ = json_records(out)
        assert code == 0
        assert [r["n"] for r in records] == [70, 140]


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
