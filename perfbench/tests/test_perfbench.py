"""Tests of the benchmark's own logic: span self times, metric names, output
checks and the tracer's rebinding.  Run with `python3 -m pytest perfbench/tests`."""

import json
import re
import sys

import gphi
import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS, Job

NAME_RULE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_synthetic_tree():
    # 0: root [0, 100] with children 1: [10, 40], 2: [50, 60] and 3: [70, 95];
    # 4: [15, 20] and 5: [25, 35] under span 1; 6: [80, 90] under span 3;
    # 7: [120, 130], a second root.  Offsets sit at clock scale.
    base = 10**15
    starts = [base + s for s in (0, 10, 50, 70, 15, 25, 80, 120)]
    ends = [base + e for e in (100, 40, 60, 95, 20, 35, 90, 130)]
    parents = [-1, 0, 0, 0, 1, 1, 3, -1]
    own = tracing.self_times(starts, ends, parents).tolist()
    assert own == [100 - 30 - 10 - 25, 30 - 5 - 10, 10, 25 - 10, 5, 10, 10, 10]


def test_ratios_skip_layers_without_calls():
    tracer = tracing.Tracer()
    lid = tracing.LAYER_INDEX["arith.is_prime"]
    tracer.calls[lid] = 4
    tracer.names.append(lid)
    tracer.parents.append(-1)
    tracer.starts.append(0)
    tracer.ends.append(2000)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["arith.factorize.calls"] == 0 and metrics["arith.factorize.self_s"] == 0
    assert tracing.ratios(metrics) == {"arith.is_prime.us_per_call": (0.5, "us")}


def test_benchmark_json_names_follow_the_rule():
    entries = BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RULE.fullmatch(name), name
    assert not NAME_RULE.fullmatch("sieve.phi kernel")
    assert not NAME_RULE.fullmatch("_leading")


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["per_layer"] == tracing.per_layer_spec()
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_expected_solution_counts():
    assert workloads.expected_solutions(10**6) == 98
    assert workloads.expected_solutions(250_000) == 86
    assert workloads.expected_solutions(2) == 0


def test_exotic_windows():
    def take(seed, count=20):
        gen = workloads.exotic_windows(seed, workloads.EXOTIC_WIDTH)
        return [next(gen) for _ in range(count)]

    assert take(0) == [2] * 20
    assert take(7) == take(7)
    assert take(7) != take(8)
    top = workloads.EXOTIC_TOP - workloads.EXOTIC_WIDTH
    for lo in take(7, 200):
        assert 2 <= lo <= top
    # evenly spread: every tenth of the range gets a window among thirty
    assert {lo * 10 // workloads.EXOTIC_TOP for lo in take(3, 30)} == set(range(10))


def _summary(command, records, notes=()):
    return json.dumps({"record": "summary", "command": command, "parameters": {},
                       "count": len(records), "truncations": list(notes),
                       "exit_code": 0, "elapsed_ms": 1})


def _output(command, records, notes=()):
    return "".join(json.dumps(r) + "\n" for r in records) + _summary(command, records, notes) + "\n"


def test_theorem_check():
    check = workloads.check_theorem(250_000)
    good = _output("verify-theorem", [], ["solutions=86", "mismatches=0"])
    assert check(0, good) is None
    assert check(1, good) == "exit code 1"
    assert check(0, _output("verify-theorem", [], ["solutions=85", "mismatches=0"]))
    assert check(0, _output("verify-theorem", [{"n": 6}], ["solutions=86", "mismatches=1"]))
    assert check(0, good.replace('"count": 0', '"count": 1'))
    assert check(0, "")


def test_exotic_check(tmp_path):
    ckpt = tmp_path / "c.ckpt"
    ckpt.write_text("search_id exotic:2:1000:64\ncompleted 1000\n0\n5\n")
    check = workloads.check_exotic(2, 1000, ckpt)
    hits = [{"m": 0, "p": 7, "q": 5}, {"m": 5, "p": 47, "q": 35}]
    assert check(0, _output("search-exotic", hits)) is None
    assert check(0, _output("search-exotic", hits[:1]))
    assert check(0, _output("search-exotic", [*hits, {"m": 9, "p": 79, "q": 59}]))
    assert workloads.check_exotic(40, 1000, ckpt)(0, _output("search-exotic", hits))
    ckpt.write_text("search_id exotic:2:1000:64\ncompleted 500\n0\n5\n")
    assert check(0, _output("search-exotic", hits))
    ckpt.unlink()
    assert check(0, _output("search-exotic", hits))
    # a window far from the known hits expects none
    far = tmp_path / "far.ckpt"
    far.write_text("search_id x\ncompleted 200\n")
    assert workloads.check_exotic(100, 200, far)(0, _output("search-exotic", [])) is None


def test_relaxed_check(monkeypatch):
    check = workloads.check_relaxed(10**7)
    hits = [{"n": n} for n in (5, 35, 1295, 1679615)]
    assert check(0, _output("search-relaxed", hits)) is None
    assert check(0, _output("search-relaxed", hits[:3]))
    assert workloads.check_relaxed(1000)(0, _output("search-relaxed", hits[:2])) is None
    # a listed hit that fails the scalar re-check is caught even if expected
    monkeypatch.setattr(workloads, "_RELAXED_HITS", (5, 35, 36))
    bad = workloads.check_relaxed(100)
    assert "fails" in bad(0, _output("search-relaxed", [{"n": 5}, {"n": 35}, {"n": 36}]))


def test_orbit_relation_verification():
    values = gphi.iterate_g(4, 64).values
    rel = {"n": 4, "k0": 0, "r": 2, "multiplier": 2, "verified_to_k": 62}
    assert workloads.verify_relation(rel, values) is None
    assert workloads.verify_relation({**rel, "multiplier": 3}, values)
    assert workloads.verify_relation({**rel, "verified_to_k": 63}, values)
    late = {"n": 4, "k0": 1, "r": 2, "multiplier": 2, "verified_to_k": 62}
    assert "non-minimal" in workloads.verify_relation(late, values)


def test_orbits_check_rejects_a_changed_record():
    records = [{"n": 4, "k0": 0, "r": 2, "multiplier": 2, "verified_to_k": 62,
                "persistent": "proven_forever", "related_r": None}]
    check = workloads.check_orbits(64, seed=1)
    assert "digest" in check(0, _output("scan-orbits", records))


def _fake_cli(tmp_path, text):
    """A command that prints `text` in place of gphi's output."""
    script = tmp_path / "fake.py"
    script.write_text(f"import sys\nsys.stdout.write({text!r})\n")
    return [sys.executable, str(script)]


def test_corrupted_output_counts_as_failure(tmp_path):
    job = workloads._theorem_job(250_000)
    good = _output("verify-theorem", [], ["solutions=86", "mismatches=0"])
    corrupt = good.replace("mismatches=0", "mismatches=1")
    env = run.cli_env()
    ok = run.run_cli_job(job, tmp_path, env, _fake_cli(tmp_path, good))
    bad = run.run_cli_job(job, tmp_path, env, _fake_cli(tmp_path, corrupt))
    assert ok.error is None and bad.error
    record = run.result_record({"cpu_s": 1.0}, {"cpu_s": "s"}, [ok, bad])
    assert (record["correct"], record["attempted"], record["failed"]) == (False, 2, 1)


def test_real_cli_job_is_checked(tmp_path):
    ok = run.run_cli_job(workloads._theorem_job(1000), tmp_path, run.cli_env())
    assert ok.error is None and ok.cpu_s > 0 and ok.rss_mb > 0
    # the CLI's own output at another limit than the check expects fails it
    wrong = Job(("verify-theorem", "--limit", "100"), workloads.check_theorem(1000), 100)
    assert run.run_cli_job(wrong, tmp_path, run.cli_env()).error


def test_exotic_job_leaves_no_checkpoint(tmp_path):
    job = next(WORKLOADS["exotic"].jobs(0, 1, tmp_path))
    small = Job(("search-exotic", "--from", "2", "--to", "1000", "--jobs", "1",
                 "--checkpoint", str(job.checkpoint)),
                workloads.check_exotic(2, 1000, job.checkpoint), 998, job.checkpoint)
    assert run.run_inprocess_job(small).error is None
    assert not job.checkpoint.exists()
    # a second run with the same path starts afresh rather than resuming
    assert run.run_inprocess_job(small).error is None


# Small jobs that reach every layer the full-size workloads reach.
SMALL_JOBS = {
    "theorem": ("verify-theorem", "--limit", "3000"),
    "exotic": ("search-exotic", "--from", "2", "--to", "9000000", "--jobs", "1"),
    "relaxed": ("search-relaxed", "--limit", "20000"),
    "orbits": ("scan-orbits", "--limit", "12", "--kmax", "64", "--rmax", "25", "--jobs", "1"),
}


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_traced_layers_are_called(name, tmp_path):
    argv = SMALL_JOBS[name]
    if name == "exotic":
        argv = (*argv, "--checkpoint", str(tmp_path / "t.ckpt"))
    job = Job(argv, lambda code, out: None if code == 0 else "failed", 1,
              tmp_path / "t.ckpt")
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        assert run.run_inprocess_job(job, tracer).error is None
        assert tracing.missing_layers(name, tracer) == []
        counts.append(tracing.layer_metrics(tracer))
    calls = {k: v for k, v in counts[0].items()
             if k.rsplit(".", 1)[1] in tracing.COUNT_STATS}
    assert calls == {k: counts[1][k] for k in calls}


def test_instrument_restores_every_binding():
    import gphi.diophantine

    before = {m.__name__: dict(vars(m)) for m in tracing._gphi_modules()}
    with tracing.instrument(tracing.Tracer()):
        assert gphi.diophantine.sieve_segment is gphi.sieve.sieve_segment
        assert hasattr(gphi.diophantine.sieve_segment, "__wrapped__")
        assert gphi.euler_phi is gphi.arith.euler_phi is gphi.diophantine.euler_phi
        assert hasattr(gphi.euler_phi, "__wrapped__")
    after = {m.__name__: dict(vars(m)) for m in tracing._gphi_modules()}
    assert after == before
