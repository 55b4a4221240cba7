"""gphi benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload exotic --seed 1 --seconds 20 --trace 0

Run from the root of a gphi source tree.  With --trace 0 every job is a real
`gphi` CLI process (closed loop: one job at a time, at most two workers), and
the end-to-end metrics are printed.  With --trace 1 the same jobs run
in-process with --jobs 1, alternately plain and traced, and the per-layer
metrics are printed.  Every job's output is checked.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Full-size jobs (plain/traced pairs with --trace 1) a run takes at least.
MIN_JOBS = 3
# Every full job follows this many back-to-back minimal-size jobs.  The
# fastest of each group is one set-up sample and setup_s is their median, so
# a passing stall on a shared machine is not taken for set-up time.
SETUP_GROUP = 3
MIN_PAIRS = 2
# A job that runs longer than this is killed and counted as failed.
JOB_TIMEOUT_S = 120
MAX_WORKERS = 2

END_TO_END = {
    "values_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclasses.dataclass(frozen=True)
class JobResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: Optional[str]


def machine_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _kill_group(pid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def _finish(job, code, stdout, wall, cpu, rss):
    try:
        error = job.check(code, stdout)
    finally:
        if job.checkpoint is not None:
            job.checkpoint.unlink(missing_ok=True)
            Path(f"{job.checkpoint}.tmp").unlink(missing_ok=True)
    return JobResult(wall, cpu, rss, error)


def run_cli_job(job, workdir, env, cmd_prefix=None):
    """Run `gphi <job.argv>` as a process; wall, CPU and peak RSS include
    the pool workers it reaps."""
    cmd = [*(cmd_prefix or [sys.executable, "-m", "gphi.cli"]), *job.argv]
    out_path = workdir / "stdout.txt"
    with open(out_path, "w+") as out, open(workdir / "stderr.txt", "w+") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir, env=env,
                                start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read().strip()
    result = _finish(job, proc.returncode, stdout, wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    if result.error and stderr:
        result = dataclasses.replace(
            result, error=f"{result.error}; stderr: {stderr.splitlines()[-1]}")
    return result


def run_inprocess_job(job, tracer=None):
    """Run the job through gphi.cli.main in this process, traced if a
    tracer is given.  Only wall time is measured."""
    import gphi.cli

    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.instrument(tracer))
        stack.enter_context(contextlib.redirect_stdout(buf))
        started = time.perf_counter()
        code = gphi.cli.main(list(job.argv))
        wall = time.perf_counter() - started
    return _finish(job, code, buf.getvalue(), wall, 0.0, 0.0)


def cli_env():
    env = dict(os.environ)
    env.pop("GPHI_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spread(values):
    return f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"


def timed_run(workload, seed, seconds, workers, workdir, log):
    """End-to-end metrics from CLI jobs in a closed loop."""
    env = cli_env()
    setup, setup_s, results, laps = [], [], [], []
    values = None
    started = time.perf_counter()
    for job in workload.jobs(seed, workers, workdir):
        log(f"job {' '.join(job.argv)}")
        lap_started = time.perf_counter()
        # Set-up samples are spread over the run like the full jobs, so a
        # slow spell on a shared machine weighs on both alike.
        group = [run_cli_job(workload.setup_job(workers, workdir), workdir, env)
                 for _ in range(SETUP_GROUP)]
        setup.extend(group)
        setup_s.append(min(r.wall_s for r in group))
        results.append(run_cli_job(job, workdir, env))
        values = job.values
        now = time.perf_counter()
        laps.append(now - lap_started)
        if len(results) >= MIN_JOBS and now - started + statistics.median(laps) > seconds:
            break
    walls = [r.wall_s for r in results]
    samples = {
        "values_per_s": [values / w for w in walls],
        "cpu_s": [r.cpu_s for r in results],
        "peak_rss_mb": [r.rss_mb for r in results],
        "setup_s": setup_s,
    }
    metrics = {
        "values_per_s": values / statistics.median(walls),
        "cpu_s": statistics.median(samples["cpu_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "setup_s": statistics.median(samples["setup_s"]),
    }
    for name, value in metrics.items():
        log(f"{name} = {value!r} {END_TO_END[name]} (median; {_spread(samples[name])})")
    return metrics, setup + results


def traced_run(workload, seed, seconds, workdir, log):
    """Per-layer metrics from in-process jobs with --jobs 1, each job run
    once plain and once traced, in alternating order."""
    started = time.perf_counter()
    jobs = workload.jobs(seed, 1, workdir)
    results = [run_inprocess_job(next(jobs))]  # fills lazy tables; not reported
    plain, traced, layer_samples = [], [], []
    reference_calls = None
    while True:
        job = next(jobs)
        log(f"job {' '.join(job.argv)}")
        pair_started = time.perf_counter()
        tracer = tracing.Tracer()
        order = (None, tracer) if len(plain) % 2 == 0 else (tracer, None)
        for t in order:
            result = run_inprocess_job(job, t)
            (traced if t is not None else plain).append(result)
        error = None
        missing = tracing.missing_layers(workload.name, tracer)
        if missing:
            error = f"no calls traced into {missing}"
        elif reference_calls is None:
            reference_calls = tracer.calls
        elif tracer.calls != reference_calls:
            error = "call counts differ between traced jobs"
        if error and not traced[-1].error:
            traced[-1] = dataclasses.replace(traced[-1], error=error)
        layer_samples.append(tracing.layer_metrics(tracer))
        now = time.perf_counter()
        if len(plain) >= MIN_PAIRS and now - started + (now - pair_started) > seconds:
            break
    # Counts come from the first traced job, which is the same job for a
    # given seed however many jobs the run fits; timings are medians.
    metrics = {name: first if name.rsplit(".", 1)[1] in tracing.COUNT_STATS
               else statistics.median(s[name] for s in layer_samples)
               for name, first in layer_samples[0].items()}
    metrics[tracing.OVERHEAD_METRIC] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in plain) - 1
    )
    log(f"{tracing.OVERHEAD_METRIC} = {metrics[tracing.OVERHEAD_METRIC]!r} "
        f"({len(traced)} traced, {len(plain)} plain jobs)")
    for name, (value, unit) in tracing.ratios(metrics).items():
        log(f"{name} = {value!r} {unit} (derived)")
    return metrics, results + plain + traced


def result_record(metrics, units, results):
    """The final JSON record; every job whose check failed counts as failed."""
    failed = sum(1 for r in results if r.error)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def load_gphi():
    """Import gphi from this source tree, or raise ImportError."""
    if not (SRC / "gphi" / "__init__.py").is_file():
        raise ImportError(f"no gphi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gphi

    if Path(gphi.__file__).resolve().parent != SRC / "gphi":
        raise ImportError(f"gphi imported from {gphi.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    try:
        load_gphi()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    log = functools.partial(print, flush=True)
    facts = machine_facts()
    facts["load_start"] = os.getloadavg()
    workers = min(MAX_WORKERS, facts["usable_cpus"])
    log(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"
        f" workers {workers}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, results = traced_run(workload, args.seed, args.seconds, workdir, log)
            units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
        else:
            metrics, results = timed_run(workload, args.seed, args.seconds, workers, workdir, log)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["load_end"] = os.getloadavg()
    record = result_record(metrics, units, results)
    for result in results:
        if result.error:
            log(f"FAILED: {result.error}")
    log(f"failed_frac = {record['failed'] / record['attempted']!r} "
        f"({record['failed']} of {record['attempted']} jobs)")
    log("machine " + json.dumps(facts))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
