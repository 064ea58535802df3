"""Benchmark of the qkzpsi command line.

    python3 bench/run.py --workload psi|operators|appendix|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each workload (see workloads.py) is a fixed list of CLI jobs.  One client
runs them one at a time, in a closed loop; every job runs in a fresh
interpreter (child.py), as a command-line user's would, so no cache of the
package carries over from one job to the next.  QKZ_THREADS is unset for
the jobs, and their outputs go to a temporary directory under
``.bench_tmp/`` in the checkout, which is removed afterwards.

With ``--trace 0`` the whole job list is repeated until ``--seconds`` have
passed (at least once), and the end-to-end metrics are medians over the
repetitions:

  setup_s       cold start before any work: interpreter, ``import qkzpsi.cli``
                and the fixture load; median of one start timed before each job
  wall_s        one repetition of the job list, outputs written
  cpu_s         CPU time of all jobs of one repetition
  build_cpu_s   CPU time of the build/show/emit jobs (time to a result)
  verify_cpu_s  CPU time of the verify/appendix-suite jobs (time to a certificate)
  peak_rss_mb   largest peak resident set of any job

The build/verify split is gated in CPU time because on a shared host the
wall time of a few seconds of work also swings with the time other tenants
take from the CPU, which CPU time leaves out.  Their wall times, ``build_s`` and ``verify_s``, are
printed with them, and so is ``fail_share`` (failed over attempted
operations; an operation is a build job or one check report), which the
``attempted`` and ``failed`` fields of the result also carry.

With ``--trace 1`` one untraced repetition is followed by one traced
repetition, in which the package's public functions listed in tracer.py are
timed from outside; the per-layer metrics are its sums over all jobs, and
``trace.overhead`` is the ratio of the two repetitions' wall times.  The
traced run also prints the state table of the heavy instances;
``--workload all --trace 1`` prints all of it.

Every output is checked against ``oracle.json``: build, show and emit
outputs by SHA-256, reports by (check, instance, status, witness).  A check
that failed when the oracle was recorded may pass now; nothing else may
change.  ``--record-oracle`` rewrites a workload's entries from one
repetition, for a deliberate change of output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS, job_order

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
ORACLE = BENCH / "oracle.json"

JOB_TIMEOUT_S = 150

# The state table: (metric id, instance label, workload that measures it).
STATE_ROWS = (
    ("build_4_2222", "build_psi_fundamental(4,(2,2,2,2))", "psi"),
    ("fuse_m8", "fuse_psi(psi(4,(2,2,2,2)),(2,2,2,2))", "psi"),
    ("build_2_43", "build_psi_fundamental(2,(4,3))", "psi"),
    ("fused_rcheck_5_2_3", "fused_rcheck(5,2,3)", "operators"),
    ("appendix_suite", "appendix-suite", "appendix"),
)
NOT_BENCHMARKED = ("fused_rcheck(4,3,3)", "fused_rcheck(6,3,3)")


class JobRun(NamedTuple):
    wall_s: float
    cpu_s: float
    returncode: int


class Repetition(NamedTuple):
    wall_s: float
    build_s: float
    verify_s: float
    cpu_s: float
    build_cpu_s: float
    verify_cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    observed: dict      # job name -> oracle entry as observed
    problems: list      # oracle mismatches, one line each
    output_bytes: int
    traces: list        # (job name, trace document) when traced


def spawn(args, cwd, log_path):
    """Run child.py with ``args`` in ``cwd``; wall and CPU time of the child."""
    env = dict(os.environ)
    env.pop("QKZ_THREADS", None)
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobRun(wall, usage.ru_utime + usage.ru_stime, proc.returncode)


def observe(job, cwd, returncode):
    """The job's oracle entry as observed, and its (attempted, failed) operations."""
    path = cwd / job.out
    if job.kind == "build":
        if returncode != 0 or not path.is_file():
            return {"missing": True}, 1, 1
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}, 1, 0
    try:
        doc = json.loads(path.read_text())
        reports = [[r["check"], r["instance"], r["status"], r["witness"]]
                   for r in doc["reports"]]
    except (OSError, ValueError, KeyError, TypeError):
        return {"missing": True}, 1, 1
    failed = sum(r[2] == "fail" for r in reports)
    attempted = len(reports)
    if returncode != 0 and not failed:
        attempted, failed = attempted + 1, failed + 1
    return {"reports": reports}, attempted, failed


def compare(name, want, got):
    """Oracle mismatches of one job; a report that failed at recording may now pass."""
    if want is None:
        return [f"{name}: no oracle entry"]
    if "sha256" in want:
        if got.get("sha256") != want["sha256"]:
            return [f"{name}: output differs from the oracle ({got})"]
        return []
    reports = got.get("reports")
    if reports is None or len(reports) != len(want["reports"]):
        return [f"{name}: expected {len(want['reports'])} reports, got {reports}"]
    problems = []
    for w, g in zip(want["reports"], reports):
        improved = w[2] == "fail" and g[2] == "pass" and w[:2] == g[:2]
        if g != w and not improved:
            problems.append(f"{name}: report {g} differs from the oracle {w}")
    return problems


def run_repetition(workload, seed, rep, workdir, oracle, trace, setup):
    """One pass over the workload's jobs.  Before each job, when ``setup`` is a
    list, one cold start is timed into it, so that set-up is sampled across
    the whole run."""
    cwd = Path(tempfile.mkdtemp(prefix=f"rep{rep}-", dir=workdir))
    walls = {"build": 0.0, "verify": 0.0}
    cpus = {"build": 0.0, "verify": 0.0}
    peak = 0.0
    attempted = failed = output_bytes = 0
    observed, problems, traces = {}, [], []
    for job in job_order(WORKLOADS[workload], seed, rep):
        if setup is not None:
            setup.append(setup_time(workdir))
        report_file = cwd / f"{job.name}.report.json"
        args = ["--report", str(report_file), *(["--trace"] if trace else []), "--", *job.argv]
        run = spawn(args, cwd, cwd / f"{job.name}.log")
        walls[job.kind] += run.wall_s
        cpus[job.kind] += run.cpu_s
        if report_file.is_file():
            report = json.loads(report_file.read_text())
            peak = max(peak, report["peak_rss_kb"] / 1024.0)
            if trace:
                traces.append((job.name, report))
        got, n, bad = observe(job, cwd, run.returncode)
        attempted += n
        failed += bad
        observed[job.name] = got
        problems += compare(job.name, oracle.get(job.name), got)
        if "missing" in got:
            log = (cwd / f"{job.name}.log").read_text(errors="replace")
            print(f"{job.name} exited {run.returncode}:\n{log[-2000:]}", file=sys.stderr)
        if (cwd / job.out).is_file():
            output_bytes += (cwd / job.out).stat().st_size
    shutil.rmtree(cwd)
    return Repetition(sum(walls.values()), walls["build"], walls["verify"], sum(cpus.values()),
                      cpus["build"], cpus["verify"], peak, attempted, failed, observed,
                      problems, output_bytes, traces)


def setup_time(workdir):
    """One cold start of an interpreter that imports the CLI and loads the fixture."""
    run = spawn(["--setup"], workdir, workdir / "setup.log")
    if run.returncode != 0:
        raise RuntimeError((workdir / "setup.log").read_text(errors="replace"))
    return run.wall_s


def per_layer(traces, untraced, traced):
    """Per-layer metrics summed over the jobs of one traced repetition."""
    metrics = {}
    for _, doc in traces:
        for name, rec in doc["stats"].items():
            for key, value in rec.items():
                metrics[f"{name}.{key}"] = metrics.get(f"{name}.{key}", 0) + value
    instances = {}
    for job_name, doc in traces:
        for label, total in doc["instances"].items():
            instances[label] = instances.get(label, 0.0) + total
        if job_name == "appendix_suite":
            instances["appendix-suite"] = doc["main_s"]
    for row_id, label, _ in STATE_ROWS:
        metrics[f"state.{row_id}.total_s"] = instances.get(label, 0.0)
    metrics["cli.output_bytes"] = traced.output_bytes
    metrics["trace.overhead"] = traced.wall_s / untraced.wall_s
    return {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name == "cli.output_bytes":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def environment(workload, seed):
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha}


def run_workload(workload, seed, seconds, trace, workdir, oracle):
    """Run one workload and print its summary.

    Returns (correct, attempted, failed, metrics, repetitions)."""
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"{len(WORKLOADS[workload])} jobs, one client, one fresh interpreter per job")
    expected = oracle.get(workload, {})
    reps = []
    setup_time(workdir)   # the first start also compiles bytecode; not timed
    setup = None if trace else []
    t0 = time.perf_counter()
    while True:
        reps.append(run_repetition(workload, seed, len(reps), workdir, expected,
                                   trace and len(reps) == 1, setup))
        if trace and len(reps) == 2:
            break
        if not trace and time.perf_counter() - t0 >= seconds:
            break
    problems = [p for rep in reps for p in rep.problems]
    if trace and reps[0].observed != reps[1].observed:
        problems.append("traced outputs differ from untraced outputs")
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for line in problems:
        print(f"  oracle mismatch: {line}", file=sys.stderr)

    if trace:
        metrics = per_layer(reps[1].traces, reps[0], reps[1])
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
        print_state_table(metrics, workload)
    else:
        def med(field):
            return statistics.median(getattr(rep, field) for rep in reps)

        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        for field in ("wall_s", "cpu_s", "build_cpu_s", "verify_cpu_s"):
            metrics[field] = {"value": med(field), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": med("peak_rss_mb"), "unit": "MB"}
        print(f"  {'setup_s':13s} {metrics['setup_s']['value']:10.4f} s      "
              f"median of {len(setup)} cold starts")
        for name in ("wall_s", "cpu_s", "build_cpu_s", "verify_cpu_s", "peak_rss_mb"):
            m = metrics[name]
            print(f"  {name:13s} {m['value']:10.4f} {m['unit']:6s} median of {len(reps)} repetitions")
        for name in ("build_s", "verify_s"):
            print(f"  {name:13s} {med(name):10.4f} s      median of {len(reps)} repetitions"
                  " (wall; printed, not gated)")
    print(f"  {'fail_share':13s} {failed / attempted:10.4f} ratio  "
          f"{failed} of {attempted} operations failed")
    print(f"  {'oracle':13s} {'ok' if not problems else f'{len(problems)} mismatches'}")
    print("  env " + json.dumps(environment(workload, seed), sort_keys=True))
    return not problems, attempted, failed, metrics, reps


def print_state_table(metrics, workload):
    print("  state table (traced; total time including nested calls)")
    for row_id, label, where in STATE_ROWS:
        if workload in (where, "all"):
            key = f"{where}.state.{row_id}.total_s" if workload == "all" else f"state.{row_id}.total_s"
            print(f"    {label:40s} {metrics[key]['value']:9.3f} s")
        else:
            print(f"    {label:40s}   (measured by workload {where})")
    for label in NOT_BENCHMARKED:
        print(f"    {label:40s}   not benchmarked")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-oracle", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qkzpsi" / "cli.py").is_file():
        print(f"bench: no qkzpsi source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not ORACLE.is_file() and not args.record_oracle:
        print(f"bench: missing {ORACLE}", file=sys.stderr)
        return 2
    oracle = json.loads(ORACLE.read_text()) if ORACLE.is_file() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, workdir, oracle)
                   for name in names}
    finally:
        shutil.rmtree(workdir)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    if args.record_oracle:
        for name, (_, _, _, _, reps) in results.items():
            if any("missing" in got for got in reps[0].observed.values()):
                print(f"bench: not recording {name}: a job produced no output", file=sys.stderr)
                return 1
            oracle[name] = reps[0].observed
        ORACLE.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
        print(f"recorded the oracle of {', '.join(names)} in {ORACLE}")

    if len(names) == 1:
        correct, attempted, failed, metrics, _ = results[names[0]]
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{name}.{key}": m for name, r in results.items() for key, m in r[3].items()}
        if args.trace:
            print_state_table(metrics, "all")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
