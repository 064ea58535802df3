"""The workloads of the benchmark, replayed in process.

``bench/workloads.py`` lists the command-line jobs of each workload, and
``bench/oracle.json`` what they wrote when the oracle was recorded: the
SHA-256 of each build, show and emit output, and (check, instance, status,
witness) of each report.  The jobs run through ``qkzpsi.cli.main`` in a
temporary directory, in their listed order, which keeps each job after the
one whose output it reads.  Both files are read by path; nothing under
bench/ is changed.  The outputs are compared by ``bench/run.py``'s own rule:
a report that failed when the oracle was recorded may now pass, with the
same check and instance; nothing else may differ.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from qkzpsi import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def report_mismatches(want, got):
    """(recorded, observed) of each report that differs other than by a
    recorded fail that now passes; the two whole lists if their lengths differ."""
    if len(got) != len(want):
        return [(want, got)]
    return [(w, g) for w, g in zip(want, got)
            if g != w and not (w[2] == "fail" and g[2] == "pass" and w[:2] == g[:2])]


def test_the_rule_lets_a_recorded_fail_pass_and_nothing_else():
    want = [["cyclicity", "k=3", "fail", "18 of 90"], ["exchange", "k=3", "pass", None]]
    assert report_mismatches(want, [["cyclicity", "k=3", "pass", None], want[1]]) == []
    broken = ["exchange", "k=3", "fail", "x"]
    assert report_mismatches(want, [want[0], broken]) == [(want[1], broken)]
    moved = ["cyclicity", "k=2", "pass", None]
    assert report_mismatches(want, [moved, want[1]]) == [(want[0], moved)]
    assert report_mismatches(want, []) == [(want, [])]


@pytest.mark.parametrize("workload", ["psi", "operators", "appendix"])
def test_workload_outputs_match_the_oracle(workload, tmp_path, monkeypatch, capsys):
    oracle = json.loads((BENCH / "oracle.json").read_text())[workload]
    monkeypatch.chdir(tmp_path)
    jobs = load_workloads()[workload]
    assert sorted(job.name for job in jobs) == sorted(oracle)
    for job in jobs:
        returncode = cli.main(list(job.argv))
        capsys.readouterr()
        want = oracle[job.name]
        out = tmp_path / job.out
        if "sha256" in want:
            assert returncode == 0, job.name
            assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"], job.name
        else:
            reports = json.loads(out.read_text())["reports"]
            got = [[r["check"], r["instance"], r["status"], r["witness"]] for r in reports]
            assert report_mismatches(want["reports"], got) == [], job.name
