import copy
import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env(env=None):
    """This process's environment with src/ prepended to PYTHONPATH; entries
    of `env` override single variables on top of that, and an entry set to
    None removes its variable."""
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), child_env.get("PYTHONPATH")) if p
    )
    for name, value in (env or {}).items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    return child_env


def run_cli(*args, env=None):
    """Run the CLI in a child process that can import qkzpsi from src/,
    in the environment ``cli_env(env)``."""
    return subprocess.run(
        [sys.executable, "-m", "qkzpsi.cli", *args],
        capture_output=True, text=True, env=cli_env(env),
    )


def report_keys(path):
    """(check, instance, status, witness) of each report, wall_time left out."""
    doc = json.loads(path.read_text())
    return [(r["check"], r["instance"], r["status"], r["witness"])
            for r in doc["reports"]]


def test_psi_build_two_entries(tmp_path):
    out = tmp_path / "psi.json"
    res = run_cli("psi", "build", "--k", "2", "--lambda", "1,1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert len(doc["entries"]) == 2


def test_psi_build_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        res = run_cli("psi", "build", "--k", "2", "--lambda", "2,2", "--out", str(path))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_psi_build_holds_less_than_its_output(tmp_path):
    # the output is written as it is produced, so the job's traced peak
    # (vector and writer included) stays below the size of the file it writes
    from qkzpsi import cli
    out = tmp_path / "psi.json"
    tracemalloc.start()
    try:
        assert cli.main(["psi", "build", "--k", "4", "--lambda", "2,2,2,1", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


@pytest.mark.parametrize("k, lam", [(2, "2,1"), (4, "1,1,1,1")])
def test_psi_build_streams_the_bytes_of_json_dumps(tmp_path, k, lam):
    # the term rows of an entry are streamed a row a part, and the file is
    # byte for byte what json.dumps writes of the whole document
    from qkzpsi import cli
    from qkzpsi.qkz import build_psi_fundamental
    out = tmp_path / "psi.json"
    assert cli.main(["psi", "build", "--k", str(k), "--lambda", lam, "--out", str(out)]) == 0
    psi = build_psi_fundamental(k, tuple(map(int, lam.split(","))))
    want = json.dumps(psi.to_json(), indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == want.encode()


def test_json_rows_are_one_part_a_row():
    from qkzpsi.algebra import TermWriter
    from qkzpsi.qkz import build_psi_fundamental
    psi = build_psi_fundamental(2, (2, 1))
    writer = TermWriter(psi.ctx)
    for lab in psi.basis:
        p = psi.entries[lab]
        parts = writer.json_rows(p, "\n")
        assert not isinstance(parts, str)
        parts = list(parts)
        assert len(parts) == (len(p.terms) + 1 if p.terms else 1)
        assert "".join(parts) == json.dumps(p.to_json()["terms"], indent=2)


def test_slice_emit_holds_one_row_of_powers(tmp_path):
    # relations are built row by row and written as they come, so the job's
    # traced peak stays far below what all L+1 matrix powers take
    from qkzpsi import cli
    out = tmp_path / "eqs.txt"
    tracemalloc.start()
    try:
        assert cli.main(["slice", "emit", "--m", "2,2,2,2,2", "--ell", "5,5", "--deform",
                         "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_slice_emit_holds_one_polynomials_text(tmp_path):
    # the writer's caches of wide spans of exponent fields hold at most twice
    # the terms of the polynomial being written, and the relation builder
    # holds one entry of the top power, so the traced peak of the deformed
    # emit stays far below the 8.2 MiB it took with every span cached for the
    # whole output
    from qkzpsi import cli
    out = tmp_path / "eqs.txt"
    tracemalloc.start()
    try:
        assert cli.main(["slice", "emit", "--m", "2,2,2,2,2", "--ell", "5,5", "--deform",
                         "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("argv, owner, method", [
    (("psi", "build", "--k", "2", "--lambda", "2,2"), "TermWriter", "json_rows"),
    (("slice", "emit", "--m", "2,2,2", "--ell", "3,3"), "Polynomial", "text"),
], ids=["psi-build-json", "slice-emit-text"])
def test_a_job_that_fails_while_writing_leaves_no_file(tmp_path, monkeypatch, argv, owner,
                                                       method):
    from qkzpsi import algebra, cli
    out = tmp_path / "out"
    render = getattr(getattr(algebra, owner), method)
    open_when_called = []

    def render_once(*args):
        open_when_called.append(out.exists())
        if len(open_when_called) > 1:
            raise RuntimeError("render failed")
        return render(*args)

    monkeypatch.setattr(getattr(algebra, owner), method, render_once)
    with pytest.raises(RuntimeError, match="render failed"):
        cli.main([*argv, "--out", str(out)])
    # the first entry was written to an open file before the second one failed
    assert open_when_called == [True, True]
    assert not out.exists()


def test_a_job_that_fails_while_writing_to_a_device_removes_nothing(monkeypatch):
    from qkzpsi import algebra, cli

    def fail(*args):
        raise RuntimeError("render failed")

    removed = []
    monkeypatch.setattr(cli.os, "remove", removed.append)
    monkeypatch.setattr(algebra.TermWriter, "json_rows", fail)
    with pytest.raises(RuntimeError, match="render failed"):
        cli.main(["psi", "build", "--k", "2", "--lambda", "1,1", "--out", os.devnull])
    assert removed == []


def test_a_write_that_fails_ends_in_one_line_and_leaves_no_file(tmp_path, monkeypatch, capsys):
    from qkzpsi import algebra, cli
    out = tmp_path / "psi.json"
    rows = algebra.TermWriter.json_rows
    calls = []

    def full_after_one_entry(*args):
        calls.append(out.exists())
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return rows(*args)

    monkeypatch.setattr(algebra.TermWriter, "json_rows", full_after_one_entry)
    assert cli.main(["psi", "build", "--k", "2", "--lambda", "2,2", "--out", str(out)]) == 2
    assert calls == [True, True]
    assert not out.exists()
    assert capsys.readouterr().err == (f"qkzpsi: error: cannot write {out}: "
                                       f"{os.strerror(errno.ENOSPC)}\n")


FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(FULL), reason="no /dev/full")


def assert_one_error_line(res, path):
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines() == [
        f"qkzpsi: error: cannot write {path}: {os.strerror(errno.ENOSPC)}"]


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("psi", "build", "--k", "2", "--lambda", "2,2", "--out"),
    ("slice", "emit", "--m", "2,2", "--ell", "2,2", "--out"),
    ("rmat", "verify", "--check", "unitarity", "--k", "3", "--out"),
    ("appendix-suite", "--json-out"),
    ("slice", "verify-appendix", "--json-out"),
], ids=["psi-build", "slice-emit", "rmat-verify", "appendix-suite", "slice-verify-appendix"])
def test_a_full_device_ends_in_one_line(argv):
    assert_one_error_line(run_cli(*argv, FULL), FULL)


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("psi", "build", "--k", "2", "--lambda", "2,2"),
    ("slice", "emit", "--m", "2,2,2,2,2", "--ell", "5,5"),
], ids=["psi-build", "slice-emit"])
def test_a_full_stdout_ends_in_one_line(argv):
    with open(FULL, "w") as full:
        res = subprocess.run([sys.executable, "-m", "qkzpsi.cli", *argv], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=cli_env())
    assert_one_error_line(res, "stdout")


def test_psi_verify_wheel_roundtrip(tmp_path):
    out = tmp_path / "psi.json"
    res = run_cli("psi", "build", "--k", "2", "--lambda", "2,2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    res = run_cli("psi", "verify", "--check", "wheel", "--in", str(out))
    assert res.returncode == 0, res.stderr
    reports = json.loads(res.stdout)["reports"]
    assert reports and all(r["status"] == "pass" for r in reports)


def test_psi_verify_exchange_and_cyclicity(tmp_path):
    out = tmp_path / "psi.json"
    res = run_cli("psi", "build", "--k", "2", "--lambda", "2,2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    for check in ("exchange", "cyclicity", "recurrence"):
        res = run_cli("psi", "verify", "--check", check, "--in", str(out))
        assert res.returncode == 0, (check, res.stderr)


@pytest.fixture(scope="module")
def inhomogeneous_psi(tmp_path_factory):
    out = tmp_path_factory.mktemp("inhomogeneous") / "psi.json"
    res = run_cli("psi", "build", "--k", "3", "--lambda", "2,2,2", "--m", "2,1,2,1",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    return out


@pytest.mark.parametrize("check, slots", [("cyclicity", 1), ("qkz", 4)])
def test_psi_verify_skips_rotation_checks_for_inhomogeneous_m(inhomogeneous_psi, check, slots):
    res = run_cli("psi", "verify", "--check", check, "--in", str(inhomogeneous_psi))
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    reports = json.loads(res.stdout)["reports"]
    assert [(r["check"], r["status"], r["witness"]) for r in reports] == (
        [(check, "skipped", "m not homogeneous")] * slots)


@pytest.mark.parametrize("k, lam, m, slots", [
    # M is not divisible by k: the rotation's sign raised a CombinatoricsError
    (3, "1,1", "2", 1), (2, "4,3", None, 7), (3, "2,2", None, 4),
    # M/k is a whole number, but lambda is not (M/k)^k: the checks ran and failed
    (4, "2,2", None, 4), (2, "3,1", None, 4),
], ids=["k3_11_m2", "k2_43", "k3_22", "k4_22", "k2_31"])
def test_psi_verify_skips_rotation_checks_off_the_rectangle(tmp_path, capsys, k, lam, m, slots):
    from qkzpsi import cli

    vector = tmp_path / "psi.json"
    build = ["psi", "build", "--k", str(k), "--lambda", lam, "--out", str(vector)]
    assert cli.main(build + (["--m", m] if m else [])) == 0
    why = f"lambda is not a {k}-row rectangle (M/k)^k: no rotation"
    for check, count in (("cyclicity", 1), ("qkz", slots)):
        out = tmp_path / f"{check}.json"
        assert cli.main(["psi", "verify", "--check", check, "--in", str(vector),
                         "--out", str(out)]) == 0
        assert [(c, s, w) for c, _, s, w in report_keys(out)] == [(check, "skipped", why)] * count
    capsys.readouterr()


def test_psi_verify_skips_slots_of_the_kth_wedge_power(tmp_path, capsys):
    # k = 2, m = (2,2,2): every slot is the k-th wedge power, which has no
    # fused R-matrix; exchange and qkz raised an RMatrixError there
    from qkzpsi import cli

    vector = tmp_path / "psi.json"
    assert cli.main(["psi", "build", "--k", "2", "--lambda", "3,3", "--m", "2,2,2",
                     "--out", str(vector)]) == 0
    found = {}
    for check in ("exchange", "qkz", "cyclicity"):
        out = tmp_path / f"{check}.json"
        assert cli.main(["psi", "verify", "--check", check, "--in", str(vector),
                         "--out", str(out)]) == 0
        found[check] = [(s, w) for _, _, s, w in report_keys(out)]
    why = "m_{} = k = 2: the k-th wedge power has no fused R-matrix".format
    assert found["exchange"] == [("skipped", why(1)), ("skipped", why(2))]
    assert found["qkz"] == [("skipped", f"exchange at slot 1: {why(1)}")] * 3
    assert found["cyclicity"] == [("pass", None)]
    capsys.readouterr()


@pytest.fixture(scope="module")
def one_slot_psi(tmp_path_factory):
    """k = 3, m = (2): one slot, and its m-sum 2 is not above k."""
    out = tmp_path_factory.mktemp("one_slot") / "psi.json"
    res = run_cli("psi", "build", "--k", "3", "--lambda", "1,1", "--m", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    return out


@pytest.mark.parametrize("check, witness", [
    ("exchange", "one slot: no adjacent pair to exchange"),
    ("wheel", "no placement has an m-sum above k = 3"),
])
def test_psi_verify_skips_a_check_with_nothing_to_check(one_slot_psi, check, witness):
    res = run_cli("psi", "verify", "--check", check, "--in", str(one_slot_psi))
    assert res.returncode == 0, res.stderr
    reports = json.loads(res.stdout)["reports"]
    assert [(r["check"], r["instance"], r["status"], r["witness"]) for r in reports] == [
        (check, "k=3 lambda=(1,1) m=(2)", "skipped", witness)]


def test_psi_verify_rejects_a_slot_of_a_one_slot_vector(one_slot_psi):
    res = run_cli("psi", "verify", "--check", "exchange", "--slot", "1", "--in", str(one_slot_psi))
    assert_usage_error(res)
    assert "--slot 1: the vector has one slot and no adjacent pair to exchange" in res.stderr
    assert res.stdout == ""


def test_slice_emit_text():
    res = run_cli("slice", "emit", "--m", "2,2,2,2", "--ell", "4,4,0,0")
    assert res.returncode == 0, res.stderr
    assert "X^4" in res.stdout
    assert "A12" in res.stdout or "B12" in res.stdout


def test_slice_emit_names_eleven_blocks_apart():
    # with 11 blocks, block indices (1,11) and (11,1) must give two names
    ones = ",".join(["1"] * 11)
    res = run_cli("slice", "emit", "--m", ones, "--ell", ones)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert "X^1[1,11] : A1_11 = 0" in res.stdout and "X^1[11,1] : A11_1 = 0" in res.stdout


def test_slice_emit_deformed_mentions_t():
    res = run_cli("slice", "emit", "--m", "2,2", "--ell", "2,2", "--deform")
    assert res.returncode == 0, res.stderr
    assert "t1" in res.stdout


def test_slice_verify_appendix():
    res = run_cli("slice", "verify-appendix")
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("PASS") == 4


def test_slice_verify_appendix_reports_a_raising_check(monkeypatch, capsys, tmp_path):
    # in process, with the equations check replaced by one that raises
    from qkzpsi import appendix, cli

    def boom(doc):
        raise ValueError("boom")

    monkeypatch.setattr(appendix, "SUITE", tuple(
        (name, boom if name == "equations" else fn) for name, fn in appendix.SUITE))
    out = tmp_path / "reports.json"
    assert cli.main(["slice", "verify-appendix", "--json-out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL  equations  appendix  [ValueError: boom]"
    assert [line.split()[:2] for line in lines[1:]] == [
        ["PASS", "components"], ["PASS", "multidegrees"], ["PASS", "deformed-equations"]]
    assert [r["status"] for r in json.loads(out.read_text())["reports"]] == [
        "fail", "pass", "pass", "pass"]


def test_rmat_show_flip_form():
    res = run_cli("rmat", "show", "--k", "2", "--a", "1", "--b", "1")
    assert res.returncode == 0, res.stderr
    assert "(hb) / ((hb + z))" in res.stdout
    assert "(-z) / ((hb + z))" in res.stdout


def test_rmat_verify_ybe():
    res = run_cli("rmat", "verify", "--check", "ybe", "--k", "3")
    assert res.returncode == 0, res.stderr
    assert "PASS" in res.stdout


def test_rmat_verify_unitarity_k6_33():
    res = run_cli("rmat", "verify", "--check", "unitarity", "--k", "6", "--a", "3", "--b", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "PASS  unitarity  fused k=6 a=3 b=3"


@pytest.mark.parametrize("check", ["unitarity", "ybe"])
def test_rmat_verify_k6_55(check):
    # wedge_5 x wedge_5 of k = 6: two components, r = |S & T| = 4 and 5
    res = run_cli("rmat", "verify", "--check", check, "--k", "6", "--a", "5", "--b", "5")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == f"PASS  {check}  fused k=6 a=5 b=5"


def test_appendix_suite_cli(tmp_path):
    out = tmp_path / "reports.json"
    res = run_cli("appendix-suite", "--json-out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("PASS") == 8
    doc = json.loads(out.read_text())
    assert len(doc["reports"]) == 8


@pytest.mark.parametrize("argv, count", [
    (("rmat", "verify", "--check", "unitarity", "--k", "3", "--out", "-"), 1),
    (("appendix-suite", "--json-out", "-"), 8),
    (("slice", "verify-appendix", "--json-out", "-"), 4),
], ids=["rmat-verify", "appendix-suite", "slice-verify-appendix"])
def test_reports_to_stdout_leave_the_lines_to_stderr(argv, count):
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)  # the whole of stdout is the document
    assert [r["status"] for r in doc["reports"]] == ["pass"] * count
    lines = res.stderr.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", r["check"]] for r in doc["reports"]]


def test_appendix_suite_threads_env(tmp_path):
    """QKZ_THREADS is no longer read: setting it changes no report."""
    unset = tmp_path / "unset.json"
    res = run_cli("appendix-suite", "--json-out", str(unset), env={"QKZ_THREADS": None})
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("PASS") == 8
    for value in ("4", "not-a-number"):
        out = tmp_path / f"threads-{value}.json"
        res = run_cli("appendix-suite", "--json-out", str(out), env={"QKZ_THREADS": value})
        assert res.returncode == 0, res.stderr
        assert res.stdout.count("PASS") == 8
        assert report_keys(out) == report_keys(unset)


def flip_rho_entry(doc):
    doc["rho"][1][1] = -doc["rho"][1][1]


def double_a_deformed_coefficient(doc):
    doc["deformed_relations"][0]["terms"][0]["c"] = 2


def test_corrupted_fixture_exactly_one_fail(appendix_doc):
    from qkzpsi.appendix import SUITE, guarded_jobs

    for corrupt, check in ((flip_rho_entry, "cyclicity"),
                           (double_a_deformed_coefficient, "deformed-equations")):
        doc = copy.deepcopy(appendix_doc)
        corrupt(doc)
        reports = [job() for job in guarded_jobs(doc, dict(SUITE))]
        assert [r.check for r in reports if not r.passed] == [check], corrupt.__name__


def assert_usage_error(res):
    """Exit status 2 and one line on stderr, no traceback."""
    assert res.returncode == 2, res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("qkzpsi: error: "), res.stderr


def test_psi_build_rejects_wedge_larger_than_k(tmp_path):
    out = tmp_path / "psi.json"
    res = run_cli("psi", "build", "--k", "2", "--lambda", "2,2", "--m", "3,1",
                  "--out", str(out))
    assert_usage_error(res)
    assert "m_i" in res.stderr
    assert not out.exists()


def test_psi_build_refuses_an_instance_above_the_term_limit(monkeypatch, capsys, tmp_path):
    # in process, so that building anything fails the test
    from qkzpsi import cli, qkz

    def built(*args):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(qkz, "extreme_component", built)
    monkeypatch.setattr(qkz, "exchange_step", built)
    out = tmp_path / "psi.json"
    assert cli.main(["psi", "build", "--k", "2", "--lambda", "5,5", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("qkzpsi: error: "), lines
    assert "MAX_PREDICTED_TERMS" in lines[0]
    assert not out.exists()


def test_psi_build_rejects_bad_lambda_and_m_sum(tmp_path):
    out = tmp_path / "psi.json"
    res = run_cli("psi", "build", "--k", "2", "--lambda", "1,2", "--out", str(out))
    assert_usage_error(res)
    assert "weakly decreasing" in res.stderr
    res = run_cli("psi", "build", "--k", "2", "--lambda", "2,2", "--m", "2,1",
                  "--out", str(out))
    assert_usage_error(res)
    assert "sum(m)" in res.stderr
    assert not out.exists()


def test_psi_verify_rejects_incomplete_json(tmp_path):
    path = tmp_path / "psi.json"
    path.write_text('{"entries": []}')
    res = run_cli("psi", "verify", "--check", "exchange", "--in", str(path))
    assert_usage_error(res)
    assert "'k'" in res.stderr
    # a complete header whose entries do not cover the content labels
    path.write_text('{"k": 2, "lambda": [1, 1], "m": [1, 1], "vars": 2, "entries": []}')
    res = run_cli("psi", "verify", "--check", "exchange", "--in", str(path))
    assert_usage_error(res)


@pytest.mark.parametrize("argv, fragment", [
    (("slice", "emit", "--m", "2,2", "--ell", "3,3"), "ell must sum to the matrix size 4"),
    (("slice", "emit", "--m", "2,0", "--ell", "2"), "positive block sizes"),
    (("slice", "emit", "--m", "7,7", "--ell", "14"), "desk-scale limit"),
    (("slice", "emit", "--m", "2,,2", "--ell", "4"), "got '2,,2'"),
    (("slice", "emit", "--m", "2,2", "--ell", "2,1,1", "--deform"), "rectangular ell only"),
    (("rmat", "show", "--k", "3", "--a", "4"), "1 <= a, b <= k-1"),
    (("rmat", "verify", "--check", "ybe", "--k", "3", "--a", "0", "--b", "1"),
     "1 <= a, b <= k-1"),
    (("rmat", "verify", "--check", "unitarity", "--k", "4", "--a", "1", "--b", "2"),
     "a = 1 != b = 2"),
], ids=["ell-sum", "zero-block", "oversize", "m-empty-item", "deform-not-rectangular", "wedge-above-k",
        "zero-wedge", "verify-a-not-b"])
def test_bad_slice_and_rmat_input_is_a_usage_error(argv, fragment):
    res = run_cli(*argv)
    assert_usage_error(res)
    assert fragment in res.stderr
    assert res.stdout == ""


def test_psi_verify_rejects_exponents_that_do_not_pack(tmp_path):
    from qkzpsi.qkz import build_psi_fundamental

    doc = build_psi_fundamental(2, (1, 1)).to_json()
    # term rows are [num, den, e_z1, e_z2, e_h]
    for bad in (2 ** 16, -1):
        doc["entries"][0]["poly"]["terms"][0][2] = bad
        path = tmp_path / f"bad{bad}.json"
        path.write_text(json.dumps(doc))
        res = run_cli("psi", "verify", "--check", "exchange", "--in", str(path))
        assert_usage_error(res)
        assert "malformed psi JSON" in res.stderr


def repeated_row_files(tmp_path):
    """A vector file of ``psi build --k 2 --lambda 2,2`` whose first row is
    given twice, the second time with another polynomial, and one whose
    first entry gives its first term twice, with another coefficient."""
    from qkzpsi.qkz import build_psi_fundamental

    doc = build_psi_fundamental(2, (2, 2)).to_json()
    rows = doc["entries"]
    labels = dict(doc, entries=[rows[0], dict(rows[0], poly=rows[1]["poly"])] + rows[1:])
    terms = rows[0]["poly"]["terms"]
    first = dict(rows[0], poly=dict(rows[0]["poly"], terms=[terms[0], [7, 1, *terms[0][2:]],
                                                              *terms[1:]]))
    monomials = dict(doc, entries=[first] + rows[1:])
    paths = {}
    for name, bad in (("label", labels), ("monomial", monomials)):
        paths[name] = tmp_path / f"repeated_{name}.json"
        paths[name].write_text(json.dumps(bad))
    return paths


def test_psi_verify_refuses_a_label_given_twice(tmp_path):
    # the last of the two rows used to win, and the label check passed
    res = run_cli("psi", "verify", "--check", "exchange",
                  "--in", str(repeated_row_files(tmp_path)["label"]))
    assert_usage_error(res)
    assert "gives the label ({1},{1},{2},{2}) twice" in res.stderr


def test_psi_verify_refuses_a_monomial_given_twice(tmp_path):
    res = run_cli("psi", "verify", "--check", "exchange",
                  "--in", str(repeated_row_files(tmp_path)["monomial"]))
    assert_usage_error(res)
    assert "malformed psi JSON" in res.stderr and "is given twice" in res.stderr


@pytest.mark.parametrize("argv, fragment", [
    (("--lambda", ""), "lambda must not be empty"),
    (("--lambda", "3,3", "--m", ""), "m must not be empty"),
    # an empty item is malformed, not skipped: 2,,2 is not the lambda (2,2)
    (("--lambda", "2,,2"), "expected comma-separated integers, got '2,,2'"),
    (("--lambda", ",2,2"), "expected comma-separated integers, got ',2,2'"),
    (("--lambda", "2,2,"), "expected comma-separated integers, got '2,2,'"),
    (("--lambda", "3,3", "--m", "2,,2,2"), "expected comma-separated integers, got '2,,2,2'"),
], ids=["empty-lambda", "empty-m", "lambda-empty-item", "lambda-leading-comma",
        "lambda-trailing-comma", "m-empty-item"])
def test_psi_build_rejects_empty_lambda_and_m(tmp_path, argv, fragment):
    out = tmp_path / "psi.json"
    res = run_cli("psi", "build", "--k", "2", *argv, "--out", str(out))
    assert_usage_error(res)
    assert fragment in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("psi", "build", "--k", "2", "--lambda", "2,2", "--out"),
    ("appendix-suite", "--json-out"),
], ids=["psi-build", "appendix-suite"])
def test_an_unwritable_output_path_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "missing" / "x.json"
    res = run_cli(*argv, str(out))
    assert_usage_error(res)
    assert f"cannot write {out}: No such file or directory" in res.stderr
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [
    ("slice", "emit", "--m", "2,2,2,2,2", "--ell", "5,5"),
    ("psi", "build", "--k", "2", "--lambda", "3,3", "--out", "-"),
], ids=["slice-emit", "psi-build"])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(argv):
    # each output is far larger than a pipe holds, so the job is still
    # writing when the reader goes away after one line
    child = subprocess.Popen([sys.executable, "-m", "qkzpsi.cli", *argv], env=cli_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline()
    child.stdout.close()
    assert (child.wait(timeout=60), child.stderr.read()) == (1, b"")
    child.stderr.close()


@pytest.mark.parametrize("check", ["cyclicity", "exchange", "qkz"])
def test_psi_verify_rejects_a_vector_with_no_slots(tmp_path, check):
    # what `psi build --k 2 --lambda ''` wrote before empty lambdas were refused
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"entries": [{"label": [], "poly": {"terms": [[1, 1, 0]],
                                "vars": 0}}], "k": 2, "lambda": [], "m": [], "schema": 1,
                                "vars": 0}))
    res = run_cli("psi", "verify", "--check", check, "--in", str(path))
    assert_usage_error(res)
    assert "no slots" in res.stderr


@pytest.fixture(scope="module")
def verify_files(tmp_path_factory):
    """psi (2,(2,2)), fundamental and fused to m = (2,2), and psi (3,(2,2)),
    whose lambda has fewer than k rows."""
    root = tmp_path_factory.mktemp("verify")
    builds = {"fundamental": ("2", ()), "fused": ("2", ("--m", "2,2")), "k3_22": ("3", ())}
    paths = {name: root / f"{name}.json" for name in builds}
    for name, (k, m) in builds.items():
        res = run_cli("psi", "build", "--k", k, "--lambda", "2,2", *m, "--out", str(paths[name]))
        assert res.returncode == 0, res.stderr
    return paths


@pytest.mark.parametrize("vector, argv, fragment", [
    ("fundamental", ("exchange", "--slot", "9"), "--slot must lie in 1..3, got 9"),
    ("fundamental", ("qkz", "--slot", "9"), "--slot must lie in 1..4, got 9"),
    ("fundamental", ("exchange", "--slot", "-1"), "--slot must lie in 1..3, got -1"),
    ("fundamental", ("exchange", "--slot", "0"), "--slot must lie in 1..3, got 0"),
    ("fundamental", ("wheel", "--positions", "2,1"), "strictly increasing"),
    ("fundamental", ("wheel", "--positions", "1,2"), "sum(1, 1) = 2 <= k = 2"),
    ("fundamental", ("wheel", "--positions", "1,9"), "must lie in 1..4, got (1, 9)"),
    # an explicitly empty list is not the default placements
    ("fundamental", ("wheel", "--positions", ""), "--positions must not be empty"),
    ("fundamental", ("wheel", "--positions", "1,,3"), "got '1,,3'"),
    ("fused", ("recurrence",), "takes a fundamental vector, m = (1, ..., 1); got m = (2, 2)"),
    ("k3_22", ("recurrence",),
     "lambda (2, 2) has 2 rows, fewer than k = 3: no column of k boxes to remove"),
    ("fundamental", ("recurrence", "--insert-at", "5"), "must lie in 1..3, got 5"),
    # a flag that the check does not read
    ("fundamental", ("cyclicity", "--slot", "9"),
     "--slot applies to --check exchange and qkz only, not to cyclicity"),
    ("fundamental", ("wheel", "--slot", "1"),
     "--slot applies to --check exchange and qkz only, not to wheel"),
    ("fundamental", ("recurrence", "--slot", "1"),
     "--slot applies to --check exchange and qkz only, not to recurrence"),
    ("fundamental", ("exchange", "--positions", "1,2,3"),
     "--positions applies to --check wheel only, not to exchange"),
    ("fundamental", ("qkz", "--positions", "1,2,3"),
     "--positions applies to --check wheel only, not to qkz"),
    ("fundamental", ("cyclicity", "--insert-at", "1"),
     "--insert-at applies to --check recurrence only, not to cyclicity"),
    ("fundamental", ("wheel", "--insert-at", "2"),
     "--insert-at applies to --check recurrence only, not to wheel"),
], ids=["exchange-slot-9", "qkz-slot-9", "slot-minus-1", "slot-0", "positions-decreasing",
        "positions-sum-at-most-k", "positions-beyond-N", "positions-empty",
        "positions-empty-item", "recurrence-fused",
        "recurrence-no-k-column", "insert-at-5",
        "cyclicity-slot", "wheel-slot", "recurrence-slot", "exchange-positions",
        "qkz-positions", "cyclicity-insert-at", "wheel-insert-at"])
def test_bad_psi_verify_input_is_a_usage_error(verify_files, vector, argv, fragment):
    res = run_cli("psi", "verify", "--in", str(verify_files[vector]), "--check", *argv)
    assert_usage_error(res)
    assert fragment in res.stderr
    assert res.stdout == ""


def test_psi_verify_qkz_runs_one_certificate_for_every_slot(tmp_path, monkeypatch, capsys):
    # the certificate does not depend on the slot: one exchange check per
    # adjacent pair (3 for N = 4, not 3 per slot), and one report per slot
    from qkzpsi import cli, qkz

    vector = tmp_path / "psi.json"
    assert cli.main(["psi", "build", "--k", "4", "--lambda", "1,1,1,1", "--out", str(vector)]) == 0
    real, slots = qkz.check_exchange, []

    def counted(psi, i, *args, **kwargs):
        slots.append(i)
        return real(psi, i, *args, **kwargs)

    monkeypatch.setattr(qkz, "check_exchange", counted)
    out = tmp_path / "qkz.json"
    assert cli.main(["psi", "verify", "--check", "qkz", "--in", str(vector),
                     "--out", str(out)]) == 0
    assert slots == [1, 2, 3]
    name = "k=4 lambda=(1,1,1,1) m=(1,1,1,1)"
    assert report_keys(out) == [("qkz", f"{name} i={i}", "pass", None) for i in range(1, 5)]
    capsys.readouterr()


# SHA-256 of small CLI outputs, recorded before the term writer replaced the
# per-term text and JSON code; every output must keep its bytes.
GOLDEN = [
    (("psi", "build", "--k", "2", "--lambda", "3,2"),
     "b2ea7c58c3fe6a5e782c12d586e6767c7a5dfe5a85736201a669e951ea029036"),
    (("psi", "build", "--k", "2", "--lambda", "2,2", "--m", "2,2", "--format", "text"),
     "bf149f4f7463f1c41e89b286a4814592e8fa75d11c9579a975d6fd316f007598"),
    (("slice", "emit", "--m", "2,2,2", "--ell", "3,3", "--deform"),
     "b19637fdf173520bbcccd5953373f993a5ffa31985cc557d20d1f7d4e9049570"),
    (("slice", "emit", "--m", "2,2,2", "--ell", "3,3", "--deform", "--format", "json"),
     "0c3b01ade6708e7aa6bfcce685ded181aa8345b550766559de436b0097e8f007"),
    # recorded before slice emit streamed its relations
    (("slice", "emit", "--m", "2,2,2", "--ell", "3,3"),
     "d8a3362da067eda2d9b2effbcfda74024b981b14008778014e4cb07e8278f349"),
    (("slice", "emit", "--m", "2,2,2", "--ell", "3,3", "--format", "json"),
     "ce1c5da5b2ecd3218e62e53f13f735a92bc9141bd12cd26f1a07510043c1e5d5"),
    (("slice", "emit", "--m", "1,1,1,1", "--ell", "2,1,1,0"),
     "11e436643e9720b3a58658dd02c4074e0b241ac096d57996de141d66d3277b70"),
    (("slice", "emit", "--m", "1,1,1,1", "--ell", "2,1,1,0", "--format", "json"),
     "d14713133cce5eb97e2815108e87b7478655fde347f70df188c4fccd09342339"),
    (("rmat", "show", "--k", "3", "--a", "1", "--b", "2"),
     "ae352cfdadb02d29935a60e45c03d6c4371d95b0b7f966d84d7ee22f9a49d4de"),
    # recorded before the fused braid went through ROperator.apply
    (("rmat", "show", "--k", "6", "--a", "3", "--b", "3", "--format", "json"),
     "c036534b832157b905b55a29a93251025bd213aa203adc9f273f7bac39a7b321"),
    (("rmat", "show", "--k", "4", "--a", "2", "--b", "2"),
     "bfaaa13c2a4b4ac73904ce58d94fffa67266c679b7ddb96f4804961eb94384f4"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[
    "psi-json", "psi-fused-text", "slice-deformed-text", "slice-deformed-json",
    "slice-rectangular-text", "slice-rectangular-json", "slice-minors-text", "slice-minors-json",
    "rmat-text", "rmat-fused-json", "rmat-fused-text"])
def test_output_bytes_are_golden(tmp_path, argv, digest):
    out = tmp_path / "out"
    res = run_cli(*argv, "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
