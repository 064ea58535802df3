"""Tests of the benchmark's tracer and of its traced runs.

    python3 -m pytest -q bench/tests

The traced-run test runs every workload once untraced and once traced
(about three minutes on two cores).
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from tracer import TARGETS, Tracer  # noqa: E402

# Each function of the per-layer table, and a workload on which it must run.
HEAVY = {
    "psi": (
        "algebra.mul", "algebra.add", "algebra.exact_div", "algebra.substitute",
        "algebra.swap_z", "algebra.to_json", "algebra.from_json",
        "qkz.build_psi_fundamental", "qkz.fuse_psi", "qkz.check_exchange",
        "qkz.check_wheel", "qkz.check_cyclicity", "qkz.psi_to_json", "qkz.psi_from_json",
        "combinatorics.sequence_rotation", "combinatorics.signed_perm_apply",
    ),
    "operators": (
        "algebra.text", "algebra.rf_mul", "algebra.rf_add", "algebra.rf_equals",
        "algebra.rf_substitute_z", "qkz.qkz_step", "rmatrix.fused_rcheck",
        "rmatrix.pair_operator", "rmatrix.substitute_spectral", "rmatrix.apply",
        "rmatrix.matmul", "rmatrix.verify_ybe", "rmatrix.verify_unitarity",
        "rmatrix.verify_commutation", "rmatrix.text_matrix",
    ),
    "appendix": (
        "rmatrix.solve_rmatrix_from_exchange", "slice.emit_equations",
        "slice.emit_deformed_equations", "slice.matrix_relation_value",
        "slice.verify_component_membership", "appendix.equations", "appendix.components",
        "appendix.multidegrees", "appendix.rmatrix-solve", "appendix.ybe-unitarity",
        "appendix.cyclicity", "appendix.wheel", "appendix.deformed-equations",
        "cli.main", "cli.run_reports",
    ),
}


def _bindings():
    """Every attribute of every qkzpsi module and class defined there, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "qkzpsi" or name.startswith("qkzpsi.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_every_target_is_wrapped_at_every_binding_site_and_restored():
    import qkzpsi.algebra as algebra
    import qkzpsi.appendix as appendix
    import qkzpsi.cli as cli
    import qkzpsi.qkz as qkz
    import qkzpsi.rmatrix as rmatrix

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.build_psi_fundamental is qkz.build_psi_fundamental
        assert cli.build_psi_fundamental.__wrapped__ is before[("qkzpsi.qkz", "build_psi_fundamental")]
        assert cli.fused_rcheck is rmatrix.fused_rcheck
        assert vars(algebra.Polynomial)["__rmul__"] is vars(algebra.Polynomial)["__mul__"]
        assert vars(algebra.Polynomial)["__radd__"] is vars(algebra.Polynomial)["__add__"]
        assert vars(algebra.RationalFunction)["__rmul__"] is vars(algebra.RationalFunction)["__mul__"]
        assert appendix.matrix_applicator is rmatrix.matrix_applicator
        for name, modname, clsname, attr, *_ in TARGETS:
            key = (f"qkzpsi.{modname}", attr) if clsname is None else (
                f"qkzpsi.{modname}", clsname, attr)
            now = _bindings()[key]
            assert now is not before[key], name
        assert all(fn is not before[("qkzpsi.appendix", "SUITE")][i][1]
                   for i, (_, fn) in enumerate(appendix.SUITE))
        # A wrapped call is counted, and its nested wrapped calls are not self time.
        p = algebra.spectral_context(2).z(1)
        q = (p + 1) * (p - 1)
        assert q.terms and tracer.stats["algebra.mul"]["calls"] == 1
        assert tracer.stats["algebra.mul"]["term_products"] == 4
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in HEAVY:
        res = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 0, res.stderr
        runs[workload] = json.loads(res.stdout.strip().splitlines()[-1])
    return runs


@pytest.mark.parametrize("workload", sorted(HEAVY))
def test_traced_run_covers_its_heavy_functions(traced_runs, workload):
    result = traced_runs[workload]
    # correct also requires the traced outputs to equal the untraced ones.
    assert result["correct"] is True
    metrics = result["metrics"]
    missing = [name for name in HEAVY[workload] if metrics[f"{name}.calls"]["value"] <= 0]
    assert missing == []
    assert metrics["cli.output_bytes"]["value"] > 0
    assert metrics["trace.overhead"]["value"] > 0


def test_every_traced_function_has_a_heavy_workload(traced_runs):
    names = {key[:-len(".calls")] for key in traced_runs["psi"]["metrics"] if key.endswith(".calls")}
    assert names == {name for names in HEAVY.values() for name in names}


def test_failing_cyclicity_is_counted_on_psi(traced_runs):
    metrics = traced_runs["psi"]["metrics"]
    assert metrics["qkz.checks.failed"]["value"] >= 1
    assert traced_runs["psi"]["failed"] >= 1
