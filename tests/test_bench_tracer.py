"""The benchmark's tracer still finds every function it wraps.

``bench/tracer.py`` binds functions of the package by name, so renaming or
deleting one of them would otherwise show only when ``bench/run.py --trace 1``
runs.  The tracer is imported by path; nothing under bench/ is changed.
"""

import importlib.util
import sys
from pathlib import Path

from qkzpsi.algebra import LinearForm, RationalFunction
from qkzpsi.rmatrix import fundamental_rcheck

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def binding(modname, clsname, attr):
    module = sys.modules[f"qkzpsi.{modname}"]
    owner = module if clsname is None else getattr(module, clsname)
    return vars(owner)[attr]


def test_tracer_patches_every_target_and_restores_it():
    bench_tracer = load_tracer()
    import qkzpsi.cli  # noqa: F401  (the tracer patches what the CLI loads)

    keys = [(modname, clsname, attr) for _, modname, clsname, attr, *_ in bench_tracer.TARGETS]
    keys += [("rmatrix", None, name) for name in bench_tracer.APPLICATOR_FACTORIES]
    before = {key: binding(*key) for key in keys}
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        assert [key for key in keys if binding(*key) is before[key]] == []
        # a traced applicator still applies, and is counted
        rmatrix = sys.modules["qkzpsi.rmatrix"]
        apply = rmatrix.slot_applicator(fundamental_rcheck(2), 0)
        ctx = rmatrix.CTX2
        label = ((1,), (2,))
        out = apply({label: RationalFunction.from_poly(ctx.one())}, LinearForm(0, 1, 2), 1)
        assert set(out) == {label, ((2,), (1,))}
        assert tracer.stats["rmatrix.apply"]["calls"] > 0
    finally:
        tracer.uninstall()
    assert [key for key in keys if binding(*key) is not before[key]] == []
