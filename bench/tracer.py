"""Per-layer tracing of qkzpsi from outside the package.

``Tracer.install()`` replaces the public functions listed in ``TARGETS`` by
timing wrappers at every place the package binds them: the defining module,
every module that imported the name, class attributes and their aliases
(``Polynomial.__rmul__`` is ``__mul__``), and the appendix ``SUITE`` table.
``Tracer.uninstall()`` puts every original object back.

Each wrapped function reports ``calls`` and ``self_s``: its duration minus
the duration of the wrapped calls nested inside it.  Some also report a work
count.  The tracer keeps one call stack, so it assumes the package runs on
one thread, which it does unless QKZ_THREADS is set.
"""

from __future__ import annotations

import functools
import sys
import time


def _terms(x):
    return len(x.terms) if hasattr(x, "terms") else 1


def _term_products(stats, args, out):
    stats["algebra.mul"]["term_products"] += _terms(args[0]) * _terms(args[1])


def _add_terms_in(stats, args, out):
    stats["algebra.add"]["terms_in"] += _terms(args[0]) + _terms(args[1])


def _substitute_terms_in(stats, args, out):
    stats["algebra.substitute"]["terms_in"] += _terms(args[0])


def _psi_terms_out(name):
    def count(stats, args, out):
        stats[name]["terms_out"] += sum(len(p.terms) for p in out.entries.values())
    return count


def _check_failed(stats, args, out):
    if out.status == "fail":
        stats["qkz.checks"]["failed"] += 1


def _relations_out(name):
    def count(stats, args, out):
        stats[name]["relations_out"] += len(out.nonzero())
    return count


def _psi_instance(args):
    k, lam = args[0], args[1]
    return f"build_psi_fundamental({k},({','.join(map(str, lam))}))"


def _fuse_instance(args):
    psi, m = args[0], args[1]
    lam = ",".join(map(str, psi.lam))
    return f"fuse_psi(psi({psi.k},({lam})),({','.join(map(str, m))}))"


def _rcheck_instance(args):
    return f"fused_rcheck({args[0]},{args[1]},{args[2]})"


# (metric prefix, module, class or None, attribute, extra counters,
#  work counter, instance label).  Extra counters start at zero so that they
#  are reported even when the function is never called.
TARGETS = (
    ("algebra.mul", "algebra", "Polynomial", "__mul__", ("term_products",), _term_products, None),
    ("algebra.add", "algebra", "Polynomial", "__add__", ("terms_in",), _add_terms_in, None),
    ("algebra.exact_div", "algebra", "Polynomial", "exact_div", ("failed",), None, None),
    ("algebra.substitute", "algebra", "Polynomial", "substitute", ("terms_in",),
     _substitute_terms_in, None),
    ("algebra.swap_z", "algebra", "Polynomial", "swap_z", (), None, None),
    ("algebra.to_json", "algebra", "Polynomial", "to_json", (), None, None),
    ("algebra.from_json", "algebra", "Polynomial", "from_json", (), None, None),
    ("algebra.text", "algebra", "Polynomial", "text", (), None, None),
    ("algebra.rf_mul", "algebra", "RationalFunction", "__mul__", (), None, None),
    ("algebra.rf_add", "algebra", "RationalFunction", "__add__", (), None, None),
    ("algebra.rf_equals", "algebra", "RationalFunction", "equals", (), None, None),
    ("algebra.rf_substitute_z", "algebra", "RationalFunction", "substitute_z", (), None, None),
    ("qkz.build_psi_fundamental", "qkz", None, "build_psi_fundamental", ("terms_out",),
     _psi_terms_out("qkz.build_psi_fundamental"), _psi_instance),
    ("qkz.fuse_psi", "qkz", None, "fuse_psi", ("terms_out",),
     _psi_terms_out("qkz.fuse_psi"), _fuse_instance),
    ("qkz.check_exchange", "qkz", None, "check_exchange", (), _check_failed, None),
    ("qkz.check_wheel", "qkz", None, "check_wheel", (), _check_failed, None),
    ("qkz.check_cyclicity", "qkz", None, "check_cyclicity", (), _check_failed, None),
    ("qkz.qkz_step", "qkz", None, "qkz_step", (), _check_failed, None),
    ("qkz.psi_to_json", "qkz", "PsiVector", "to_json", (), None, None),
    ("qkz.psi_from_json", "qkz", "PsiVector", "from_json", (), None, None),
    ("rmatrix.fused_rcheck", "rmatrix", None, "fused_rcheck", (), None, _rcheck_instance),
    ("rmatrix.pair_operator", "rmatrix", None, "pair_operator", ("hits",), None, None),
    ("rmatrix.substitute_spectral", "rmatrix", "ROperator", "substitute_spectral", (),
     None, None),
    ("rmatrix.apply", "rmatrix", "ROperator", "apply", (), None, None),
    ("rmatrix.matmul", "rmatrix", "ROperator", "matmul", (), None, None),
    ("rmatrix.verify_ybe", "rmatrix", None, "verify_ybe", (), None, None),
    ("rmatrix.verify_unitarity", "rmatrix", None, "verify_unitarity", (), None, None),
    ("rmatrix.verify_commutation", "rmatrix", None, "verify_commutation", (), None, None),
    ("rmatrix.solve_rmatrix_from_exchange", "rmatrix", None, "solve_rmatrix_from_exchange",
     (), None, None),
    ("rmatrix.text_matrix", "rmatrix", "ROperator", "text_matrix", (), None, None),
    ("slice.emit_equations", "slice", None, "emit_equations", ("relations_out",),
     _relations_out("slice.emit_equations"), None),
    ("slice.emit_deformed_equations", "slice", None, "emit_deformed_equations",
     ("relations_out",), _relations_out("slice.emit_deformed_equations"), None),
    ("slice.matrix_relation_value", "slice", None, "matrix_relation_value", (), None, None),
    ("slice.verify_component_membership", "slice", None, "verify_component_membership", (),
     None, None),
    ("combinatorics.sequence_rotation", "combinatorics", None, "sequence_rotation", (),
     None, None),
    ("combinatorics.signed_perm_apply", "combinatorics", "SignedPermutationOp", "apply", (),
     None, None),
    ("cli.run_reports", "cli", None, "run_reports", (), None, None),
)

# Factories whose returned closures are timed as "rmatrix.apply".
APPLICATOR_FACTORIES = ("slot_applicator", "matrix_applicator", "family_slot_applicator")


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qkzpsi" or name.startswith("qkzpsi."))]


class Tracer:
    """Timing wrappers over the qkzpsi public functions, and what they measured."""

    def __init__(self):
        self.stats = {}      # metric prefix -> {"calls", "self_s", extra counters}
        self.instances = {}  # instance label -> total seconds, nested calls included
        self._stack = []
        self._patches = []   # (owner, attribute, original object)
        self._pair_operator = None

    def wrap(self, name, fn, extras=(), count=None, instance=None):
        """A wrapper of ``fn`` that adds its calls and self time to ``name``."""
        rec = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        for key in extras:
            rec.setdefault(key, 0)
        stats, instances, stack = self.stats, self.instances, self._stack
        clock = time.perf_counter
        counts_failures = "failed" in extras

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                rec["calls"] += 1
                rec["self_s"] += dt - inner
                if not ok and counts_failures:
                    rec["failed"] += 1
                if instance is not None:
                    label = instance(args)
                    instances[label] = instances.get(label, 0.0) + dt
            if count is not None:
                count(stats, args, out)
            return out

        return traced

    def _patch_everywhere(self, original, replacement):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every target at every binding site.  Imports the CLI first."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qkzpsi.cli  # noqa: F401  (loads every module the CLI reaches)

        self._pair_operator = sys.modules["qkzpsi.rmatrix"].pair_operator
        self.stats["qkz.checks"] = {"failed": 0}
        for name, modname, clsname, attr, extras, count, instance in TARGETS:
            module = sys.modules[f"qkzpsi.{modname}"]
            if clsname is None:
                original = getattr(module, attr)
                self._patch_everywhere(
                    original, self.wrap(name, original, extras, count, instance))
                continue
            cls = getattr(module, clsname)
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__, extras, count, instance))
            else:
                wrapped = self.wrap(name, raw, extras, count, instance)
            for alias, value in list(vars(cls).items()):
                if value is raw:
                    self._patch(cls, alias, wrapped)

        rmatrix = sys.modules["qkzpsi.rmatrix"]
        for factory_name in APPLICATOR_FACTORIES:
            factory = getattr(rmatrix, factory_name)

            def traced_factory(*args, _factory=factory, **kwargs):
                return self.wrap("rmatrix.apply", _factory(*args, **kwargs))

            self._patch_everywhere(factory, functools.wraps(factory)(traced_factory))

        appendix = sys.modules["qkzpsi.appendix"]
        suite = tuple((check, self.wrap(f"appendix.{check}", fn)) for check, fn in appendix.SUITE)
        self._patch(appendix, "SUITE", suite)

    def uninstall(self):
        """Restore every original binding, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finish(self):
        """Counts the package keeps itself, read once the job is done."""
        self.stats["rmatrix.pair_operator"]["hits"] = self._pair_operator.cache_info().hits
