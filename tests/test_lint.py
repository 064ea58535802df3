"""Static checks on the package source, in place of a linter.

Every module of ``src/qkzpsi`` except ``__init__.py`` (whose imports are
re-exports) must use each name it imports, and every module-level name
defined in the package, private (``_name``) or public, must be read
somewhere in it, a re-export by ``__init__.py`` counting as a read: a
helper that only tests still call belongs in the tests.  So must every
method and property of a class, read as an attribute outside its own
definition (a read is matched by attribute name alone, so a method also
counts as read when a same-named method of another class is read), and
every optional parameter of a function or method, passed by some call in
the package.  Reports go through
one path: only ``reporting.py`` imports ``time``, and no ``Report(`` call
outside it passes the status ``"pass"`` (a pass comes from ``checking``).
Every output file is written by one writer: only ``cli._write_parts``
opens a file for writing.  No cache outlives its output: only
``TermWriter`` uses a ``functools`` caching decorator, the two cached
operator builders of ``rmatrix`` (``pair_operator``, ``pair_unitarity``)
being the named exceptions.  Cancelled terms are deleted from a dict in
place only by ``qkz._exchange_step``, once for all of them, and by
``Polynomial.exact_div``, which deletes a term as its sum cancels.
Only output unpacks a packed monomial: outside ``PolyContext``, only
``Polynomial.to_json`` reads an ``unpack`` attribute.
Operators reach labelled vectors through one applicator: in ``rmatrix.py``
only ``ROperator.apply`` multiplies term dicts into sums (``_mul_into``).
Subset sequences are listed by one walk: only ``content_labels`` and
``enumerate_tableaux`` call ``combinatorics._subset_sequences``, and
``qkz.py`` defines no ``content_labels`` of its own.
Rational functions are brought to lowest terms only where an operator is
built (``fused_rcheck``, ``_solve_block``) and where a failed check names
its remainder (``_difference``).  Component loci go through one ordered
elimination: only ``slice.solve_locus`` calls ``linear_solve``.  No name of
the retired mod-prime non-divisibility certificate comes back, nor of the
retired per-denominator operator sums (``RFSum``, ``_accumulate``) and
hand-written tokenizer, nor of the all-at-once locus evaluation and the
letter-matrix builders it had (``eval_rational``,
``upper_triangular_matrices``, ``_mat_mul_poly``, ``_coordinate_names``).
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qkzpsi"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each imported name that the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom x import y, w as v\ny(v)\n"
    assert unused_imports(source) == [(1, "os"), (2, "osp")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def definitions(tree):
    """Names of the module-level functions, classes and assignments, dunders left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


def names_read(tree):
    """Every name the tree loads, reads as an attribute, or imports from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(sources, private):
    """(module, name) of each private (or, with ``private`` false, public)
    module-level name that no source reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(names_read(tree) for tree in trees.values()))
    return sorted((module, name) for module, tree in trees.items()
                  for name in definitions(tree)
                  if name.startswith("_") == private and name not in read)


def unread_private_names(sources):
    return unread_names(sources, private=True)


def unread_public_names(sources):
    return unread_names(sources, private=False)


def test_detector_finds_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_seen: set = set()\ndef _used(): pass\ndef _left(): pass\n"
                "class _Kept: pass\ndef __dir__(): pass\n",
        "b.py": "from .a import _used\nimport a\n_used(a._Kept)\n",
    }
    assert unread_private_names(sources) == [("a.py", "_LIMIT"), ("a.py", "_left"),
                                             ("a.py", "_seen")]


def test_every_private_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_detector_finds_an_unread_public_name():
    sources = {
        "__init__.py": "from .a import Exported\n",
        "a.py": "LIMIT = 3\nclass Exported: pass\ndef used(): pass\ndef left(): pass\n"
                "_private = 1\ndef __getattr__(name): pass\n",
        "b.py": "from .a import used\nused()\n",
    }
    assert unread_public_names(sources) == [("a.py", "LIMIT"), ("a.py", "left")]


# The one public name that no module reads yet: the labelling check is run by
# tests/test_acceptance.py (criterion 10) and is to become the ninth check of
# appendix.SUITE, a change to the appendix oracle that the benchmark records.
UNREAD_PUBLIC = [("appendix.py", "check_labelling")]


def test_every_public_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_public_names(sources) == UNREAD_PUBLIC


def methods(tree):
    """(Class.name, definition) of each method and property of every class, dunders left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item


def unread_methods(sources):
    """(module, Class.name) of each method or property that no source reads as
    an attribute outside the method's own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = defaultdict(set)  # attribute name -> the Attribute nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr].add(node)
    return sorted((module, qualname) for module, tree in trees.items()
                  for qualname, definition in methods(tree)
                  if not reads[definition.name] - set(ast.walk(definition)))


def test_detector_finds_an_unread_method():
    sources = {
        "a.py": "class Op:\n    def __init__(self): pass\n    def used(self): return self.left\n"
                "    @property\n    def left(self): return 1\n"
                "    def recursive(self): return self.recursive()\n    def dropped(self): pass\n",
        "b.py": "from .a import Op\nOp().used()\n",
    }
    assert unread_methods(sources) == [("a.py", "Op.dropped"), ("a.py", "Op.recursive")]


# Methods that no module reads, each kept for a reader outside the package:
# bench/tracer.py binds ROperator.matmul by name and counts the relations of
# emit_equations and emit_deformed_equations by EquationSet.nonzero, and the
# route-chain oracle of tests/test_differential.py reads
# SignedPermutationOp.inverse.
UNREAD_METHODS = [("combinatorics.py", "SignedPermutationOp.inverse"),
                  ("rmatrix.py", "ROperator.matmul"),
                  ("slice.py", "EquationSet.nonzero")]


def test_every_method_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_methods(sources) == UNREAD_METHODS


def optional_parameters(tree):
    """(qualified name, parameter, position) of each parameter with a default
    of every function and method; the position counts the arguments a call
    passes (no self or cls), None for a keyword-only parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(node, ast.ClassDef)
            qualname = f"{node.name}.{fn.name}" if method else fn.name
            bound = method and "staticmethod" not in {getattr(d, "id", None)
                                                      for d in fn.decorator_list}
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for pos, arg in enumerate(positional[first:], first):
                yield qualname, arg.arg, pos - bound
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield qualname, arg.arg, None


def passes(call, name, pos):
    """Whether the call passes the parameter: by keyword, by position, or
    through ``*args`` or ``**kwargs``."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or pos is not None and len(call.args) > pos)


def unpassed_parameters(sources):
    """(module, qualified name, parameter) of each optional parameter that no
    call in the sources passes.  A call counts by the called name alone; a
    call of the class counts for ``__init__`` and ``__new__``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    by_name = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                by_name[called_name(node)].append(node)
    found = []
    for module, tree in trees.items():
        for qualname, name, pos in optional_parameters(tree):
            owner, _, fn = qualname.rpartition(".")
            targets = by_name[fn] + (by_name[owner] if fn in ("__init__", "__new__") else [])
            if not any(passes(call, name, pos) for call in targets):
                found.append((module, qualname, name))
    return sorted(found)


def test_detector_finds_an_unpassed_parameter():
    sources = {
        "a.py": "class Op:\n    def __init__(self, src, dst=None): pass\n"
                "    def apply(self, vec, slot=None, *, check=False): pass\n"
                "    @staticmethod\n    def make(form, sign=1): pass\n"
                "def solve(rows, n=None, trace=False):\n"
                "    def step(r, seen=()): return r\n    return step(rows)\n"
                "def spread(a=1, b=2): pass\n",
        "b.py": "from .a import Op, solve, spread\nOp(1, 2).apply(3, check=True)\n"
                "Op.make(1, -1)\nsolve([], 2)\nspread(*(1, 2))\n",
    }
    assert unpassed_parameters(sources) == [("a.py", "Op.apply", "slot"),
                                            ("a.py", "solve", "trace"),
                                            ("a.py", "step", "seen")]


# Optional parameters that no call in the package passes, each kept for a
# caller outside it: acceptance criterion 6 and the route-chain oracle
# certify the appendix through qkz_step's full_ops, the substitute_then_reduce
# oracle of tests/test_differential.py passes substitute_z's target_ctx, and
# bench/child.py and the tests call main with argv.
UNPASSED_PARAMETERS = [("algebra.py", "RationalFunction.substitute_z", "target_ctx"),
                       ("cli.py", "main", "argv"),
                       ("qkz.py", "qkz_step", "full_ops")]


def test_every_optional_parameter_is_passed_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unpassed_parameters(sources) == UNPASSED_PARAMETERS


def time_imports(source):
    """Lines that import the ``time`` module or a name from it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(a.name == "time" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "time")


def passing_report_calls(source):
    """Lines of each ``Report(...)`` call whose status argument is the constant ``"pass"``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "Report":
            continue
        status = node.args[2] if len(node.args) > 2 else next(
            (kw.value for kw in node.keywords if kw.arg == "status"), None)
        if isinstance(status, ast.Constant) and status.value == "pass":
            lines.append(node.lineno)
    return lines


def test_detectors_find_a_clock_and_a_hand_built_pass():
    source = ("import os, time\nfrom time import perf_counter\nimport timeit\n"
              "Report('wheel', 'k=2', 'pass')\nreporting.Report('x', 'y', status='pass')\n"
              "Report('x', 'y', 'fail', 'pass')\nReport('x', 'y', 'skipped', 'why')\n")
    assert time_imports(source) == [1, 2]
    assert passing_report_calls(source) == [4, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "reporting.py"],
                         ids=lambda p: p.name)
def test_only_reporting_reads_the_clock_and_builds_a_pass(path):
    source = path.read_text()
    assert (time_imports(source), passing_report_calls(source)) == ([], [])


def scoped_nodes(source):
    """(qualified name, node) of every node in the source; the qualified name
    (``f``, ``Class.method``, or ``<module>``) is that of the top-level
    definition whose code holds the node, nested functions included."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = [(node.name, node)]
        else:
            scopes = [("<module>", node)]
        for qualname, scope in scopes:
            for child in ast.walk(scope):
                yield qualname, child


def calls(source):
    """(qualified name, call) of every call in the source (see ``scoped_nodes``)."""
    return ((qualname, node) for qualname, node in scoped_nodes(source)
            if isinstance(node, ast.Call))


def called_name(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def callers(source, name):
    """Sorted qualified names of the top-level definitions whose code calls ``name``."""
    return sorted({qualname for qualname, call in calls(source) if called_name(call) == name})


def opens_for_writing(call):
    """Whether the call writes a file: ``write_text``/``write_bytes``, or an
    ``open`` whose mode is not a constant read-only mode.  The mode is the
    ``mode`` keyword, else the second positional argument, else (for a
    method ``.open``, as ``Path.open``) the only one."""
    name = called_name(call)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > 1:
        mode = call.args[1]
    elif mode is None and call.args and isinstance(call.func, ast.Attribute):
        mode = call.args[0]
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writers(source):
    """Sorted qualified names of the top-level definitions that open a file for writing."""
    return sorted({qualname for qualname, call in calls(source) if opens_for_writing(call)})


def test_detector_finds_every_caller():
    source = ("class Op:\n    def apply(self): return _acc(1)\n    def other(self): pass\n"
              "def outer():\n    def inner(): return m._acc(2)\n    return inner\n"
              "def bystander(): return _acc\nVALUE = _acc(3)\n")
    assert callers(source, "_acc") == ["<module>", "Op.apply", "outer"]


def test_detector_finds_every_file_writer():
    source = ("def a(p): return open(p)\ndef b(p): return open(p, 'rb')\n"
              "def c(p): return open(p, 'w')\ndef d(p, m): return io.open(p, m)\n"
              "def e(p): return p.open('a')\ndef f(p): return p.open()\n"
              "def g(p): return open(p, mode='r+')\ndef h(p): p.write_text('x')\n"
              "class W:\n    def put(self): return Path('x.json').open(encoding='ascii')\n")
    assert file_writers(source) == ["c", "d", "e", "g", "h"]


def test_only_the_cli_writer_opens_a_file_for_writing():
    found = [(path.name, writer) for path in MODULES for writer in file_writers(path.read_text())]
    assert found == [("cli.py", "_write_parts")]


def test_only_the_applicator_multiplies_into_term_dicts():
    source = (SRC / "rmatrix.py").read_text()
    assert callers(source, "_mul_into") == ["ROperator.apply"]


def test_one_walk_lists_the_labels_and_the_tableaux():
    found = [(path.name, caller) for path in MODULES
             for caller in callers(path.read_text(), "_subset_sequences")]
    assert found == [("combinatorics.py", "content_labels"),
                     ("combinatorics.py", "enumerate_tableaux")]
    assert "content_labels" not in definitions(ast.parse((SRC / "qkz.py").read_text()))


def test_only_operator_builders_and_witnesses_reduce():
    found = [(path.name, caller) for path in MODULES
             for caller in callers(path.read_text(), "reduced")]
    assert sorted(found) == [("qkz.py", "_difference"), ("rmatrix.py", "_solve_block"),
                             ("rmatrix.py", "fused_rcheck")]


def test_only_the_ordered_elimination_solves_a_locus():
    found = [(path.name, caller) for path in MODULES
             for caller in callers(path.read_text(), "linear_solve")]
    assert found == [("slice.py", "solve_locus")]


CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def cache_users(source):
    """Sorted qualified names of the top-level definitions that use a caching
    decorator of ``functools``, by a name imported from it or as an
    attribute of the module.  A local variable of the same name as an
    imported decorator counts too."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names if alias.name in CACHE_DECORATORS}
    return sorted({qualname for qualname, node in scoped_nodes(source)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   and node.id in imported
                   or isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
                   and getattr(node.value, "id", None) == "functools"})


def item_deleters(source):
    """Sorted qualified names of the top-level definitions that delete an
    item (``del d[k]``)."""
    return sorted({qualname for qualname, node in scoped_nodes(source)
                   if isinstance(node, ast.Delete)
                   and any(isinstance(t, ast.Subscript) for t in node.targets)})


def test_detectors_find_every_cache_user_and_item_deleter():
    source = ("from functools import cache, lru_cache as lru, partial\nimport functools\n"
              "class W:\n    def make(self): return cache(lambda x: x)\n"
              "    def bound(self): return partial(len)\n"
              "@lru(maxsize=None)\ndef op(k): pass\n@functools.cached_property\ndef prop(): pass\n"
              "def drop(acc):\n    for e in [e for e, c in acc.items() if not c]:\n"
              "        del acc[e]\n    del e\nclass P:\n    def pop(self, d): del d[0], d[1]\n")
    assert cache_users(source) == ["W.make", "op", "prop"]
    assert item_deleters(source) == ["P.pop", "drop"]


def test_only_the_writer_and_the_operator_builders_cache():
    # the writer's caches die with it; the two operator builders of rmatrix
    # are the named exceptions, cached for the process (their results are
    # immutable and few: one per wedge pair (k, a, b))
    found = [(path.name, user) for path in MODULES for user in cache_users(path.read_text())]
    assert found == [("algebra.py", "TermWriter._caches"), ("rmatrix.py", "pair_operator"),
                     ("rmatrix.py", "pair_unitarity")]


def test_only_the_kernels_that_own_their_accumulator_delete_from_it():
    # _exchange_step deletes its few cancelled terms in place, once, instead
    # of copying the dict; exact_div deletes a term as its sum cancels.  A
    # dict keeps its size when items are deleted, so no other code deletes:
    # sum_of_products and __add__ copy a sum in which a term cancelled.
    found = [(path.name, deleter) for path in MODULES
             for deleter in item_deleters(path.read_text())]
    assert found == [("algebra.py", "Polynomial.exact_div"), ("qkz.py", "_exchange_step")]


def unpack_readers(source):
    """Sorted qualified names of the top-level definitions that read an
    ``unpack`` attribute, to call it or to bind it."""
    return sorted({qualname for qualname, node in scoped_nodes(source)
                   if isinstance(node, ast.Attribute) and node.attr == "unpack"})


def test_detector_finds_every_unpack_reader():
    source = ("class Ctx:\n    def unpack(self, m): return self._fields.unpack(m)\n"
              "def out(p): return p.ctx.unpack(1)\n"
              "def bound(ctx):\n    f = ctx.unpack\n    return f(1)\n"
              "def other(unpack): return unpack(1)\n")
    assert unpack_readers(source) == ["Ctx.unpack", "bound", "out"]


def test_only_output_unpacks_a_monomial():
    # kernels walk the non-zero fields of a packed monomial, from the top
    # field down; only the JSON rows of to_json unpack one whole
    found = [(path.name, reader) for path in MODULES for reader in unpack_readers(path.read_text())
             if (path.name, reader) != ("algebra.py", "PolyContext.unpack")]
    assert found == [("algebra.py", "Polynomial.to_json")]


RETIRED = {"_may_divide", "_hyperplane", "PRIME", "BETA", "_reduced"}
# the sums kept one term dict per denominator; the parser had its own tokenizer
RETIRED_SUMS_AND_TOKENIZER = {"RFSum", "_accumulate", "_TOKEN"}
# loci were evaluated with every solution substituted at once, over matrices
# built by three hand-written comprehensions and a private product
RETIRED_LOCUS_LAYER = {"eval_rational", "upper_triangular_matrices", "_mat_mul_poly",
                       "_coordinate_names"}


def identifiers(source):
    """Every name the source defines, reads, imports, takes as a parameter or
    passes as a keyword."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_detector_finds_every_kind_of_identifier():
    source = ("import a.b as c\nfrom d import e\ndef f(g, *, h=1): return i.j(k=2)\n"
              "class L: pass\nM = 3\n")
    assert identifiers(source) == {"c", "e", "f", "g", "h", "i", "j", "k", "L", "M"}
    assert identifiers("RationalFunction(num, den, _reduced=True)\n") & RETIRED == {"_reduced"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_name_of_the_retired_certificate_remains(path):
    assert identifiers(path.read_text()) & RETIRED == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_name_of_the_retired_sums_or_tokenizer_remains(path):
    assert identifiers(path.read_text()) & RETIRED_SUMS_AND_TOKENIZER == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_name_of_the_retired_locus_layer_remains(path):
    assert identifiers(path.read_text()) & RETIRED_LOCUS_LAYER == set()
