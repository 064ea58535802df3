"""Command-line driver: build vectors, run checks, print appendix-style output.

Subcommands:

  psi build        construct a vector (fundamental, or fused via --m) to JSON
  psi verify       run a named check (exchange|wheel|cyclicity|qkz|recurrence)
  slice emit       print orbit-closure equations for (m, ell), opt. deformed
  slice verify-appendix   run the slice-related fixture checks
  rmat show        print a fundamental or fused R-matrix
  rmat verify      check ybe|unitarity|commutation symbolically
  appendix-suite   run all eight fixture checks

Bad input ends with one ``qkzpsi: error: ...`` line on stderr and exit
status 2, with no traceback, as does an output that cannot be written (a
full device).  Bad input is: a malformed number list; an
output path (--out, --json-out) that cannot be opened for writing; an
empty lambda or m, or one that does not fit k; for ``psi build`` a lambda
whose predicted term count is above ``qkz.MAX_PREDICTED_TERMS``; a vector
file that is missing, is not JSON, does not match the psi JSON schema, has
no slots, holds exponents outside [0, 2**16), or gives a label, or a
monomial of one entry, twice; for ``psi verify`` a flag
that its check does not read (--slot outside exchange and qkz, --positions
outside wheel, --insert-at outside recurrence), a --slot outside the
vector's slots (any --slot of exchange on a one-slot vector), wheel
--positions that are empty, are not increasing, leave 1..N or have an
m-sum of at most k, and a recurrence check of a lambda with fewer
than k rows (no column of k boxes to remove), of a fused vector, or at an
--insert-at outside the small vector's N+1 places; for ``slice
emit`` an empty m or a non-positive block size, an ell with a negative
entry or a sum other than sum(m), an ell whose orbit closure misses x_m
(sorted m not below ell in dominance order: the slice is empty), a slice
larger than the desk-scale limit ``slice.MAX_SLICE_SIZE`` (12), or a
non-rectangular ell with ``--deform``;
for ``rmat`` wedge sizes a, b outside 1..k-1, and for ``rmat verify``
a != b (its checks act on the a-th wedge power alone).

``psi verify --check qkz`` runs one certificate, which does not depend on
the slot (``qkz.qkz_step``), and writes its result once per slot i, with
`` i=<i>`` after the instance.

A check with nothing to check writes one ``skipped`` report that names the
reason, and exits 0: ``psi verify --check exchange`` on a one-slot vector,
and ``--check wheel`` when no placement has an m-sum above k.  So do
``--check cyclicity`` and ``--check qkz`` (one report per slot) unless m
is homogeneous and lambda is the k-row rectangle (M/k)^k, the only shape
the rotation is defined for.  ``--check exchange`` skips a slot with
m_i = k, whose k-th wedge power has no fused R-matrix, and ``--check qkz``
skips every slot of such a vector.

Every output is written to its file part by part as it is produced, never
the whole output: a text output one polynomial's text at a time, a JSON
output with the term rows of each psi entry streamed a row at a time.
``slice emit`` also builds each relation only when it is written
(``slice.equation_stream``), so it holds one row of matrix powers (one
power, for the rank minors), never the set of relations.  A job that fails while writing leaves no
file (stdout is written as it goes).
An output path of ``-`` is stdout, and then the output is all that stdout
holds: PASS/FAIL report lines go to stderr.  A reader that closes stdout
early (``| head``) ends the job with exit status 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from .algebra import TermWriter, spectral_context
from .combinatorics import CombinatoricsError, sequence_rotation
from .qkz import (
    PsiError,
    PsiVector,
    build_psi_fundamental,
    check_cyclicity,
    check_exchange,
    check_recurrence,
    check_shape,
    check_wheel,
    fuse_psi,
    label_text,
    qkz_step,
    wheel_positions,
)
from .reporting import Report, json_parts, run_reports
from .rmatrix import (
    fused_rcheck,
    product_basis,
    slot_applicator,
    verify_commutation,
    verify_unitarity,
    verify_ybe,
)
from . import appendix as appendixmod
from . import slice as slicemod


class UsageError(Exception):
    """Bad command-line input, or an output that cannot be written; ``main``
    prints it and exits with status 2."""


def _ints(text):
    """The integers of a comma-separated list, () for an empty text; an
    empty item, as in ``2,,2`` or ``2,2,``, is malformed."""
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _write_parts(parts, path):
    """Write the text parts of one output, any iterable of strings, to
    ``path`` (stdout for None or "-") as they are produced.  The only code
    that opens a file for writing.  A path it cannot open, or a write that
    fails (a full device), is a UsageError naming the path ("stdout" for
    stdout), so the job ends with one line and exit status 2.
    If producing or writing a part raises, a regular file is removed, so no
    truncated output is left.
    If stdout fails, it is pointed at devnull, so that the flush at exit
    raises nothing more (the recipe in Python's ``signal`` docs); a
    BrokenPipeError (the reader closed stdout) is re-raised as it is."""
    if path in (None, "-"):
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except OSError as err:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(err, BrokenPipeError):
                raise
            raise UsageError(f"cannot write stdout: {err.strerror}") from None
        return
    try:
        fh = open(path, "w")
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from None
    try:
        with fh:
            fh.writelines(parts)
    except BaseException as err:
        if os.path.isfile(path):  # not a device such as /dev/null, nor a pipe
            os.remove(path)
        if isinstance(err, OSError):  # the last of the failed write and the flush at close
            raise UsageError(f"cannot write {path}: {err.strerror}") from None
        raise


def _write(doc, path):
    _write_parts(chain(json_parts(doc), ("\n",)), path)


def _reports_doc(reports):
    return {"schema": 1, "reports": [r.to_json() for r in reports]}


def _report_tail(reports, json_path):
    """Print one line per report, write them to ``json_path`` when given, and
    return the exit status: 0 if every report passed, else 1.  The lines go
    to stderr when the JSON goes to stdout ("-"), as for ``psi verify``."""
    lines = [r.line() + "\n" for r in reports]
    if json_path == "-":
        sys.stderr.writelines(lines)
    else:
        _write_parts(lines, None)
    if json_path:
        _write(_reports_doc(reports), json_path)
    return 0 if all(r.passed for r in reports) else 1


def _build_psi(args):
    lam = _ints(args.lam)
    k = args.k
    m = _ints(args.m) if args.m is not None else None
    if not lam or m == ():
        raise UsageError(f"{'lambda' if not lam else 'm'} must not be empty")
    try:
        check_shape(k, lam, m)
        psi = build_psi_fundamental(k, lam)
    except PsiError as err:
        raise UsageError(str(err)) from None
    if m is not None and m != psi.m:
        psi = fuse_psi(psi, m)
    return psi


def cmd_psi_build(args):
    psi = _build_psi(args)
    writer = TermWriter(psi.ctx)
    if args.format == "text":
        def lines():
            for lab in psi.basis:
                yield f"{label_text(lab)} : {psi.entries[lab].text(writer)}\n"
        _write_parts(lines(), args.out)
    else:
        _write(psi.to_json(writer), args.out)
    return 0


def _load_psi(path):
    try:
        with open(path) as fh:
            return PsiVector.from_json(json.load(fh))
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from None
    except ValueError as err:
        raise UsageError(f"{path} is not JSON: {err}") from None
    except PsiError as err:
        raise UsageError(f"{path}: {err}") from None


def _slots(slot, last):
    """[slot] if one is given, which must lie in 1..last; else every slot."""
    if slot is None:
        return range(1, last + 1)
    if not 1 <= slot <= last:
        raise UsageError(f"--slot must lie in 1..{last}, got {slot}")
    return [slot]


# The optional flags of ``psi verify`` and the checks that read them.
_VERIFY_FLAGS = (
    ("slot", "--slot", ("exchange", "qkz")),
    ("positions", "--positions", ("wheel",)),
    ("insert_at", "--insert-at", ("recurrence",)),
)


def cmd_psi_verify(args):
    for attr, flag, checks in _VERIFY_FLAGS:
        if getattr(args, attr) is not None and args.check not in checks:
            raise UsageError(f"{flag} applies to --check {' and '.join(checks)} only, "
                             f"not to {args.check}")
    psi = _load_psi(args.infile)
    try:
        reports = _verify_reports(psi, args)
    except PsiError as err:
        raise UsageError(str(err)) from None
    _write(_reports_doc(reports), args.out)
    for r in reports:
        print(r.line(), file=sys.stderr)
    return 0 if all(r.passed or r.status == "skipped" for r in reports) else 1


def _verify_reports(psi, args):
    if args.check == "exchange":
        if psi.N == 1:
            if args.slot is not None:
                raise UsageError(f"--slot {args.slot}: the vector has one slot and no "
                                 f"adjacent pair to exchange")
            return [Report("exchange", psi.instance_name(), "skipped",
                           witness="one slot: no adjacent pair to exchange")]
        return [check_exchange(psi, i) for i in _slots(args.slot, psi.N - 1)]
    if args.check == "wheel":
        if args.positions is None:
            placements = wheel_positions(psi.m, psi.k)
        else:
            positions = _ints(args.positions)
            if not positions:
                raise UsageError("--positions must not be empty")
            placements = [positions]
        if not placements:
            return [Report("wheel", psi.instance_name(), "skipped",
                           witness=f"no placement has an m-sum above k = {psi.k}")]
        return [check_wheel(psi, pos) for pos in placements]
    if args.check in ("cyclicity", "qkz"):
        # the rotation is defined for homogeneous m and lambda = (M/k)^k only
        slots = [None] if args.check == "cyclicity" else _slots(args.slot, psi.N)
        why = "m not homogeneous"
        if len(set(psi.m)) == 1:
            try:
                rho = sequence_rotation(psi.basis, psi.m, psi.k)
            except CombinatoricsError:
                why = f"lambda is not a {psi.k}-row rectangle (M/k)^k: no rotation"
            else:
                if args.check == "cyclicity":
                    return [check_cyclicity(psi, rho)]
                # one certificate covers the step in every z_i; one report per slot
                step = qkz_step(psi, rho)
                return [step._replace(instance=f"{step.instance} i={i}") for i in slots]
        name = psi.instance_name()
        return [Report(args.check, name if i is None else f"{name} i={i}", "skipped", witness=why)
                for i in slots]
    if args.check == "recurrence":
        k = psi.k
        if len(psi.lam) < k:
            raise UsageError(f"lambda {psi.lam} has {len(psi.lam)} rows, fewer than k = {k}: "
                             f"no column of k boxes to remove")
        if psi.m != (1,) * psi.N:
            raise UsageError(f"the recurrence check takes a fundamental vector, "
                             f"m = (1, ..., 1); got m = {psi.m}")
        small_lam = tuple(x - 1 for x in psi.lam if x - 1 > 0)
        small = build_psi_fundamental(k, small_lam)
        insert_at = 1 if args.insert_at is None else args.insert_at
        return [check_recurrence(psi, small, insert_at)]
    raise SystemExit(f"unknown check {args.check!r}")


def cmd_slice_emit(args):
    m = _ints(args.m)
    ell = _ints(args.ell)
    try:
        ctx, relations = slicemod.equation_stream(m, ell, args.deform)
    except slicemod.SliceError as err:
        raise UsageError(str(err)) from None
    writer = TermWriter(ctx)
    if args.format == "json":
        _write({"schema": 1, "m": list(m), "ell": list(ell), "deformed": args.deform,
                "coordinates": list(ctx.names),
                "relations": ({"name": n, "poly": p.to_json(writer)} for n, p in relations)},
               args.out)
    else:
        header = f"# slice m={m} ell={ell}" + (" (deformed)" if args.deform else "") + "\n"
        lines = (f"{name} : {p.text(writer)} = 0\n" for name, p in relations if p)
        _write_parts(chain((header,), lines), args.out)
    return 0


def cmd_slice_verify_appendix(args):
    jobs = appendixmod.guarded_jobs(appendixmod.load_fixture(), appendixmod.SLICE_CHECKS)
    return _report_tail(run_reports(jobs), args.json_out)


def _check_wedges(k, a, b):
    if not (1 <= a <= k - 1 and 1 <= b <= k - 1):
        raise UsageError(f"wedge sizes must satisfy 1 <= a, b <= k-1, got k={k} a={a} b={b}")


def cmd_rmat_show(args):
    _check_wedges(args.k, args.a, args.b)
    rop = fused_rcheck(args.k, args.a, args.b)
    if args.format == "json":
        _write(rop.to_json(), args.out)
    else:
        labels = [
            "(" + "".join(map(str, S)) + "|" + "".join(map(str, T)) + ")"
            for (S, T) in rop.source
        ]
        _write_parts(["basis " + " ".join(labels) + "\n", rop.text_matrix(), "\n"], args.out)
    return 0


def cmd_rmat_verify(args):
    k, a, b = args.k, args.a, args.b
    _check_wedges(k, a, b)
    if a != b:
        raise UsageError(f"rmat verify checks the a-th wedge power alone: a = {a} != b = {b}")
    rop = fused_rcheck(k, a, b)
    from itertools import combinations

    single = [tuple(c) for c in combinations(range(1, k + 1), a)]
    ctx3 = spectral_context(3)
    name = f"fused k={k} a={a} b={b}"
    if args.check == "ybe":
        basis = product_basis(single, 3)
        app1 = slot_applicator(rop, 0)
        app2 = slot_applicator(rop, 1)
        rep = verify_ybe(app1, app2, basis, ctx3, name)
    elif args.check == "unitarity":
        basis = product_basis(single, 2)
        app1 = slot_applicator(rop, 0)
        rep = verify_unitarity(app1, basis, ctx3, name)
    elif args.check == "commutation":
        basis = product_basis(single, 4)
        app1 = slot_applicator(rop, 0)
        app3 = slot_applicator(rop, 2)
        rep = verify_commutation(app1, app3, basis, ctx3, name)
    else:
        raise SystemExit(f"unknown check {args.check!r}")
    return _report_tail([rep], args.out)


def cmd_appendix_suite(args):
    return _report_tail(appendixmod.cmd_appendix_suite(), args.json_out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qkzpsi",
        description="exact multidegree vectors, R-matrices, and their identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="multidegree vectors")
    psi_sub = p_psi.add_subparsers(dest="subcommand", required=True)
    pb = psi_sub.add_parser("build", help="build a vector and write JSON")
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--lambda", dest="lam", required=True, help="row lengths, e.g. 2,2,2,2")
    pb.add_argument("--m", default=None, help="fused sequence, e.g. 2,2,2,2")
    pb.add_argument("--out", default=None)
    pb.add_argument("--format", choices=("json", "text"), default="json")
    pb.set_defaults(fn=cmd_psi_build)
    pv = psi_sub.add_parser("verify", help="verify an identity of a stored vector")
    pv.add_argument("--check", required=True,
                    choices=("exchange", "wheel", "cyclicity", "qkz", "recurrence"))
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--out", default=None)
    pv.add_argument("--slot", type=int, default=None)
    pv.add_argument("--positions", default=None, help="wheel positions, e.g. 1,2,3")
    pv.add_argument("--insert-at", dest="insert_at", type=int, default=None,
                    help="recurrence insertion place (default 1)")
    pv.set_defaults(fn=cmd_psi_verify)

    p_slice = sub.add_parser("slice", help="slice models and equations")
    slice_sub = p_slice.add_subparsers(dest="subcommand", required=True)
    se = slice_sub.add_parser("emit", help="emit orbit-closure equations")
    se.add_argument("--m", required=True)
    se.add_argument("--ell", required=True)
    se.add_argument("--deform", action="store_true")
    se.add_argument("--format", choices=("text", "json"), default="text")
    se.add_argument("--out", default=None)
    se.set_defaults(fn=cmd_slice_emit)
    sv = slice_sub.add_parser("verify-appendix", help="check the worked example's slice data")
    sv.add_argument("--json-out", dest="json_out", default=None)
    sv.set_defaults(fn=cmd_slice_verify_appendix)

    p_rmat = sub.add_parser("rmat", help="R-matrices")
    rmat_sub = p_rmat.add_subparsers(dest="subcommand", required=True)
    rs = rmat_sub.add_parser("show", help="print a (fused) R-matrix")
    rs.add_argument("--k", type=int, required=True)
    rs.add_argument("--a", type=int, default=1)
    rs.add_argument("--b", type=int, default=1)
    rs.add_argument("--format", choices=("text", "json"), default="text")
    rs.add_argument("--out", default=None)
    rs.set_defaults(fn=cmd_rmat_show)
    rv = rmat_sub.add_parser("verify", help="verify R-matrix relations")
    rv.add_argument("--check", required=True, choices=("ybe", "unitarity", "commutation"))
    rv.add_argument("--k", type=int, required=True)
    rv.add_argument("--a", type=int, default=1)
    rv.add_argument("--b", type=int, default=1)
    rv.add_argument("--out", default=None)
    rv.set_defaults(fn=cmd_rmat_verify)

    p_app = sub.add_parser("appendix-suite", help="run all worked-example checks")
    p_app.add_argument("--json-out", dest="json_out", default=None)
    p_app.set_defaults(fn=cmd_appendix_suite)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as err:
        print(f"qkzpsi: error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1  # the reader closed stdout early; _write_parts quieted it


if __name__ == "__main__":
    sys.exit(main())
