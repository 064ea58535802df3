"""Structured pass/fail reports shared by all verification operations, and
the JSON writer of every JSON output.

Every check runs in one ``checking`` block, which times it and turns its
end, ``fail`` or ``skip`` into its Report; no other module reads the clock.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

_INF = float("inf")


class Report(namedtuple("Report", "check instance status witness wall_time",
                        defaults=(None, 0.0))):
    """One check's outcome; status is "pass", "fail" or "skipped"."""

    __slots__ = ()

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        return {
            "schema": 1,
            "check": self.check,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
            "wall_time": round(self.wall_time, 6),
        }

    def line(self):
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        extra = f"  [{self.witness}]" if self.witness else ""
        return f"{mark}  {self.check}  {self.instance}{extra}"


class _Stop(BaseException):
    """Ends a ``checking`` block.  Not an Exception, so that no ``except
    Exception`` in a check body can swallow it."""


class checking:
    """``with checking(check, instance) as outcome:`` times one check's block.

    Inside it ``outcome.fail(witness)`` and ``outcome.skip(reason)`` end the
    block; after it ``outcome.report`` is the Report, a pass if the body
    reached its end.  Any other exception propagates and leaves no report.
    """

    def __init__(self, check, instance):
        self.check, self.instance = check, instance
        self.status, self.witness, self.report = "pass", None, None

    def fail(self, witness):
        self.status, self.witness = "fail", witness
        raise _Stop

    def skip(self, reason):
        self.status, self.witness = "skipped", reason
        raise _Stop

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type not in (None, _Stop):
            return False
        self.report = Report(self.check, self.instance, self.status, self.witness,
                             time.perf_counter() - self._t0)
        return True


def run_reports(jobs):
    """Run report-producing callables one after another, in order."""
    return [job() for job in jobs]


def json_parts(doc):
    """The text of ``json.dumps(doc, indent=2, sort_keys=True)``, byte for
    byte, as a generator of parts, for ``writelines``.

    On CPython ``indent`` sends json.dumps to its pure-Python encoder; this
    writer emits the same text with fewer steps, and writes a list of plain
    ints with a single join.  Parts are produced as the writer asks for
    them, so the whole text is never held at once.  An iterator is written
    as the list of its items, each item taken as the writer reaches it.
    Dict keys must be strings.  A callable value writes its own text: it is
    called with the newline and indent that precede it and returns that
    text as an iterable of parts (``Polynomial.to_json`` with a
    ``TermWriter`` puts its term rows there, streamed a row a part).
    """
    return _emit(doc, "\n")


def _emit(x, nl):
    """Yield the text of x in parts; ``nl`` is a newline plus x's indent."""
    if isinstance(x, str):
        yield encode_basestring_ascii(x)
    elif x is None:
        yield "null"
    elif x is True:
        yield "true"
    elif x is False:
        yield "false"
    elif isinstance(x, int):
        yield int.__repr__(x)
    elif isinstance(x, float):
        if x != x:
            yield "NaN"
        elif x in (_INF, -_INF):
            yield "Infinity" if x > 0 else "-Infinity"
        else:
            yield float.__repr__(x)
    elif isinstance(x, (list, tuple, Iterator)):
        inner = nl + "  "
        if isinstance(x, (list, tuple)) and x and set(map(type, x)) == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, x)) + nl + "]"
            return
        sep = "[" + inner
        for item in x:
            yield sep
            yield from _emit(item, inner)
            sep = "," + inner
        yield "[]" if sep[0] == "[" else nl + "]"
    elif isinstance(x, dict):
        if not x:
            yield "{}"
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            yield sep + encode_basestring_ascii(key) + ": "
            yield from _emit(value, inner)
            sep = "," + inner
        yield nl + "}"
    elif callable(x):
        yield from x(nl)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
