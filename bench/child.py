"""Run one qkzpsi command-line job in a fresh interpreter.

    python3 bench/child.py --setup
    python3 bench/child.py --report FILE [--trace] -- <qkzpsi arguments...>

``--setup`` pays only the cold start a job pays before work (imports and the
appendix fixture load) and exits.  Otherwise the job calls
``qkzpsi.cli.main`` with the given arguments, writes what it measured to
FILE as JSON and exits with the CLI's return code.  With ``--trace`` the
package's public functions are wrapped from outside (see tracer.py) and the
report also holds the per-layer counts.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def peak_rss_kb():
    """This process's own peak resident set.

    ``ru_maxrss`` is not used: on Linux it also counts the parent's resident
    set at the time this process was started.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    if argv == ["--setup"]:
        from qkzpsi import appendix, cli  # noqa: F401

        appendix.load_fixture()
        return 0
    if argv[:1] != ["--report"] or len(argv) < 3:
        raise SystemExit("usage: child.py --setup | child.py --report FILE [--trace] -- ARGS...")
    report_file, argv = argv[1], argv[2:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: child.py --setup | child.py --report FILE [--trace] -- ARGS...")
    from qkzpsi import cli

    doc = {}
    run = cli.main
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)
    t0 = time.perf_counter()
    try:
        return run(argv[1:])
    finally:
        doc["main_s"] = time.perf_counter() - t0
        if trace:
            tracer.uninstall()
            tracer.finish()
            doc["stats"], doc["instances"] = tracer.stats, tracer.instances
        doc["peak_rss_kb"] = peak_rss_kb()
        with open(report_file, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
