"""One fresh interpreter that runs a workload's klconc CLI jobs once, as a user would.

Usage: python child.py SPEC_JSON

SPEC_JSON holds ``jobs`` (argv lists for ``klconc.cli.main``, without
``--threads``), ``threads`` (the thread count of every job), ``src`` (the
directory the package must be imported from) and ``trace`` (null, or the
path the spans are written to). The child times the import of
``klconc.cli`` and each ``main`` call, all first calls in this
interpreter, captures each job's stdout, and prints one JSON report as its
last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import klconc.cli as cli

    import_s = time.perf_counter() - start
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"klconc.cli imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    entry = cli.main
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)

    jobs = []
    for argv in spec["jobs"]:
        argv = list(argv) + ["--threads", str(spec["threads"])]
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = entry(argv)
        except Exception:  # the job failed; the gate counts it and the run goes on
            code = "exception: " + traceback.format_exc(limit=3)
        jobs.append({"argv": argv, "code": code, "wall_s": time.perf_counter() - t0,
                     "stdout": out.getvalue()})

    report = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": spec["threads"],
        "wall_s": sum(job["wall_s"] for job in jobs),
        "jobs": jobs,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layers()
        report["absent"] = tracer.absent
        tracer.dump(spec["trace"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
