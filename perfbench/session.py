"""A fresh Python session that runs a list of CLI jobs for the benchmark.

Usage (``run.py`` starts it; it can be run by hand too):

    python3 perfbench/session.py JOBS.json RESULTS.json

``JOBS.json`` is a list of argument lists for ``quadalg.cli.main``.  The
session first times ``import quadalg.cli`` (numpy included), then runs the
jobs one after another in this process, so the library's caches persist
across the jobs as in one long-lived session.  Before the first job and
after every job it times ``reference_kernel``, so the caller can tell how
fast the host ran around each job.  It writes the import time, its peak
RSS, every job's status, output, error and wall time, and the kernel times
to ``RESULTS.json``.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def import_cli():
    """Import ``quadalg.cli`` from the checkout; return it and the seconds
    the import took."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import quadalg.cli
    return quadalg.cli, time.perf_counter() - t0


def run_job(cli, args):
    """Run one CLI call; return (status, stdout, error, seconds)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    error = None
    status = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            status = cli.main(args)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a job that raises is counted as failed
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return status, out.getvalue(), error, seconds


def reference_kernel():
    """Seconds taken by a fixed computation that does not use quadalg.

    Exact elimination over Q and over GF(p) in pure Python, a small numpy
    matrix power and dict updates: the kinds of work the CLI jobs do.
    It runs with the collector off so it does not pay for the session's
    heap.  Changing it changes the scale of every benchmark time.
    """
    import gc
    from fractions import Fraction
    import numpy as np
    gc.disable()
    t0 = time.perf_counter()
    n = 12
    M = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i * j) % 5)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            continue
        M[c], M[p] = M[p], M[c]
        inv = 1 / M[c][c]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c] * inv
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    P = 32003
    G = [[(i * 31 + j * 17) % P for j in range(30)] for i in range(30)]
    for c in range(30):
        inv = pow(G[c][c] or 1, P - 2, P)
        G[c] = [x * inv % P for x in G[c]]
        for r in range(c + 1, 30):
            f = G[r][c]
            if f:
                G[r] = [(a - f * b) % P for a, b in zip(G[r], G[c])]
    A = np.arange(3600, dtype=np.int64).reshape(60, 60) % 7
    B = A
    for _ in range(10):
        B = (B @ A) % 7
    d = {}
    for i in range(8000):
        d[(i % 97, i % 89)] = d.get((i % 97, i % 89), 0) + i
    seconds = time.perf_counter() - t0
    gc.enable()
    return seconds


def main(jobs_path, results_path):
    cli, import_s = import_cli()
    import json
    import resource
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    reference_kernel()      # warm-up: imports, first-call costs
    kernel = [reference_kernel()]
    results = []
    for args in jobs:
        results.append(run_job(cli, args))
        kernel.append(reference_kernel())
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "peak_rss_mib": rss_mib,
                   "results": results, "kernel_s": kernel}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
