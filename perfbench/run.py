"""End-to-end benchmark of the quadalg CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graded-cold --seed 1 --trace 0

Load model: one client runs CLI jobs one after another through
``quadalg.cli.main(argv)`` in one Python session (a closed loop, no think
time), so the library's caches persist across the jobs of the session.
Inputs are ``.qa`` files generated from ``--seed`` (see ``workloads.py``);
every answer is checked (see ``check.py``).

``--trace 0`` runs rounds 0, 1, 2, ... of the workload, each in a fresh
session (``session.py``), until ``--seconds`` have gone by and at least
MIN_SESSIONS sessions are done, and reports the end-to-end metrics.

Times are scaled to a fixed CPU speed.  The shared host this benchmark was
built on runs the same code up to ~1.7x slower for seconds to minutes at a
time (without visible steal time), so raw wall times of two runs a minute
apart can differ by more than any useful bound.  The session therefore
times a fixed reference kernel (``session.reference_kernel``, no quadalg
code) before the first job and after every job, and each job's wall time is
multiplied by KERNEL_REF_S / (mean of the kernel times on either side of
it).  On the reference host when it is not slowed the factor is ~1, so the
figures read as seconds on that host.  The raw figures are printed too.
``setup_s`` is the median over the sessions of their ``import
quadalg.cli``, unscaled: the import does not slow down with the kernel.

``--trace 1`` runs TRACE_ROUNDS rounds untraced in fresh sessions and then
traced in this process, checks that both print the same bytes, and reports
the per-layer metrics of ``tracing.py``.  Human-readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import session  # noqa: E402
from check import Checker, Result  # noqa: E402
from workloads import WORKLOADS, InputDir, rounds  # noqa: E402

MIN_SESSIONS = 5    # also the least number of imports behind setup_s
TRACE_ROUNDS = {"graded-cold": 2, "complexes": 1}
# session.reference_kernel on the reference host (2-core x86_64 VM, Python
# 3.11.7, numpy 2.4.6) when the host is not slowed
KERNEL_REF_S = 0.0085

UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "q_job_s.p50": "s",
    "gf_job_s.p50": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# The metrics of the result object (BENCHMARK.json end_to_end).
END_TO_END = {name: UNITS[name] for name in
              ("jobs_per_s", "job_s.p50", "q_job_s.p50", "gf_job_s.p50",
               "peak_rss_mib", "setup_s")}


def percentile(values, pct: int):
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values, pct: int, min_beyond: int = 10):
    """The percentile, or None when fewer than ``min_beyond`` lie beyond."""
    value, beyond = percentile(values, pct)
    return value if beyond >= min_beyond else None


def load_library():
    if not os.path.isfile(os.path.join(session.SRC, "quadalg", "cli.py")):
        print("perfbench: src/quadalg not found; run from the root of a "
              "quadalg checkout", file=sys.stderr)
        sys.exit(2)
    session.import_cli()
    return sys.modules["quadalg"]


def run_job(cli, args) -> Result:
    return Result(*session.run_job(cli, args))


class Run:
    """The jobs of one run, in execution order, with their results."""

    def __init__(self, workload: str, seed: int, inputs: InputDir):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.jobs, self.texts, self.results = [], [], []
        self.kernel = []    # per job: mean kernel time on either side
        self.imports, self.rss = [], []
        self._rounds = rounds(workload, seed)

    def next_round(self):
        """The next round and the CLI arguments of its jobs."""
        rnd = next(self._rounds)
        paths = self.inputs.materialize(rnd)
        return rnd, [job.cli_args(paths) for job in rnd.jobs]

    def record(self, rnd, results, kernel):
        """Add a round's results.  ``kernel`` holds the kernel times before
        the first job and after each job."""
        self.jobs += rnd.jobs
        self.texts += [[rnd.files[n] for n in job.inputs] for job in rnd.jobs]
        self.results += results
        self.kernel += [(a + b) / 2 for a, b in zip(kernel, kernel[1:])]

    @property
    def scaled(self):
        """Job times at the reference speed."""
        return [r.seconds * KERNEL_REF_S / k
                for r, k in zip(self.results, self.kernel)]

    def run_round(self):
        """Run the next round in a fresh session."""
        rnd, args = self.next_round()
        jobs = os.path.join(self.inputs.path, f"jobs{rnd.index}.json")
        out = os.path.join(self.inputs.path, f"results{rnd.index}.json")
        with open(jobs, "w", encoding="utf-8") as fh:
            json.dump(args, fh)
        subprocess.run([sys.executable, session.__file__, jobs, out],
                       cwd=ROOT, check=True)
        with open(out, encoding="utf-8") as fh:
            done = json.load(fh)
        self.record(rnd, [Result(*r) for r in done["results"]],
                    done["kernel_s"])
        self.imports.append(done["import_s"])
        self.rss.append(done["peak_rss_mib"])

    def check(self, q):
        return Checker(q).check_all(self.jobs, self.results, self.texts)


def end_to_end(run: Run, seconds: float):
    end = time.perf_counter() + seconds
    while len(run.imports) < MIN_SESSIONS or time.perf_counter() < end:
        run.run_round()
    times = run.scaled
    by_field = {fld: [t for j, t in zip(run.jobs, times) if j.field == fld]
                for fld in ("Q", "GF")}
    raw = [r.seconds for r in run.results]
    metrics = {
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "q_job_s.p50": statistics.median(by_field["Q"]),
        "gf_job_s.p50": statistics.median(by_field["GF"]),
        "peak_rss_mib": statistics.median(run.rss),
        "setup_s": statistics.median(run.imports),
    }
    notes = {
        "jobs_per_s": f"{len(times)} jobs in {sum(times):.2f} s; "
                      f"unscaled {len(raw) / sum(raw):.4g} jobs/s",
        "job_s.p50": f"n={len(times)}; unscaled "
                     f"{statistics.median(raw):.4g} s",
        "q_job_s.p50": f"n={len(by_field['Q'])}",
        "gf_job_s.p50": f"n={len(by_field['GF'])}",
        "peak_rss_mib": f"median of {len(run.rss)} sessions",
        "setup_s": f"median of {len(run.imports)} fresh imports, "
                   f"{min(run.imports):.3f}-{max(run.imports):.3f} s",
    }
    p90, beyond = percentile(times, 90)
    if tail_percentile(times, 90) is not None:
        metrics["job_s.p90"] = p90
        notes["job_s.p90"] = f"n={len(times)}, {beyond} beyond"
    return {k: metrics[k] for k in UNITS if k in metrics}, notes


def traced(q, run: Run, inputs: InputDir):
    """Per-layer metrics of TRACE_ROUNDS rounds run traced in this process,
    checked against the same rounds untraced in fresh sessions."""
    import tracing
    untraced = Run(run.workload, run.seed, inputs)
    for _ in range(TRACE_ROUNDS[run.workload]):
        untraced.run_round()
    tracer = tracing.Tracer()
    caches = tracing.install(tracer, q)
    cache_before = {n: c.cache_info() for n, c in caches.items()}
    session.reference_kernel()
    for _ in range(TRACE_ROUNDS[run.workload]):
        rnd, args = run.next_round()
        results, kernel = [], [session.reference_kernel()]
        for a in args:
            tracer.job_id = len(run.jobs) + len(results)
            results.append(run_job(q.cli, a))
            kernel.append(session.reference_kernel())
        run.record(rnd, results, kernel)
    tracer.uninstall()
    causes = {}
    for i, (mine, theirs) in enumerate(zip(run.results, untraced.results)):
        if (mine.status, mine.stdout) != (theirs.status, theirs.stdout):
            causes[i] = ["traced output differs from the untraced run"]
    wall, base = sum(run.scaled), sum(untraced.scaled)
    ext_jobs = sum(1 for j in run.jobs if j.kind == "ext")
    metrics = tracing.per_layer_metrics(tracer, q, caches, cache_before,
                                        ext_jobs, wall / base)
    tracer.write(os.path.join(WORK, f"spans-{run.workload}.jsonl"))
    units = {name: spec[0] for name, spec in tracing.PER_LAYER.items()}
    notes = {"trace.overhead_ratio":
             f"{wall:.2f} s traced / {base:.2f} s untraced (scaled), "
             f"{len(run.jobs)} jobs, {len(tracer.start)} spans"}
    return metrics, units, notes, causes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    q = load_library()
    os.makedirs(WORK, exist_ok=True)
    inputs = InputDir(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                       dir=WORK))
    try:
        run = Run(args.workload, args.seed, inputs)
        if args.trace:
            metrics, units, notes, causes = traced(q, run, inputs)
        else:
            metrics, notes = end_to_end(run, args.seconds)
            units, causes = UNITS, {}
        for i, more in run.check(q).items():
            causes.setdefault(i, []).extend(more)
        with open(os.path.join(WORK, f"manifest-{args.workload}-"
                               f"{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "digest": inputs.digest(), "files": inputs.digests},
                      fh, indent=1, sort_keys=True)
    finally:
        shutil.rmtree(inputs.path, ignore_errors=True)

    attempted, failed = len(run.jobs), len(causes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs attempted, {failed} failed; "
          f"{len(inputs.digests)} input files, sha256 {inputs.digest()}")
    print(f"machine: nproc {os.cpu_count()}, python "
          f"{platform.python_version()}, numpy {numpy_version()}; "
          f"reference kernel median {statistics.median(run.kernel):.4g} s "
          f"(reference {KERNEL_REF_S} s)")
    for name, value in metrics.items():
        note = notes.get(name, "")
        if not args.trace and name not in END_TO_END:
            note += " (not gated)"
        print(f"  {name:40s} {value:>14.6g} {units[name]:7s} {note}")
    if not args.trace:
        print(f"  {'ops_failed_ratio':40s} {failed / attempted:>14.6g} "
              f"ratio   {failed}/{attempted}")
    for i in sorted(causes):
        job = run.jobs[i]
        print(f"FAILED job {i} ({job.kind} {job.field} round {job.round}, "
              f"{' '.join(job.argv + job.inputs)}): "
              f"{'; '.join(causes[i])}")
    reported = metrics if args.trace else {
        name: metrics[name] for name in END_TO_END}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()}}))
    return 0


def numpy_version() -> str:
    numpy = sys.modules.get("numpy")
    return getattr(numpy, "__version__", "unknown")


if __name__ == "__main__":
    sys.exit(main())
