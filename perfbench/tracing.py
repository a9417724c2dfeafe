"""Spans and counters around the library's public functions.

The tracer wraps functions and methods from the outside: it rebinds each
target in every ``quadalg`` module that imported it (``koszul.rref`` as well
as ``linalg.rref``) and replaces class attributes for methods.  Spans are
kept in memory as parallel arrays (name, start, end, parent, job) and
written out when the run ends.  Bookkeeping time, including the counters
that scan matrices, is excluded from span clocks, so self times approximate
the untraced run; the untraced/traced wall-time ratio is reported as
``trace.overhead_ratio``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# Per-layer metrics: name -> (unit, better, end-to-end metric it should
# move, on which workloads).
PER_LAYER = {
    "linalg.rref.calls":
        ("count", "lower", "q_job_s.p50, job_s.p90", "graded-cold"),
    "linalg.rref.cells":
        ("count", "lower", "q_job_s.p50, job_s.p90", "graded-cold"),
    "linalg.rref.q_self_s":
        ("s", "lower", "q_job_s.p50, job_s.p90", "graded-cold"),
    "linalg.rref.rank_ratio":
        ("ratio", "higher", "q_job_s.p50, job_s.p90", "graded-cold"),
    "linalg.rref.gf_self_s": ("s", "lower", "gf_job_s.p50", "graded-cold"),
    "linalg.matrix_rank.self_s": ("s", "lower", "job_s.p50", "complexes"),
    "linalg.matmul.calls": ("count", "lower", "job_s.p50", "complexes"),
    "linalg.matmul.self_s": ("s", "lower", "job_s.p50", "complexes"),
    "linalg.matmul.macs": ("count", "lower", "job_s.p50", "complexes"),
    "linalg.matmul.nnz_ratio": ("ratio", "higher", "job_s.p50", "complexes"),
    "linalg.matrix_new.calls":
        ("count", "lower", "jobs_per_s, job_s.p50", "complexes"),
    "linalg.matrix_new.cells":
        ("count", "lower", "jobs_per_s, job_s.p50", "complexes"),
    "linalg.is_identity.self_s":
        ("s", "lower", "jobs_per_s, job_s.p50", "complexes"),
    "linalg.reduce_against.self_s":
        ("s", "lower", "jobs_per_s, job_s.p50", "complexes"),
    "tensorindex.kron.calls":
        ("count", "lower", "jobs_per_s", "complexes"),
    "tensorindex.kron.self_s":
        ("s", "lower", "jobs_per_s", "complexes"),
    "tensorindex.kron.cells_out":
        ("count", "lower", "jobs_per_s", "complexes"),
    "tensorindex.tensor_subspace.self_s":
        ("s", "lower", "jobs_per_s", "complexes"),
    "tensorindex.push_subspace.self_s":
        ("s", "lower", "jobs_per_s", "complexes"),
    "presentations.dual.hit_ratio":
        ("ratio", "higher", "jobs_per_s", "complexes (near 0 on graded-cold)"),
    "presentations.black.hit_ratio":
        ("ratio", "higher", "jobs_per_s", "complexes (near 0 on graded-cold)"),
    "presentations.white.hit_ratio":
        ("ratio", "higher", "jobs_per_s", "complexes (near 0 on graded-cold)"),
    "presentations.products.miss_self_s":
        ("s", "lower", "jobs_per_s", "complexes"),
    "presentations.is_morphism.self_s":
        ("s", "lower", "jobs_per_s", "complexes"),
    "graded.dim.self_s": ("s", "lower", "q_job_s.p50", "graded-cold"),
    "graded.degrees_built": ("count", "lower", "q_job_s.p50", "graded-cold"),
    "graded.mult.self_s": ("s", "lower", "q_job_s.p50", "graded-cold"),
    "graded.full_projection.self_s":
        ("s", "lower", "q_job_s.p50", "graded-cold"),
    "graded.cache_entries": ("count", "lower", "peak_rss_mib", "graded-cold"),
    "koszul.slice_build.self_s":
        ("s", "lower", "job_s.p50, job_s.p90", "complexes"),
    "koszul.dd_check.self_s":
        ("s", "lower", "job_s.p50, job_s.p90", "complexes"),
    "koszul.dd_check.macs":
        ("count", "lower", "job_s.p50, job_s.p90", "complexes"),
    "koszul.homology.self_s":
        ("s", "lower", "job_s.p50, job_s.p90", "complexes"),
    "koszul.differential.nnz_ratio":
        ("ratio", "higher", "job_s.p50, job_s.p90", "complexes"),
    "koszul.bar_homology.calls_per_ext_job":
        ("count", "lower", "job_s.p50", "complexes"),
    "laws.checks": ("count", "higher", "jobs_per_s", "complexes"),
    "laws.morphism_validations": ("count", "lower", "jobs_per_s", "complexes"),
    "laws.run_suite.self_s": ("s", "lower", "jobs_per_s", "complexes"),
    "parser.parse.self_s":
        ("s", "lower", "gf_job_s.p50", "complexes, graded-cold"),
    "parser.unparse.self_s":
        ("s", "lower", "gf_job_s.p50", "complexes, graded-cold"),
    "cli.self_s": ("s", "lower", "gf_job_s.p50", "complexes, graded-cold"),
    "trace.overhead_ratio":
        ("ratio", "lower", "(none: cost of tracing)", "all"),
}


def self_times(starts, ends, parents):
    """Self time of each span: its duration minus what its children cover.

    Children of one span never overlap here (one thread, one call stack),
    so the covered part is the sum of the children's durations.
    """
    self_t = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            self_t[p] -= ends[i] - starts[i]
    return self_t


def nnz(matrix) -> int:
    return sum(len(row) - row.count(0) for row in matrix.data)


class Tracer:
    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.paused = 0.0       # bookkeeping time removed from span clocks
        self.counts = Counter()
        self._undo = []

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def inside(self, label: str) -> bool:
        lid = self._label_ids.get(label)
        return any(self.name[i] == lid for i in self.stack)

    def wrap(self, label, fn, after=None, before=None):
        """A traced version of ``fn``.

        ``before(args)`` runs first and its value is passed on;
        ``after(args, result, pre)`` updates counters and may return a
        label that replaces ``label`` for this span.  Both run outside the
        span clocks.
        """
        lid = self.label_id(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            pre = before(args) if before else None
            idx = len(self.start)
            self.name.append(lid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t1 = clock()
            self.paused += t1 - t0
            self.start[idx] = t1 - self.paused
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                self.end[idx] = t2 - self.paused
                self.stack.pop()
            if after:
                new = after(args, result, pre)
                if new is not None:
                    self.name[idx] = self.label_id(new)
            self.paused += clock() - t2
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, modules, module, attr, label, **hooks):
        original = getattr(module, attr)
        traced = self.wrap(label, original, **hooks)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, traced)
                    self._undo.append((mod, name, original))

    def patch_method(self, cls, attr, label, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(label, original, **hooks))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def write(self, path: str):
        """Spans as JSON lines: name, start, end, parent index, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.labels[self.name[i]],
                                     self.start[i], self.end[i],
                                     self.parent[i], self.job[i]]) + "\n")

    def self_by_label(self):
        out = Counter()
        for i, t in enumerate(self_times(self.start, self.end, self.parent)):
            out[self.labels[self.name[i]]] += t
        return out


def install(tracer: Tracer, q):
    """Wrap the layers named in PER_LAYER.  ``q`` is the quadalg package."""
    mods = [m for n, m in sys.modules.items()
            if n == "quadalg" or n.startswith("quadalg.")]
    c = tracer.counts
    linalg, tensorindex = q.linalg, q.tensorindex
    presentations, graded, koszul = q.presentations, q.graded, q.koszul
    Matrix = linalg.Matrix

    def on_rref(args, result, pre):
        M = args[0]
        c["rref.calls"] += 1
        c["rref.cells"] += M.rows * M.cols
        c["rref.rows"] += M.rows
        c["rref.rank"] += result[1]
        return ("linalg.rref.gf" if hasattr(M.field, "p")
                else "linalg.rref.q")

    def on_matmul(args, result, pre):
        a, b = args
        macs = a.rows * a.cols * b.cols
        c["matmul.calls"] += 1
        c["matmul.macs"] += macs
        c["matmul.cells"] += a.rows * a.cols + b.rows * b.cols
        c["matmul.nnz"] += nnz(a) + nnz(b)
        if tracer.stack and tracer.name[tracer.stack[-1]] == dd_check:
            c["dd_check.macs"] += macs

    def on_new(args, result, pre):
        c["matrix_new.calls"] += 1
        c["matrix_new.cells"] += args[0].rows * args[0].cols

    def on_kron(args, result, pre):
        c["kron.calls"] += 1
        c["kron.cells_out"] += result.rows * result.cols

    def cached(fn, label):
        def before(args):
            return fn.cache_info().hits

        def after(args, result, hits):
            return label + (".hit" if fn.cache_info().hits > hits
                            else ".miss")
        return {"before": before, "after": after}

    def on_is_morphism(args, result, pre):
        if tracer.inside("laws.run_suite"):
            c["laws.morphism_validations"] += 1

    def on_slice(args, result, pre):
        for d in args[0].differentials:
            c["differential.cells"] += d.rows * d.cols
            c["differential.nnz"] += nnz(d)

    def on_bar(args, result, pre):
        c["bar_homology.calls"] += 1

    def on_suite(args, result, pre):
        c["laws.checks"] += len(result[0])

    dd_check = tracer.label_id("koszul.dd_check")

    def fn(module, attr, label, **hooks):
        tracer.patch_function(mods, module, attr, label, **hooks)

    fn(linalg, "rref", "linalg.rref", after=on_rref)
    fn(linalg, "matrix_rank", "linalg.matrix_rank")
    fn(linalg, "reduce_against", "linalg.reduce_against")
    tracer.patch_method(Matrix, "__matmul__", "linalg.matmul", after=on_matmul)
    tracer.patch_method(Matrix, "__init__", "linalg.matrix_new", after=on_new)
    tracer.patch_method(Matrix, "is_identity", "linalg.is_identity")
    fn(tensorindex, "kron", "tensorindex.kron", after=on_kron)
    fn(tensorindex, "tensor_subspace", "tensorindex.tensor_subspace")
    fn(tensorindex, "push_subspace", "tensorindex.push_subspace")
    for name in ("dual", "black", "white"):
        lru = getattr(presentations, name)
        fn(presentations, name, f"presentations.{name}",
           **cached(lru, f"presentations.{name}"))
    fn(presentations, "is_morphism", "presentations.is_morphism",
       after=on_is_morphism)
    GS = graded.GradedStructure
    tracer.patch_method(GS, "dim", "graded.dim")
    tracer.patch_method(GS, "mult", "graded.mult")
    tracer.patch_method(GS, "full_projection", "graded.full_projection")
    for name in ("first_complex_slice", "second_complex_slice",
                 "bar_complex_in_degree"):
        fn(koszul, name, "koszul.slice_build")
    tracer.patch_method(koszul.ComplexSlice, "__post_init__",
                        "koszul.dd_check", after=on_slice)
    tracer.patch_method(koszul.ComplexSlice, "homology_dims",
                        "koszul.homology")
    fn(koszul, "bar_homology", "koszul.bar_homology", after=on_bar)
    fn(q.laws, "run_suite", "laws.run_suite", after=on_suite)
    fn(q.parser, "parse", "parser.parse")
    fn(q.parser, "unparse", "parser.unparse")
    fn(q.cli, "main", "cli")
    return {name: getattr(presentations, name).__wrapped__
            for name in ("dual", "black", "white")}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, q, caches, cache_before, ext_jobs,
                      overhead_ratio):
    """Every PER_LAYER metric, from the spans and counters of one pass.

    ``caches`` maps dual/black/white to their lru_cache objects and
    ``cache_before`` to their ``cache_info()`` at the start of the pass.
    """
    c = tracer.counts
    st = tracer.self_by_label()
    out = {
        "linalg.rref.calls": c["rref.calls"],
        "linalg.rref.cells": c["rref.cells"],
        "linalg.rref.q_self_s": st["linalg.rref.q"],
        "linalg.rref.rank_ratio": _ratio(c["rref.rank"], c["rref.rows"]),
        "linalg.rref.gf_self_s": st["linalg.rref.gf"],
        "linalg.matrix_rank.self_s": st["linalg.matrix_rank"],
        "linalg.matmul.calls": c["matmul.calls"],
        "linalg.matmul.self_s": st["linalg.matmul"],
        "linalg.matmul.macs": c["matmul.macs"],
        "linalg.matmul.nnz_ratio": _ratio(c["matmul.nnz"], c["matmul.cells"]),
        "linalg.matrix_new.calls": c["matrix_new.calls"],
        "linalg.matrix_new.cells": c["matrix_new.cells"],
        "linalg.is_identity.self_s": st["linalg.is_identity"],
        "linalg.reduce_against.self_s": st["linalg.reduce_against"],
        "tensorindex.kron.calls": c["kron.calls"],
        "tensorindex.kron.self_s": st["tensorindex.kron"],
        "tensorindex.kron.cells_out": c["kron.cells_out"],
        "tensorindex.tensor_subspace.self_s":
            st["tensorindex.tensor_subspace"],
        "tensorindex.push_subspace.self_s": st["tensorindex.push_subspace"],
        "presentations.products.miss_self_s":
            st["presentations.black.miss"] + st["presentations.white.miss"],
        "presentations.is_morphism.self_s": st["presentations.is_morphism"],
        "graded.dim.self_s": st["graded.dim"],
        "graded.mult.self_s": st["graded.mult"],
        "graded.full_projection.self_s": st["graded.full_projection"],
        "koszul.slice_build.self_s": st["koszul.slice_build"],
        "koszul.dd_check.self_s": st["koszul.dd_check"],
        "koszul.dd_check.macs": c["dd_check.macs"],
        "koszul.homology.self_s": st["koszul.homology"],
        "koszul.differential.nnz_ratio":
            _ratio(c["differential.nnz"], c["differential.cells"]),
        "koszul.bar_homology.calls_per_ext_job":
            _ratio(c["bar_homology.calls"], ext_jobs),
        "laws.checks": c["laws.checks"],
        "laws.morphism_validations": c["laws.morphism_validations"],
        "laws.run_suite.self_s": st["laws.run_suite"],
        "parser.parse.self_s": st["parser.parse"],
        "parser.unparse.self_s": st["parser.unparse"],
        "cli.self_s": st["cli"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, lru in caches.items():
        info, before = lru.cache_info(), cache_before[name]
        hits, misses = info.hits - before.hits, info.misses - before.misses
        out[f"presentations.{name}.hit_ratio"] = _ratio(hits, hits + misses)
    structures = getattr(q.graded, "_structures", {})
    out["graded.cache_entries"] = len(structures)
    out["graded.degrees_built"] = sum(
        max(len(getattr(gs, "_dims", ())) - 2, 0)
        for gs in structures.values())
    return {k: out[k] for k in PER_LAYER}
