"""The benchmark tracer (perfbench/tracing.py) on the real library.

The tracer rebinds library functions by name and reads matrices through
their dense ``data`` view, so a change to those names or that view breaks
the traced benchmark run; this test runs it on a few CLI calls.
"""

import pathlib
import sys

import quadalg
from quadalg import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

CALLS = [
    ["koszul", "--max", "3", "corpus/sym3.qa"],
    ["ext", "--max", "3", "corpus/gf7_seed1.qa"],
    ["hom", "corpus/sym3.qa", "corpus/sym3.qa"],
    ["product", "--kind", "white", "corpus/ext2.qa", "corpus/sym3.qa"],
    ["dual", "--output", "structured", "corpus/gf7_seed1.qa"],
    ["laws", "--suite", "duality", "--trials", "2", "corpus/sym3.qa"],
]


def test_tracer_reports_every_per_layer_metric(capsys):
    # earlier tests may have cached these structures, products and Koszul
    # reports; compute them here.  This runs before install, which rebinds
    # dual, black and white to wrappers without cache_clear
    quadalg.clear_caches()
    tracer = tracing.Tracer()
    caches = tracing.install(tracer, quadalg)
    try:
        cache_before = {n: c.cache_info() for n, c in caches.items()}
        for argv in CALLS:
            argv = [str(ROOT / a) if a.startswith("corpus/") else a
                    for a in argv]
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracing.per_layer_metrics(tracer, quadalg, caches,
                                        cache_before, 1, 1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert 0 < metrics["linalg.matmul.nnz_ratio"] < 1
    assert 0 < metrics["koszul.differential.nnz_ratio"] < 1
    assert metrics["linalg.rref.calls"] > 0
    # the products and the presentation emission still run under the hooks
    for name in ("presentations.products.miss_self_s",
                 "tensorindex.tensor_subspace.self_s",
                 "tensorindex.push_subspace.self_s", "parser.unparse.self_s"):
        assert metrics[name] > 0, name
    # the ext job takes its table from the minimal resolution; the bar
    # complex stays an oracle that the CLI never builds
    assert metrics["koszul.bar_homology.calls_per_ext_job"] == 0
