"""tools/bench.py: each subcommand checks its engine against its oracle."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys

import pytest

from quadalg import koszul
from quadalg.fields import QQ

from conftest import CORPUS, CORPUS_NAMES, load

TOOL = CORPUS.parent / "tools" / "bench.py"

# one small run per subcommand
RUNS = {
    "ext": ["ext", "--seeds", "1", "--degrees", "3"],
    "hilbert": ["hilbert", "--seeds", "1", "--degrees", "3"],
    "koszul": ["koszul", "--seeds", "1", "--degrees", "3"],
    "linalg": ["linalg", "--seeds", "0", "--degrees", "2"],
    "products": ["products", "--seeds", "1"],
}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def timings(node):
    """Every {median_s, q1_s, q3_s} record inside a JSON value."""
    if isinstance(node, dict):
        if "median_s" in node:
            yield node
        for value in node.values():
            yield from timings(value)
    elif isinstance(node, list):
        for value in node:
            yield from timings(value)


@pytest.mark.parametrize("name", RUNS)
def test_bench_subcommand_agrees_with_its_oracle(bench, name, tmp_path):
    out = tmp_path / f"BENCH_{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench.main(RUNS[name] + ["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    rows = record["rows"]
    assert rows and all(row["agree"] is True for row in rows)
    found = list(timings(rows))
    assert len(found) >= len(rows)
    assert all(t["q1_s"] <= t["median_s"] <= t["q3_s"] for t in found)
    assert record["machine"]["ref_s"] > 0
    assert all(row["ref_s"] > 0 for row in rows)
    if name == "ext":
        corpus = [row["input"] for row in rows if row["family"] == "corpus"]
        assert corpus == CORPUS_NAMES
        generic = [row for row in rows if row["family"] != "corpus"]
        assert len(generic) == 3
        # the generic rows are answered by the certificate
        assert all(row["certified"] for row in generic)
    if name == "koszul":
        corpus = [row["input"] for row in rows if row["family"] == "corpus"]
        assert corpus == CORPUS_NAMES
        # each generic presentation is timed over Q and over its GF twin
        generic = [row["field"] for row in rows if row["family"] != "corpus"]
        assert generic == ["Q", f"GF {bench.GF_P}"] * 3
    if name == "products":
        # every ordered corpus pair over one field, then each
        # HOM_RELATIONS pair over Q and over its GF twin
        fields = {n: load(n).field for n in CORPUS_NAMES}
        corpus = [row["input"] for row in rows if row["family"] == "corpus"]
        assert corpus == [f"{u},{v}" for u in CORPUS_NAMES
                          for v in CORPUS_NAMES if fields[u] == fields[v]]
        generic = [(row["k"], row["field"]) for row in rows
                   if row["family"] != "corpus"]
        assert generic == [(list(k), field) for k in bench.HOM_RELATIONS
                           for field in ("Q", f"GF {bench.GF_P}")]


def _shift_gf_degree(bench, monkeypatch):
    real = bench.second_complex_slice
    monkeypatch.setattr(bench, "second_complex_slice",
                        lambda A, m: real(A, m + (A.field != QQ)))


ORACLE_BREAKERS = {
    "ext": lambda bench, mp: mp.setattr(bench, "bar_homology",
                                        lambda A, N: None),
    "hilbert": lambda bench, mp: mp.setattr(bench, "exact_dims",
                                            lambda A, N: []),
    "koszul": lambda bench, mp: mp.setattr(bench, "exact_reports",
                                           lambda A, N: []),
    "linalg": _shift_gf_degree,
    "products": lambda bench, mp: mp.setitem(
        bench.PRODUCTS, "black", (bench.black, bench.white_by_stacking)),
}


@pytest.mark.parametrize("name", RUNS)
def test_bench_subcommand_exits_1_when_the_oracle_disagrees(
        bench, name, tmp_path, monkeypatch, capsys):
    ORACLE_BREAKERS[name](bench, monkeypatch)
    argv = [name, "--seeds", "0", "--degrees", "2",
            "--out", str(tmp_path / "out.json")]
    assert bench.main(argv) == 1
    assert "MISMATCH" in capsys.readouterr().err


def test_timed_computes_every_koszul_degree_on_every_repeat(bench,
                                                            monkeypatch):
    # a GF input has no certificate: one homology_report per degree per
    # repeat, none answered from reports kept by an earlier repeat
    real, calls = koszul.homology_report, []

    def counted(A, m):
        calls.append(m)
        return real(A, m)
    monkeypatch.setattr(koszul, "homology_report", counted)
    A, N = load("gf7_seed1"), 3
    bench.timed(bench.koszul_verdict, A, N)
    assert calls == [1, 2, 3] * bench.REPEAT


def test_bench_script_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "BENCH_linalg.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "linalg", "--seeds", "0", "--degrees",
         "2", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert all(row["agree"] for row in json.loads(out.read_text())["rows"])
