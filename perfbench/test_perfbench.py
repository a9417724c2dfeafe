"""Tests of the benchmark's own logic.  Run: python3 -m pytest -q perfbench"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import quadalg  # noqa: E402
import quadalg.cli  # noqa: E402,F401
from check import Checker, Result, in_pool  # noqa: E402
from run import (END_TO_END, KERNEL_REF_S, Run, percentile,  # noqa: E402
                 run_job, tail_percentile)
from tracing import PER_LAYER, Tracer, self_times  # noqa: E402
from workloads import (WORKLOADS, InputDir, Job, corpus_text,  # noqa: E402
                       rounds)


def test_percentile_needs_ten_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90) == (90, 10)
    assert tail_percentile(values, 90) == 90
    assert percentile(values[:99], 90) == (90, 9)
    assert tail_percentile(values[:99], 90) is None
    assert tail_percentile(list(range(10)), 90) is None
    assert percentile([5.0], 50) == (5.0, 0)


def test_self_time_subtracts_children():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    starts, ends, parents = [0, 1, 5, 6], [10, 4, 9, 7], [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [3, 3, 3, 1]


def test_tracer_records_nesting_and_counters():
    tracer = Tracer()
    calls = []

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner,
                               after=lambda a, r, p: calls.append(r))

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = tracer.wrap("outer", outer)
    tracer.job_id = 7
    assert traced_outer(1) == 4
    assert calls == [2, 2]
    assert [tracer.labels[i] for i in tracer.name] == ["outer", "inner",
                                                       "inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.job) == [7, 7, 7]
    own = tracer.self_by_label()
    total = tracer.end[0] - tracer.start[0]
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert min(own.values()) >= 0


def _job(kind, field, argv, inputs, check=None, twin=None):
    return Job("test", 0, kind, field, argv, inputs, check or {}, twin)


def _run(tmp_path, job, files):
    paths = {}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.qa")
        with open(paths[name], "w") as fh:
            fh.write(text)
    return run_job(quadalg.cli, job.cli_args(paths))


def test_checker_counts_each_failed_job_once(tmp_path):
    text = corpus_text("gf7_seed3")
    files = {"gf7_seed3": text}
    good = _job("hilbert", "GF", ["hilbert", "--max", "4"], ["gf7_seed3"],
                {"max": 4})
    res = _run(tmp_path, good, files)
    wrong = Result(0, res.stdout.replace("\n2: ", "\n2: 1"), None, 0.0)
    raised = Result(None, "", "ZeroDivisionError: boom", 0.0)
    bad_status = Result(1, res.stdout, None, 0.0)
    jobs = [good] * 4
    results = [res, wrong, raised, bad_status]
    failures = Checker(quadalg).check_all(jobs, results, [[text]] * 4)
    assert sorted(failures) == [1, 2, 3]
    assert "oracle" in failures[1][0]
    assert failures[2] == ["raised ZeroDivisionError: boom"]
    assert "exit status 1" in failures[3][0]


def test_checker_reports_twin_disagreement_on_the_q_job():
    q_job = _job("hilbert", "Q", [], ["a"], {"max": 1}, twin="t")
    gf_job = _job("hilbert", "GF", [], ["a"], {"max": 1}, twin="t")
    text = "field GF 5\ngens x y\n"
    results = [Result(0, "0: 1\n1: 3\n"), Result(0, "0: 1\n1: 2\n")]
    failures = Checker(quadalg).check_all([q_job, gf_job], results,
                                          [[text], [text]])
    assert list(failures) == [0]
    assert "twins disagree" in failures[0][0]


def test_laws_unit_fallback_counts_as_failed(tmp_path):
    # over GF(p) the axioms budget is 8 generators, so four 2-generator
    # objects never fit and every object is replaced by the black unit
    pool = ["gf7_seed1", "gf7_seed2"]
    files = {name: corpus_text(name) for name in pool}
    job = _job("laws", "GF", ["laws", "--suite", "axioms", "--trials", "1"],
               pool)
    res = _run(tmp_path, job, files)
    assert res.status == 0 and "e,e,e,e" in res.stdout
    failures = Checker(quadalg).check_all(
        [job], [res], [[files[n] for n in pool]])
    assert "not from the pool" in failures[0][0]


def test_in_pool_accepts_derived_objects():
    pool = {"x·y", "t"}
    for obj in ("x·y", "x!·y!", "x'0·y'0", "t'n", "g0·g1", "I.", "Io"):
        assert in_pool(obj, pool), obj
    for obj in ("e", "e!", "e1·e2", "g0·g1·g2"):
        assert not in_pool(obj, pool), obj


def test_complexes_laws_jobs_have_no_failures(tmp_path):
    inputs = InputDir(str(tmp_path))
    rnd = WORKLOADS["complexes"](3, 0)
    rnd.jobs = [j for j in rnd.jobs if j.kind == "laws"]
    paths = inputs.materialize(rnd)
    results = [run_job(quadalg.cli, j.cli_args(paths)) for j in rnd.jobs]
    texts = [[rnd.files[n] for n in j.inputs] for j in rnd.jobs]
    assert Checker(quadalg).check_all(rnd.jobs, results, texts) == {}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_files(tmp_path, workload):
    def digest(seed, where):
        inputs = InputDir(str(tmp_path / where))
        for rnd, _ in zip(rounds(workload, seed), range(3)):
            inputs.materialize(rnd)
        return inputs.digest(), inputs.digests

    first, files = digest(5, "a")
    again, files_again = digest(5, "b")
    assert first == again and files == files_again
    assert digest(6, "c")[0] != first


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(k, v[0], v[1]) for k, v in PER_LAYER.items()]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)



def test_times_are_scaled_by_the_kernel_around_each_job(tmp_path):
    run = Run("complexes", 1, InputDir(str(tmp_path)))
    rnd, _ = run.next_round()
    results = [Result(0, "", None, 0.1 * (i + 1))
               for i in range(len(rnd.jobs))]
    # the host is half as fast as the reference around the first job and
    # at the reference speed from the second job on
    kernel = [2 * KERNEL_REF_S] * 2 + [KERNEL_REF_S] * (len(rnd.jobs) - 1)
    run.record(rnd, results, kernel)
    scaled = run.scaled
    assert scaled[0] == pytest.approx(0.1 / 2)
    assert scaled[1] == pytest.approx(0.2 / 1.5)
    assert scaled[2:] == pytest.approx([r.seconds for r in results[2:]])
    assert run.texts[0] == [rnd.files[n] for n in rnd.jobs[0].inputs]


def test_session_runs_jobs_in_a_fresh_process(tmp_path):
    qa = tmp_path / "a.qa"
    qa.write_text(corpus_text("gf7_seed3"))
    jobs = [["hilbert", "--max", "2", str(qa)], ["nosuchcommand"]]
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    out = tmp_path / "results.json"
    subprocess.run([sys.executable, os.path.join(HERE, "session.py"),
                    str(tmp_path / "jobs.json"), str(out)], check=True)
    done = json.loads(out.read_text())
    assert done["import_s"] > 0 and done["peak_rss_mib"] > 0
    assert len(done["kernel_s"]) == 3 and min(done["kernel_s"]) > 0
    first, second = (Result(*r) for r in done["results"])
    assert first.status == 0 and first.stdout.startswith("0: 1\n1: 3\n")
    assert second.status != 0 and first.seconds > 0
