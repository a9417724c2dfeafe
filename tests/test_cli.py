"""CLI determinism: byte-exact golden files for every corpus invocation.

The manifest lives in ``golden_manifest.py``, which also regenerates the
goldens and checks them without pytest.
"""

import ast
import contextlib
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from quadalg import clear_caches, koszul, laws
from quadalg.cli import build_parser, main

# test_acceptance reads GOLDEN, MANIFEST and _run from this module
import golden_manifest
from golden_manifest import (GOLDEN, LOW_DEGREE_RUNS, MANIFEST,
                             corpus_file as _f, run as _run)

HERE = pathlib.Path(__file__).resolve().parent

# runs the CLI in a fresh interpreter: python -c MAIN_CODE ARGV...
MAIN_CODE = ("import sys; from quadalg.cli import main; "
             "sys.exit(main(sys.argv[1:]))")


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("name,argv,want_status",
                         MANIFEST, ids=[m[0] for m in MANIFEST])
def test_golden(name, argv, want_status):
    status, text = _run(argv)
    golden = (GOLDEN / f"{name}.txt").read_text()
    assert text == golden, f"output drifted for {name}"
    assert status == want_status


def test_goldens_hold_twice_on_warm_caches():
    # no cache is cleared: the second pass reads whatever the first (and
    # every earlier test) left in the structure, product and report caches
    for _ in range(2):
        for name, argv, want_status in MANIFEST:
            status, text = _run(argv)
            assert text == (GOLDEN / f"{name}.txt").read_text(), name
            assert status == want_status, name


def test_ext_after_koszul_matches_a_cold_run():
    # ext reads every degree of its complex_verdict from the reports that
    # koszul kept for the same file
    clear_caches()
    for name in ("koszul_embed3", "ext_embed3"):
        argv = next(a for n, a, _ in MANIFEST if n == name)
        assert _run(argv) == (0, (GOLDEN / f"{name}.txt").read_text())
    argv = ["ext", "--max", "5", _f("embed3")]
    warm = _run(argv)
    assert len(koszul._reports) == 6
    clear_caches()
    assert warm == _run(argv)


# In a fresh interpreter: find the caches of the library, fill them with
# CLI calls, call clear_caches(), and print {cache: [size after the calls,
# size after clear_caches()]}.  A cache is a module-level dict of a quadalg
# module that is empty at import, or a functools cache among the globals of
# one (build_parser's cached parser holds no data).
CACHE_GUARD_CODE = """
import contextlib, io, json, sys
import quadalg.cli
from quadalg import clear_caches
from quadalg.cli import build_parser, main

caches = {}
for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "quadalg"]:
    for key, value in vars(module).items():
        if type(value) is dict and not value:
            caches.setdefault(id(value), (f"{module.__name__}.{key}", len, value))
        elif hasattr(value, "cache_clear") and value is not build_parser:
            caches.setdefault(id(value), (f"{module.__name__}.{key}",
                                         lambda c: c.cache_info().currsize, value))
corpus = dict(arg.split("=") for arg in sys.argv[1:])
calls = [["koszul", "--max", "4", corpus["sym3"]],
         ["ext", "--max", "4", corpus["gf7_seed1"]],
         ["product", "--kind", "black", corpus["ext2"], corpus["sym2"]],
         ["dual", corpus["embed2"]],
         ["hom", corpus["sym2"], corpus["ext2"]]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in calls:
        assert main(argv) == 0, argv
filled = {name: size(c) for name, size, c in caches.values()}
clear_caches()
print(json.dumps({name: [filled[name], size(c)]
                  for name, size, c in caches.values()}))
"""


def test_clear_caches_reaches_every_library_cache():
    args = [f"{stem}={_f(stem)}"
            for stem in ("sym3", "gf7_seed1", "ext2", "sym2", "embed2")]
    proc = subprocess.run([sys.executable, "-c", CACHE_GUARD_CODE, *args],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    assert {"quadalg.graded._structures", "quadalg.koszul._reports"} <= set(
        sizes)
    # the calls fill every cache, so an empty one after clear_caches() was
    # emptied by it
    assert {name for name, (filled, _) in sizes.items() if not filled} == set()
    assert {name for name, (_, left) in sizes.items() if left} == set()


def test_repeated_main_calls_share_one_parser():
    # one parser serves every call in the process; neither a usage error
    # nor a structured call may leave state behind for the next call
    cases = {name: (argv, status) for name, argv, status in MANIFEST}
    build_parser.cache_clear()
    for name in ("hilbert4_sym3", None, "dual_structured_sym2", "dual_sym2",
                 "product_white_sym2_ext2", "hilbert4_sym3"):
        if name is None:
            with contextlib.redirect_stderr(io.StringIO()), \
                    pytest.raises(SystemExit) as exc:
                main(["koszul", "--max", "0", _f("sym3")])
            assert exc.value.code == 2
            continue
        argv, want_status = cases[name]
        status, text = _run(argv)
        assert text == (GOLDEN / f"{name}.txt").read_text(), name
        assert status == want_status, name
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.qa"
    bad.write_text("field Q\nalgebra b\ngens x\nrel x*x*x\n")
    buf = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(buf):
        status = main(["dual", str(bad)])
    assert status == 2
    assert buf.getvalue().startswith("error:")


def test_missing_file_exit_code():
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        status = main(["dual", "/nonexistent/path.qa"])
    assert status == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("suite", ["axioms", "braiding"])
def test_nonpositive_trials_is_a_usage_error(suite, trials):
    # no trials would print no check and exit 0: a vacuous PASS
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(["laws", "--suite", suite, "--trials", trials,
              _f("sym2"), _f("ext2")])
    assert exc.value.code == 2
    assert "--trials must be at least 1" in err.getvalue()


@pytest.mark.parametrize("suite, stem, note", [
    ("rigid", "sym2", "rigid: no full-relations object in the pool"),
    ("hom-algebra", "sym3",
     "hom-algebra: no object with at most 2 generators in the pool"),
], ids=["rigid", "hom-algebra"])
def test_laws_run_that_checks_nothing_exits_1_with_a_note(suite, stem, note):
    # no PASS for an object the user never gave, and no exit 0 either
    assert _run(["laws", "--suite", suite, _f(stem)]) == (1, f"note: {note}\n")
    status, text = _run(["laws", "--suite", suite, "--output", "structured",
                         _f(stem)])
    assert status == 1
    assert text == "record=note text=" + note.replace(" ", "_") + "\n"


def test_laws_all_passes_when_another_suite_checked_something():
    status, text = _run(["laws", "--suite", "all", "--trials", "1",
                         _f("sym3")])
    assert status == 0
    lines = text.splitlines()
    assert "PASS double-dual x·y·z" in lines
    assert "note: rigid: no full-relations object in the pool" in lines
    assert ("note: hom-algebra: no object with at most 2 generators in the "
            "pool") in lines


@pytest.mark.parametrize("argv", [
    ["product", "--kind", "black", _f("sym2"), _f("gf7_seed1")],
    ["hom", _f("sym2"), _f("gf7_seed1")],
    ["laws", "--suite", "duality", "--trials", "1", _f("sym2"),
     _f("gf7_seed1")],
    ["selfdual-check", _f("sym2"), _f("gf7_seed1")],
], ids=["product", "hom", "laws", "selfdual-check"])
def test_inputs_over_different_fields_are_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert "GF(7)" in err.getvalue() and "over Q" in err.getvalue()
    status, text = _run(argv + ["--output", "structured"])
    assert status == 2
    assert text.startswith("record=error line=0 column=1 message=")


def test_vanishing_gf_denominator_exit_code(tmp_path):
    bad = tmp_path / "bad.qa"
    bad.write_text("field GF 5\nalgebra b\ngens x y\nrel x*x + 1/5*x*y\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        status = main(["dual", str(bad)])
    assert status == 2
    assert err.getvalue().startswith("error: line 4, column 11:")


@pytest.mark.parametrize("gens", ["a,b c=d", "a·b c"], ids=["comma", "dot"])
def test_structured_output_rejects_a_name_it_could_not_delimit(tmp_path, gens):
    # structured output joins the names with ',' and laws with '·', so a
    # name holding either would print an ambiguous list
    bad = tmp_path / "bad.qa"
    bad.write_text(f"field Q\ngens {gens}\n", encoding="utf-8")
    status, text = _run(["dual", "--output", "structured", str(bad)])
    assert status == 2
    assert text.startswith("record=error line=2 column=6 message=")
    assert "bad_generator_name" in text


def _readme_records():
    """{record: [keys]} from the README's "Structured output" table."""
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Structured output", 1)[1].split("\n## ", 1)[0]
    table = {}
    for row in section.splitlines():
        cells = row.split("|")[1:-1]
        if len(cells) == 2 and cells[0].strip().startswith("`"):
            keys = re.sub(r"\([^)]*\)", "", cells[1])
            table[cells[0].strip().strip("`")] = re.findall(r"`([^`]+)`", keys)
    return table


def test_readme_table_names_every_structured_record(tmp_path):
    # every record line the CLI prints names a documented record with
    # exactly the documented keys, in order; a space in a value would split
    # it into a part without '=' and fail here
    table = _readme_records()
    assert len(table) == 11
    bad = tmp_path / "bad.qa"
    bad.write_text("field Q\ngens x\nrel x*x*x\n")
    # no golden holds an error or a note record
    runs = [(["dual", str(bad)], 2),
            (["laws", "--suite", "rigid", _f("sym2")], 1)]
    texts = []
    for argv, want_status in runs:
        status, text = _run(argv + ["--output", "structured"])
        assert status == want_status
        texts.append(text)
    texts += [(GOLDEN / f"{name}.txt").read_text()
              for name, argv, _ in MANIFEST if "structured" in argv]
    seen = set()
    for text in texts:
        for line in text.splitlines():
            head, *parts = line.split(" ")
            record = head.removeprefix("record=")
            assert head != record, line
            assert all("=" in p for p in parts), line
            assert [p.split("=", 1)[0] for p in parts] == table[record], line
            seen.add(record)
    assert seen == set(table)


def test_each_record_is_printed_as_it_is_produced(monkeypatch):
    # the second suite fails: the first suite's lines are already out
    argv = ["--trials", "1", _f("sym2"), _f("ext2")]
    _, first = _run(["laws", "--suite", laws.SUITES[0]] + argv)
    run_suite, calls = laws.run_suite, []

    def second_suite_raises(suite, *args, **kwargs):
        calls.append(suite)
        if len(calls) == 2:
            raise RuntimeError("second suite")
        return run_suite(suite, *args, **kwargs)

    monkeypatch.setattr(laws, "run_suite", second_suite_raises)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(RuntimeError):
        main(["laws", "--suite", "all"] + argv)
    assert calls == list(laws.SUITES[:2])
    assert first.startswith("PASS ")
    assert buf.getvalue() == first


def test_cli_prints_only_through_its_emitters():
    # one output path: print() only in _emit, _emit_presentation and
    # main's stderr line, and the output mode read nowhere else
    tree = ast.parse((HERE.parent / "src" / "quadalg" / "cli.py").read_text())
    prints, mode_reads = [], []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "print"):
                to = [ast.unparse(k) for k in node.keywords]
                prints.append((func.name, to))
            if (isinstance(node, ast.Attribute) and node.attr == "structured"
                    and isinstance(node.ctx, ast.Load)):
                mode_reads.append(func.name)
    assert sorted(prints) == [
        ("_emit", []), ("_emit", []), ("_emit_presentation", []),
        ("main", ["file=sys.stderr"])]
    assert set(mode_reads) == {"_emit", "_emit_presentation", "main"}
    assert mode_reads.count("main") == 1


def _library_nodes():
    """(file name, AST node) for every node of every library module."""
    for path in sorted((HERE.parent / "src" / "quadalg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check may be one
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _own_returns(func):
    """The return statements of func, not of the functions it defines."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_assert_on_a_function_that_returns_a_tuple():
    # a nonempty tuple display is always true, so `assert f(...)` or
    # `assert not f(...)` on a library function whose every return is one
    # can never fail (or never pass) whatever f finds
    verdicts = {}
    for _, node in _library_nodes():
        if isinstance(node, ast.FunctionDef):
            returns = list(_own_returns(node))
            always = bool(returns) and all(
                isinstance(r.value, ast.Tuple) and r.value.elts
                for r in returns)
            verdicts[node.name] = verdicts.get(node.name, True) and always
    tuple_valued = {name for name, always in verdicts.items() if always}
    assert {"is_morphism", "koszul_verdict", "rref",
            "run_suite"} <= tuple_valued
    found = []
    for path in sorted([*HERE.glob("*.py"),
                        *(HERE.parent / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Assert):
                continue
            call = node.test
            if isinstance(call, ast.UnaryOp) and isinstance(call.op, ast.Not):
                call = call.operand
            if isinstance(call, ast.Call):
                func = call.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in tuple_valued:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# Record is the base every value class uses, and the only one that refuses
# assignment; Matrix caches its hash, so it compares and hashes without
# that cache by rules of its own
OWN_VALUE_RULES = {"Record": {"__setattr__", "__eq__", "__hash__"},
                   "Matrix": {"__eq__", "__hash__"}}
VALUE_METHODS = {"__setattr__", "__eq__", "__hash__", "__new__"}


def test_value_classes_take_their_rules_from_record():
    found = []
    for name, node in _library_nodes():
        if isinstance(node, ast.ClassDef):
            own = VALUE_METHODS - OWN_VALUE_RULES.get(node.name, set())
            for item in node.body:
                defined = ({item.name} if isinstance(item, ast.FunctionDef)
                           else {t.id for t in getattr(item, "targets", ())
                                 if isinstance(t, ast.Name)})
                found += [f"{name}:{item.lineno} {node.name}.{method}"
                          for method in defined & own]
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
                and name not in ("linalg.py", "fields.py")):
            found.append(f"{name}:{node.lineno} object.__setattr__")
    assert found == []


def test_every_slotted_library_class_is_a_record():
    # __slots__ marks an immutable value, and Record gives every value
    # class its construction, comparison, hashing and immutability
    from quadalg.fields import Record
    slotted = {}
    for path in sorted((HERE.parent / "src" / "quadalg").glob("*.py")):
        module = importlib.import_module(
            "quadalg" if path.stem == "__init__" else f"quadalg.{path.stem}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "__slots__" in vars(cls) and cls is not Record):
                slotted[cls.__name__] = issubclass(cls, Record)
    assert {"Matrix", "PrimeField", "Rationals", "Subspace"} <= set(slotted)
    assert [name for name, is_record in slotted.items() if not is_record] == []


def test_every_public_library_name_has_a_caller():
    # a public module-level def or class must be named in another library
    # module, a tool, the benchmark, or the acceptance gate, or be used in
    # its own module besides its definition: otherwise nothing calls it
    root = HERE.parent
    library = sorted((root / "src" / "quadalg").glob("*.py"))
    outside = "\n".join(
        p.read_text(encoding="utf-8") for p in
        [*sorted((root / "tools").glob("*.py")),
         *sorted((root / "perfbench").glob("*.py")),
         HERE / "test_acceptance.py"])
    texts = {p.name: p.read_text(encoding="utf-8") for p in library}
    unused = []
    for name, text in texts.items():
        for node in ast.parse(text, name).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if (len(word.findall(text)) < 2 and not word.search(outside)
                    and not any(word.search(other)
                                for o, other in texts.items() if o != name)):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []


@pytest.mark.parametrize("where", ["file", "stdin"])
@pytest.mark.parametrize("structured", [False, True], ids=["text", "structured"])
def test_non_utf8_input_is_a_read_error(tmp_path, where, structured):
    bad = tmp_path / "bad.qa"
    bad.write_bytes(b"field Q\nalgebra b\ngens x y\nrel x*y \xff\n")
    path = str(bad) if where == "file" else "-"
    argv = ["dual", path] + (["--output", "structured"] if structured else [])
    proc = subprocess.run([sys.executable, "-c", MAIN_CODE, *argv],
                          input=bad.read_bytes(), capture_output=True,
                          env=_src_env(), timeout=60)
    message = f"cannot read {path}: not UTF-8 text"
    assert proc.returncode == 2
    if structured:
        assert proc.stderr == b""
        assert proc.stdout.decode() == (
            "record=error line=0 column=1 message="
            + message.replace(" ", "_") + "\n")
    else:
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"error: {message}\n"


def test_readme_quick_start_prints_its_commented_results():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.split("# ", 1)[1].split("  (")[0]
            for line in block.splitlines() if line.startswith("print(")]
    assert want == ["[1, 2, 3, 4, 5, 6, 7]", "3", "True", "13"]
    proc = subprocess.run([sys.executable, "-c", block], cwd=HERE.parent,
                          capture_output=True, text=True, env=_src_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want


def test_golden_under_python_O():
    # runtime checks must not be asserts: -O strips them.  laws_axioms_q
    # validates every structure map through is_morphism and reduce_against;
    # hilbert_sym2 is answered by the modular certificate; ext_embed3 runs
    # the resolution's ArithmeticError checks over `contract`; laws_rigid_q
    # builds each contragredient through AlgebraMorphism's ValueError;
    # laws_structured_axioms_q prints the same checks as records;
    # ext_skewd runs the resolution's checks over exact Q, with Fractions;
    # ext_n4k4x is certified by the second prime.
    env = _src_env()
    cases = {name: (argv, status) for name, argv, status in MANIFEST}
    for name in ("koszul_sym3", "laws_axioms_q", "hilbert_sym2",
                 "ext_embed3", "laws_rigid_q", "laws_structured_axioms_q",
                 "ext_skewd", "ext_n4k4x"):
        argv, want_status = cases[name]
        proc = subprocess.run([sys.executable, "-O", "-c", MAIN_CODE, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == want_status, proc.stderr
        assert proc.stdout == (GOLDEN / f"{name}.txt").read_text(), name


def test_golden_without_numpy():
    # the library has no runtime dependency: importing numpy must not be
    # needed anywhere on the CLI path, over Q or over GF(p)
    env = _src_env()
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from quadalg.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        status = main(argv)\n"
        "    out.append([status, buf.getvalue()])\n"
        "print(json.dumps(out))\n")
    argvs = [argv for _, argv, _ in LOW_DEGREE_RUNS]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(LOW_DEGREE_RUNS)
    for (name, _, want_status), (status, text) in zip(LOW_DEGREE_RUNS, results):
        assert status == want_status, name
        assert text == (GOLDEN / f"{name}.txt").read_text(), name


def test_golden_manifest_check_runs_alone_and_reports_a_drift(tmp_path,
                                                             monkeypatch):
    # the script form: no pytest, and src/ found without PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "golden_manifest.py"), "--check"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"{len(MANIFEST)} of {len(MANIFEST)} ")
    # one changed byte in one golden is a mismatch
    for path in GOLDEN.glob("*.txt"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "dual_sym2.txt").write_bytes(
        (GOLDEN / "dual_sym2.txt").read_bytes().replace(b"y!", b"y?", 1))
    monkeypatch.setattr(golden_manifest, "GOLDEN", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert golden_manifest.check() == 1
    assert out.getvalue().startswith("MISMATCH dual_sym2: exit 0, expected 0;"
                                     " output differs\n")


def test_cli_import_loads_no_dataclasses():
    # the value classes are slotted records: importing the CLI pulls in
    # neither dataclasses nor the inspect/ast/dis modules it imports
    env = _src_env()
    code = ("import sys, quadalg.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'}\n"
            "             & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
