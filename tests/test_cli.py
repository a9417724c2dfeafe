"""CLI determinism: byte-exact golden files for every corpus invocation.

Regenerate the goldens (after an intentional output change) with::

    python3 tests/test_cli.py --regenerate
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from quadalg.cli import build_parser, main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CORPUS = HERE.parent / "corpus"

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.qa"))

# Degree-6 Koszulity legitimately fails for these corpus members.
NON_KOSZUL = {"nonkoszul_gf2", "gf7_seed3"}


def _f(stem: str) -> str:
    return str(CORPUS / f"{stem}.qa")


def _manifest():
    entries = []
    for stem in CORPUS_NAMES:
        entries.append((f"dual_{stem}", ["dual", _f(stem)], 0))
        entries.append((f"hilbert_{stem}", ["hilbert", "--max", "6", _f(stem)], 0))
        entries.append((f"koszul_{stem}", ["koszul", "--max", "6", _f(stem)],
                        1 if stem in NON_KOSZUL else 0))
        entries.append((f"ext_{stem}", ["ext", "--max", "4", _f(stem)], 0))
        entries.append((f"selfdual_{stem}", ["selfdual-check", _f(stem)], 0))
    entries += [
        ("product_black_sym2_ext2",
         ["product", "--kind", "black", _f("sym2"), _f("ext2")], 0),
        ("product_white_sym2_ext2",
         ["product", "--kind", "white", _f("sym2"), _f("ext2")], 0),
        ("product_black_gf7_seed1_gf7_seed2",
         ["product", "--kind", "black", _f("gf7_seed1"), _f("gf7_seed2")], 0),
        ("product_white_free2_sym3",
         ["product", "--kind", "white", _f("free2"), _f("sym3")], 0),
        ("hom_sym2_sym2", ["hom", _f("sym2"), _f("sym2")], 0),
        ("hom_ext2_sym2", ["hom", _f("ext2"), _f("sym2")], 0),
        ("selfdual_pair_sym2_ext2",
         ["selfdual-check", _f("sym2"), _f("ext2")], 0),
        ("laws_axioms_q",
         ["laws", "--suite", "axioms", "--trials", "3", "--seed", "0",
          _f("free2"), _f("sym2"), _f("ext2")], 0),
        ("laws_duality_q",
         ["laws", "--suite", "duality", "--trials", "3", "--seed", "0",
          _f("free2"), _f("sym2"), _f("ext2")], 0),
        ("laws_braiding_q",
         ["laws", "--suite", "braiding", "--trials", "3", "--seed", "0",
          _f("free1"), _f("sym2"), _f("ext2")], 0),
        ("laws_hom_algebra_q",
         ["laws", "--suite", "hom-algebra", "--trials", "3", "--seed", "0",
          _f("free1"), _f("sym2"), _f("ext2")], 0),
        ("laws_rigid_q",
         ["laws", "--suite", "rigid", "--trials", "3", "--seed", "0",
          _f("embed2"), _f("embed3")], 0),
        ("laws_axioms_gf7",
         ["laws", "--suite", "axioms", "--trials", "5", "--seed", "7",
          _f("gf7_seed1"), _f("gf7_seed2")], 0),
        ("dual_structured_sym2", ["dual", "--output", "structured",
                                  _f("sym2")], 0),
        ("hilbert_structured_sym2",
         ["hilbert", "--max", "6", "--output", "structured", _f("sym2")], 0),
        ("koszul_structured_nonkoszul_gf2",
         ["koszul", "--max", "6", "--output", "structured",
          _f("nonkoszul_gf2")], 1),
        ("ext_structured_free2",
         ["ext", "--max", "4", "--output", "structured", _f("free2")], 0),
        ("laws_structured_duality_q",
         ["laws", "--suite", "duality", "--trials", "3", "--seed", "0",
          "--output", "structured", _f("sym2"), _f("ext2")], 0),
    ]
    entries += NUMPY_FREE
    return entries


# One Q and one GF(p) corpus file at low degree; also run without numpy.
NUMPY_FREE = [
    (f"{cmd}{top}_{stem}", [cmd, "--max", str(top), _f(stem)], 0)
    for stem in ("sym3", "gf7_seed1")
    for cmd, top in (("hilbert", 4), ("koszul", 3))
]


MANIFEST = _manifest()


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


@pytest.mark.parametrize("name,argv,want_status",
                         MANIFEST, ids=[m[0] for m in MANIFEST])
def test_golden(name, argv, want_status):
    status, text = _run(argv)
    golden = (GOLDEN / f"{name}.txt").read_text()
    assert text == golden, f"output drifted for {name}"
    assert status == want_status


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


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no runtime check may be one
    found = []
    for path in sorted((HERE.parent / "src" / "quadalg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_golden_under_python_O():
    # runtime checks must not be asserts: -O strips them.  laws_axioms_q
    # validates every structure map through is_morphism and reduce_against.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    code = ("import sys; from quadalg.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    cases = {name: (argv, status) for name, argv, status in MANIFEST}
    for name in ("koszul_sym3", "laws_axioms_q"):
        argv, want_status = cases[name]
        proc = subprocess.run([sys.executable, "-O", "-c", code, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == want_status, proc.stderr
        assert proc.stdout == (GOLDEN / f"{name}.txt").read_text(), name


def test_golden_without_numpy():
    # the library has no runtime dependency: importing numpy must not be
    # needed anywhere on the CLI path, over Q or over GF(p)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
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
    argvs = [argv for _, argv, _ in NUMPY_FREE]
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(NUMPY_FREE)
    for (name, _, want_status), (status, text) in zip(NUMPY_FREE, results):
        assert status == want_status, name
        assert text == (GOLDEN / f"{name}.txt").read_text(), name


def test_cli_import_loads_no_dataclasses():
    # the value classes are slotted records: importing the CLI pulls in
    # neither dataclasses nor the inspect/ast/dis modules it imports
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, quadalg.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'}\n"
            "             & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, want_status in MANIFEST:
        status, text = _run(argv)
        if status != want_status:
            raise SystemExit(
                f"{name}: exit status {status}, expected {want_status}")
        (GOLDEN / f"{name}.txt").write_text(text)
        print(f"wrote {name}.txt ({len(text)} bytes, exit {status})")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        raise SystemExit(__doc__)
