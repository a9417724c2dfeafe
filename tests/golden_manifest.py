"""The CLI golden-file manifest, with a checker that needs no pytest.

Each entry is (name, argv, expected exit status); the expected output is
``tests/golden/<name>.txt``.  Run every entry in this interpreter and exit
1 on any byte or exit-status difference, or regenerate the goldens (only
after an intentional output change)::

    python3 tests/golden_manifest.py --check
    python3 tests/golden_manifest.py --regenerate

Both modes use this checkout's ``src/`` and the standard library only, so
``--check`` runs under any supported Python, with or without pytest.
"""

import contextlib
import io
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CORPUS = HERE.parent / "corpus"
# a Q input whose RREF relations hold Fractions; outside corpus/, so the
# corpus-wide entries and tests do not run on it
FRAC3 = str(HERE / "inputs" / "frac3.qa")
# a dense Q input that no prime certifies, so its hilbert, koszul and ext
# jobs run exact Q and reach the Fraction paths of products and elimination
SKEWD = str(HERE / "inputs" / "skewd.qa")
# a generic Q input on which the first certificate prime is unlucky, so its
# jobs are certified by the second prime or run exact Q
N4K4X = str(HERE / "inputs" / "n4k4x.qa")

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from quadalg.cli import main  # noqa: E402

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.qa"))

# Degree-6 Koszulity legitimately fails for these corpus members.
NON_KOSZUL = {"nonkoszul_gf2", "gf7_seed3"}


def corpus_file(stem: str) -> str:
    return str(CORPUS / f"{stem}.qa")


# hilbert to degree 4 and koszul to degree 3 on one Q and one GF(p) file
LOW_DEGREE_RUNS = [
    (f"{cmd}{top}_{stem}", [cmd, "--max", str(top), corpus_file(stem)], 0)
    for stem in ("sym3", "gf7_seed1")
    for cmd, top in (("hilbert", 4), ("koszul", 3))
]


def _manifest():
    _f = corpus_file
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
        ("dual_frac3", ["dual", FRAC3], 0),
        ("hom_frac3_frac3", ["hom", FRAC3, FRAC3], 0),
        ("hilbert_skewd", ["hilbert", "--max", "6", SKEWD], 0),
        ("koszul_skewd", ["koszul", "--max", "4", SKEWD], 0),
        ("ext_skewd", ["ext", "--max", "4", SKEWD], 0),
        ("hilbert_n4k4x", ["hilbert", "--max", "5", N4K4X], 0),
        ("koszul_n4k4x", ["koszul", "--max", "4", N4K4X], 0),
        ("ext_n4k4x", ["ext", "--max", "4", N4K4X], 0),
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
        ("product_structured_white_sym2_ext2",
         ["product", "--kind", "white", "--output", "structured",
          _f("sym2"), _f("ext2")], 0),
        ("hom_structured_ext2_sym2",
         ["hom", "--output", "structured", _f("ext2"), _f("sym2")], 0),
        ("selfdual_structured_pair_sym2_ext2",
         ["selfdual-check", "--output", "structured", _f("sym2"),
          _f("ext2")], 0),
        ("laws_structured_axioms_q",
         ["laws", "--suite", "axioms", "--trials", "3", "--seed", "0",
          "--output", "structured", _f("free2"), _f("sym2"), _f("ext2")], 0),
    ]
    entries += LOW_DEGREE_RUNS
    return entries


MANIFEST = _manifest()


def run(argv):
    """(exit status, stdout text) of one in-process ``quadalg`` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


def check() -> int:
    """Run every entry; report each mismatch and return how many there were."""
    bad = 0
    for name, argv, want_status in MANIFEST:
        status, text = run(argv)
        golden = (GOLDEN / f"{name}.txt").read_bytes()
        same = text.encode("utf-8") == golden
        if not same or status != want_status:
            bad += 1
            print(f"MISMATCH {name}: exit {status}, expected {want_status}; "
                  f"output {'equal' if same else 'differs'}")
    print(f"{len(MANIFEST) - bad} of {len(MANIFEST)} goldens match "
          f"(Python {sys.version.split()[0]})")
    return bad


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, want_status in MANIFEST:
        status, text = run(argv)
        if status != want_status:
            raise SystemExit(
                f"{name}: exit status {status}, expected {want_status}")
        (GOLDEN / f"{name}.txt").write_bytes(text.encode("utf-8"))
        print(f"wrote {name}.txt ({len(text)} bytes, exit {status})")


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if check() else 0)
    elif sys.argv[1:] == ["--regenerate"]:
        regenerate()
    else:
        raise SystemExit(__doc__)
