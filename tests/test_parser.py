""".qa text format: grammar acceptance, rejection with positions, round-trips."""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.cli import main
from quadalg.fields import QQ, PrimeField
from quadalg.linalg import Subspace
from quadalg.parser import ParseError, parse, unparse
from quadalg.presentations import QuadraticPresentation, black, dual, white

from conftest import CORPUS, CORPUS_NAMES

GOLDEN = CORPUS.parent / "tests" / "golden"
# every presentation the CLI prints as text
PRINTED = sorted(p for kind in ("dual", "product", "hom")
                 for p in GOLDEN.glob(f"{kind}_*.txt")
                 if not p.stem.startswith(f"{kind}_structured_"))


def test_parse_minimal_rational_file():
    name, A = parse("field Q\nalgebra demo\ngens x y\nrel x*y - y*x\n")
    assert name == "demo"
    assert A.field is QQ
    assert A.labels == ("x", "y")
    assert A.R.dim == 1


def test_parse_prime_field_and_coefficients():
    text = """# comment line
field GF 7

algebra t
gens a b
rel 2*a*b + 5*b*a
rel a*a
"""
    name, A = parse(text)
    assert name == "t"
    assert A.field == PrimeField(7)
    assert A.R.dim == 2


def test_parse_fraction_coefficients():
    _, A = parse("field Q\nalgebra f\ngens x y\nrel 1/2*x*y - 3/4*y*x\n")
    assert A.R.dim == 1


def test_reject_non_quadratic_term_with_position():
    text = "field Q\nalgebra bad\ngens x y z\nrel x*y*z\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 4
    assert exc.value.column >= 5
    assert "quadratic" in str(exc.value)


def test_reject_non_prime_modulus():
    with pytest.raises(ParseError) as exc:
        parse("field GF 4\nalgebra bad\ngens x\n")
    assert exc.value.line == 1
    assert "not prime" in str(exc.value)


def test_large_prime_modulus_parses():
    _, A = parse("field GF 2305843009213693951\nalgebra big\ngens x\n"
                 "rel 2*x*x\n")
    assert A.field == PrimeField(2 ** 61 - 1) and A.R.dim == 1


def test_reject_modulus_without_exact_primality_test():
    with pytest.raises(ParseError) as exc:
        parse(f"field GF {2 ** 89 - 1}\nalgebra big\ngens x\n")
    assert exc.value.line == 1
    assert "too large" in str(exc.value)


def test_reject_unknown_generator():
    with pytest.raises(ParseError) as exc:
        parse("field Q\nalgebra bad\ngens x\nrel x*q\n")
    assert exc.value.line == 4


@pytest.mark.parametrize("field, coeff", [("GF 5", "1/5"), ("GF 5", "-2/10"),
                                          ("Q", "1/0")])
def test_reject_coefficient_with_vanishing_denominator(field, coeff):
    # 1/5 has no value in GF(5): a parse error at the coefficient
    text = f"field {field}\nalgebra a\ngens x y\nrel x*x + {coeff}*x*y\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (4, 11)
    assert "denominator" in str(exc.value)


def test_gf_coefficient_with_invertible_denominator():
    _, A = parse("field GF 5\nalgebra a\ngens x y\nrel x*x - 1/3*x*y\n")
    # -1/3 = -2 = 3 mod 5
    assert A.R.basis.sparse == ({0: 1, 1: 3},)


def test_reject_duplicate_algebra_line():
    with pytest.raises(ParseError) as exc:
        parse("field Q\nalgebra a\nalgebra b\ngens x\n")
    assert exc.value.line == 3
    assert "duplicate algebra" in str(exc.value)


def test_reject_missing_sections_and_duplicates():
    with pytest.raises(ParseError):
        parse("algebra a\ngens x\n")  # no field
    with pytest.raises(ParseError):
        parse("field Q\nalgebra a\n")  # no gens
    with pytest.raises(ParseError):
        parse("field Q\nfield Q\nalgebra a\ngens x\n")
    with pytest.raises(ParseError):
        parse("field Q\nalgebra a\ngens x x\n")
    with pytest.raises(ParseError):
        parse("field Q\nalgebra a\ngens x\nrel x*x + \n")
    with pytest.raises(ParseError):
        parse("field Q\nalgebra a\ngens x\nwobble\n")


@pytest.mark.parametrize("text, line, column", [
    # the bad 'b' is the second one on the line, not the one inside 'ab'
    ("field Q\ngens a ab\nrel ab*a + a*b\n", 3, 14),
    ("field GF GF\n", 1, 10),
    # the second of two signs, not the '-' of the first coefficient
    ("field Q\ngens x y\nrel -3*x*y - - y*x\n", 3, 14),
    ("field Q\ngens x y\nrel x*x  x*y\n", 3, 10),
    ("field Q\ngens x y\nrel   y*x*y\n", 3, 7),
    ("field Q\ngens xy x\nrel 2/0*xy*x\n", 3, 5),
    ("field Q\n  gens x\n field2 x\n", 3, 2),
], ids=["generator", "modulus", "sign", "missing-sign", "term",
        "coefficient", "keyword"])
def test_error_column_is_that_of_the_offending_token(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("name", ["1", "2/3", "-4", "/", "x*", "*y", "a*b"])
def test_reject_generator_names_unparse_could_not_write_back(name):
    # '1*1*x' parses, but unparse would write it as '1*x', and a name with
    # '*' splits into pieces: neither could be read back
    with pytest.raises(ParseError) as exc:
        parse(f"field Q\ngens x {name}\n")
    assert (exc.value.line, exc.value.column) == (2, 8)
    assert "bad generator name" in str(exc.value)


@pytest.mark.parametrize("names", [("x!", "y"), ("1x", "x1"), ("-", "+")])
def test_unusual_generator_names_round_trip(names):
    a, b = names
    _, A = parse(f"field Q\ngens {a} {b}\nrel 2*{a}*{b} - {b}*{b}\n")
    assert parse(unparse("u", A))[1] == A
    assert parse(unparse("d", dual(A)))[1] == dual(A)


@pytest.mark.parametrize("gens, column", [
    # "x" and "x!!" would both have the dual label "x!"
    ("x x!!", 8),
    # "!" would have the empty dual label
    ("! y", 6),
    # "1!" would have the dual label "1", a coefficient
    ("1! y", 6),
    ("y -4!", 8),
], ids=["collision", "empty", "coefficient", "signed"])
def test_dual_cli_rejects_names_without_a_dual_label(tmp_path, gens, column):
    bad = tmp_path / "bad.qa"
    bad.write_text(f"field Q\ngens {gens}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["dual", str(bad)]) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"error: line 2, column {column}: "
                                     f"bad generator name")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet="x1!-/*", min_size=1, max_size=3),
                min_size=1, max_size=3, unique=True))
def test_every_accepted_name_set_has_a_dual_that_round_trips(names):
    text = f"field Q\ngens {' '.join(names)}\n"
    a, b = names[0], names[-1]
    try:
        _, A = parse(text)
    except ParseError as exc:
        # the error points at one of the names, and names it
        starts = [len("gens ") + 1 + sum(len(s) + 1 for s in names[:k])
                  for k in range(len(names))]
        assert exc.line == 2 and exc.column in starts
        bad = names[starts.index(exc.column)]
        assert f"bad generator name {bad!r}" in str(exc)
        return
    _, A = parse(text + f"rel 2*{a}*{b} - {b}*{a}\n")
    D = dual(A)
    assert parse(unparse("d", D))[1] == D
    assert dual(D) == A


def test_dual_of_a_starred_name_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.qa"
    bad.write_text("field Q\ngens x* y\nrel y*y\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(["dual", str(bad)]) == 2
    assert err.getvalue().startswith("error: line 2, column 6:")


@pytest.mark.parametrize("path", PRINTED, ids=lambda p: p.stem)
def test_printed_presentations_round_trip(path):
    # parse . unparse reproduces every presentation the CLI prints, once
    # the '#' summary lines are dropped
    text = path.read_text()
    body = "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))
    assert unparse(*parse(text)) == body


def test_golden_round_trip_covers_every_printed_kind():
    assert len(PRINTED) >= 19
    assert {p.stem.split("_")[0] for p in PRINTED} == {"dual", "product",
                                                       "hom"}


def test_round_trip_on_corpus_files():
    for stem in CORPUS_NAMES:
        text = (CORPUS / f"{stem}.qa").read_text()
        name, A = parse(text)
        name2, B = parse(unparse(name, A))
        assert name2 == name
        assert B.field == A.field and B.labels == A.labels and B.R == A.R


def test_round_trip_on_derived_objects():
    _, sym2 = parse((CORPUS / "sym2.qa").read_text())
    _, ext2 = parse((CORPUS / "ext2.qa").read_text())
    for obj in (dual(sym2), black(sym2, ext2), white(sym2, ext2)):
        _, back = parse(unparse("derived", obj))
        assert back.R == obj.R
        assert back.labels == obj.labels


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
def test_round_trip_random_presentations(n, seed, rational):
    rng = random.Random(seed)
    field = QQ if rational else PrimeField(5)
    k = rng.randrange(n * n + 1)
    rows = [[field.coerce(rng.randrange(-3, 4)) for _ in range(n * n)]
            for _ in range(k)]
    labels = tuple(f"g{i}" for i in range(n))
    A = QuadraticPresentation(field, labels, Subspace.span(field, rows, n * n))
    _, B = parse(unparse("rand", A))
    assert B.R == A.R and B.labels == A.labels and B.field == A.field


def dense_unparse(name, A):
    """Canonical text form read entry by entry over all n^2 word columns
    (the reference for the sparse ``unparse``)."""
    lines = ["field Q" if A.field == QQ else f"field GF {A.field.p}",
             f"algebra {name}", "gens " + " ".join(A.labels)]
    n = A.n
    for r in range(A.R.dim):
        terms = []
        for pos in range(n * n):
            c = A.R.basis.entry(r, pos)
            if A.field.is_zero(c):
                continue
            terms.append((c, f"{A.labels[pos // n]}*{A.labels[pos % n]}"))
        parts = []
        for k, (c, word) in enumerate(terms):
            negative = (not isinstance(A.field, PrimeField)) and c < 0
            mag = -c if negative else c
            body = word if mag == 1 else f"{mag}*{word}"
            if k == 0:
                parts.append(f"{c}*{word}" if negative else body)
            else:
                parts.append("- " + body if negative else "+ " + body)
        lines.append("rel " + " ".join(parts))
    return "\n".join(lines) + "\n"


@st.composite
def presentations(draw):
    """2-4 generators over Q or GF(p); entries with signs and denominators."""
    field = draw(st.sampled_from(
        [QQ, PrimeField(2), PrimeField(5), PrimeField(32003)]))
    n = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    if field != QQ:
        entry = st.integers(-40000, 40000)
    rows = draw(st.lists(st.lists(entry, min_size=n * n, max_size=n * n),
                         max_size=n * n))
    rows = [[field.coerce(x) for x in row] for row in rows]
    labels = tuple(f"g{i}" for i in range(n))
    return QuadraticPresentation(field, labels,
                                 Subspace.span(field, rows, n * n))


@settings(max_examples=80, deadline=None)
@given(presentations())
def test_sparse_unparse_matches_dense_reference(A):
    text = unparse("rand", A)
    assert text == dense_unparse("rand", A)
    assert parse(text)[1] == A
