import pathlib
from fractions import Fraction

import pytest

from quadalg.fields import QQ, check_same_field
from quadalg.linalg import Matrix, Subspace
from quadalg.parser import parse

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.qa"))


def load(name: str):
    """Parsed corpus presentation by file stem."""
    _, A = parse((CORPUS / f"{name}.qa").read_text())
    return A


def subspace_sum(A: Subspace, B: Subspace) -> Subspace:
    """A + B, reduced from the stacked bases (a reference for the tests;
    the library reduces its spanning rows once, where it needs a sum)."""
    check_same_field(A.field, B.field)
    if A.ambient_dim != B.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {A.ambient_dim} vs {B.ambient_dim}")
    stacked = Matrix.from_rows(A.field, A.basis.sparse + B.basis.sparse,
                               A.ambient_dim)
    return Subspace(A.ambient_dim, stacked)


def assert_canonical(M):
    """M.sparse has one dict per row holding only nonzero canonical
    entries: over Q an int when integral and otherwise a Fraction with
    denominator above 1, over GF(p) an int in 1..p-1."""
    assert isinstance(M.sparse, tuple) and len(M.sparse) == M.rows
    for row in M.sparse:
        for j, x in row.items():
            assert 0 <= j < M.cols
            if M.field == QQ:
                assert x and (type(x) is int or type(x) is Fraction
                              and x.denominator > 1)
            else:
                assert type(x) is int and 0 < x < M.field.p


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in CORPUS_NAMES}
