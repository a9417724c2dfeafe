import pathlib

import pytest

from quadalg.fields import check_same_field
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


@pytest.fixture(scope="session")
def corpus():
    return {name: load(name) for name in CORPUS_NAMES}
