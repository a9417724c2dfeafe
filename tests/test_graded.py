"""Graded components: dimensions, multiplication maps, and the rank oracle."""

import math

import pytest

from quadalg.fields import QQ, PrimeField
from quadalg.linalg import Matrix, Subspace, matrix_rank
from quadalg.graded import (
    GradedStructure,
    graded_dim,
    graded_dim_by_oracle,
    graded_structure,
    hilbert,
)
from quadalg.presentations import (QuadraticPresentation, dual, unit_black,
                                   unit_white)
from quadalg.tensorindex import kron

from conftest import CORPUS_NAMES, load


def section_words(G, m):
    """A right inverse of ``G.full_projection(m)``, landing in the word
    space: lift A_m to A_{m-1} (x) V step by step."""
    f, n = G.A.field, G.A.n
    S = Matrix.identity(f, 1)
    for k in range(1, m + 1):
        S = kron(S, Matrix.identity(f, n)) @ G.step_section(k)
    return S


def mult_through_words(G, i, j):
    """The product map A_i (x) A_j -> A_{i+j} through the n^(i+j) word
    space: the independent oracle for the recursion of ``G.mult``."""
    return G.full_projection(i + j) @ kron(section_words(G, i),
                                           section_words(G, j))


def _over(field, A):
    """The corpus relations, their integer or rational entries read over
    ``field``."""
    rows = [[field.coerce(x) for x in row] for row in A.R.basis.data]
    return QuadraticPresentation(field, A.labels,
                                 Subspace.span(field, rows, A.n * A.n))


def test_hilbert_closed_forms():
    # Polynomial ring on 2 variables: dim in degree m is m + 1.
    assert hilbert(load("sym2"), 6) == [1, 2, 3, 4, 5, 6, 7]
    # Exterior algebra on 2 variables: 1, 2, 1, 0, ...
    assert hilbert(load("ext2"), 5) == [1, 2, 1, 0, 0, 0]
    # Free algebra: n^m.
    assert hilbert(load("free2"), 5) == [1, 2, 4, 8, 16, 32]
    # Polynomial ring on 3 variables: binomial(m + 2, 2).
    assert hilbert(load("sym3"), 5) == [math.comb(m + 2, 2) for m in range(6)]
    # Exterior algebra on 3 variables: binomial(3, m).
    assert hilbert(load("ext3"), 4) == [1, 3, 3, 1, 0]
    # Full relations: everything above degree 1 dies.
    assert hilbert(load("embed3"), 4) == [1, 3, 0, 0, 0]


def test_unit_hilbert_series():
    assert hilbert(unit_black(QQ), 4) == [1, 1, 0, 0, 0]
    assert hilbert(unit_white(QQ), 4) == [1, 1, 1, 1, 1]


def test_graded_dim_matches_independent_oracle():
    # graded_dim comes from iterated quotient projections; the oracle
    # recounts as n^m minus the rank of the degree-m relation span.
    for name in ("sym2", "ext2", "free2", "gf7_seed1", "nonkoszul_gf2"):
        A = load(name)
        for m in range(5):
            assert graded_dim(A, m) == graded_dim_by_oracle(A, m), (name, m)


def test_mult_map_shapes_and_surjectivity():
    A = load("sym2")
    G = graded_structure(A)
    for i, j in ((1, 1), (2, 1), (1, 2), (2, 2)):
        M = G.mult(i, j)
        assert M.rows == G.dim(i + j)
        assert M.cols == G.dim(i) * G.dim(j)
        # Multiplication out of spanning degrees is onto in a quadratic algebra.
        assert matrix_rank(M) == G.dim(i + j)


def test_mult_associativity_on_basis():
    A = load("sym2")
    G = graded_structure(A)
    # (a*b)*c == a*(b*c) as maps A_1 x A_1 x A_1 -> A_3.
    left = G.mult(2, 1) @ kron(G.mult(1, 1), Matrix.identity(QQ, G.dim(1)))
    right = G.mult(1, 2) @ kron(Matrix.identity(QQ, G.dim(1)), G.mult(1, 1))
    assert left == right


def test_projection_section_identity():
    A = load("ext2")
    G = graded_structure(A)
    for m in range(1, 4):
        proj = G.full_projection(m)
        sec = section_words(G, m)
        if G.dim(m):
            assert proj @ sec == Matrix.identity(QQ, G.dim(m))


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(32003)],
                         ids=str)
def test_mult_recursion_matches_word_space(field):
    for name in CORPUS_NAMES:
        A = _over(field, load(name))
        for B in (A, dual(A)):
            G = GradedStructure(B)
            for i in range(7):
                for j in range(7 - i):
                    assert G.mult(i, j) == mult_through_words(G, i, j), \
                        (name, B.labels, i, j)


def test_dual_hilbert_of_sym_is_ext():
    assert hilbert(dual(load("sym3")), 5) == hilbert(load("ext3"), 5)
