"""Tensor word indexing, shuffle permutations, Kronecker products, and
the contraction (X (x) I) @ (I (x) Y)."""

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.fields import QQ, FieldMismatchError, PrimeField
from quadalg.linalg import Matrix, Subspace
from quadalg.tensorindex import (
    contract,
    flip,
    kron,
    permutation_matrix,
    push_subspace,
    t23,
    tensor_subspace,
)
from test_linalg import assert_canonical, field_matrices

F5 = PrimeField(5)


def mixed_index(letters, dims) -> int:
    """Row-major index of a word over factors of the given dimensions,
    checked letter by letter."""
    idx = 0
    for a, d in zip(letters, dims):
        if not 0 <= a < d:
            raise ValueError(f"letter {a} out of range for factor dim {d}")
        idx = idx * d + a
    return idx


def reference_t23(n1, n2):
    """t23 word by word: (a, a', b, b') goes to (a, b, a', b')."""
    image = [0] * (n1 * n2) ** 2
    for a, ap, b, bp in product(range(n1), range(n1), range(n2), range(n2)):
        image[mixed_index((a, ap, b, bp), (n1, n1, n2, n2))] = mixed_index(
            (a, b, ap, bp), (n1, n2, n1, n2))
    return tuple(image)


def reference_flip(n1, n2):
    """flip word by word: (a, b) of U*V goes to (b, a) of V*U."""
    image = [0] * (n1 * n2)
    for a, b in product(range(n1), range(n2)):
        image[mixed_index((a, b), (n1, n2))] = mixed_index((b, a), (n2, n1))
    return tuple(image)


def test_word_index_is_row_major():
    # (a, b) over alphabet sizes (3, 3) sits at a*3 + b, and flip sends
    # it to (b, a) at b*3 + a
    assert mixed_index((1, 2), (3, 3)) == 5
    assert mixed_index((2, 0), (3, 3)) == 6
    assert mixed_index((2, 1), (3, 3)) == 7
    with pytest.raises(ValueError):
        mixed_index((3, 0), (3, 3))
    assert [flip(3, 3)[i] for i in (5, 6, 7)] == [7, 2, 5]
    # (a, b) of sizes (2, 3) sits at a*3 + b and goes to b*2 + a
    assert flip(2, 3) == (0, 2, 4, 1, 3, 5)


@given(st.data())
def test_mixed_index_round_trip(data):
    # the reference index: words in lexicographic order get 0, 1, 2, ...
    dims = tuple(data.draw(st.integers(1, 4)) for _ in range(data.draw(st.integers(1, 4))))
    words = product(*(range(d) for d in dims))
    assert [mixed_index(w, dims) for w in words] == list(range(prod(dims)))


def test_t23_and_flip_match_the_word_by_word_reference():
    for n1, n2 in product(range(1, 7), repeat=2):
        assert t23(n1, n2) == reference_t23(n1, n2)
        assert flip(n1, n2) == reference_flip(n1, n2)


@pytest.mark.parametrize("shuffle", [t23, flip])
@pytest.mark.parametrize("sizes", [(0, 2), (2, 0), (-1, 3), (0, 0)])
def test_shuffles_reject_empty_alphabets(shuffle, sizes):
    with pytest.raises(ValueError, match="positive"):
        shuffle(*sizes)


def test_t23_example():
    # n1 = n2 = 2: basis word (a, a', b, b') = (0, 1, 0, 1) sits at index 5
    # and is sent to (a, b, a', b') = (0, 0, 1, 1) at index 3.
    perm = t23(2, 2)
    assert mixed_index((0, 1, 0, 1), (2, 2, 2, 2)) == 5
    assert perm[5] == 3


@given(st.integers(1, 4), st.integers(1, 4))
def test_t23_is_a_bijection_and_involution_on_square_shape(n1, n2):
    perm = t23(n1, n2)
    assert sorted(perm) == list(range((n1 * n2) ** 2))
    P = permutation_matrix(QQ, perm)
    identity = Matrix.identity(QQ, len(perm))
    assert P @ P.transpose() == identity
    if n1 == n2:
        assert P @ P == identity


@given(st.integers(1, 4), st.integers(1, 4))
def test_flip_involution(n1, n2):
    product_ = (permutation_matrix(QQ, flip(n2, n1))
                @ permutation_matrix(QQ, flip(n1, n2)))
    assert product_ == Matrix.identity(QQ, n1 * n2)


def test_kron_known_example():
    A = Matrix(QQ, [[1, 2], [3, 4]], cols=2)
    B = Matrix(QQ, [[0, 1], [1, 0]], cols=2)
    K = kron(A, B)
    expected = Matrix(
        QQ,
        [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ],
        cols=4,
    )
    assert K == expected


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_kron_agrees_with_entrywise_formula(ra, rb, data):
    ca, cb = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    ent = st.integers(0, 4)
    A = Matrix(F5, [[data.draw(ent) for _ in range(ca)] for _ in range(ra)], cols=ca)
    B = Matrix(F5, [[data.draw(ent) for _ in range(cb)] for _ in range(rb)], cols=cb)
    K = kron(A, B)
    assert K.rows == ra * rb and K.cols == ca * cb
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    assert K.data[i * rb + k][j * cb + l] == F5.mul(
                        A.data[i][j], B.data[k][l]
                    )


@pytest.mark.parametrize("f", [QQ, PrimeField(32003)], ids=str)
def test_kron_with_a_right_identity_multiplies_nothing(f, monkeypatch):
    # kron(X, I_b) is contract(X, a, I, b): every entry is copied, not
    # multiplied by 1
    rng = random.Random(63)
    X = Matrix(f, [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    if rng.random() < 0.3 else 0 for _ in range(10)]
                   for _ in range(6)], cols=10)
    calls = []
    mul = type(f).mul  # QQ's is a staticmethod, GF(p)'s takes self

    def counting(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(type(f), "mul",
                        staticmethod(counting) if f == QQ else counting)
    for b in (1, 3):
        K = kron(X, Matrix.identity(f, b))
        assert calls == []
        assert K.sparse == tuple({j * b + t: x for j, x in row.items()}
                                 for row in X.sparse for t in range(b))
        assert_canonical(K)
    # the counter sees the products of a right factor that is no identity
    kron(X, Matrix(f, [[2]], cols=1))
    assert len(calls) == sum(1 for row in X.sparse for x in row.values()
                             if x != 1)


def entrywise_kron(A, B):
    """The Kronecker product cell by cell through the field operations."""
    f = A.field
    return Matrix(f, [[f.mul(a, b) for a in arow for b in brow]
                      for arow in A.data for brow in B.data],
                  cols=A.cols * B.cols)


@pytest.mark.parametrize("f", [QQ, PrimeField(32003)], ids=str)
def test_kron_identity_shortcuts_match_the_entrywise_product(f):
    # the shapes contract hands kron on its identity shortcuts, with empty
    # identities and a factor without columns among them
    rng = random.Random(66)
    X = Matrix(f, [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    if rng.random() < 0.4 else 0 for _ in range(5)]
                   for _ in range(4)], cols=5)
    for other in (X, Matrix.zero(f, 3, 0)):
        for b in (0, 1, 3):
            I = Matrix.identity(f, b)
            for K, ref in ((kron(other, I), entrywise_kron(other, I)),
                           (kron(I, other), entrywise_kron(I, other))):
                assert (K.rows, K.cols, K.sparse) == (
                    ref.rows, ref.cols, ref.sparse)
                assert_canonical(K)


def test_kron_of_identities_is_identity():
    K = kron(Matrix.identity(QQ, 3), Matrix.identity(QQ, 4))
    assert K == Matrix.identity(QQ, 12)


def test_kron_multiplicativity():
    # (A @ C) kron (B @ D) == (A kron B) @ (C kron D)
    A = Matrix(QQ, [[1, 2], [0, 1]], cols=2)
    C = Matrix(QQ, [[1, 1], [2, 3]], cols=2)
    B = Matrix(QQ, [[2, 0], [1, 1]], cols=2)
    D = Matrix(QQ, [[0, 1], [1, 0]], cols=2)
    assert kron(A @ C, B @ D) == kron(A, B) @ kron(C, D)


def _subspaces(M):
    """The row space of M and the zero subspace of its ambient space."""
    return [Subspace(M.cols, M), Subspace.zero(M.field, M.cols)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tensor_subspace_is_the_rref_of_kron(data):
    Ma = data.draw(field_matrices())
    Mb = data.draw(field_matrices([Ma.field]))
    for A in _subspaces(Ma):
        for B in _subspaces(Mb):
            T = tensor_subspace(A, B)
            expected = Subspace(A.ambient_dim * B.ambient_dim,
                                kron(A.basis, B.basis))
            assert T == expected and T.pivots == expected.pivots
            assert T.dim == A.dim * B.dim
            assert_canonical(T.basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_push_subspace_by_permutation_matches_its_matrix(data):
    M = data.draw(field_matrices())
    image = tuple(data.draw(st.permutations(range(M.cols))))
    P = permutation_matrix(M.field, image)
    S = Subspace(M.cols, M)
    pushed = push_subspace(image, S)
    assert pushed == Subspace(M.cols, S.basis @ P.transpose())
    assert_canonical(pushed.basis)
    assert_canonical(P)


def test_push_subspace_rejects_an_image_of_the_wrong_size():
    S = Subspace.span(QQ, [[1, 2, 0]], 3)
    with pytest.raises(ValueError,
                       match="^permutation size != ambient dimension$"):
        push_subspace((1, 0), S)


def kron_contract(X, a, Y, b):
    """(X (x) I_b) @ (I_a (x) Y) from both Kronecker factors (the oracle)."""
    f = X.field
    return kron(X, Matrix.identity(f, b)) @ kron(Matrix.identity(f, a), Y)


# small denominators, so that products often sum to integers
CONTRACT_SCALARS = {
    QQ: st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                         Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)]),
    F5: st.integers(0, 4),
    PrimeField(32003): st.integers(0, 32002),
}


def dense(data, f, rows, cols):
    return data.draw(st.lists(
        st.lists(CONTRACT_SCALARS[f], min_size=cols, max_size=cols),
        min_size=rows, max_size=rows).map(
            lambda m: Matrix(f, m, cols=cols)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(CONTRACT_SCALARS)), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.data())
def test_contract_matches_the_kron_product(f, a, k, b, data):
    X = dense(data, f, data.draw(st.integers(0, 4)), a * k)
    Y = dense(data, f, k * b, data.draw(st.integers(0, 4)))
    C = contract(X, a, Y, b)
    assert C == kron_contract(X, a, Y, b)
    assert (C.rows, C.cols) == (X.rows * b, a * Y.cols)
    assert_canonical(C)


def test_contract_sums_fractions_to_canonical_ints():
    # 1/2 * 1 + 1/3 * 3/2 = 1 and 1/2 * 2/3 + 1/3 * -1 = 0
    X = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)]], cols=2)
    Y = Matrix(QQ, [[1, Fraction(2, 3)], [Fraction(3, 2), -1]], cols=2)
    C = contract(X, 1, Y, 1)
    assert C.sparse == ({0: 1},) and type(C.sparse[0][0]) is int
    assert C == kron_contract(X, 1, Y, 1)
    # a = 2, b = 1: the two halves of X's row land in two column blocks
    X2 = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3),
                      Fraction(2, 3), Fraction(4, 9)]], cols=4)
    C2 = contract(X2, 2, Y, 1)
    assert C2 == kron_contract(X2, 2, Y, 1)
    assert C2.sparse[0][0] == 1 and type(C2.sparse[0][0]) is int
    assert_canonical(C2)


@pytest.mark.parametrize("f", [QQ, F5])
def test_contract_degenerate_shapes(f):
    X = Matrix.zero(f, 3, 0)
    Y = Matrix(f, [[1, 2], [0, 1], [3, 0], [1, 1]], cols=2)
    # a = 0: a dim-0 factor, so the result has no columns
    for b in (1, 2, 4):
        C = contract(X, 0, Y, b)
        assert (C.rows, C.cols) == (3 * b, 0)
        assert C == kron_contract(X, 0, Y, b)
    # b = 0: no rows
    X = Matrix(f, [[1, 0, 2, 1], [0, 0, 0, 0]], cols=4)
    Y0 = Matrix.zero(f, 0, 3)
    for a in (1, 2, 4):
        C = contract(X, a, Y0, 0)
        assert (C.rows, C.cols) == (0, 3 * a)
        assert C == kron_contract(X, a, Y0, 0)
    C = contract(Matrix.zero(f, 2, 0), 0, Y0, 0)
    assert (C.rows, C.cols) == (0, 0)
    # all-zero rows of X give all-zero rows, and zero rows of Y drop out
    Z = contract(Matrix.zero(f, 2, 4), 2, Y, 2)
    assert Z.is_zero() and (Z.rows, Z.cols) == (4, 4)
    Yz = Matrix(f, [[0, 0], [1, 0], [0, 0], [0, 1]], cols=2)
    assert contract(X, 2, Yz, 2) == kron_contract(X, 2, Yz, 2)
    # an identity factor: the product is the other factor's kron with I
    for a, b in ((1, 4), (2, 2), (4, 1)):
        I = Matrix.identity(f, 4 // a * b)
        assert contract(X, a, I, b) == kron(X, Matrix.identity(f, b))
    I4 = Matrix.identity(f, 4)
    assert contract(I4, 2, Y, 2) == kron(Matrix.identity(f, 2), Y)


def test_contract_rejects_a_shape_mismatch():
    X = Matrix(QQ, [[1, 2, 3]], cols=3)
    Y = Matrix.identity(QQ, 4)
    for args in ((X, 2, Y, 1),      # 3 columns are no multiple of a = 2
                 (X, 3, Y, 2),      # k = 1, so Y needs k * b = 2 rows
                 (X, 3, Y, -4),
                 (X, -1, Y, 4),
                 (Matrix.zero(QQ, 1, 0), 0, Y, 3)):
        with pytest.raises(ValueError, match="shape|nonnegative"):
            contract(*args)
    with pytest.raises(FieldMismatchError):
        contract(X, 3, Matrix.identity(F5, 4), 4)
