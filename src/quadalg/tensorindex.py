"""Row-major word indexing and the tensor-shuffle permutations.

Basis vectors of V^(tensor m) are words over 0..n-1 read big-endian:
index = sum letters[j] * n^(m-1-j), so word (a, b) of V (x) W is
a * dim W + b.  ``mixed_index`` checks this rule letter by letter; ``kron``
and the graded, parser, laws and presentations modules apply it inline.
"""

from __future__ import annotations

from .fields import check_same_field
from .linalg import Matrix, Record, Subspace


def mixed_index(letters, dims) -> int:
    """Row-major index for a word over factors of distinct dimensions."""
    idx = 0
    for a, d in zip(letters, dims):
        if not 0 <= a < d:
            raise ValueError(f"letter {a} out of range for factor dim {d}")
        idx = idx * d + a
    return idx


class PermutationMap(Record):
    """A permutation of basis vectors: vector i is sent to image[i]."""

    __slots__ = ("size", "image")

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise ValueError("image is not a bijection")
        super().__init__(len(image), image)

    def matrix(self, field) -> Matrix:
        rows = [None] * self.size
        for i, j in enumerate(self.image):
            rows[j] = {i: field.one}
        return Matrix.from_rows(field, rows, self.size)


def t23(n1: int, n2: int) -> PermutationMap:
    """Middle-factor shuffle aligning U*U*V*V with (U*V)*(U*V) coordinates.

    Sends the basis word (a, a', b, b') to (a, b, a', b').
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("alphabet sizes must be positive")
    size = (n1 * n2) ** 2
    image = [0] * size
    for a in range(n1):
        for ap in range(n1):
            for b in range(n2):
                for bp in range(n2):
                    src = mixed_index((a, ap, b, bp), (n1, n1, n2, n2))
                    dst = mixed_index((a, b, ap, bp), (n1, n2, n1, n2))
                    image[src] = dst
    return PermutationMap(image)


def flip(n1: int, n2: int) -> PermutationMap:
    """Swap of tensor factors: word (a, b) of U*V goes to (b, a) of V*U."""
    if n1 < 1 or n2 < 1:
        raise ValueError("alphabet sizes must be positive")
    image = [0] * (n1 * n2)
    for a in range(n1):
        for b in range(n2):
            image[mixed_index((a, b), (n1, n2))] = mixed_index((b, a), (n2, n1))
    return PermutationMap(image)


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product in row-major word order."""
    check_same_field(A.field, B.field)
    f = A.field
    if A.is_identity() and B.is_identity():
        return Matrix.identity(f, A.rows * B.rows)
    width = B.cols
    rows = []
    for arow in A.sparse:
        for brow in B.sparse:
            out = {}
            for j, a in arow.items():
                base = j * width
                if a == 1:
                    for l, b in brow.items():
                        out[base + l] = b
                else:
                    for l, b in brow.items():
                        out[base + l] = f.mul(a, b)
            rows.append(out)
    return Matrix.from_rows(f, rows, A.cols * width)


def push_subspace(P: PermutationMap, S: Subspace) -> Subspace:
    """Canonical image of S under a permutation of the basis vectors."""
    if P.size != S.ambient_dim:
        raise ValueError("permutation size != ambient dimension")
    image = P.image
    rows = [{image[j]: x for j, x in row.items()} for row in S.basis.sparse]
    return Subspace(S.ambient_dim,
                    Matrix.from_rows(S.field, rows, S.ambient_dim))


def tensor_subspace(A: Subspace, B: Subspace) -> Subspace:
    """A tensor B inside the row-major tensor product coordinate space.

    The Kronecker product of two RREF bases is already in RREF: row
    (a, b) leads at column lead_a * n_B + lead_b, these leads increase with
    the row, and every other row is zero there.
    """
    check_same_field(A.field, B.field)
    return Subspace(A.ambient_dim * B.ambient_dim, kron(A.basis, B.basis),
                    _canonical=True)
