"""Row-major word indexing and the tensor-shuffle permutations.

Basis vectors of V^(tensor m) are words over 0..n-1 read big-endian:
index = sum letters[j] * n^(m-1-j).  Every module goes through these
helpers; ad-hoc index arithmetic elsewhere is a bug.
"""

from __future__ import annotations

from .fields import check_same_field
from .linalg import Matrix, Subspace


def word_to_index(letters, n: int) -> int:
    idx = 0
    for a in letters:
        if not 0 <= a < n:
            raise ValueError(f"letter {a} out of range for alphabet {n}")
        idx = idx * n + a
    return idx


def index_to_word(idx: int, length: int, n: int):
    if not 0 <= idx < n ** length:
        raise ValueError("index out of range")
    letters = []
    for _ in range(length):
        letters.append(idx % n)
        idx //= n
    return tuple(reversed(letters))


def mixed_index(letters, dims) -> int:
    """Row-major index for a word over factors of distinct dimensions."""
    idx = 0
    for a, d in zip(letters, dims):
        if not 0 <= a < d:
            raise ValueError(f"letter {a} out of range for factor dim {d}")
        idx = idx * d + a
    return idx


def mixed_word(idx: int, dims):
    letters = []
    for d in reversed(dims):
        letters.append(idx % d)
        idx //= d
    return tuple(reversed(letters))


class PermutationMap:
    """A permutation of basis vectors: vector i is sent to image[i]."""

    __slots__ = ("size", "image")

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise ValueError("image is not a bijection")
        object.__setattr__(self, "size", len(image))
        object.__setattr__(self, "image", image)

    def __setattr__(self, *args):
        raise AttributeError("PermutationMap is immutable")

    @staticmethod
    def identity(size: int) -> "PermutationMap":
        return PermutationMap(range(size))

    def inverse(self) -> "PermutationMap":
        inv = [0] * self.size
        for i, j in enumerate(self.image):
            inv[j] = i
        return PermutationMap(inv)

    def compose(self, other: "PermutationMap") -> "PermutationMap":
        """self after other (basis vector i goes to self.image[other.image[i]])."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return PermutationMap(self.image[j] for j in other.image)

    def apply_vector(self, vec, field):
        if len(vec) != self.size:
            raise ValueError("vector length mismatch")
        out = [field.zero] * self.size
        for i, x in enumerate(vec):
            out[self.image[i]] = x
        return tuple(out)

    def matrix(self, field) -> Matrix:
        rows = [[field.zero] * self.size for _ in range(self.size)]
        for i, j in enumerate(self.image):
            rows[j][i] = field.one
        return Matrix(field, rows, cols=self.size)

    def __eq__(self, other):
        return isinstance(other, PermutationMap) and self.image == other.image

    def __repr__(self):
        return f"PermutationMap({list(self.image)})"


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
    rows = []
    zero, one = f.zero, f.one
    zeros = (zero,) * B.cols
    for i in range(A.rows):
        arow = A.data[i]
        for k in range(B.rows):
            brow = B.data[k]
            out = []
            for a in arow:
                if not a:
                    out.extend(zeros)
                elif a == one:
                    out.extend(brow)
                else:
                    out.extend(f.mul(a, b) if b else zero for b in brow)
            rows.append(out)
    return Matrix(f, rows, cols=A.cols * B.cols)


def push_subspace(P, S: Subspace) -> Subspace:
    """Canonical image of S under a permutation or a matrix."""
    if isinstance(P, PermutationMap):
        if P.size != S.ambient_dim:
            raise ValueError("permutation size != ambient dimension")
        f = S.field
        rows = [P.apply_vector(row, f) for row in S.basis.data]
        return Subspace(S.ambient_dim, Matrix(f, rows, cols=S.ambient_dim))
    if P.cols != S.ambient_dim:
        raise ValueError("matrix width != ambient dimension")
    if S.dim == 0:
        return Subspace.zero(P.field, P.rows)
    image = S.basis @ P.transpose()
    return Subspace(P.rows, image)


def tensor_subspace(A: Subspace, B: Subspace) -> Subspace:
    """A tensor B inside the row-major tensor product coordinate space."""
    check_same_field(A.field, B.field)
    f = A.field
    ambient = A.ambient_dim * B.ambient_dim
    zero = f.zero
    zeros = (zero,) * B.ambient_dim
    rows = []
    for ra in A.basis.data:
        for rb in B.basis.data:
            row = []
            for a in ra:
                if a:
                    row.extend(f.mul(a, b) if b else zero for b in rb)
                else:
                    row.extend(zeros)
            rows.append(row)
    return Subspace(ambient, Matrix(f, rows, cols=ambient))
