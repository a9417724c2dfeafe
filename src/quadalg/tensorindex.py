"""Row-major word indexing and the tensor-shuffle permutations.

Basis vectors of V^(tensor m) are words over 0..n-1 read big-endian:
index = sum letters[j] * n^(m-1-j), so word (a, b) of V (x) W is
a * dim W + b.  ``t23``, ``flip`` and ``kron`` build their index maps
from this rule by arithmetic, and the graded, parser, laws and
presentations modules apply it inline.  A permutation of basis vectors is
its image tuple: vector i goes to image[i].

``contract(X, a, Y, b)`` is the product (X (x) I_b) @ (I_a (x) Y) without
either Kronecker factor: the graded multiplication maps, the Koszul
differentials and the resolution are built with it.  The graded degree
step is not: it builds the rows of K_m from normal forms (``graded``).
"""

from __future__ import annotations

from .fields import check_same_field
from .linalg import Matrix, Subspace, combine, int_rows


def permutation_matrix(field, image) -> Matrix:
    """The matrix sending basis vector i to basis vector image[i]."""
    rows = [None] * len(image)
    for i, j in enumerate(image):
        rows[j] = {i: field.one}
    return Matrix.from_rows(field, rows, len(image))


def t23(n1: int, n2: int) -> tuple:
    """Middle-factor shuffle aligning U*U*V*V with (U*V)*(U*V) coordinates.

    Sends the basis word (a, a', b, b') to (a, b, a', b').
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("alphabet sizes must be positive")
    return tuple(((a * n2 + b) * n1 + ap) * n2 + bp
                 for a in range(n1) for ap in range(n1)
                 for b in range(n2) for bp in range(n2))


def flip(n1: int, n2: int) -> tuple:
    """Swap of tensor factors: word (a, b) of U*V goes to (b, a) of V*U."""
    if n1 < 1 or n2 < 1:
        raise ValueError("alphabet sizes must be positive")
    return tuple(b * n1 + a for a in range(n1) for b in range(n2))


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product in row-major word order.

    kron(X, I_b), which ``contract`` returns on an identity shortcut,
    copies each row of X b times, one plain loop over its entries per
    copy; the general loop would set up a pass over a one-entry row of I_b
    for every entry of X.
    """
    check_same_field(A.field, B.field)
    f = A.field
    width = B.cols
    rows = []
    if B.is_identity():
        for arow in A.sparse:
            for t in range(width):
                out = {}
                for j, a in arow.items():
                    out[j * width + t] = a
                rows.append(out)
        return Matrix.from_rows(f, rows, A.cols * width)
    for arow in A.sparse:
        for brow in B.sparse:
            out = {}
            for j, a in arow.items():
                base = j * width
                if a == 1:
                    for l, b in brow.items():
                        out[base + l] = b
                else:
                    # b == 1 copies a as well
                    for l, b in brow.items():
                        out[base + l] = a if b == 1 else f.mul(a, b)
            rows.append(out)
    return Matrix.from_rows(f, rows, A.cols * width)


def contract(X: Matrix, a: int, Y: Matrix, b: int) -> Matrix:
    """(X (x) I_b) @ (I_a (x) Y) for X.cols = a*k and Y.rows = k*b.

    The middle index is the word (a', kappa, b') of dims (a, k, b).  Row
    (x, b') of the result is the sum, over the entries X[x, a'*k + kappa],
    of that entry times row kappa*b + b' of Y moved right by a'*Y.cols.
    All b rows (x, .) are summed at once: the rows kappa*b .. kappa*b+b-1
    of Y are laid side by side as one row of b blocks of width a*Y.cols,
    the sums run through the accumulation core of ``Matrix.__matmul__``,
    and each sum is cut back into its b blocks.
    """
    check_same_field(X.field, Y.field)
    if a < 0 or b < 0:
        raise ValueError("identity sizes must be nonnegative")
    k = X.cols // a if a else Y.rows // b if b else 0
    if X.cols != a * k or Y.rows != k * b:
        raise ValueError(
            f"shape mismatch in contraction: {X.rows}x{X.cols} (x) I_{b} @ "
            f"I_{a} (x) {Y.rows}x{Y.cols}")
    # with an identity factor the product is the other factor's kron
    # with an identity
    if Y.is_identity():
        return kron(X, Matrix.identity(X.field, b))
    if X.is_identity():
        return kron(Matrix.identity(X.field, a), Y)
    f, width = X.field, Y.cols
    cols = a * width
    reached = set().union(*X.sparse)
    kappas = {j % k for j in reached}
    side_by_side = {kappa: {t * cols + c: y for t in range(b)
                            for c, y in Y.sparse[kappa * b + t].items()}
                    for kappa in kappas}
    dens, ints = int_rows(f, side_by_side, kappas)
    sums = combine(f, X.sparse,
                   None if dens is None else {j: dens[j % k] for j in reached},
                   {j: ints[j % k] for j in reached}, b * cols,
                   {j: j // k * width for j in reached})
    out = []
    for row in sums:
        blocks = [{} for _ in range(b)]
        for c, x in row.items():
            blocks[c // cols][c % cols] = x
        out += blocks
    return Matrix.from_rows(f, out, cols)


def push_subspace(image, S: Subspace) -> Subspace:
    """Canonical image of S under the basis permutation ``image``."""
    if len(image) != S.ambient_dim:
        raise ValueError("permutation size != ambient dimension")
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
