"""Graded components of a quadratic algebra by per-degree linear algebra.

The degree-m component is the quotient of the word space by the degree-m
piece of the relation ideal.  The engine builds quotients inductively,
dividing A_{m-1} (x) V by the image of the relation space; the rank of the
direct span sum_i V^i (x) R (x) V^j is kept as an independent oracle
(`graded_dim_by_oracle`) for cross-checks at small degrees.
"""

from __future__ import annotations

from .linalg import sparse_rank, Matrix, Subspace, quotient_data
from .presentations import QuadraticPresentation
from .tensorindex import kron


class GradedStructure:
    """Cached quotient bases, projections, and multiplication maps."""

    def __init__(self, A: QuadraticPresentation):
        self.A = A
        f = A.field
        n = A.n
        self._dims = {0: 1, 1: n}
        # step_proj[m]: A_{m-1} (x) V  ->  A_m  (right multiplication data)
        self._step_proj = {1: Matrix.identity(f, n)}
        self._step_section = {1: Matrix.identity(f, n)}
        self._full_proj = {0: Matrix.identity(f, 1), 1: Matrix.identity(f, n)}
        self._section_words = {0: Matrix.identity(f, 1),
                               1: Matrix.identity(f, n)}
        self._mult = {}

    def dim(self, m: int) -> int:
        self._ensure(m)
        return self._dims[m]

    def step_proj(self, m: int) -> Matrix:
        self._ensure(m)
        if self._step_proj[m] is None:  # free step: materialize lazily
            self._step_proj[m] = Matrix.identity(self.A.field,
                                                 self._dims[m])
        return self._step_proj[m]

    def step_section(self, m: int) -> Matrix:
        self._ensure(m)
        if self._step_section[m] is None:
            self._step_section[m] = Matrix.identity(self.A.field,
                                                    self._dims[m])
        return self._step_section[m]

    def _ensure(self, m: int):
        if m < 0:
            raise ValueError("degree must be nonnegative")
        A, f, n = self.A, self.A.field, self.A.n
        while max(self._dims) < m:
            k = max(self._dims) + 1
            prev_dim = self._dims[k - 1]
            ambient = prev_dim * n
            if A.R.dim == 0 or self._dims[k - 2] == 0:
                # nothing to quotient by: A_k = A_{k-1} (x) V
                self._dims[k] = ambient
                self._step_proj[k] = None
                self._step_section[k] = None
                continue
            step_prev = self.step_proj(k - 1)
            rows = []
            for s in range(self._dims[k - 2]):
                for rel in A.R.basis.data:
                    row = [f.zero] * ambient
                    for b in range(n):
                        vec = [f.zero] * (self._dims[k - 2] * n)
                        for a in range(n):
                            vec[s * n + a] = rel[a * n + b]
                        q = step_prev.apply(vec)
                        for t, x in enumerate(q):
                            row[t * n + b] = f.add(row[t * n + b], x)
                    rows.append(row)
            K = Subspace(ambient, Matrix(f, rows, cols=ambient))
            proj, section = quotient_data(ambient, K)
            self._dims[k] = proj.rows
            self._step_proj[k] = proj
            self._step_section[k] = section

    def full_projection(self, m: int) -> Matrix:
        """Pi_m: word space of degree m onto A_m (dense; keep m modest)."""
        self._ensure(m)
        f, n = self.A.field, self.A.n
        while max(self._full_proj) < m:
            k = max(self._full_proj) + 1
            self._full_proj[k] = self.step_proj(k) @ kron(
                self._full_proj[k - 1], Matrix.identity(f, n))
        return self._full_proj[m]

    def section_words(self, m: int) -> Matrix:
        """A right inverse of Pi_m, landing in the word space."""
        self._ensure(m)
        f, n = self.A.field, self.A.n
        while max(self._section_words) < m:
            k = max(self._section_words) + 1
            self._section_words[k] = kron(
                self._section_words[k - 1],
                Matrix.identity(f, n)) @ self.step_section(k)
        return self._section_words[m]

    def mult(self, i: int, j: int) -> Matrix:
        """The product map A_i (x) A_j -> A_{i+j} in quotient coordinates."""
        key = (i, j)
        if key not in self._mult:
            if i == 0:
                self._mult[key] = Matrix.identity(self.A.field, self.dim(j))
            elif j == 0:
                self._mult[key] = Matrix.identity(self.A.field, self.dim(i))
            else:
                self._mult[key] = self.full_projection(i + j) @ kron(
                    self.section_words(i), self.section_words(j))
        return self._mult[key]

    def right_mult_by_generator(self, m: int, a: int) -> Matrix:
        """Right multiplication by generator a: A_m -> A_{m+1}."""
        f, n = self.A.field, self.A.n
        step = self.step_proj(m + 1)
        rows = [[step.entry(r, s * n + a) for s in range(self.dim(m))]
                for r in range(step.rows)]
        return Matrix(f, rows, cols=self.dim(m))

    def left_mult_by_generator(self, m: int, a: int) -> Matrix:
        """Left multiplication by generator a: A_m -> A_{m+1}."""
        mult = self.mult(1, m)
        d = self.dim(m)
        rows = [[mult.entry(r, a * d + t) for t in range(d)]
                for r in range(mult.rows)]
        return Matrix(self.A.field, rows, cols=d)


_structures: dict[QuadraticPresentation, GradedStructure] = {}


def graded_structure(A: QuadraticPresentation) -> GradedStructure:
    if A not in _structures:
        _structures[A] = GradedStructure(A)
    return _structures[A]


def graded_dim(A: QuadraticPresentation, m: int) -> int:
    return graded_structure(A).dim(m)


def hilbert(A: QuadraticPresentation, N: int):
    """Graded dimensions in degrees 0..N."""
    gs = graded_structure(A)
    return [gs.dim(m) for m in range(N + 1)]


def graded_dim_by_oracle(A: QuadraticPresentation, m: int) -> int:
    """dim A_m via the direct relation-span oracle (sparse rank, no rref)."""
    f, n = A.field, A.n
    if m < 2:
        return n ** m
    ambient = n ** m
    def rows():
        for i in range(m - 1):
            right = n ** (m - 2 - i)
            for rel in A.R.basis.data:
                support = [(k, c) for k, c in enumerate(rel)
                           if not f.is_zero(c)]
                for w1 in range(n ** i):
                    for w2 in range(right):
                        base = w1 * n * n * right
                        yield {base + k * right + w2: c for k, c in support}
    return ambient - sparse_rank(f, rows())
