"""Koszul complexes, exactness verdicts, and Ext tables.

Koszulity up to degree N is decided on the finite internal-degree slices of
the dualized complex with terms A_{m-i} (x) (A^!_i)^*; the first complex
is built independently for cross-checks.  The second-complex differential
is one product of two Kronecker factors of the graded multiplication maps;
the first complex and the bar complex are assembled by ``linalg.assemble``
from signed Kronecker blocks.

The Ext table Ext^{p,m}_A(k, k) comes from a minimal graded free resolution
of k (``ext_by_resolution``), which for a Koszul algebra has the size of
the Koszul complex.  The reduced bar complex (``bar_homology``), whose size
grows with the compositions of m, computes the same table and is kept as
an independent oracle: both read only the multiplication of A.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .linalg import (assemble, matrix_rank, null_basis, quotient_data, rref,
                     Matrix, Record, Subspace)
from .presentations import (QuadraticPresentation, dual, is_morphism)
from .graded import graded_structure
from .tensorindex import kron


def dh_square_is_zero(A: QuadraticPresentation, h: Matrix):
    """Left multiplication by alpha_h, squared, applied to the unit.

    The image lives in A_2 (x) (A^!)_2; returns (True, None) when it
    vanishes, else (False, witness-coordinates).
    """
    ok, cert = is_morphism(A, A, h)
    if not ok:
        raise ValueError(f"not an endomorphism; residual {cert.residual}")
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    # alpha_h^2 = sum_{i,j} h(u_i) h(u_j) (x) u^i u^j; in word coordinates its
    # coefficient tensor is kron(h, h), pushed into the two degree-2 quotients.
    image = gs.full_projection(2) @ kron(h, h) @ gd.full_projection(2).transpose()
    if image.is_zero():
        return True, None
    return False, tuple(x for row in image.data for x in row)


class ComplexSlice(Record):
    """A finite run of spaces and matrices with vanishing composites.

    ``differentials[t]`` maps position t to position t+1 in list order.
    """

    __slots__ = ("position_dims", "differentials", "internal_degree")

    def __init__(self, position_dims: tuple, differentials: tuple,
                 internal_degree: int):
        super().__init__(position_dims, differentials, internal_degree)
        # the check keeps its own name: perfbench/tracing.py times it
        self.__post_init__()

    def __post_init__(self):
        dims = self.position_dims
        maps = self.differentials
        if len(maps) != max(0, len(dims) - 1):
            raise ValueError("one differential per adjacent pair required")
        for t, d in enumerate(maps):
            if d.cols != dims[t] or d.rows != dims[t + 1]:
                raise ValueError(f"differential {t} has wrong shape")
        for t in range(len(maps) - 1):
            if dims[t] and dims[t + 2] and not (maps[t + 1] @ maps[t]).is_zero():
                raise ValueError(f"composite at position {t} is nonzero")

    def ranks(self):
        return tuple(matrix_rank(d) if d.rows and d.cols else 0
                     for d in self.differentials)

    def homology_dims(self):
        ranks = self.ranks()
        dims = self.position_dims
        out = []
        for t, dim_t in enumerate(dims):
            r_out = ranks[t] if t < len(ranks) else 0
            r_in = ranks[t - 1] if t > 0 else 0
            h = dim_t - r_out - r_in
            if h < 0:
                raise ArithmeticError(
                    f"negative homology at position {t}: dim {dim_t} - "
                    f"rank out {r_out} - rank in {r_in} = {h}")
            out.append(h)
        return tuple(out)


class HomologyReport(Record):
    __slots__ = ("internal_degree", "position_dims", "homology_dims", "exact")


def first_complex_slice(A: QuadraticPresentation, i_max: int,
                        weight: int = 0) -> ComplexSlice:
    """The cochain run A_{w+i} (x) (A^!)_i with left multiplication by alpha."""
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    f, n = A.field, A.n
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    dims = [gs.dim(weight + i) * gd.dim(i) for i in range(i_max + 1)]
    maps = []
    for i in range(i_max):
        src, dst = dims[i], dims[i + 1]
        blocks = []
        if src and dst:
            blocks = [(0, 0, False,
                       kron(gs.left_mult_by_generator(weight + i, j),
                            gd.left_mult_by_generator(i, j)))
                      for j in range(n)]
        maps.append(assemble(f, dst, src, blocks))
    return ComplexSlice(tuple(dims), tuple(maps), weight)


def second_complex_slice(A: QuadraticPresentation, m: int) -> ComplexSlice:
    """The internal-degree-m chain run A_{m-i} (x) (A^!_i)^*, i = m..0.

    Positions are listed from i = m down to i = 0.  The differential is
    sum_j (right multiplication by u_j on A) (x) (left multiplication by
    u^j on A^!)^T, computed as one product: the transpose of
    gd.mult(1, i-1) splits (A^!_i)^* into V (x) (A^!_{i-1})^*, and
    gs.step_proj(m-i+1) multiplies A_{m-i} (x) V into A_{m-i+1}.  Both
    factors index the middle V by the same row-major word.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    f = A.field
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    dims = [gs.dim(m - i) * gd.dim(i) for i in range(m, -1, -1)]
    maps = []
    for t, i in enumerate(range(m, 0, -1)):
        if not (dims[t] and dims[t + 1]):
            maps.append(Matrix.zero(f, dims[t + 1], dims[t]))
            continue
        multiply = kron(gs.step_proj(m - i + 1),
                        Matrix.identity(f, gd.dim(i - 1)))
        split = kron(Matrix.identity(f, gs.dim(m - i)),
                     gd.mult(1, i - 1).transpose())
        maps.append(multiply @ split)
    return ComplexSlice(tuple(dims), tuple(maps), m)


def homology_report(A: QuadraticPresentation, m: int) -> HomologyReport:
    sl = second_complex_slice(A, m)
    h = sl.homology_dims()
    return HomologyReport(m, sl.position_dims, h, all(x == 0 for x in h))


def koszul_verdict(A: QuadraticPresentation, N: int):
    """Per-degree homology reports for m = 1..N, plus the overall verdict."""
    if N < 1:
        raise ValueError("N must be at least 1")
    reports = [homology_report(A, m) for m in range(1, N + 1)]
    return reports, all(r.exact for r in reports)


def euler_hilbert_test(A: QuadraticPresentation, N: int):
    """Alternating-sum identity per degree: a cheap necessary condition."""
    if N < 1:
        raise ValueError("N must be at least 1")
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    out = []
    for m in range(1, N + 1):
        total = sum((-1) ** i * gs.dim(m - i) * gd.dim(i)
                    for i in range(m + 1))
        out.append(total == 0)
    return out


def _compositions(m: int, p: int):
    """Ordered compositions of m into p positive parts, lexicographic."""
    if p == 0:
        if m == 0:
            yield ()
        return
    for first in range(1, m - p + 2):
        for rest in _compositions(m - first, p - 1):
            yield (first,) + rest


class BidegreeTable(Record):
    """entries[(p, m)] = dim Ext^{p,m} for 0 <= p <= m <= m_max."""

    __slots__ = ("m_max", "entries")

    def entry(self, p: int, m: int) -> int:
        return self.entries.get((p, m), 0)

    def on_diagonal(self, A: QuadraticPresentation) -> bool:
        """Concentrated on p = m, with the dims of the dual algebra there."""
        gd = graded_structure(dual(A))
        return all(self.entry(p, m) == (gd.dim(p) if p == m else 0)
                   for m in range(self.m_max + 1) for p in range(m + 1))


def _layout(gs, gens, m: int):
    """Where the generators of P = E (x) A sit in P_m.

    ``gens`` lists one batch (e, count, parts) per generator degree e, in
    increasing e; each of its generators spans a copy of A_{m-e} there, and
    a batch is left out when that is zero.  Returns ``[(offset, e, count)]``
    and dim P_m.
    """
    layout, total = [], 0
    for e, count, _ in gens:
        if e > m:
            break
        if d := gs.dim(m - e):
            layout.append((total, e, count))
            total += count * d
    return layout, total


def _resolution_differential(gs, gens, target, m: int) -> Matrix:
    """d on the generators ``gens`` of degree below m, in degree m.

    A generator g of degree e with d(g) = sum_h h (x) c_h sends g (x) a,
    for a in A_{m-e}, to sum_h h (x) c_h a: the block (h, g) is
    mult(i, m-e) @ kron(c_h, I), c_h in A_i.  A batch stacks the c_h of
    the n generators h of one degree as the rows of C and those of its own
    generators as the columns, so its block is kron(I_n, mult(i, m-e)) @
    kron(C, I).  ``target`` is the layout of the previous term in degree m.
    """
    f = gs.A.field
    row_of = {e: (off, n) for off, e, n in target[0]}
    blocks, col = [], 0
    for e, count, parts in gens:
        if e >= m:
            break
        j = m - e
        if not (d := gs.dim(j)):
            continue
        eye = Matrix.identity(f, d)
        for e_h, C in parts:
            if e_h in row_of:
                off, n = row_of[e_h]
                mult = kron(Matrix.identity(f, n), gs.mult(e - e_h, j))
                blocks.append((off, col, False, mult @ kron(C, eye)))
        col += count * d
    return assemble(f, target[1], col, blocks)


def _new_generators(d_old, K: Matrix, count: int) -> Matrix:
    """``count`` rows of K, a basis of the kernel, independent modulo the
    column space of ``d_old``, the image I of the old generators."""
    n, new = K.cols, K
    if count != K.rows:
        # I is nonzero: keep the K rows whose classes modulo I are a basis
        proj, _ = quotient_data(n, Subspace(n, d_old.transpose()))
        _, rank, picked = rref(proj @ K.transpose())
        if rank != count:
            raise ArithmeticError(
                f"complement has dim {rank}, expected {count}")
        new = Matrix.from_rows(K.field, [K.sparse[t] for t in picked],
                               n)
    return new


def _parts(gs, target, columns: Matrix, m: int):
    """The new generators of degree m, one per column of ``columns``, as
    the parts [(e_h, C)] of their batch: C holds their components on the
    generators of degree e_h of the previous term."""
    parts = []
    for off, e, count in target[0]:
        rows = columns.sparse[off:off + count * gs.dim(m - e)]
        if any(rows):
            if e == m:
                raise ArithmeticError(
                    f"a degree-{m} generator has a component on a generator "
                    f"of its own degree: the resolution is not minimal")
            parts.append((e, Matrix.from_rows(columns.field, rows,
                                              columns.cols)))
    return parts


def ext_by_resolution(A: QuadraticPresentation, m_max: int) -> BidegreeTable:
    """Ext^{p,m}_A(k, k) for 0 <= p <= m <= m_max, from a minimal graded
    free resolution ... -> P_1 -> P_0 = A -> k of right A-modules.

    P_p = E_p (x) A is built degree by degree from ``gs.mult`` alone, and
    ext^{p,m} is the number of generators of P_p in degree m.  In degree m
    let K be the kernel of d_{p-1} (for p = 1, all of A_m) and I the image
    of the generators of P_p of lower degree; the new generators are K rows
    that span K modulo I.  Exactness below gives dim K_{p+1} = dim P_p -
    dim K_p, so ext^{p,m} = dim K - rank I costs one rank, and K itself is
    computed only when that count is positive.  d_p in degree m, with the
    new generators' columns appended, is the d_{p-1} of the next step.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    f = A.field
    gs = graded_structure(A)
    # gens[p]: the generators of P_p, one batch (degree, count, parts) per
    # degree; P_0 = A has the unit
    gens = [[(0, 1, [])]] + [[] for _ in range(m_max)]
    entries = {(0, 0): 1}
    for m in range(1, m_max + 1):
        entries[(0, m)] = 0
        # d_0 in degree m is the augmentation A_m -> k_m = 0
        d_prev = Matrix.zero(f, 0, gs.dim(m))
        k_dim = d_prev.cols
        for p in range(1, m + 1):
            target = _layout(gs, gens[p - 1], m)
            d_old = _resolution_differential(gs, gens[p], target, m)
            count = k_dim - matrix_rank(d_old)
            entries[(p, m)] = count
            d_full = d_old
            if count:
                K = null_basis(d_prev)
                if K.rows != k_dim:
                    raise ArithmeticError(
                        f"ker d_{p - 1} in degree {m} has dim {K.rows}, but "
                        f"exactness gives {k_dim}")
                new = _new_generators(d_old, K, count).transpose()
                gens[p].append((m, count, _parts(gs, target, new, m)))
                if not (d_prev @ new).is_zero():
                    raise ArithmeticError(
                        f"d_{p - 1} is nonzero on a new generator of P_{p} "
                        f"in degree {m}")
                d_full = assemble(f, d_old.rows, d_old.cols + count,
                                  ((0, 0, False, d_old),
                                   (0, d_old.cols, False, new)))
            d_prev, k_dim = d_full, d_full.cols - k_dim
    return BidegreeTable(m_max, entries)


def _bar_spaces(gs, m: int, p: int):
    """Component list [(composition, dims-per-letter, offset)] and total dim."""
    comps = []
    offset = 0
    for comp in _compositions(m, p):
        dims = tuple(gs.dim(d) for d in comp)
        comps.append((comp, dims, offset))
        offset += prod(dims)
    return comps, offset


def bar_complex_in_degree(A: QuadraticPresentation, m: int) -> ComplexSlice:
    """Reduced bar complex in internal degree m, positions p = m..1 (and 0).

    The differential is sum_{i=1}^{p-1} (-1)^i merge_i, where merge_i
    multiplies letters i and i+1.  On the component with letter degrees c
    it is I (x) gs.mult(c_i, c_{i+1}) (x) I, so the bar complex reads only
    the multiplication of A, never its dual.
    """
    f = A.field
    gs = graded_structure(A)
    layout = {p: _bar_spaces(gs, m, p) for p in range(m + 1)}
    dims = [layout[p][1] for p in range(m, -1, -1)]
    maps = []
    for p in range(m, 0, -1):
        src_comps, src_dim = layout[p]
        dst_comps, dst_dim = layout[p - 1]
        dst_offset = {comp: off for comp, _, off in dst_comps}
        blocks = []
        for comp, letter_dims, off in src_comps:
            for i in range(p - 1):
                merged = comp[:i] + (comp[i] + comp[i + 1],) + comp[i + 2:]
                block = kron(kron(Matrix.identity(f, prod(letter_dims[:i])),
                                  gs.mult(comp[i], comp[i + 1])),
                             Matrix.identity(f, prod(letter_dims[i + 2:])))
                # 0-based i merges letters i+1 and i+2: sign (-1)^(i+1)
                blocks.append((dst_offset[merged], off, i % 2 == 0, block))
        maps.append(assemble(f, dst_dim, src_dim, blocks))
    return ComplexSlice(tuple(dims), tuple(maps), m)


def bar_homology(A: QuadraticPresentation, m_max: int) -> BidegreeTable:
    """Bigraded bar homology dims: entries[(p, m)] for 0 <= p <= m <= m_max."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    entries = {}
    for m in range(m_max + 1):
        sl = bar_complex_in_degree(A, m)
        h = sl.homology_dims()
        # list order runs p = m..0
        for t, p in enumerate(range(m, -1, -1)):
            entries[(p, m)] = h[t]
    return BidegreeTable(m_max, entries)


def ext_diagonal_check(A: QuadraticPresentation, m_max: int) -> bool:
    """Bar homology concentrated on the diagonal with dual-algebra dims."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return bar_homology(A, m_max).on_diagonal(A)


def search_non_koszul(field, n: int, max_degree: int = 6,
                      limit: int | None = None):
    """Deterministic scan for a presentation failing the Euler identity.

    Candidates are relation spaces spanned by small-support vectors over the
    n^2 degree-2 words, enumerated in a fixed order.  Returns the first
    presentation whose Euler-Hilbert identity fails by ``max_degree``, or
    None if the scan is exhausted.
    """
    nn, one = n * n, field.one
    vectors = [{i: one} for i in range(nn)]
    vectors += [{i: one, j: one} for i, j in combinations(range(nn), 2)]
    labels = tuple(chr(ord("x") + k) for k in range(n))
    for count, triple in enumerate(combinations(vectors, 3), start=1):
        if limit is not None and count > limit:
            return None
        S = Subspace(nn, Matrix.from_rows(field, triple, nn))
        if S.dim != 3:
            continue
        A = QuadraticPresentation(field, labels, S)
        if not all(euler_hilbert_test(A, max_degree)):
            return A
    return None
