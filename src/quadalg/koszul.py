"""Koszul complexes, exactness verdicts, and Ext tables.

Koszulity up to degree N is decided on the finite internal-degree slices of
the dualized complex with terms A_{m-i} (x) (A^!_i)^*; the first complex
is built independently for cross-checks.  The second-complex differential
is one ``tensorindex.contract`` of two graded multiplication maps, the
product (step projection (x) I)(I (x) transposed dual multiplication)
without either Kronecker factor, and so is each block of the resolution;
the first complex and the bar complex are assembled by ``linalg.assemble``
from signed Kronecker blocks.

The Ext table Ext^{p,m}_A(k, k) comes from a minimal graded free resolution
of k (``ext_by_resolution``), which for a Koszul algebra has the size of
the Koszul complex.  Each differential is held as the images of its
source basis, and a batch of new generators is the RREF null basis of
the previous one at the free columns where the old image has no pivot.
The reduced bar complex (``bar_homology``), whose size grows with the
compositions of m, computes the same table and is kept as an independent
oracle: both read only the multiplication of A.

Over Q, `koszul_verdict` and `ext_by_resolution` first try a certificate
on the reduction A' of A that `graded.certified_reduction` returns (mod
32749, or else mod 32719; the dimension argument is in its docstring).
When `certified_twin` proves dim A_m = dim A'_m and dim A^!_m = dim A'^!_m
at that prime, every A_m and A^!_m is a free Z_(p)-module, so each Koszul
and bar complex over Q is the generic fibre of a complex of free modules
whose special fibre is that of A'.  A rank mod p is at most the rank over
Q, so at each position the Q homology is at most the mod-p homology, and
the Euler characteristic of each internal degree is the same over both
fields.  A degree of the Koszul complex whose mod-p homology is zero or
sits at one position therefore has the same homology over Q.  For Ext the
diagonal ext^{m,m} = dim A^!_m is proven by the A^! dimensions, so one
nonzero off-diagonal cell per degree is forced in the same way; without
the A^! check the diagonal, and with it that cell, may differ (see the
tests).  Everything else is computed exactly over Q.  `bar_homology`,
`homology_report`, `second_complex_slice` and
`graded.graded_dim_by_oracle` on a Q presentation never reduce mod p:
they stay exact-only oracles.

`koszul_verdict` keeps the report it gives for each degree in the
module-level dict ``_reports``, keyed by (relation space, degree) like the
``graded._structures`` cache beside it, so a session computes each degree
of an algebra once.  A relation space carries its field and n but no
labels, and a report is the homology over that field whichever path
produced it, so a relabelled copy of an algebra shares its reports.
`quadalg.clear_caches()` empties both dicts.  The oracles above keep
nothing and compute afresh on every call.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .fields import Record
from .linalg import (assemble, echelon, matrix_rank, null_basis, Matrix,
                     Subspace)
from .presentations import AlgebraMorphism, QuadraticPresentation, dual
from .graded import certified_twin, graded_structure, hilbert
from .tensorindex import contract, kron


def dh_square_is_zero(A: QuadraticPresentation, h: Matrix) -> bool:
    """Whether left multiplication by alpha_h, squared, kills the unit.

    The image lives in A_2 (x) (A^!)_2.  Raises ValueError when h is not
    an endomorphism of A.
    """
    AlgebraMorphism(A, A, h)
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    # alpha_h^2 = sum_{i,j} h(u_i) h(u_j) (x) u^i u^j; in word coordinates its
    # coefficient tensor is kron(h, h), pushed into the two degree-2 quotients
    # by their step projections (the word space of degree 2 is V (x) V).
    return (gs.step_proj(2) @ kron(h, h)
            @ gd.step_proj(2).transpose()).is_zero()


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
    u^j on A^!)^T, computed as one ``contract``:
    (gs.step_proj(m-i+1) (x) I) @ (I (x) gd.mult(1, i-1)^T).  The transpose
    of gd.mult(1, i-1) splits (A^!_i)^* into V (x) (A^!_{i-1})^*, and
    gs.step_proj(m-i+1) multiplies A_{m-i} (x) V into A_{m-i+1}.  Both
    index the middle V by the same row-major word; neither Kronecker factor
    is built.
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
        maps.append(contract(gs.step_proj(m - i + 1), gs.dim(m - i),
                             gd.mult(1, i - 1).transpose(), gd.dim(i - 1)))
    return ComplexSlice(tuple(dims), tuple(maps), m)


def homology_report(A: QuadraticPresentation, m: int) -> HomologyReport:
    sl = second_complex_slice(A, m)
    h = sl.homology_dims()
    return HomologyReport(m, sl.position_dims, h, all(x == 0 for x in h))


_reports: dict[tuple[Subspace, int], HomologyReport] = {}


def _forced_by_euler(mod_p_dims) -> bool:
    """Whether the mod-p dimensions of one internal degree's homology, in
    the positions not already known, are also its dimensions over Q.

    Over a certified twin each Q dimension is at most its mod-p one, and
    the alternating sums over all positions (the Euler characteristic) are
    equal.  When at most one unknown mod-p dimension is nonzero, every
    other unknown Q dimension is 0, so the Euler characteristic forces
    the remaining one to its mod-p value.
    """
    return sum(map(bool, mod_p_dims)) <= 1


def koszul_verdict(A: QuadraticPresentation, N: int):
    """Per-degree homology reports for m = 1..N, plus the overall verdict.

    Over Q a degree is read off the reduction mod p when `certified_twin`
    proves the dimensions of A and A^! and its homology mod p is
    `_forced_by_euler`; any other degree is computed exactly over Q.

    Each degree's report is kept in ``_reports`` under (A.R, m) and read
    from there on later calls, so ``ext`` after ``koszul`` on the same
    algebra, under any generator labels, or a larger N, computes only the
    degrees not yet seen; `certified_twin` runs once per call, and only
    when a degree is new.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    R = A.R
    if missing := [m for m in range(1, N + 1) if (R, m) not in _reports]:
        twin = certified_twin(A, N)
        for m in missing:
            report = None if twin is None else homology_report(twin, m)
            if report is None or not _forced_by_euler(report.homology_dims):
                report = homology_report(A, m)
            _reports[R, m] = report
    reports = [_reports[R, m] for m in range(1, N + 1)]
    return reports, all(r.exact for r in reports)


def euler_hilbert_test(A: QuadraticPresentation, N: int):
    """Alternating-sum identity per degree: a cheap necessary condition."""
    if N < 1:
        raise ValueError("N must be at least 1")
    dims, dual_dims = hilbert(A, N), hilbert(dual(A), N)
    return [sum((-1) ** i * dims[m - i] * dual_dims[i]
                for i in range(m + 1)) == 0
            for m in range(1, N + 1)]


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
        dual_dims = hilbert(dual(A), self.m_max)
        return all(self.entry(p, m) == (dual_dims[p] if p == m else 0)
                   for m in range(self.m_max + 1) for p in range(m + 1))


def _resolution_differential(gs, gens, target, cols: int, m: int):
    """d on the generators ``gens`` of degree below m, in degree m: one
    row per g (x) a, a in A_{m-e}, holding its image; and the layout
    ``[(offset, e, count)]`` of the rows of each batch, left out when
    A_{m-e} = 0.

    A generator g of degree e with d(g) = sum_h h (x) c_h, c_h in A_i,
    sends g (x) a to sum_h h (x) c_h a.  A batch keeps the c_h of its
    generators on the n generators h of one degree as the rows of C^T, so
    its block is contract(C^T, n, mult(i, m-e)^T, dim A_{m-e}).
    ``target`` is the layout of the previous term in degree m, and
    ``cols`` its dimension.
    """
    col_of = {e: (off, n) for off, e, n in target}
    blocks, layout, row = [], [], 0
    for e, count, parts in gens:
        j = m - e
        if not (d := gs.dim(j)):
            continue
        layout.append((row, e, count))
        for e_h, Ct in parts:
            if e_h in col_of:
                off, n = col_of[e_h]
                blocks.append((row, off, False, contract(
                    Ct, n, gs.mult(e - e_h, j).transpose(), d)))
        row += count * d
    return assemble(gs.field, row, cols, blocks), layout


def _new_generators(d_old: Matrix, free, K: Matrix, count: int) -> Matrix:
    """The ``count`` rows of K, the null basis of d_{p-1} (row t is 1 at
    free[t], 0 at the other free columns), where ``d_old``, the old image
    I, read at the free columns, has no pivot.  That reading is injective
    on the kernel, so I keeps its rank and these rows span a complement."""
    at = {c: t for t, c in enumerate(free)}
    pivots = echelon(Matrix.from_rows(
        K.field, [{at[c]: x for c, x in row.items() if c in at}
                  for row in d_old.sparse], len(free)))
    new = [row for t, row in enumerate(K.sparse) if t not in pivots]
    if len(new) != count:
        raise ArithmeticError(
            f"complement has dim {len(new)}, expected {count}")
    return Matrix.from_rows(K.field, new, K.cols)


def _parts(gs, target, new: Matrix, m: int):
    """The new generators of degree m, one per row of ``new``, as the
    parts [(e_h, C^T)] of their batch: C^T holds their components on the
    generators of degree e_h of the previous term."""
    parts = []
    for off, e, count in target:
        end = off + count * gs.dim(m - e)
        rows = [{c - off: x for c, x in row.items() if off <= c < end}
                for row in new.sparse]
        if any(rows):
            if e == m:
                raise ArithmeticError(
                    f"a degree-{m} generator has a component on a generator "
                    f"of its own degree: the resolution is not minimal")
            parts.append((e, Matrix.from_rows(new.field, rows, end - off)))
    return parts


def ext_by_resolution(A: QuadraticPresentation, m_max: int) -> BidegreeTable:
    """Ext^{p,m}_A(k, k) for 0 <= p <= m <= m_max: over Q from
    `certified_ext` where it answers, else from the exact resolution
    (`_resolve`)."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    table = certified_ext(A, m_max)
    return _resolve(A, m_max) if table is None else table


def certified_ext(A: QuadraticPresentation, m_max: int):
    """The Ext table of a Q presentation, proven from the reduction that
    `certified_twin` returns, or None where the proof does not go through.

    The table of the reduction is the answer when `certified_twin` proves
    the dimensions of A and A^! and, in each degree m, the off-diagonal
    cells (p < m) are `_forced_by_euler`: the bar complex bounds each Q
    cell by its mod-p cell, and the diagonal ext^{m,m} = dim A^!_m is
    proven by the A^! dimensions.
    """
    twin = certified_twin(A, m_max)
    if twin is None:
        return None
    table = _resolve(twin, m_max)
    if all(_forced_by_euler(table.entry(p, m) for p in range(m))
           for m in range(m_max + 1)):
        return table
    return None


def _resolve(A: QuadraticPresentation, m_max: int) -> BidegreeTable:
    """The Ext table from a minimal graded free resolution
    ... -> P_1 -> P_0 = A -> k of right A-modules.

    P_p = E_p (x) A is built degree by degree from ``gs.mult`` alone, and
    ext^{p,m} is the number of generators of P_p in degree m.  Each d is
    held transposed, one row per source basis vector holding its image.
    In degree m let K be the kernel of d_{p-1} (for p = 1, all of A_m) and
    I the image of the generators of P_p of lower degree.  Exactness below
    gives dim K_{p+1} = dim P_p - dim K_p, so ext^{p,m} = dim K - rank I
    costs one rank; only a positive count costs an RREF of d_{p-1}, whose
    null basis holds the new generators (`_new_generators`).  d_p in degree
    m, with their rows appended, is the d_{p-1} of the next step, and the
    layout of its rows, which `_resolution_differential` returns and the
    new batch extends, is that step's target."""
    f = A.field
    gs = graded_structure(A)
    # gens[p]: the generators of P_p, one batch (degree, count, parts) per
    # degree; P_0 = A has the unit
    gens = [[(0, 1, [])]] + [[] for _ in range(m_max)]
    entries = {(0, 0): 1}
    for m in range(1, m_max + 1):
        entries[(0, m)] = 0
        # d_0 in degree m is the augmentation A_m -> k_m = 0, and P_0 in
        # degree m is the unit's copy of A_m
        d_prev = Matrix.zero(f, gs.dim(m), 0)
        k_dim = d_prev.rows
        target = [(0, 0, 1)] if k_dim else []
        for p in range(1, m + 1):
            d, layout = _resolution_differential(gs, gens[p], target,
                                                 d_prev.rows, m)
            count = k_dim - matrix_rank(d)
            entries[(p, m)] = count
            if count:
                free, K = null_basis(d_prev.transpose())
                if K.rows != k_dim:
                    raise ArithmeticError(
                        f"ker d_{p - 1} in degree {m} has dim {K.rows}, but "
                        f"exactness gives {k_dim}")
                new = _new_generators(d, free, K, count)
                gens[p].append((m, count, _parts(gs, target, new, m)))
                if not (new @ d_prev).is_zero():
                    raise ArithmeticError(
                        f"d_{p - 1} is nonzero on a new generator of P_{p} "
                        f"in degree {m}")
                layout.append((d.rows, m, count))
                d = Matrix.from_rows(f, d.sparse + new.sparse, d.cols)
            d_prev, k_dim, target = d, d.rows - k_dim, layout
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


def search_non_koszul(field, n: int, max_degree: int, limit: int):
    """Deterministic scan for a presentation failing the Euler identity.

    Candidates are relation spaces spanned by three small-support vectors
    over the n^2 degree-2 words, enumerated in a fixed order.  Returns the
    first of the first ``limit`` candidates whose Euler-Hilbert identity
    fails by ``max_degree``, or None if none does.
    """
    nn, one = n * n, field.one
    vectors = [{i: one} for i in range(nn)]
    vectors += [{i: one, j: one} for i, j in combinations(range(nn), 2)]
    labels = tuple(chr(ord("x") + k) for k in range(n))
    for count, triple in enumerate(combinations(vectors, 3), start=1):
        if count > limit:
            return None
        S = Subspace(nn, Matrix.from_rows(field, triple, nn))
        if S.dim != 3:
            continue
        A = QuadraticPresentation(field, labels, S)
        if not all(euler_hilbert_test(A, max_degree)):
            return A
    return None
