"""Koszul complexes, exactness verdicts, and bar-complex Ext tables.

Koszulity up to degree N is decided on the finite internal-degree slices of
the dualized complex with terms A_{m-i} (x) (A^!_i)^*; the first complex
and the bar complex are built independently for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import matrix_rank, Matrix
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


@dataclass(frozen=True)
class ComplexSlice:
    """A finite run of spaces and matrices with vanishing composites.

    ``differentials[t]`` maps position t to position t+1 in list order;
    ``convention`` records whether list order follows the cochain or chain
    arrow of the construction.
    """
    position_dims: tuple
    differentials: tuple
    internal_degree: int
    convention: str = "cochain"

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


@dataclass(frozen=True)
class HomologyReport:
    internal_degree: int
    position_dims: tuple
    homology_dims: tuple
    exact: bool


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
        src = dims[i]
        dst = dims[i + 1]
        if src == 0 or dst == 0:
            maps.append(Matrix.zero(f, dst, src))
            continue
        total = Matrix.zero(f, dst, src)
        for j in range(n):
            lj_a = gs.left_mult_by_generator(weight + i, j)
            lj_d = gd.left_mult_by_generator(i, j)
            total = total + kron(lj_a, lj_d)
        maps.append(total)
    return ComplexSlice(tuple(dims), tuple(maps), weight, "cochain")


def second_complex_slice(A: QuadraticPresentation, m: int) -> ComplexSlice:
    """The internal-degree-m chain run A_{m-i} (x) (A^!_i)^*, i = m..0.

    Positions are listed from i = m down to i = 0; the differential pairs
    right multiplication on A with the transpose of left multiplication on
    the dual algebra.
    """
    if m < 0:
        raise ValueError("degree must be nonnegative")
    f, n = A.field, A.n
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    dims = [gs.dim(m - i) * gd.dim(i) for i in range(m, -1, -1)]
    maps = []
    for t, i in enumerate(range(m, 0, -1)):
        src, dst = dims[t], dims[t + 1]
        if src == 0 or dst == 0:
            maps.append(Matrix.zero(f, dst, src))
            continue
        total = Matrix.zero(f, dst, src)
        for j in range(n):
            rj = gs.right_mult_by_generator(m - i, j)
            lj_dual_t = gd.left_mult_by_generator(i - 1, j).transpose()
            total = total + kron(rj, lj_dual_t)
        maps.append(total)
    return ComplexSlice(tuple(dims), tuple(maps), m, "chain")


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


@dataclass(frozen=True)
class BidegreeTable:
    m_max: int
    entries: dict

    def entry(self, p: int, m: int) -> int:
        return self.entries.get((p, m), 0)


def _bar_spaces(gs, m: int, p: int):
    """Component list [(composition, dims-per-letter, offset)] and total dim."""
    comps = []
    offset = 0
    for comp in _compositions(m, p):
        dims = tuple(gs.dim(d) for d in comp)
        size = 1
        for d in dims:
            size *= d
        comps.append((comp, dims, offset))
        offset += size
    return comps, offset


def bar_complex_in_degree(A: QuadraticPresentation, m: int) -> ComplexSlice:
    """Reduced bar complex in internal degree m, positions p = m..1 (and 0)."""
    f = A.field
    gs = graded_structure(A)
    layout = {p: _bar_spaces(gs, m, p) for p in range(m + 1)}
    dims = [layout[p][1] for p in range(m, -1, -1)]
    maps = []
    for t, p in enumerate(range(m, 0, -1)):
        src_comps, src_dim = layout[p]
        dst_comps, dst_dim = layout[p - 1]
        dst_offset = {comp: (off, d) for comp, d, off in dst_comps}
        rows = [[f.zero] * src_dim for _ in range(dst_dim)]
        for comp, letter_dims, off in src_comps:
            strides = [1] * p
            for k in range(p - 2, -1, -1):
                strides[k] = strides[k + 1] * letter_dims[k + 1]
            size = strides[0] * letter_dims[0] if p else 1
            for i in range(p - 1):
                merged = comp[:i] + (comp[i] + comp[i + 1],) + comp[i + 2:]
                toff, _ = dst_offset[merged]
                mult = gs.mult(comp[i], comp[i + 1])
                sign = f.one if i % 2 == 1 else f.neg(f.one)
                # sign convention d = sum_{i=1}^{p-1} (-1)^i merge_i; our
                # loop index is i-1, so even loop index carries the minus
                m_dims = tuple(gs.dim(d) for d in merged)
                m_strides = [1] * (p - 1)
                for k in range(p - 3, -1, -1):
                    m_strides[k] = m_strides[k + 1] * m_dims[k + 1]
                for col in range(size):
                    rem = col
                    letters = []
                    for k in range(p):
                        letters.append(rem // strides[k])
                        rem %= strides[k]
                    pair_col = letters[i] * letter_dims[i + 1] + letters[i + 1]
                    merged_letters = (letters[:i]
                                      + [None] + letters[i + 2:])
                    for r in range(mult.rows):
                        c = mult.entry(r, pair_col)
                        if f.is_zero(c):
                            continue
                        merged_letters[i] = r
                        ridx = toff
                        for k, lt in enumerate(merged_letters):
                            ridx += lt * m_strides[k]
                        rows[ridx][off + col] = f.add(rows[ridx][off + col],
                                                      f.mul(sign, c))
        maps.append(Matrix(f, rows, cols=src_dim))
    return ComplexSlice(tuple(dims), tuple(maps), m, "chain")


def bar_homology(A: QuadraticPresentation, m_max: int) -> BidegreeTable:
    """Bigraded bar homology dims: entries[(p, m)] for 0 <= p <= m <= m_max."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    entries = {}
    for m in range(m_max + 1):
        sl = bar_complex_in_degree(A, m)
        h = sl.homology_dims()
        # list order runs p = m..0
        for t, p in _positions(m):
            entries[(p, m)] = h[t]
    return BidegreeTable(m_max, entries)


def _positions(m: int):
    return list(enumerate(range(m, -1, -1)))


def ext_diagonal_check(A: QuadraticPresentation, m_max: int) -> bool:
    """Bar homology concentrated on the diagonal with dual-algebra dims."""
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    table = bar_homology(A, m_max)
    gd = graded_structure(dual(A))
    for m in range(m_max + 1):
        for p in range(m + 1):
            expected = gd.dim(p) if p == m else 0
            if table.entry(p, m) != expected:
                return False
    return True


def search_non_koszul(field, n: int, max_degree: int = 6,
                      limit: int | None = None):
    """Deterministic scan for a presentation failing the Euler identity.

    Candidates are relation spaces spanned by small-support vectors over the
    n^2 degree-2 words, enumerated in a fixed order.  Returns the first
    presentation whose Euler-Hilbert identity fails by ``max_degree``, or
    None if the scan is exhausted.
    """
    from itertools import combinations
    from .linalg import Subspace as _Sub

    nn = n * n
    vectors = []
    for i in range(nn):
        v = [field.zero] * nn
        v[i] = field.one
        vectors.append(tuple(v))
    for i, j in combinations(range(nn), 2):
        v = [field.zero] * nn
        v[i] = field.one
        v[j] = field.one
        vectors.append(tuple(v))
    labels = tuple(chr(ord("x") + k) for k in range(n))
    count = 0
    for triple in combinations(range(len(vectors)), 3):
        count += 1
        if limit is not None and count > limit:
            return None
        S = _Sub.span(field, [vectors[k] for k in triple], nn)
        if S.dim != 3:
            continue
        A = QuadraticPresentation(field, labels, S)
        if not all(euler_hilbert_test(A, max_degree)):
            return A
    return None
