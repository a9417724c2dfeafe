"""Mechanical verification of the quadratic-category structure.

Each check composes degree-1 matrices of the structure morphisms (f, h,
c_U, d_U, the flips c' and their tensor products) along the two legs of a
diagram and compares them exactly; the zig-zags (2.3) and (2.4) are the
Theorem 2.2 transposes of c_U and d_U, checked against the identity.  Every
arrow is first validated as an algebra morphism; a containment failure
there is an engine bug and raises instead of reporting a FAIL.
"""

from __future__ import annotations

from math import prod
from random import Random

from .fields import QQ, check_same_field
from .linalg import Matrix, Record, rref, solve
from .presentations import (AlgebraMorphism, black, canonical_column, dual,
                            evaluation_matrix, free_presentation,
                            full_relations_presentation, internal_hom,
                            is_morphism, unit_black, unit_white, white)
from .tensorindex import PermutationMap, flip, kron, push_subspace


def _name(U) -> str:
    return "\u00b7".join(U.labels)


class DiagramCheck(Record):
    __slots__ = ("name", "objects", "left_path", "right_path", "passed",
                 "residual")

    @staticmethod
    def compare(name, objects, left: Matrix, right: Matrix) -> "DiagramCheck":
        residual = left - right
        return DiagramCheck(name, tuple(objects), left, right,
                            residual.is_zero(), residual)


def _morphism(src, dst, M, what: str) -> AlgebraMorphism:
    try:
        return AlgebraMorphism(src, dst, M)
    except ValueError as exc:
        raise AssertionError(
            f"structure map {what} failed morphism validation: {exc}") from exc


def _reshape(src, dst, what: str) -> AlgebraMorphism:
    """The identity matrix on the generators, as a morphism src -> dst."""
    return _morphism(src, dst, Matrix.identity(src.field, src.n), what)


def structure_map_f(U1, U2, U3) -> AlgebraMorphism:
    """(U1 o U2) . U3  ->  U1 o (U2 . U3): the identity reshape."""
    return _reshape(black(white(U1, U2), U3), white(U1, black(U2, U3)), "f")


def structure_map_h(U1, U2, U3) -> AlgebraMorphism:
    """U1 . (U2 o U3)  ->  (U1 . U2) o U3: the identity reshape."""
    return _reshape(black(U1, white(U2, U3)), white(black(U1, U2), U3), "h")


def flip_map(op, A, B) -> AlgebraMorphism:
    """c': op(A, B) -> op(B, A), the factor swap; op is black or white."""
    return _morphism(op(A, B), op(B, A), flip(A.n, B.n).matrix(A.field),
                     "c'")


def unit_map(U) -> AlgebraMorphism:
    """c_U: black unit -> U o dual(U), the canonical-element column."""
    return _morphism(unit_black(U.field), white(U, dual(U)),
                     canonical_column(U), "c_U")


def counit_map(U) -> AlgebraMorphism:
    """d_U: dual(U) . U -> white unit, the evaluation row."""
    return _morphism(black(dual(U), U), unit_white(U.field),
                     evaluation_matrix(U), "d_U")


def tensor_morphisms(op, u: AlgebraMorphism, v: AlgebraMorphism):
    """u (x) v: op(u.src, v.src) -> op(u.dst, v.dst); op is black or white."""
    return _morphism(op(u.src, v.src), op(u.dst, v.dst), kron(u.M, v.M),
                     "tensor of morphisms")


def check_axiom_diagrams(U1, U2, U3, U4=None, u1=None, u2=None, u3=None):
    """The six coherence diagrams, evaluated at the degree-1 matrix level.

    U4 defaults to U1; u1..u3 default to identities.
    """
    U4 = U1 if U4 is None else U4
    u1 = u1 if u1 is not None else AlgebraMorphism.identity(U1)
    u2 = u2 if u2 is not None else AlgebraMorphism.identity(U2)
    u3 = u3 if u3 is not None else AlgebraMorphism.identity(U3)
    names = tuple(_name(U) for U in (U1, U2, U3, U4))
    checks = []

    # (2.1): two routes (U1.(U2 o U3)).U4 -> (U1.U2) o (U3.U4)
    h123 = structure_map_h(U1, U2, U3)
    top1 = tensor_morphisms(black, AlgebraMorphism.identity(U1),
                            structure_map_f(U2, U3, U4))
    h1_234 = structure_map_h(U1, U2, black(U3, U4))
    left = h1_234.M @ top1.M  # associator c_bullet is the identity reshape
    bot1 = tensor_morphisms(black, h123, AlgebraMorphism.identity(U4))
    f12_34 = structure_map_f(black(U1, U2), U3, U4)
    right = f12_34.M @ bot1.M
    checks.append(DiagramCheck.compare("2.1", names, left, right))

    # (2.2): two routes (U1 o U2).(U3 o U4) -> U1 o ((U2.U3) o U4)
    f1 = structure_map_f(U1, U2, white(U3, U4))
    top2 = tensor_morphisms(white, AlgebraMorphism.identity(U1),
                            structure_map_h(U2, U3, U4))
    left2 = top2.M @ f1.M
    h2 = structure_map_h(white(U1, U2), U3, U4)
    bot2 = tensor_morphisms(white, structure_map_f(U1, U2, U3),
                            AlgebraMorphism.identity(U4))
    right2 = bot2.M @ h2.M  # c_o identity reshape closes the square
    checks.append(DiagramCheck.compare("2.2", names, left2, right2))

    # (2.3): zig-zag on U1 equals the identity
    checks.append(triangle_left(U1))
    # (2.4): zig-zag on dual(U1) equals the identity
    checks.append(triangle_right(U1))

    # (2.5): naturality of h in all three arguments
    lhs_map = tensor_morphisms(black, u1, tensor_morphisms(white, u2, u3))
    h_src = structure_map_h(u1.src, u2.src, u3.src)
    h_dst = structure_map_h(u1.dst, u2.dst, u3.dst)
    rhs_map = tensor_morphisms(white, tensor_morphisms(black, u1, u2), u3)
    checks.append(DiagramCheck.compare(
        "2.5", names, h_dst.M @ lhs_map.M, rhs_map.M @ h_src.M))

    # (2.6): naturality of f
    lhs6 = tensor_morphisms(black, tensor_morphisms(white, u1, u2), u3)
    f_src = structure_map_f(u1.src, u2.src, u3.src)
    f_dst = structure_map_f(u1.dst, u2.dst, u3.dst)
    rhs6 = tensor_morphisms(white, u1, tensor_morphisms(black, u2, u3))
    checks.append(DiagramCheck.compare(
        "2.6", names, f_dst.M @ lhs6.M, rhs6.M @ f_src.M))
    return checks


def triangle_left(U) -> DiagramCheck:
    """I_bullet . U -> U o I_o collapses to the identity of U (diagram 2.3):
    the transpose of c_U is the identity."""
    path = hom_untranspose(unit_map(U), unit_black(U.field), U, U)
    return DiagramCheck.compare("2.3", (_name(U),), path.M,
                                Matrix.identity(U.field, U.n))


def triangle_right(U) -> DiagramCheck:
    """dual(U) . I_bullet -> I_o o dual(U) collapses to the identity (2.4):
    the transpose of d_U is the identity."""
    Ud = dual(U)
    path = hom_transpose(counit_map(U), Ud, U, unit_white(U.field))
    return DiagramCheck.compare("2.4", (_name(Ud),), path.M,
                                Matrix.identity(U.field, U.n))


def hom_transpose(u: AlgebraMorphism, U, L, N) -> AlgebraMorphism:
    """Send u: U.L -> N to u': U -> N o dual(L) (the adjunction composite)."""
    step1 = tensor_morphisms(black, AlgebraMorphism.identity(U), unit_map(L))
    step2 = structure_map_h(U, L, dual(L))
    step3 = tensor_morphisms(white, u, AlgebraMorphism.identity(dual(L)))
    M = step3.M @ step2.M @ step1.M
    return _morphism(U, white(N, dual(L)), M, "u'")


def hom_untranspose(v: AlgebraMorphism, U, L, N) -> AlgebraMorphism:
    """Send v: U -> N o dual(L) to v'': U.L -> N (the inverse composite)."""
    step1 = tensor_morphisms(black, v, AlgebraMorphism.identity(L))
    step2 = structure_map_f(N, dual(L), L)
    step3 = tensor_morphisms(white, AlgebraMorphism.identity(N), counit_map(L))
    M = step3.M @ step2.M @ step1.M
    return _morphism(black(U, L), N, M, "v''")


def adjunction_roundtrip(u: AlgebraMorphism, U, L, N) -> DiagramCheck:
    """(u')'' must equal u for u: U . L -> N."""
    up = hom_transpose(u, U, L, N)
    upp = hom_untranspose(up, U, L, N)
    return DiagramCheck.compare(
        "thm2.2 u->(u')''", (_name(U), _name(L), _name(N)),
        upp.M, u.M)


def adjunction_roundtrip_rev(v: AlgebraMorphism, U, L, N) -> DiagramCheck:
    """(v'')' must equal v for v: U -> N o dual(L)."""
    vpp = hom_untranspose(v, U, L, N)
    vp = hom_transpose(vpp, U, L, N)
    return DiagramCheck.compare(
        "thm2.2 v->(v'')'", (_name(U), _name(L), _name(N)),
        vp.M, v.M)


def flag_check(name, objects, passed: bool, field) -> DiagramCheck:
    """A DiagramCheck wrapping a boolean subspace-equality verdict."""
    one = Matrix.identity(field, 1)
    right = one if passed else Matrix.zero(field, 1, 1)
    return DiagramCheck(name, tuple(objects), one, right, passed, one - right)


def check_dual_antimultiplicative(U, V) -> DiagramCheck:
    """dual(U . V) agrees with dual(V) o dual(U) under the flip-transpose."""
    lhs = dual(black(U, V))
    rhs = white(dual(V), dual(U))
    p, m = flip(U.n, V.n).image, U.n * V.n  # flip (x) flip on words of U.V
    P = PermutationMap([a * m + b for a in p for b in p])
    transported = push_subspace(P, lhs.R)
    return flag_check("dual-antimult", (_name(U), _name(V)),
                      transported == rhs.R, U.field)


def composition_map(U) -> AlgebraMorphism:
    """l_U: Hom(U,U) . Hom(U,U) -> Hom(U,U), contracting the middle pair.

    The generator (a, i) (x) (k, j) of the black square is the word
    (a, i, k, j), and l_U is the middle-pair evaluation id (x) d_U (x) id:
    it sends the word to (a, j) when i = k and to zero otherwise.
    """
    I = Matrix.identity(U.field, U.n)
    H = internal_hom(U, U)
    M = kron(kron(I, evaluation_matrix(U)), I)
    return _morphism(black(H, H), H, M, "l_U")


def check_hom_algebra(U):
    """Associativity and unit squares for (Hom(U,U), l_U)."""
    f = U.field
    H = internal_hom(U, U)
    nh = H.n
    l = composition_map(U)
    I = Matrix.identity(f, nh)
    assoc_left = l.M @ kron(l.M, I)
    assoc_right = l.M @ kron(I, l.M)
    checks = [DiagramCheck.compare("hom-algebra-assoc", (_name(U),),
                                   assoc_left, assoc_right)]
    unit_path = l.M @ kron(I, unit_map(U).M)
    checks.append(DiagramCheck.compare("hom-algebra-unit", (_name(U),),
                                       unit_path, I))
    return checks


def check_braiding(U1, U2, U3) -> DiagramCheck:
    """The mixed hexagon relating the two flips with f and h."""
    names = (_name(U1), _name(U2), _name(U3))
    # leg A: flip out U1, flip U2/U3, then f
    a1 = flip_map(black, U1, white(U2, U3))
    a2 = tensor_morphisms(black, flip_map(white, U2, U3),
                          AlgebraMorphism.identity(U1))
    a3 = structure_map_f(U3, U2, U1)
    left = a3.M @ a2.M @ a1.M
    # leg B: h, flip out U3, flip U1/U2
    b1 = structure_map_h(U1, U2, U3)
    b2 = flip_map(white, black(U1, U2), U3)
    b3 = tensor_morphisms(white, AlgebraMorphism.identity(U3),
                          flip_map(black, U1, U2))
    right = b3.M @ b2.M @ b1.M
    return DiagramCheck.compare("braiding-hexagon", names, left, right)


def check_bullet_to_circle(U, V) -> DiagramCheck:
    """The canonical comparison U . V -> U o V through flips and f."""
    f = U.field
    nu, nv = U.n, V.n
    Io = unit_white(f)
    Ib = unit_black(f)
    # U.V = U.(V o I_o) --flip--> (V o I_o).U --f--> V o (I_o.U)
    s1 = flip_map(black, U, white(V, Io))
    s2 = structure_map_f(V, Io, U)
    # c_{I_o}: I_o -> I_bullet is the 1x1 identity at degree 1
    c_io = _reshape(Io, Ib, "c_{I_o}")
    s3 = tensor_morphisms(white, AlgebraMorphism.identity(V),
                          tensor_morphisms(black, c_io,
                                           AlgebraMorphism.identity(U)))
    s4 = _morphism(white(V, black(Ib, U)), white(U, V),
                   flip(nv, nu).matrix(f), "c'_o")
    total = s4.M @ s3.M @ s2.M @ s1.M
    # the composite itself must be a morphism black(U,V) -> white(U,V)
    comparison = _morphism(black(U, V), white(U, V), total,
                           "bullet-to-circle")
    return DiagramCheck.compare(
        "bullet-to-circle", (_name(U), _name(V)),
        comparison.M, Matrix.identity(f, nu * nv))


def in_rigid_subcategory(U) -> bool:
    """Objects of C': full relation space (vector spaces with zero product)."""
    return U.R.dim == U.n * U.n


def trace(U, h: Matrix):
    """The categorical trace of an endomorphism of a rigid object."""
    if not in_rigid_subcategory(U):
        raise ValueError("trace requires a rigid object (full relations)")
    ok, cert = is_morphism(U, U, h)
    if not ok:
        raise ValueError(f"not an endomorphism; residual {cert.residual}")
    f, n = U.field, U.n
    # c'_U = c'_o composed with c_U: the flipped canonical column
    cprime = flip(n, n).matrix(f) @ canonical_column(U)
    composite = evaluation_matrix(U) @ kron(Matrix.identity(f, n), h) @ cprime
    return composite.entry(0, 0)


def rank_of(U):
    """rank(U) = trace of the identity, as a field scalar."""
    return trace(U, Matrix.identity(U.field, U.n))


def contragredient_check(h: AlgebraMorphism, hp: AlgebraMorphism):
    """The two zig-zag equations for a contragredient pair, as DiagramChecks."""
    U, V = h.src, h.dst
    lhs1 = kron(h.M, hp.M) @ canonical_column(U)
    rhs1 = canonical_column(V)
    eq1 = DiagramCheck.compare("contragredient-c",
                               (_name(U), _name(V)), lhs1, rhs1)
    lhs2 = evaluation_matrix(V) @ kron(hp.M, h.M)
    rhs2 = evaluation_matrix(U)
    eq2 = DiagramCheck.compare("contragredient-d",
                               (_name(U), _name(V)), lhs2, rhs2)
    return [eq1, eq2]


def solve_contragredient(h: AlgebraMorphism):
    """Solve the two contragredient equations for h'; None if inconsistent."""
    U, V = h.src, h.dst
    f = U.field
    nu, nv = U.n, V.n
    # unknown Y = (M_h')^T, an nu x nv matrix; equations M_h Y = I and
    # Y M_h = I, on the row-major vec(Y): vec(A Y B) = (A (x) B^T) vec(Y)
    rows = (kron(h.M, Matrix.identity(f, nv)).sparse
            + kron(Matrix.identity(f, nu), h.M.transpose()).sparse)
    rhs = [f.one if a == b else f.zero
           for k in (nv, nu) for a in range(k) for b in range(k)]
    sol = solve(Matrix.from_rows(f, rows, nu * nv), rhs)
    if sol is None:
        return None
    Mp = Matrix(f, [sol[i * nv:(i + 1) * nv] for i in range(nu)],
                cols=nv).transpose()  # M_h' = Y^T
    ok, _ = is_morphism(dual(U), dual(V), Mp)
    if not ok:
        return None
    return AlgebraMorphism(dual(U), dual(V), Mp)


def contragredient_invertibility(h: AlgebraMorphism, hp: AlgebraMorphism):
    """If the contragredient equations hold, h must be invertible.

    Returns (True, inverse morphism) or (False, witness string).
    """
    checks = contragredient_check(h, hp)
    if not all(c.passed for c in checks):
        return False, "contragredient equations do not hold"
    inv_t = solve_linear_inverse(h.M)
    if inv_t is None:
        return False, "degree-1 matrix is not invertible"
    ok, cert = is_morphism(h.dst, h.src, inv_t)
    if not ok:
        return False, f"inverse is not a morphism; residual {cert.residual}"
    return True, AlgebraMorphism(h.dst, h.src, inv_t)


def solve_linear_inverse(M: Matrix):
    """The inverse of M, or None when M is not square or is singular."""
    if M.rows != M.cols:
        return None
    f = M.field
    n = M.rows
    aug = Matrix.from_rows(f, [{**row, n + i: f.one}
                               for i, row in enumerate(M.sparse)], 2 * n)
    # the identity block makes the rank n; M is regular iff its own
    # columns hold all n pivots
    reduced, _, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return Matrix.from_rows(f, [{j - n: x for j, x in row.items() if j >= n}
                                for row in reduced.sparse], n)


def double_dual_check(U) -> DiagramCheck:
    """dual(dual(U)) must reproduce U with the identical canonical basis."""
    return flag_check("double-dual", (_name(U),),
                      dual(dual(U)) == U, U.field)


def unit_duality_checks(field):
    """dual of each unit object is the other unit."""
    Ib, Io = unit_black(field), unit_white(field)
    return [
        flag_check("dual-unit-black", ("I.",),
                   dual(Ib).same_relations(Io), field),
        flag_check("dual-unit-white", ("Io",),
                   dual(Io).same_relations(Ib), field),
    ]


def _pick_sizes(pool, rng, k: int, max_total: int):
    """k pool objects whose generator counts multiply to at most max_total."""
    for _ in range(200):
        chosen = [pool[rng.randrange(len(pool))] for _ in range(k)]
        if prod(U.n for U in chosen) <= max_total:
            return chosen
    field = pool[0].field
    return [unit_black(field)] * k


def _primed(U, tag: str):
    """A full-relations object of the same size with fresh labels."""
    return full_relations_presentation(
        U.field, tuple(f"{s}'{tag}" for s in U.labels))


def suite_axioms(pool, trials: int, rng):
    from .sampling import random_matrix
    field = pool[0].field
    max_total = 6 if field == QQ else 8
    checks = []
    for t in range(trials):
        U1, U2, U3, U4 = _pick_sizes(pool, rng, 4, max_total)
        us = []
        for k, U in enumerate((U1, U2, U3)):
            Up = _primed(U, str(k))
            us.append(AlgebraMorphism(U, Up, random_matrix(field, U.n, U.n,
                                                           rng)))
        checks.extend(check_axiom_diagrams(U1, U2, U3, U4, *us))
        # adjunction, forward: arbitrary u into a full-relations N
        U, L, N0 = _pick_sizes(pool, rng, 3, max_total)
        N = _primed(N0, "n")
        u = AlgebraMorphism(black(U, L), N,
                            random_matrix(field, N.n, U.n * L.n, rng))
        checks.append(adjunction_roundtrip(u, U, L, N))
        # adjunction, reverse: arbitrary v out of a free source
        Ufree = free_presentation(field, tuple(f"g{i}" for i in range(U.n)))
        v = AlgebraMorphism(Ufree, white(N, dual(L)),
                            random_matrix(field, N.n * L.n, Ufree.n, rng))
        checks.append(adjunction_roundtrip_rev(v, Ufree, L, N))
        checks.append(check_dual_antimultiplicative(U1, U2))
        checks.append(check_bullet_to_circle(U1, U2))
        small = min((U1, U2, U3), key=lambda A: A.n)
        checks.extend(check_hom_algebra(small))
    return checks, []


def suite_duality(pool, trials: int, rng):
    field = pool[0].field
    checks = [double_dual_check(U) for U in pool]
    checks.extend(unit_duality_checks(field))
    for _ in range(trials):
        U, V = _pick_sizes(pool, rng, 2, 9)
        checks.append(check_dual_antimultiplicative(U, V))
    return checks, []


def suite_braiding(pool, trials: int, rng):
    field = pool[0].field
    max_total = 8 if field == QQ else 27
    checks = []
    for _ in range(trials):
        U1, U2, U3 = _pick_sizes(pool, rng, 3, max_total)
        checks.append(check_braiding(U1, U2, U3))
    return checks, []


def suite_hom_algebra(pool, trials: int, rng):
    # full morphism validation of l_U stays cheap up to 2 generators
    small = [U for U in pool if U.n <= 2]
    if not small:
        return [], ["hom-algebra: no object with at most 2 generators "
                    "in the pool"]
    return [c for U in small for c in check_hom_algebra(U)], []


def suite_rigid(pool, trials: int, rng):
    """Trace/rank and contragredient checks on the full-relations objects."""
    from .sampling import sample_endomorphisms
    field = pool[0].field
    checks = []
    reports = []
    rigid = [U for U in pool if in_rigid_subcategory(U)]
    if not rigid:
        return [], ["rigid: no full-relations object in the pool"]
    for U in rigid:
        n = U.n
        checks.append(flag_check("rank", (_name(U),),
                                 rank_of(U) == field.coerce(n), field))
        sample = sample_endomorphisms(U, max(8, trials // len(rigid)), rng)
        agree = all(
            trace(U, h) == field.coerce(sum(h.entry(i, i) for i in range(n)))
            for h in sample)
        checks.append(flag_check("trace-matches-matrix-trace",
                                 (_name(U),), agree, field))
        # contragredient pair: an invertible h with inverse-transpose partner
        # the cyclic shift: row i holds a 1 in column i + 1 (mod n)
        hmat = PermutationMap([(j - 1) % n for j in range(n)]).matrix(field)
        h = AlgebraMorphism(U, U, hmat)
        hp = solve_contragredient(h)
        checks.extend(contragredient_check(h, hp))
        okinv, _ = contragredient_invertibility(h, hp)
        checks.append(flag_check("contragredient-invertible",
                                 (_name(U),), okinv, field))
        if n >= 2:
            sing = Matrix.from_rows(field, [{0: field.one}] + [
                {} for _ in range(n - 1)], n)
            hs = AlgebraMorphism(U, U, sing)
            checks.append(flag_check("contragredient-nonexistence",
                                     (_name(U),),
                                     solve_contragredient(hs) is None, field))
        reports.append(trace_multiplicativity_report(U, rng))
    return checks, reports


def trace_multiplicativity_report(U, rng) -> str:
    """Measure Trace(h h') against Trace(h)Trace(h'); report, never assert."""
    from .sampling import sample_endomorphisms
    field = U.field
    hs = sample_endomorphisms(U, 6, rng)
    for h in hs:
        for hp in hs:
            lhs = trace(U, h @ hp)
            rhs = field.mul(trace(U, h), trace(U, hp))
            if lhs != rhs:
                return (f"trace-multiplicativity on {_name(U)}: fails; "
                        f"Trace(hh')={lhs} vs Trace(h)Trace(h')={rhs} "
                        f"for h={h.data} h'={hp.data}")
    return (f"trace-multiplicativity on {_name(U)}: no counterexample "
            f"in sample")


# suite name -> suite(pool, trials, rng) -> (checks, report lines); a
# suite that makes no check reports why
_SUITES = {"axioms": suite_axioms, "duality": suite_duality,
           "braiding": suite_braiding, "hom-algebra": suite_hom_algebra,
           "rigid": suite_rigid}
SUITES = tuple(_SUITES)


def run_suite(name: str, pool, trials: int = 100, seed: int = 0):
    """Run a named suite on a fresh Random(seed); returns (checks sorted by
    name and objects, report lines)."""
    if not pool:
        raise ValueError("empty object pool")
    f0 = pool[0].field
    for U in pool:
        check_same_field(f0, U.field)
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {SUITES} or 'all'")
    checks, reports = _SUITES[name](pool, trials, Random(seed))
    return sorted(checks, key=lambda c: (c.name, c.objects)), reports
