"""Differential test of the fields: a Q presentation against its reduction.

An integer-coefficient presentation over Q and the same relations read
over GF(p) must give the same Hilbert series, Koszul homology and dual
dimension whenever p divides no pivot, i.e. whenever every rank these
answers rest on is the same mod p as over Q.  That condition is checked
on the Q side with the independent relation-span oracle and the Q Koszul
differentials; the answers themselves come from the GF(p) engine.
"""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quadalg.fields import QQ, PrimeField
from quadalg.graded import graded_dim_by_oracle, hilbert
from quadalg.koszul import koszul_verdict, second_complex_slice
from quadalg.linalg import Matrix, Subspace, matrix_rank
from quadalg.presentations import QuadraticPresentation, dual

FP = PrimeField(32003)
TOP = 4


@st.composite
def integer_twins(draw):
    """The same 2- or 3-generator integer relations over Q and over GF(p)."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n * n - 1))
    vectors = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n),
        min_size=k, max_size=k))
    labels = "xyz"[:n]
    return tuple(QuadraticPresentation(f, labels,
                                       Subspace.span(f, vectors, n * n))
                 for f in (QQ, FP))


def _ranks_survive_mod_p(A, Ap) -> bool:
    if A.R.dim != Ap.R.dim:
        return False
    for B, Bp in ((A, Ap), (dual(A), dual(Ap))):
        if any(graded_dim_by_oracle(B, m) != graded_dim_by_oracle(Bp, m)
               for m in range(2, TOP + 1)):
            return False
    for m in range(1, TOP + 1):
        for d in second_complex_slice(A, m).differentials:
            if any(x.denominator % FP.p == 0 for row in d.data for x in row):
                return False
            if matrix_rank(Matrix(FP, d.data, cols=d.cols)) != matrix_rank(d):
                return False
    return True


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(integer_twins())
def test_reduction_mod_p_keeps_hilbert_koszul_and_dual(twins):
    A, Ap = twins
    assume(_ranks_survive_mod_p(A, Ap))
    assert hilbert(Ap, TOP) == hilbert(A, TOP)
    assert koszul_verdict(Ap, TOP) == koszul_verdict(A, TOP)
    assert dual(Ap).R.dim == dual(A).R.dim
