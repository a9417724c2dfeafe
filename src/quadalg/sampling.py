"""Seeded random presentations and morphisms.

Morphism sampling mixes guaranteed families (scalars, relation-preserving
permutations, anything into a full-relations target or out of a free source)
with rejection sampling, since the morphism condition is quadratic in the
matrix entries.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from .fields import PrimeField
from .linalg import Matrix, Subspace
from .presentations import QuadraticPresentation, is_morphism

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_scalar(field, rng: Random):
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def random_matrix(field, rows: int, cols: int, rng: Random) -> Matrix:
    return Matrix(field, [[random_scalar(field, rng) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)


def random_presentation(field, n: int, rng: Random,
                        labels=None) -> QuadraticPresentation:
    if labels is None:
        labels = _LETTERS[:n]
    k = rng.randrange(n * n + 1)
    vectors = [[random_scalar(field, rng) for _ in range(n * n)]
               for _ in range(k)]
    return QuadraticPresentation(field, labels,
                                 Subspace.span(field, vectors, n * n))


def _relation_preserving(A: QuadraticPresentation, M: Matrix) -> bool:
    ok, _ = is_morphism(A, A, M)
    return ok


def sample_endomorphisms(A: QuadraticPresentation, count: int, rng: Random,
                         budget: int = 4000):
    """Yield `count` valid endomorphism matrices of A (repeats allowed only
    if the valid family is small)."""
    f = A.field
    n = A.n
    found = []
    seen = set()

    def keep(M):
        found.append(M)
        seen.add(M)

    keep(Matrix.identity(f, n))
    for _ in range(3):
        c = random_scalar(f, rng)
        M = Matrix.identity(f, n).scale(c)
        if M not in seen:
            keep(M)
    if n <= 4:
        for perm in itertools.permutations(range(n)):
            M = Matrix(f, [[f.one if j == perm[i] else f.zero
                            for j in range(n)] for i in range(n)], cols=n)
            if M not in seen and _relation_preserving(A, M):
                keep(M)
    free_or_full = A.R.dim in (0, n * n)
    tries = 0
    while len(found) < count and tries < budget:
        tries += 1
        M = random_matrix(f, n, n, rng)
        if M in seen:
            continue
        if free_or_full or _relation_preserving(A, M):
            keep(M)
    while len(found) < count:
        # small valid family: repeat a previously found endomorphism
        found.append(found[rng.randrange(len(found))])
    return found[:count]
