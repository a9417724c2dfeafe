"""Seeded random presentations and morphisms.

Morphism sampling mixes guaranteed families (scalars and relation-preserving
permutations) with rejection sampling by ``is_morphism``, since the morphism
condition is quadratic in the matrix entries; into a full-relations target
or out of a free source every draw is accepted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from .fields import PrimeField
from .linalg import Matrix, Subspace
from .presentations import QuadraticPresentation, is_morphism

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# random matrices drawn per sample_endomorphisms call before it pads the
# sample with repeats
_DRAWS = 4000


def random_scalar(field, rng: Random):
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def random_matrix(field, rows: int, cols: int, rng: Random) -> Matrix:
    return Matrix(field, [[random_scalar(field, rng) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)


def random_presentation(field, n: int, rng: Random) -> QuadraticPresentation:
    k = rng.randrange(n * n + 1)
    vectors = [[random_scalar(field, rng) for _ in range(n * n)]
               for _ in range(k)]
    return QuadraticPresentation(field, _LETTERS[:n],
                                 Subspace.span(field, vectors, n * n))


def sample_endomorphisms(A: QuadraticPresentation, count: int, rng: Random):
    """Return `count` valid endomorphism matrices of A (repeats allowed only
    if the valid family is small)."""
    f = A.field
    n = A.n
    # the distinct samples in the order found; the values are unused
    identity = Matrix.identity(f, n)
    found = {identity: None}
    for _ in range(3):
        c = f.coerce(random_scalar(f, rng))
        found.setdefault(Matrix.from_rows(
            f, [{i: c} if c else {} for i in range(n)], n))
    if n <= 4:
        for perm in itertools.permutations(range(n)):
            M = Matrix.from_rows(f, [{j: f.one} for j in perm], n)
            if M not in found and is_morphism(A, A, M)[0]:
                found[M] = None
    for _ in range(_DRAWS):
        if len(found) >= count:
            break
        M = random_matrix(f, n, n, rng)
        if M not in found and is_morphism(A, A, M)[0]:
            found[M] = None
    found = list(found)
    while len(found) < count:
        # small valid family: repeat a previously found endomorphism
        found.append(found[rng.randrange(len(found))])
    return found[:count]
