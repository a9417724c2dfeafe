"""Seeded sampling: the endomorphism sampler against its reference loop."""

import itertools
import random

import pytest

from quadalg.linalg import Matrix
from quadalg.presentations import is_morphism
from quadalg.sampling import random_matrix, random_scalar, sample_endomorphisms

from conftest import CORPUS_NAMES, load


def reference_sample_endomorphisms(A, count, rng, budget=4000):
    """The sampler as a found list, a seen set and an explicit fast path
    for free sources and full-relations targets; the library keeps one
    ordered dict and leaves the fast path to is_morphism."""
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
        M = Matrix(f, [[c if j == i else f.zero for j in range(n)]
                       for i in range(n)], cols=n)
        if M not in seen:
            keep(M)
    if n <= 4:
        for perm in itertools.permutations(range(n)):
            M = Matrix(f, [[f.one if j == perm[i] else f.zero
                            for j in range(n)] for i in range(n)], cols=n)
            if M not in seen and is_morphism(A, A, M)[0]:
                keep(M)
    free_or_full = A.R.dim in (0, n * n)
    tries = 0
    while len(found) < count and tries < budget:
        tries += 1
        M = random_matrix(f, n, n, rng)
        if M in seen:
            continue
        if free_or_full or is_morphism(A, A, M)[0]:
            keep(M)
    while len(found) < count:
        found.append(found[rng.randrange(len(found))])
    return found[:count]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_sampler_matches_the_reference_and_leaves_the_same_stream(name):
    A = load(name)
    for seed in range(5):
        for count in (1, 6, 10, 50):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = sample_endomorphisms(A, count, rng)
            want = reference_sample_endomorphisms(A, count, ref_rng)
            assert got == want, (seed, count)
            assert rng.random() == ref_rng.random(), (seed, count)

