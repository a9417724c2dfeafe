"""Exact computer algebra for finitely presented quadratic algebras.

Quadratic presentations over Q or GF(p), Manin's black and white tensor
products, quadratic duality and internal Hom, graded dimensions, Koszul
and bar complexes with per-degree exactness verdicts, and a mechanical
verifier for the categorical laws these constructions satisfy.
"""

from .fields import QQ, FieldMismatchError, PrimeField, Rationals
from .linalg import Matrix, Subspace
from .presentations import (AlgebraMorphism, QuadraticPresentation, black,
                            dual, free_presentation,
                            full_relations_presentation, internal_hom,
                            is_morphism, unit_black, unit_white, white)

__all__ = [
    "QQ", "FieldMismatchError", "PrimeField", "Rationals",
    "Matrix", "Subspace",
    "AlgebraMorphism", "QuadraticPresentation", "black", "dual",
    "free_presentation", "full_relations_presentation", "internal_hom",
    "is_morphism", "unit_black", "unit_white", "white",
    "clear_caches",
]


def clear_caches():
    """Empty every cache the library keeps between calls.

    Those are the graded structures (``graded._structures``) and Koszul
    reports (``koszul._reports``), both keyed by relation space, and the
    lru caches of `dual`, `black` and `white`, keyed by presentation.
    """
    # imported here, so that `import quadalg` loads neither module
    from . import graded, koszul
    graded._structures.clear()
    koszul._reports.clear()
    for cache in (dual, black, white):
        cache.cache_clear()
