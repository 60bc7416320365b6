"""Combinatorics of cyclically fully commutative elements in the symmetric
group presentation of the rank-n path Coxeter group: word rewriting,
FC/CFC classification, heaps and cylindrical heaps, ring-based conjugacy
with explicit certificates, and a cycle-shape conjecture checker."""

from .classify import (
    CfcVerdict,
    FcVerdict,
    enumerate_cfc,
    enumerate_coxeter,
    enumerate_fc,
    is_cfc,
    is_cyclically_reduced,
    is_fc,
)
from .conjecture import (
    ConjectureReport,
    check_conjecture,
    conjecture_predicate,
    direction_changes,
    has_connected_support,
)
from .heaps import (
    Block,
    Chunk,
    CylindricalHeap,
    Heap,
    build_heap,
    chunks,
    cyclic_shift_heap,
    cylindrical_canonical,
    heap_to_word,
    render,
)
from .perms import (
    conjugate,
    cycle_type,
    cycles,
    inversions,
    same_cycle_type,
    to_permutation,
    word_from_permutation,
)
from .rings import (
    ConjugacyCertificate,
    Ring,
    boomerang_rewrite,
    conjugacy_witness,
    is_conjugate_cfc,
    ring_equivalent,
    rings_of,
    slide_conjugator,
    slide_equivalent,
    stst_rewrite,
    swap_conjugator,
)
from .tables import ClassTable, class_table
from .words import (
    canonical_word,
    commutation_classes,
    cyclic_shift,
    is_reduced,
    m_value,
    reduced_expressions,
    support,
)

__all__ = [name for name in dir() if not name.startswith("_")]
