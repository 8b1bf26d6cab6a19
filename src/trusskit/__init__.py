"""Exact computations with heaps, trusses, and modules over trusses."""

from .core import (
    FiniteGroup,
    FiniteHeap,
    HeapMorphism,
    IntLineHeap,
    StructureError,
    SubHeap,
    find_isomorphism,
    generated_subheap,
    heap_from_group,
    is_normal,
    product,
    quotient,
    retract,
    small_groups,
    translation_iso,
    validate_heap,
)
from .reports import FAIL, PASS, Finding, Report

__all__ = [
    "FAIL",
    "Finding",
    "FiniteGroup",
    "FiniteHeap",
    "HeapMorphism",
    "IntLineHeap",
    "PASS",
    "Report",
    "StructureError",
    "SubHeap",
    "find_isomorphism",
    "generated_subheap",
    "heap_from_group",
    "is_normal",
    "product",
    "quotient",
    "retract",
    "small_groups",
    "translation_iso",
    "validate_heap",
]
