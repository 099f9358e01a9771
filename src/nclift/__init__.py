"""Exact noncommutative rewriting toolkit: deformed smash products over
finite-quotient groups in characteristic 2 and over the infinite cyclic
group, with rational coefficients, in characteristic 0, with
completion-based basis certificates."""

__version__ = "0.1.0"

from .ncpoly import (
    Alphabet,
    F2,
    NcPoly,
    QQ,
    TensorPoly,
    deglex_compare,
    parse_poly,
    prime_field,
)
from .rewrite import (
    CompletionReport,
    Presentation,
    ReductionSystem,
    RewriteRule,
    complete,
    count_irreducible,
    find_ambiguities,
    rank_f2,
)
from .rackgroup import (
    GroupTable,
    RackData,
    conjugation_action,
    dihedral_rack,
    rack_automorphisms,
    s3_quotient,
    translation_group,
)

__all__ = [
    "Alphabet", "F2", "NcPoly", "QQ", "TensorPoly", "deglex_compare",
    "parse_poly", "prime_field",
    "CompletionReport", "Presentation", "ReductionSystem", "RewriteRule", "complete",
    "count_irreducible", "find_ambiguities", "rank_f2",
    "GroupTable", "RackData", "conjugation_action", "dihedral_rack",
    "rack_automorphisms", "s3_quotient", "translation_group",
    "__version__",
]
