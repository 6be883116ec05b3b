"""Finite complete rewriting systems for semigroups: construction and
verification of presentations for large subsemigroups."""

from .core import (
    Alphabet,
    InputError,
    InternalError,
    NonTerminationError,
    PreconditionError,
    ReductionStep,
    RewriteError,
    RewritingSystem,
    Rule,
    Word,
    descendants,
    disorder,
    is_irreducible,
    normal_form,
    one_step_reductions,
    reduces_to,
    show,
    substitute,
    words_over,
)
from .completeness import (
    CompletenessReport,
    CriticalPair,
    check_local_confluence,
    check_termination,
    critical_pairs,
    verify_complete,
)
from .letter_intro import (
    LetterIntroResult,
    build_letter_intro,
    rho_s,
    self_overlaps,
)
from .pipeline import (
    Presentation,
    canonicalize_complement,
    check_subsemigroup_closed,
    letterize_complement,
    normalize_q2_q3,
    prepare_presentation,
)
from .large_sub import (
    CLetter,
    ConstructionError,
    LargeSubConstruction,
    LetterClassification,
    build_b_alphabet,
    build_construction,
    build_f_sets,
    classify_letters,
    in_AT,
    in_T,
    phi_t,
    rho_t,
)
from .property_r import (
    CandidateTuple,
    IsomorphismReport,
    PropertyRReport,
    check_isomorphism_slice,
    check_p1_to_p6,
    oracle_classes,
)
from .fileformat import ParseError, parse_presentation, serialize_presentation

__all__ = [name for name in dir() if not name.startswith("_")]
