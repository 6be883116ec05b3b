"""Finite complete rewriting systems for semigroups: construction and
verification of presentations for large subsemigroups.

Modules load on first use.  Only ``core`` and ``fileformat``, which holds
the ``Presentation`` record and reads and writes its files, load with the
package, since every command reads a file.  ``completeness``, ``pipeline``,
``large_sub``, ``letter_intro``, ``property_r`` and ``parallel`` are package
attributes and entries of ``sys.modules`` from the start, but each one runs
only when one of its attributes is first looked up, so a command pays only
for the modules it uses.  The public names are the same as with eager
imports: ``from frs import verify_complete`` loads ``completeness`` then.
"""

import importlib.util as _util
import sys as _sys

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
    disorder,
    is_irreducible,
    normal_form,
    one_step_reductions,
    reduces_to,
    show,
    substitute,
    words_over,
)
from .fileformat import ParseError, Presentation, parse_presentation, serialize_presentation

# The names each lazily loaded module serves from the package.
_LAZY_EXPORTS = {
    "completeness": (
        "CompletenessReport",
        "CriticalPair",
        "check_local_confluence",
        "check_termination",
        "critical_pairs",
        "verify_complete",
    ),
    "pipeline": (
        "canonicalize_complement",
        "check_subsemigroup_closed",
        "letterize_complement",
        "normalize_q2_q3",
        "prepare_presentation",
    ),
    "letter_intro": ("LetterIntroResult", "build_letter_intro", "rho_s", "self_overlaps"),
    "large_sub": (
        "ConstructionError",
        "LargeSubConstruction",
        "LetterClassification",
        "build_b_alphabet",
        "build_construction",
        "build_f_sets",
        "classify_letters",
        "in_AT",
        "in_T",
        "phi_t",
        "rho_t",
    ),
    "property_r": (
        "CandidateTuple",
        "IsomorphismReport",
        "PropertyRReport",
        "check_isomorphism_slice",
        "check_p1_to_p6",
    ),
    "parallel": (),
}
_SOURCE = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def _load_on_first_use(module: str) -> object:
    # LazyLoader's first load takes no lock before Python 3.12; nothing in
    # this package starts a thread, so no two threads can race to it.
    spec = _util.find_spec(f"{__name__}.{module}")
    spec.loader = _util.LazyLoader(spec.loader)
    lazy = _util.module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _LAZY_EXPORTS:
    globals()[_module] = _load_on_first_use(_module)

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_SOURCE))


def __getattr__(name: str) -> object:
    # Looked up on every use, not stored here: the name stays the module's
    # current attribute, also when a test or the span recorder replaces it.
    if name in _SOURCE:
        return getattr(globals()[_SOURCE[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # The names that eager imports would bind: the public ones and the
    # module's own dunders, not the private helpers above.
    return sorted(
        name
        for name in [*globals(), *_SOURCE]
        if not name.startswith("_")
        or name.endswith("__") and name not in ("__getattr__", "__dir__")
    )
