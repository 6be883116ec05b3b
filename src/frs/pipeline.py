"""Pipeline that reshapes a presentation until the complement of the target
subsemigroup consists of single irreducible letters (Q1) and the rule list
is interreduced (Q2: irreducible right-hand sides; Q3: no left-hand side
reducible by another rule).

Each long complement word is eliminated by one letter-introduction round;
the complement is re-normalized after every round because naming a word
can change the normal forms of the remaining representatives.

The ``Presentation`` record that every stage takes and returns is defined
in ``fileformat``, which reads and writes it, beside ``satisfies_q1``,
which its membership tables need; both are imported from there.
"""

from __future__ import annotations

from . import completeness, letter_intro
from .core import (
    DEFAULT_STEP_CAP,
    InputError,
    InternalError,
    LhsMatcher,
    NonTerminationError,
    PreconditionError,
    RewritingSystem,
    Rule,
    Word,
    irreducible_words,
    is_irreducible,
    normal_form,
    show,
)
from .fileformat import Presentation, satisfies_q1


def canonicalize_complement(
    presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> tuple[Word, ...]:
    """Replace each complement word by its normal form, deduplicate, and
    sort by (length, letter names).  Assumes the system is complete."""
    if not presentation.complement:
        raise InputError(
            "empty complement: the construction needs at least one excluded "
            "class; with nothing excluded, use the original system directly"
        )
    forms = {
        normal_form(word, presentation.system, step_cap)
        for word in presentation.complement
    }
    return tuple(sorted(forms, key=lambda w: (len(w), w)))


def letterize_complement(
    presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> Presentation:
    """Introduce fresh letters until every complement class is represented
    by a single letter, shortest representatives first.

    Terminates in at most one round per complement class; exceeding that
    bound indicates a broken construction and raises InternalError.
    """
    complement = canonicalize_complement(presentation, step_cap)
    system = presentation.system
    bound = len(complement)
    for _ in range(bound + 1):
        long_words = [word for word in complement if len(word) > 1]
        if not long_words:
            return Presentation(system, complement)
        result = letter_intro.build_letter_intro(system, long_words[0], step_cap=step_cap)
        system = result.r_s
        complement = canonicalize_complement(Presentation(system, complement), step_cap)
    raise InternalError(
        f"complement letterization did not converge within {bound} rounds"
    )


def normalize_q2_q3(
    system: RewritingSystem, step_cap: int = DEFAULT_STEP_CAP
) -> RewritingSystem:
    """Interreduce in one pass, in rule order: normalize each right-hand
    side once, drop repeated (lhs, rhs) pairs (the first keeps its tags),
    drop each rule whose left-hand side occurs again later, then each rule
    that another remaining rule reduces (Q3).  This equals deleting the
    first Q3 offender and re-normalizing until nothing changes: a normal
    form stays irreducible in every subsystem, a left-hand side containing
    no other one always keeps a rule as the witness, and of rules sharing
    a left-hand side the earliest offends first.  Preserves the congruence
    and the irreducible words when ``system`` is complete."""
    seen: set[tuple[Word, Word]] = set()
    normalized: list[Rule] = []
    for rule in system.rules:
        rhs = normal_form(rule.rhs, system, step_cap)
        if (rule.lhs, rhs) not in seen:
            seen.add((rule.lhs, rhs))
            normalized.append(Rule(rule.lhs, rhs, rule.tags))
    last = {rule.lhs: i for i, rule in enumerate(normalized)}
    kept = [rule for i, rule in enumerate(normalized) if last[rule.lhs] == i]
    matcher = LhsMatcher(kept)
    return system.with_rules(
        rule for i, rule in enumerate(kept) if not _reducible_by_other(matcher, i)
    )


def _reducible_by_other(matcher: LhsMatcher, idx: int) -> bool:
    """True iff the left-hand side of a rule other than ``idx`` occurs in
    the left-hand side of rule ``idx`` (Q3 fails for it)."""
    return any(j != idx for _, j in matcher.redexes(matcher.lhs[idx]))


def satisfies_q2(system: RewritingSystem) -> bool:
    return all(is_irreducible(rule.rhs, system) for rule in system.rules)


def satisfies_q3(system: RewritingSystem) -> bool:
    return not any(
        _reducible_by_other(system.matcher, i) for i in range(len(system.rules))
    )


def check_subsemigroup_closed(
    presentation: Presentation,
    max_len: int = 6,
    step_cap: int = DEFAULT_STEP_CAP,
) -> list[tuple[Word, Word]]:
    """Bounded closure check: products of T-representatives must stay out
    of the complement.  Returns the violations found up to the bound; an
    empty list means "closed as far as checked", not a proof."""
    complement = set(canonicalize_complement(presentation, step_cap))
    system = presentation.system
    reps = [
        word for word in irreducible_words(system, max_len - 1) if word not in complement
    ]
    # A product word has one split per inner position, so its normal form
    # is computed once and looked up for the other splits.
    forms: dict[Word, Word] = {}
    violations = []
    for u in reps:
        for v in reps:
            if len(u) + len(v) > max_len:
                break  # reps run by length, so every later v is too long as well
            word = u + v
            form = forms.get(word)
            if form is None:
                form = forms[word] = normal_form(word, system, step_cap)
            if form in complement:
                violations.append((u, v))
    return violations


def require_subsemigroup_closed(
    presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> None:
    """Reject, as a precondition failure, a complement that the bounded
    closure check (:func:`check_subsemigroup_closed`) finds a product of
    representatives landing in: with a finite complement, closure cannot
    be decided outright."""
    violations = check_subsemigroup_closed(presentation, step_cap=step_cap)
    if violations:
        u, v = violations[0]
        raise PreconditionError(
            f"the complement does not define a subsemigroup: the product of "
            f"T-representatives '{show(u)}' and '{show(v)}' lands in the complement"
        )


def _verify_stage(
    system: RewritingSystem, stage: str, step_cap: int, source: Presentation | None = None
) -> None:
    """Verify a stage's system complete.  When it is not, a ``source``
    whose complement is not closed is the input's fault and is refused as
    such; otherwise an ``incomplete`` verdict contradicts the stage's
    theorem, and an ``inconclusive`` one is reported as inconclusive."""
    report = completeness.verify_complete(system, step_cap=step_cap)
    if report.verdict == completeness.COMPLETE:
        return
    if source is not None:
        require_subsemigroup_closed(source, step_cap)
    term, conf = report.results
    halves = f"termination {term.status}, confluence {conf.status}"
    if report.verdict == completeness.INCOMPLETE:
        raise InternalError(f"stage '{stage}' broke completeness: {halves}")
    raise NonTerminationError(f"stage '{stage}' is not verified complete: {halves}")


def prepare_presentation(
    presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> Presentation:
    """Canonicalize the complement, letterize it, and interreduce.

    The input system must be verified complete, or a PreconditionError
    says so (:func:`completeness.require_complete`).  A stage that
    changes the system (letterization that introduces a letter,
    interreduction that changes the rules) is verified again; a stage
    that returns its input cannot break completeness and is not.  When
    the letterized system is not verified complete, the canonical
    complement is checked for closure first, so a complement that is no
    subsemigroup's is refused as a precondition failure; an
    ``incomplete`` stage is an internal contradiction, and an
    ``inconclusive`` one raises NonTerminationError.  The result
    satisfies Q1, Q2 and Q3.
    """
    if not presentation.complement:
        raise InputError("the input file must declare a complement")
    completeness.require_complete(presentation.system, step_cap)

    letterized = letterize_complement(presentation, step_cap)
    if letterized.system is not presentation.system:
        _verify_stage(letterized.system, "letterize", step_cap, presentation)

    interreduced = normalize_q2_q3(letterized.system, step_cap)
    if interreduced.rules != letterized.system.rules:
        _verify_stage(interreduced, "interreduce", step_cap)

    final = Presentation(interreduced, letterized.complement)
    if not satisfies_q1(final):
        raise InternalError(
            "interreduction disturbed the complement letters; this "
            "interaction is unsupported and indicates a bug"
        )
    if not satisfies_q2(interreduced) or not satisfies_q3(interreduced):
        raise InternalError("interreduction did not reach its own fixpoint")
    return final
