"""Pipeline that reshapes a presentation until the complement of the target
subsemigroup consists of single irreducible letters (Q1) and the rule list
is interreduced (Q2: irreducible right-hand sides; Q3: no left-hand side
reducible by another rule).

Each long complement word is eliminated by one letter-introduction round;
the complement is re-normalized after every round because naming a word
can change the normal forms of the remaining representatives.
"""

from __future__ import annotations

from functools import cached_property

from . import completeness
from .core import (
    DEFAULT_STEP_CAP,
    InputError,
    InternalError,
    LhsMatcher,
    PreconditionError,
    RewritingSystem,
    Rule,
    Word,
    _read_only,
    irreducible_words,
    is_irreducible,
    normal_form,
    show,
)
from .letter_intro import build_letter_intro


class Presentation:
    """A rewriting system, optionally with a complement declaration (the
    representative words of the finitely many classes outside the target
    subsemigroup) and, if generated, its generators' images under phi as
    source letter names."""

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        system: RewritingSystem,
        complement: tuple[Word, ...] | None = None,
        generators: tuple[tuple[str, tuple[str, ...]], ...] = (),
    ):
        if complement is not None:
            for word in complement:
                for letter in word:
                    if letter not in system.alphabet:
                        raise InputError(
                            f"complement word '{show(word)}' uses letter "
                            f"{letter!r} outside the alphabet"
                        )
        self.__dict__.update(system=system, complement=complement, generators=generators)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = ("system", "complement", "generators")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    def __repr__(self) -> str:
        return (
            f"Presentation(system={self.system!r}, complement={self.complement!r}, "
            f"generators={self.generators!r})"
        )

    @cached_property
    def membership(self) -> "Membership":
        """The complement sets and membership tables, built on first use.

        The cache lives in the instance dict and takes no part in
        ``__eq__``, like :attr:`RewritingSystem.matcher`.
        """
        if self.complement is None:
            raise PreconditionError(
                "the presentation has no complement declaration, so membership "
                "in T and in the representative set is undefined"
            )
        return Membership(self.complement)


class Membership:
    """What membership tests read from one presentation's complement.

    ``complement_words`` is the set of complement words and
    ``complement_letters`` the set of their first letters (the complement
    letters, under Q1).  ``factor_ok`` maps a step cap to the table of
    ``large_sub.in_AT``'s factor test, keyed by tuples of letters; entries
    are only ever added, and only for tests that finished within that cap.
    """

    __slots__ = ("complement_words", "complement_letters", "factor_ok")

    def __init__(self, complement: tuple[Word, ...]):
        self.complement_words = frozenset(complement)
        self.complement_letters = frozenset(word[0] for word in complement if word)
        self.factor_ok: dict[int, dict[Word, bool]] = {}


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
        result = build_letter_intro(system, long_words[0], step_cap=step_cap)
        system = result.r_s
        renamed = tuple(normal_form(word, system, step_cap) for word in complement)
        complement = canonicalize_complement(
            Presentation(system, renamed), step_cap
        )
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


def satisfies_q1(presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP) -> bool:
    """Every complement class is a single irreducible alphabet letter."""
    if not presentation.complement:
        return False
    return all(
        len(word) == 1 and is_irreducible(word, presentation.system)
        for word in presentation.complement
    )


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
    violations = []
    for u in reps:
        for v in reps:
            if len(u) + len(v) > max_len:
                continue
            if normal_form(u + v, system, step_cap) in complement:
                violations.append((u, v))
    return violations


def _verify_stage(system: RewritingSystem, stage: str, step_cap: int) -> None:
    report = completeness.verify_complete(system, step_cap=step_cap)
    if report.verdict != completeness.COMPLETE:
        raise InternalError(
            f"stage '{stage}' broke completeness: termination "
            f"{report.termination.status}, confluence {report.local_confluence.status}"
        )


def prepare_presentation(
    presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> Presentation:
    """Canonicalize the complement, letterize it, and interreduce.

    The input system must already be complete; completeness is re-verified
    after each stage, and a failure is an internal contradiction rather
    than a user error.  The result satisfies Q1, Q2 and Q3.
    """
    if not presentation.complement:
        raise InputError("a complement declaration is required")
    report = completeness.verify_complete(presentation.system, step_cap=step_cap)
    if report.verdict != completeness.COMPLETE:
        raise PreconditionError(
            f"input system is not verified complete (verdict: {report.verdict})"
        )

    canonical = Presentation(
        presentation.system, canonicalize_complement(presentation, step_cap)
    )
    letterized = letterize_complement(canonical, step_cap)
    _verify_stage(letterized.system, "letterize", step_cap)

    interreduced = normalize_q2_q3(letterized.system, step_cap)
    _verify_stage(interreduced, "interreduce", step_cap)

    final = Presentation(interreduced, letterized.complement)
    if not satisfies_q1(final, step_cap):
        raise InternalError(
            "interreduction disturbed the complement letters; this "
            "interaction is unsupported and indicates a bug"
        )
    if not satisfies_q2(interreduced) or not satisfies_q3(interreduced):
        raise InternalError("interreduction did not reach its own fixpoint")
    return final
