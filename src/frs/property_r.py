"""Machine-check the six-property criterion that forces a candidate tuple
(B, R_T, A(T), phi, rho) to present the subsemigroup with R_T complete.

The six properties quantify over infinitely many words; the checks here
are exhaustive up to length bounds, except where a structural certificate
decides the property outright (termination of the image-preserving rule
subset).  Each property reports verified-to-bound, a concrete
counterexample, or inconclusive when a step cap was hit.

P4 and P6 take the B-words a class at a time
(:meth:`~frs.core.LhsMatcher.walk_classes`): the words of a class share
their normal form and their image, so one test passes them all.  When a
class fails, a walk passes the step cap or a function of the tuple raises,
the property sweeps its B-words one by one instead (``_sweep``), so every
counterexample, inconclusive result and error comes from the sweep.

P1 and P5 of a letter introduction with a borderless named word are
proved at every length by the A-words of length <= L (the lemma at
:func:`frs.letter_intro.rho_s`), when L is below the A-bound and the
tuple's rho, phi and representative set are still the letter
introduction's own.  The property then reports the witness count of the
sweep to the A-bound, with a note naming the short words.  When a short
word fails or passes the step cap, the property sweeps every A-word, so
again every counterexample and inconclusive result comes from the sweep.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, TypeVar

from . import completeness
from .core import (
    DEFAULT_STEP_CAP,
    Letter,
    LhsMatcher,
    NonTerminationError,
    PreconditionError,
    RewritingSystem,
    Word,
    irreducible_words,
    is_irreducible,
    normal_form,
    reduces_to,
    _reach,
    _require_known,
    show,
    words_over,
)
from .parallel import pmap

if TYPE_CHECKING:
    from .letter_intro import LetterIntroResult

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive"

PROPERTY_NAMES = ("P1", "P2", "P3", "P4", "P5", "P6")

# B-words drawn per ``pmap`` call in the P4 and P6 sweeps.
SWEEP_CHUNK = 4096

Item = TypeVar("Item")


class CandidateTuple(NamedTuple):
    """A candidate 5-tuple relative to a base system.

    ``phi`` maps B-words to A-words homomorphically, ``rho`` sends members
    of the representative set back to B-words, ``in_at`` decides membership
    in the representative set, and ``in_t`` decides whether an A-word's
    class lies in the target subsemigroup.  ``heavy`` optionally names the
    letters whose rightward drift certifies termination of the
    image-preserving rules.  ``letter_intro`` is the letter introduction
    that built the tuple, if one did; P1 and P5 may then be proved from
    short words (see :func:`_short_words`).  A variant with some fields
    replaced is built with ``tup._replace(field=value)``.
    """

    base: RewritingSystem
    system: RewritingSystem
    phi: Callable[[Word], Word]
    rho: Callable[[Word], Word]
    in_at: Callable[[Word], bool]
    in_t: Callable[[Word], bool]
    heavy: frozenset[Letter] = frozenset()
    letter_intro: LetterIntroResult | None = None


class PropertyResult(NamedTuple):
    name: str
    status: str
    bound: int
    witness_count: int = 0
    counterexample: tuple[Word, ...] | None = None
    note: str = ""


class PropertyRReport(NamedTuple):
    results: tuple[PropertyResult, ...]
    overall: bool

    def result(self, name: str) -> PropertyResult:
        for res in self.results:
            if res.name == name:
                return res
        raise KeyError(name)


class IsomorphismReport(NamedTuple):
    slice_bound: int
    forward_injective: bool
    slice_surjective: bool
    mismatches: tuple[tuple, ...] = ()
    t_class_count: int = 0
    image_count: int = 0


def _sweep(words: Iterator[Item], ok: Callable[[Item], bool]) -> tuple[int, Item | None]:
    """Map ``ok`` over ``words`` (B-words, or B-words paired with their
    images) one chunk of ``SWEEP_CHUNK`` at a time.

    Returns how many words were swept and the first word that fails, if
    any; the sweep stops after the chunk that holds it, so a step cap hit
    in a later chunk is never reached.
    """
    swept = 0
    while chunk := list(islice(words, SWEEP_CHUNK)):
        for word, good in zip(chunk, pmap(ok, chunk)):
            if not good:
                return swept, word
        swept += len(chunk)
    return swept, None


def _unless_raised(count: Callable[[], Item | None]) -> Item | None:
    """``count()``, or None when it raises.  Nothing is lost: the property
    then sweeps word by word, meets the same failure and reports it as the
    sweep does."""
    try:
        return count()
    except Exception:
        return None


def _short_words(tup: CandidateTuple, bound_a: int) -> tuple[int, int] | None:
    """(count, L) when the A-words of length <= L, ``count`` of them, prove
    P1 and P5 at every length: the tuple is a letter introduction's own
    (its rho, phi and in_at are unchanged), the named word w0 is
    borderless, and L = maxlen(base) + 2(|w0| - 1) is below ``bound_a``.
    The proof is at :func:`frs.letter_intro.rho_s`.  None otherwise.
    """
    intro = tup.letter_intro
    if intro is None or (tup.rho, tup.phi, tup.in_at) != (intro.rho, intro.phi, intro.in_at):
        return None
    if not intro.borderless:
        return None
    base = tup.base
    length = max((len(rule.lhs) for rule in base.rules), default=0) + 2 * (len(intro.w0) - 1)
    if length >= bound_a:
        return None
    size = len(base.alphabet)
    return sum(size**n for n in range(1, length + 1)), length


def _p1_witnesses(base: RewritingSystem, bound_a: int) -> int:
    """The witnesses of a P1 sweep over every A-word of length <= bound_a
    that verifies: one per base redex, that is per word, rule and position
    of the rule's left-hand side."""
    size = len(base.alphabet)
    return sum(
        (n - len(rule.lhs) + 1) * size ** (n - len(rule.lhs))
        for rule in base.rules
        for n in range(len(rule.lhs), bound_a + 1)
    )


def _straightening_path(
    word: Word, target: Word, preserving: LhsMatcher, step_cap: int
) -> bool:
    """Greedy search: whether ``target`` is ``word`` or a word reached
    within ``step_cap`` steps of the leftmost walk of ``preserving`` (the
    matcher of the image-preserving rules, in their order in the system).

    Sound but incomplete; callers fall back to a full reachability search.
    """
    return target in islice(preserving.walk(word), max(step_cap, 0) + 1)


def check_p1_to_p6(
    tup: CandidateTuple,
    bound_a: int = 8,
    bound_b: int = 5,
    step_cap: int = DEFAULT_STEP_CAP,
) -> PropertyRReport:
    """Verify the six properties at the given bounds.

    bound_a limits the A-side properties (P1, P5), bound_b the B-side ones
    (P3, P4, P6); P2 is per-rule and needs no bound.  P1 and P5 of a
    letter introduction may be proved at every length by the A-words up to
    a shorter length (see the module docstring); they still report
    bound_a and the witness count of the sweep to it.
    """
    base, system = tup.base, tup.system
    results: list[PropertyResult] = []

    # The representative set, checked on words of length <= 6 to sit
    # between the irreducible T-words and all T-words; a supplied predicate
    # violating that is a bad input, not a property failure.
    a_members: list[Word] = []
    for word in words_over(base.alphabet, bound_a):
        member = tup.in_at(word)
        if len(word) <= 6:
            if member and not tup.in_t(word):
                raise PreconditionError(
                    f"representative set contains '{show(word)}' whose class is outside T"
                )
            if not member and tup.in_t(word) and is_irreducible(word, base):
                raise PreconditionError(
                    f"representative set misses the irreducible T-word '{show(word)}'"
                )
        if member:
            a_members.append(word)
    # rho of a_members[:len(rhos)], filled in order by P1 and then by P5.
    rhos: list[Word] = []

    def rho_of(i: int) -> Word:
        if i == len(rhos):
            rhos.append(tup.rho(a_members[i]))
        return rhos[i]

    b_letters = system.alphabet.names()
    # The image-preserving rules, in system order (P3, P6).
    preserved = system.with_rules(r for r in system.rules if tup.phi(r.lhs) == tup.phi(r.rhs))

    # P1 and P5 check the first ``count`` representatives.  They check the
    # short words first when those prove every length, and report the
    # witness count of the sweep; a failure, step-cap hit or error on a
    # short word sweeps them all.
    short = _short_words(tup, bound_a)

    def every_length(
        check: Callable[[int], PropertyResult], witnesses: Callable[[], int]
    ) -> Callable[[], PropertyResult]:
        def run() -> PropertyResult:
            if short is not None:
                count, length = short
                res = _unless_raised(lambda: check(count))
                if res is not None and res.status == VERIFIED:
                    note = f"every length: {count} words of length <= {length}"
                    return res._replace(witness_count=witnesses(), note=note)
            return check(len(a_members))

        return run

    # P1: each reduction out of a representative is mirrored by one step of
    # the candidate system, landing phi-above a descendant.  One search from
    # each base reduct v1 looks for the images of all of the candidate's
    # reducts at once; with no candidate reduct there is nothing to search.
    def p1(count: int) -> PropertyResult:
        witnesses = 0
        successors = base.matcher.successors
        for i, u in enumerate(a_members[:count]):
            rho_u = _require_known(rho_of(i), system)
            # u was drawn over the base alphabet, so its reducts need no check.
            base_reducts = successors(u)
            if not base_reducts:
                continue
            targets = {tup.phi(u_prime) for u_prime in system.matcher.successors(rho_u)}
            for v1 in base_reducts:
                witnesses += 1
                if v1 in targets:
                    continue
                cap = f"P1 search from '{show(v1)}' exceeded {step_cap} states"
                if targets and _reach(v1, base, targets.__contains__, step_cap, cap):
                    continue
                return PropertyResult("P1", COUNTEREXAMPLE, bound_a, witnesses, (u, v1))
        return PropertyResult("P1", VERIFIED, bound_a, witnesses)

    # P2: every rule's image reduces in the base system (context closure
    # follows because phi is a homomorphism).
    def p2() -> PropertyResult:
        for rule in system.rules:
            if not reduces_to(tup.phi(rule.lhs), tup.phi(rule.rhs), base, step_cap):
                return PropertyResult(
                    "P2", COUNTEREXAMPLE, 0, 0, (rule.lhs, rule.rhs)
                )
        return PropertyResult("P2", VERIFIED, 0, len(system.rules))

    # P3: no infinite chain of image-preserving steps; checked as
    # termination of the image-preserving rule subset.  When the declared
    # heavy letters certify nothing, only the certificate search is retried
    # over every letter set: the cycle search would repeat itself.
    def p3() -> PropertyResult:
        evidence = completeness.check_termination(
            preserved, max_len=bound_b, step_cap=step_cap, heavy=tup.heavy or None
        )
        if not evidence.holds() and tup.heavy:
            certificate = completeness.find_measure_certificate(preserved)
            if certificate is not None:
                evidence = completeness.TerminationEvidence(
                    completeness.CERTIFIED, certificate=certificate
                )
        if evidence.status == completeness.COUNTEREXAMPLE:
            return PropertyResult(
                "P3", COUNTEREXAMPLE, bound_b, 0, evidence.cycle
            )
        if evidence.holds():
            return PropertyResult(
                "P3",
                VERIFIED,
                bound_b,
                len(preserved.rules),
                note=evidence.certificate or f"no cycles up to length {evidence.depth}",
            )
        return PropertyResult("P3", INCONCLUSIVE, bound_b, 0, note=evidence.certificate or "")

    # P4: every B-word reaches one whose image is a representative.  The
    # words of a class share their normal form, so one test of each
    # distinct normal form passes them all; otherwise the sweep decides.
    def p4() -> PropertyResult:
        def by_class() -> int | None:
            passed: set[Word] = set()
            words = 0
            for _, nf, weight, _ in system.matcher.walk_classes(b_letters, bound_b, step_cap):
                if nf not in passed:
                    if not tup.in_at(tup.phi(nf)):
                        return None
                    passed.add(nf)
                words += weight
            return words

        if (words := _unless_raised(by_class)) is not None:
            return PropertyResult("P4", VERIFIED, bound_b, words)

        def ok(u_prime: Word) -> bool:
            if tup.in_at(tup.phi(normal_form(u_prime, system, step_cap))):
                return True
            # normal_form has validated u_prime.
            return _reach(
                u_prime,
                system,
                lambda word: tup.in_at(tup.phi(word)),
                step_cap,
                f"P4 search from '{show(u_prime)}' exceeded {step_cap} states",
            )

        swept, bad = _sweep(words_over(system.alphabet, bound_b), ok)
        if bad is not None:
            return PropertyResult("P4", COUNTEREXAMPLE, bound_b, 0, (bad,))
        return PropertyResult("P4", VERIFIED, bound_b, swept)

    # P5: rho is a section of phi on the representative set.
    def p5(count: int) -> PropertyResult:
        for i, u in enumerate(a_members[:count]):
            image = tup.phi(rho_of(i))
            if image != u:
                return PropertyResult("P5", COUNTEREXAMPLE, bound_a, 0, (u, image))
        return PropertyResult("P5", VERIFIED, bound_a, len(a_members))

    # P6: every B-word whose image is a representative reduces to the
    # canonical form of that image.  Image-preserving steps keep phi, and
    # phi is a homomorphism, so the words of a class of the image-preserving
    # walk all have the image of the class's normal form nf; when rho of a
    # representative image is nf, each word's walk reaches it within the
    # cap.  Otherwise the sweep decides.
    def p6() -> PropertyResult:
        preserving = preserved.matcher

        def by_class() -> int | None:
            words = 0
            for _, nf, weight, _ in preserving.walk_classes(b_letters, bound_b, step_cap):
                if tup.in_at(image := tup.phi(nf)):
                    if tup.rho(image) != nf:
                        return None
                    words += weight
            return words

        if (words := _unless_raised(by_class)) is not None:
            return PropertyResult("P6", VERIFIED, bound_b, words)

        def ok(word_and_image: tuple[Word, Word]) -> bool:
            u_prime, image = word_and_image
            target = tup.rho(image)
            if _straightening_path(u_prime, target, preserving, step_cap):
                return True
            return reduces_to(u_prime, target, system, step_cap)

        # Each B-word with the image that the filter computed, for ``ok``.
        b_words = (
            (u_prime, image)
            for u_prime in words_over(system.alphabet, bound_b)
            if tup.in_at(image := tup.phi(u_prime))
        )
        swept, bad = _sweep(b_words, ok)
        if bad is not None:
            bad_word, bad_image = bad
            return PropertyResult(
                "P6", COUNTEREXAMPLE, bound_b, 0, (bad_word, tup.rho(bad_image))
            )
        return PropertyResult("P6", VERIFIED, bound_b, swept)

    # The bound each property is swept to, also when a step cap stops it.
    bounds = (bound_a, 0, bound_b, bound_b, bound_a, bound_b)
    checks = (
        every_length(p1, lambda: _p1_witnesses(base, bound_a)),
        p2,
        p3,
        p4,
        every_length(p5, lambda: len(a_members)),
        p6,
    )
    for name, bound, check in zip(PROPERTY_NAMES, bounds, checks):
        try:
            results.append(check())
        except NonTerminationError as exc:
            results.append(
                PropertyResult(name, INCONCLUSIVE, bound, 0, note=str(exc))
            )
    overall = all(res.status == VERIFIED for res in results)
    return PropertyRReport(tuple(results), overall)


def check_isomorphism_slice(
    tup: CandidateTuple, bound: int = 6, step_cap: int = DEFAULT_STEP_CAP
) -> IsomorphismReport:
    """Compare the candidate presentation against the base system on the
    slice of classes represented by words of length <= bound.

    The base-side normal form is the oracle: each irreducible T-word must
    round-trip through rho and back injectively, and each irreducible
    candidate word must be recovered from its own image.
    """
    base, system = tup.base, tup.system
    mismatches: list[tuple] = []

    slice_words = [w for w in irreducible_words(base, bound) if tup.in_t(w)]
    images: dict[Word, Word] = {}
    for w in slice_words:
        u_prime = normal_form(tup.rho(w), system, step_cap)
        back = normal_form(tup.phi(u_prime), base, step_cap)
        if back != w:
            mismatches.append(("slice-roundtrip", w, u_prime, back))
            continue
        if u_prime in images:
            mismatches.append(("slice-collision", images[u_prime], w, u_prime))
        else:
            images[u_prime] = w
    slice_surjective = not any(m[0].startswith("slice") for m in mismatches)

    forward_injective = True
    for u_prime in irreducible_words(system, bound):
        w = normal_form(tup.phi(u_prime), base, step_cap)
        try:
            recovered = normal_form(tup.rho(w), system, step_cap)
        except PreconditionError:
            mismatches.append(("forward-error", u_prime, w))
            forward_injective = False
            continue
        if recovered != u_prime:
            mismatches.append(("forward", u_prime, w, recovered))
            forward_injective = False

    return IsomorphismReport(
        slice_bound=bound,
        forward_injective=forward_injective,
        slice_surjective=slice_surjective,
        mismatches=tuple(mismatches),
        t_class_count=len(slice_words),
        image_count=len(images),
    )
