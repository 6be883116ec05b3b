"""Machine-check the six-property criterion that forces a candidate tuple
(B, R_T, A(T), phi, rho) to present the subsemigroup with R_T complete.

The six properties quantify over infinitely many words; the checks here
are exhaustive up to length bounds, except where a structural certificate
decides the property outright (termination of the image-preserving rule
subset).  Each property reports verified-to-bound, a concrete
counterexample, or inconclusive when a step cap was hit.

P1, P4, P5 and P6 each have a fast proof and a sweep, joined by one rule
(``_proved_or_swept``): the proof's result stands when it verifies the
property.  Otherwise (the proof returns None or another result, or
raises, a step cap hit included) the property is swept, so every
counterexample, inconclusive result and error comes from the sweep.

P4 and P6 are proved a class of B-words at a time
(:meth:`~frs.core.LhsMatcher.walk_classes`): the words of a class share
their normal form and their image, so one test passes them all.  Their
sweeps take the B-words one by one (``_sweep``).

P1 and P5 check the A-words they are given.  Those of a letter
introduction with a borderless named word are proved at every length by
the A-words of length <= L (the lemma at :func:`frs.letter_intro.rho_s`),
when L is below the A-bound and the tuple's rho, phi, representative set
and T-membership are still the letter introduction's own.  The proof
reports the witness count of the sweep to the A-bound, with a note naming
the short words.  Only a sweep lists the representative set.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

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
    substitute,
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

    ``images`` is phi's generator table: each B-letter with an image maps
    to that A-word, and every other letter to itself; :meth:`phi` extends
    it to B-words, so phi is a homomorphism.  ``rho`` sends members of the
    representative set back to B-words, ``in_at`` decides membership in
    the representative set, and ``in_t`` decides whether an A-word's class
    lies in the target subsemigroup.  ``letter_intro`` is the letter
    introduction that built the tuple, if one did; P1 and P5 may then be
    proved from short words (see :func:`_short_words`).  A variant with
    some fields replaced is built with ``tup._replace(field=value)``.
    """

    base: RewritingSystem
    system: RewritingSystem
    images: Mapping[Letter, Word]
    rho: Callable[[Word], Word]
    in_at: Callable[[Word], bool]
    in_t: Callable[[Word], bool]
    letter_intro: LetterIntroResult | None = None

    def phi(self, word: Word) -> Word:
        return substitute(word, self.images)


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


def _sweep(
    name: str,
    bound: int,
    words: Iterator[Item],
    ok: Callable[[Item], bool],
    counterexample: Callable[[Item], tuple[Word, ...]],
) -> PropertyResult:
    """Map ``ok`` over ``words`` (B-words, or B-words paired with their
    images) one chunk of ``SWEEP_CHUNK`` at a time.

    The property is verified with one witness per word swept, or has the
    ``counterexample`` of the first word that fails; the sweep stops after
    the chunk that holds it, so a step cap hit in a later chunk is never
    reached.
    """
    swept = 0
    while chunk := list(islice(words, SWEEP_CHUNK)):
        for word, good in zip(chunk, pmap(ok, chunk)):
            if not good:
                return PropertyResult(name, COUNTEREXAMPLE, bound, 0, counterexample(word))
        swept += len(chunk)
    return PropertyResult(name, VERIFIED, bound, swept)


def _proved_or_swept(
    proof: Callable[[], PropertyResult | None], sweep: Callable[[], PropertyResult]
) -> PropertyResult:
    """The proof's result when it is verified; otherwise, also when the
    proof returns None or raises, the sweep's.  Nothing is lost: every
    counterexample, inconclusive result and error comes from the sweep."""
    try:
        res = proof()
    except Exception:
        res = None
    return res if res is not None and res.status == VERIFIED else sweep()


def _short_words(tup: CandidateTuple, bound_a: int) -> int | None:
    """L when the A-words of length <= L prove P1 and P5 at every length:
    the tuple is a letter introduction's own (equal images, the same rho,
    in_at and in_t), the named word w0 is borderless, and L = maxlen(base)
    + 2(|w0| - 1) is below ``bound_a``.  The proof is at
    :func:`frs.letter_intro.rho_s`.  Every A-word is then a representative,
    so the proof skips no validation of the representative set.  None
    otherwise.
    """
    intro = tup.letter_intro
    if intro is None or not intro.borderless:
        return None
    own = (intro.images, intro.rho, intro.in_at, intro.in_at)
    if (tup.images, tup.rho, tup.in_at, tup.in_t) != own:
        return None
    length = max((len(rule.lhs) for rule in tup.base.rules), default=0) + 2 * (len(intro.w0) - 1)
    return length if length < bound_a else None


def _p5_witnesses(base: RewritingSystem, bound_a: int) -> int:
    """The witnesses of a P5 sweep of a letter introduction that verifies:
    every A-word of length <= bound_a is a representative."""
    size = len(base.alphabet)
    return sum(size**n for n in range(1, bound_a + 1))


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
    (P3, P4, P6); P2 is per-rule and needs no bound.  P1, P4, P5 and P6
    are proved where a proof applies and swept otherwise
    (:func:`_proved_or_swept`); P1 and P5 of a letter introduction may be
    proved at every length by the A-words up to a shorter length, and
    still report bound_a and the witness count of the sweep to it (see the
    module docstring).
    """
    base, system = tup.base, tup.system
    results: list[PropertyResult] = []

    # The representative set, listed on first use by P1 or P5, so that a
    # step cap hit while listing leaves those two inconclusive.  It is
    # checked on words of length <= 6 to sit between the irreducible
    # T-words and all T-words; a supplied predicate violating that is a bad
    # input, not a property failure.
    @cache
    def a_members() -> list[Word]:
        members: list[Word] = []
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
                members.append(word)
        return members

    # rho of each word P1 or P5 checks, computed once for both.
    rho = cache(tup.rho)
    b_letters = system.alphabet.names()
    # The image-preserving rules, in system order (P3, P6).
    preserved = system.with_rules(r for r in system.rules if tup.phi(r.lhs) == tup.phi(r.rhs))

    # P1 and P5 check the words they are given: the representative set when
    # swept, or the short words when those prove every length.  A proof
    # reports the witness count of the sweep to bound_a.
    length = _short_words(tup, bound_a)
    short = None if length is None else list(words_over(base.alphabet, length))

    def every_length(
        check: Callable[[Iterable[Word]], PropertyResult], witnesses: int
    ) -> PropertyResult | None:
        if short is None:
            return None
        note = f"every length: {len(short)} words of length <= {length}"
        return check(short)._replace(witness_count=witnesses, note=note)

    # P1: each reduction out of a representative is mirrored by one step of
    # the candidate system, landing phi-above a descendant.  One search from
    # each base reduct v1 looks for the images of all of the candidate's
    # reducts at once; with no candidate reduct there is nothing to search.
    def p1(words: Iterable[Word]) -> PropertyResult:
        witnesses = 0
        successors = base.matcher.successors
        for u in words:
            rho_u = _require_known(rho(u), system)
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
    # termination of the image-preserving rule subset.  The certificate
    # search tries the right-drift letters of phi's images first, then every
    # other letter set; only when none certifies does the cycle search run.
    def p3() -> PropertyResult:
        seed = completeness.right_drift_letters(tup.images, system.alphabet)
        evidence = completeness.check_termination(preserved, bound_b, step_cap, seed=seed)
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
    def p4_by_class() -> PropertyResult | None:
        passed: set[Word] = set()
        words = 0
        for _, nf, weight, _ in system.matcher.walk_classes(b_letters, bound_b, step_cap):
            if nf not in passed:
                if not tup.in_at(tup.phi(nf)):
                    return None
                passed.add(nf)
            words += weight
        return PropertyResult("P4", VERIFIED, bound_b, words)

    def p4_sweep() -> PropertyResult:
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

        return _sweep("P4", bound_b, words_over(system.alphabet, bound_b), ok, lambda bad: (bad,))

    # P5: rho is a section of phi on the representative set.
    def p5(words: Iterable[Word]) -> PropertyResult:
        count = 0
        for u in words:
            image = tup.phi(rho(u))
            if image != u:
                return PropertyResult("P5", COUNTEREXAMPLE, bound_a, 0, (u, image))
            count += 1
        return PropertyResult("P5", VERIFIED, bound_a, count)

    # P6: every B-word whose image is a representative reduces to the
    # canonical form of that image.  Image-preserving steps keep phi, and
    # phi is a homomorphism, so the words of a class of the image-preserving
    # walk all have the image of the class's normal form nf; when rho of a
    # representative image is nf, each word's walk reaches it within the
    # cap.  Otherwise the sweep decides.
    preserving = preserved.matcher

    def p6_by_class() -> PropertyResult | None:
        words = 0
        for _, nf, weight, _ in preserving.walk_classes(b_letters, bound_b, step_cap):
            if tup.in_at(image := tup.phi(nf)):
                if tup.rho(image) != nf:
                    return None
                words += weight
        return PropertyResult("P6", VERIFIED, bound_b, words)

    def p6_sweep() -> PropertyResult:
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
        return _sweep("P6", bound_b, b_words, ok, lambda bad: (bad[0], tup.rho(bad[1])))

    # The bound each property is swept to, also when a step cap stops it.
    bounds = (bound_a, 0, bound_b, bound_b, bound_a, bound_b)
    checks = (
        lambda: _proved_or_swept(
            lambda: every_length(p1, _p1_witnesses(base, bound_a)), lambda: p1(a_members())
        ),
        p2,
        p3,
        lambda: _proved_or_swept(p4_by_class, p4_sweep),
        lambda: _proved_or_swept(
            lambda: every_length(p5, _p5_witnesses(base, bound_a)), lambda: p5(a_members())
        ),
        lambda: _proved_or_swept(p6_by_class, p6_sweep),
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
