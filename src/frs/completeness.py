"""Completeness checking: termination certificates and critical-pair joins.

Termination of a finite rewriting system is undecidable in general, so the
checker is tiered: it first looks for a reduction-order certificate (strict
length decrease, or a lexicographic measure that lets a designated set of
"heavy" letters only disappear or drift to the right), and otherwise falls
back to an exhaustive cycle search over all words up to a length bound.
When the letters' images under a homomorphism phi are known (a generated
presentation's ``generator:`` lines), a measure pulled back along phi can
prove that no cycle exists; the search's answer is then computed, not
searched for.
Local confluence is decided exactly, by joining every critical pair; the
pairs are joined as they are found, one at a time, while
:func:`critical_pairs` still returns the whole list.  Each distinct result
word is normalized once per check, and a step-cap hit is not cached (it
ends the check as inconclusive).
Completeness = termination + local confluence (Newman's lemma); the report
records which evidence tier supported the termination half, so bounded
verdicts are visibly weaker than certified ones.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    DEFAULT_STEP_CAP,
    Alphabet,
    Letter,
    NonTerminationError,
    RewritingSystem,
    Rule,
    Word,
    _dfs,
    normal_form,
    substitute,
    words_over,
)

DEFAULT_SEARCH_LEN = 6

SUFFIX_PREFIX = "suffix-prefix"
EMBEDDING = "embedding"

CERTIFIED = "certified"
BOUNDED_VERIFIED = "bounded_verified"
COUNTEREXAMPLE = "counterexample"
UNKNOWN = "unknown"
ALL_JOINED = "all_joined"
INCONCLUSIVE = "inconclusive"

COMPLETE = "complete"
INCOMPLETE = "incomplete"


class CriticalPair(NamedTuple):
    """The two one-step results of a superposition word where two rule
    applications overlap."""

    source: Word
    left_result: Word
    right_result: Word
    overlap_kind: str
    rule_indices: tuple[int, int]


class TerminationEvidence(NamedTuple):
    status: str
    certificate: str | None = None
    depth: int | None = None
    cycle: tuple[Word, ...] | None = None

    def holds(self) -> bool:
        return self.status in (CERTIFIED, BOUNDED_VERIFIED)


class ConfluenceEvidence(NamedTuple):
    status: str
    joined_count: int = 0
    counterexample: CriticalPair | None = None
    left_nf: Word | None = None
    right_nf: Word | None = None


class CompletenessReport(NamedTuple):
    termination: TerminationEvidence
    local_confluence: ConfluenceEvidence
    verdict: str


def _overlaps(
    system: RewritingSystem,
) -> Iterator[tuple[Word, Word, Word, str, tuple[int, int]]]:
    """Every critical pair, as it is found, in the order of
    :func:`critical_pairs`: (source, left result, right result, overlap
    kind, rule indices)."""
    matcher = system.matcher
    lhs, rhs = matcher.lhs, matcher.rhs
    by_prefix: dict[Word, list[int]] = {}
    for j, lj in enumerate(lhs):
        for k in range(1, len(lj)):
            by_prefix.setdefault(lj[:k], []).append(j)
    for i, li in enumerate(lhs):
        len_i = len(li)
        partners: set[int] = set()
        for k in range(1, len_i):
            partners.update(by_prefix.get(li[len_i - k:], ()))
        partners.update(j for _, j in matcher.redexes(li))
        for j in sorted(partners):
            lj = lhs[j]
            len_j = len(lj)
            for k in range(1, min(len_i, len_j)):
                if li[len_i - k:] == lj[:k]:
                    tail = lj[k:]
                    yield li + tail, rhs[i] + tail, li[: len_i - k] + rhs[j], SUFFIX_PREFIX, (i, j)
            if i == j or len_j > len_i:
                continue
            if li == lj:
                if i < j:
                    yield li, rhs[i], rhs[j], EMBEDDING, (i, j)
                continue
            for pos in range(len_i - len_j + 1):
                if li[pos: pos + len_j] == lj:
                    yield li, rhs[i], li[:pos] + rhs[j] + li[pos + len_j:], EMBEDDING, (i, j)


def critical_pairs(system: RewritingSystem) -> list[CriticalPair]:
    """Enumerate all superpositions of the system's left-hand sides.

    Two shapes: a proper nonempty suffix of one lhs equal to a proper
    nonempty prefix of another (self-overlaps included), and one lhs
    occurring as a factor of a different rule's lhs.  Each unordered
    overlap appears exactly once; the order is (first rule, second rule,
    offset).

    Only the rules that overlap rule i are visited as its partner j: those
    whose lhs has a proper prefix equal to a proper suffix of lhs i (an
    index of proper prefixes), and those whose lhs is a factor of lhs i
    (the redexes of lhs i, found by the matcher's trie).
    """
    return [CriticalPair(*overlap) for overlap in _overlaps(system)]


def _measure(word: Word, heavy: frozenset[Letter]) -> tuple[int, int, int]:
    """(length, heavy count, heavy right-distance sum) of ``word``."""
    n = len(word)
    distances = [n - 1 - pos for pos, letter in enumerate(word) if letter in heavy]
    return n, len(distances), sum(distances)


def _drops_length_first(rule: Rule, heavy: frozenset[Letter]) -> bool:
    # The measure, lexicographic.  Stable under contexts: length-equal
    # replacements leave every other letter's distance to the right end
    # unchanged.
    return _measure(rule.rhs, heavy) < _measure(rule.lhs, heavy)


def _drops_count_first(rule: Rule, heavy: frozenset[Letter]) -> bool:
    # (heavy count, heavy right-distance sum), lexicographic; the tie case
    # additionally needs equal lengths so the context weights cancel.
    nl, cl, wl = _measure(rule.lhs, heavy)
    nr, cr, wr = _measure(rule.rhs, heavy)
    return cr < cl or (cr == cl and nr == nl and wr < wl)


def _measure_candidates(letters: Iterable[Letter]) -> list[frozenset[Letter]]:
    """The heavy-letter sets to try, smallest first: every subset of up to
    14 letters, only the empty set and the singletons above that."""
    letters = tuple(letters)
    candidates: list[frozenset[Letter]] = [frozenset()]
    candidates += [frozenset({letter}) for letter in letters]
    if len(letters) <= 14:
        # Exhaustive subset search stays cheap at desk scale.
        for size in range(2, len(letters) + 1):
            for combo in itertools.combinations(letters, size):
                candidates.append(frozenset(combo))
    return candidates


def _all_drop(
    rules: list[Rule],
    drops: Callable[[Rule, frozenset[Letter]], bool],
    heavy: frozenset[Letter],
) -> bool:
    """True iff every rule drops under ``heavy``; otherwise the first rule
    that does not is moved to the front of ``rules``."""
    for pos, rule in enumerate(rules):
        if not drops(rule, heavy):
            rules.insert(0, rules.pop(pos))
            return False
    return True


def find_measure_certificate(
    system: RewritingSystem, heavy: frozenset[Letter] | None = None
) -> str | None:
    """Search for a reduction-order certificate; returns its description."""
    if not system.rules:
        return "no rules"
    candidates = (
        [frozenset(heavy)]
        if heavy is not None
        else _measure_candidates(system.alphabet.names())
    )
    # A rule that fails one candidate tends to fail the next: it is moved
    # to the front of ``rules``, so the next test of every rule starts there.
    rules = list(system.rules)
    for cand in candidates:
        names = ", ".join(sorted(cand))
        if _all_drop(rules, _drops_length_first, cand):
            if not cand:
                return "all rules strictly length-reducing"
            return (
                "length-nonincreasing; on length ties the letters "
                f"{{{names}}} are eliminated or move right"
            )
        if cand and _all_drop(rules, _drops_count_first, cand):
            return (
                f"letters {{{names}}} are eliminated, or keep their count "
                "and move right at constant length"
            )
    return None


def right_drift_letters(images: Mapping[Letter, Word], alphabet: Alphabet) -> frozenset[Letter]:
    """The generators of right-drift kind, the heavy letters that a
    termination certificate tries first: every image of length 3, and every
    image of length 2 whose first letter is a letter of ``alphabet`` that
    phi fixes (one without an image).  In a large-subsemigroup construction
    these are the generators of kinds C_R, C_M1 and C_M2."""
    return frozenset(
        letter
        for letter, image in images.items()
        if len(image) == 3
        or (
            len(image) == 2
            and image[0] in alphabet
            and images.get(image[0], image[:1]) == image[:1]
        )
    )


def _pulled_back_certificate(
    system: RewritingSystem, images: Mapping[Letter, Word]
) -> bool:
    """True iff a measure pulled back along phi proves that ``system``
    terminates.  phi maps each letter to its image in ``images``, and a
    letter without one to itself; the base letters are the letters of the
    images so defined.

    Every rule must either keep its image, phi(lhs) == phi(rhs), or drop
    in the length-first measure of its image for one heavy set H of base
    letters, searched as :func:`find_measure_certificate` searches.  The
    rules that keep their image must have a certificate nu of their own,
    tried first with the :func:`right_drift_letters` as heavy letters.  phi
    is a homomorphism and both measures are monotone under contexts, so
    (mu_H(phi(w)), nu(w)), compared lexicographically, drops on every rule
    in every context: no reduction cycle exists.
    """
    phi = {letter: images.get(letter, (letter,)) for letter in system.alphabet}
    moved: list[Rule] = []
    kept: list[Rule] = []
    for rule in system.rules:
        lhs, rhs = substitute(rule.lhs, phi), substitute(rule.rhs, phi)
        if lhs == rhs:
            kept.append(rule)
        else:
            moved.append(Rule(lhs, rhs))
    base = dict.fromkeys(letter for image in phi.values() for letter in image)
    if not any(
        _all_drop(moved, _drops_length_first, heavy) for heavy in _measure_candidates(base)
    ):
        return False
    rest = system.with_rules(kept)
    seed = right_drift_letters(images, system.alphabet)
    return (
        find_measure_certificate(rest, seed) is not None
        or find_measure_certificate(rest) is not None
    )


def _cap_message(step_cap: int) -> str:
    return f"bounded search stopped: more than {step_cap} states"


def _bounded_cycle_search(
    system: RewritingSystem, max_len: int, step_cap: int
) -> TerminationEvidence:
    """Exhaustive cycle search over the words of length <= max_len: one
    depth-first search from each word, sharing the states seen and the cap.

    Every word of length <= max_len is a start word, so on a system without
    a reduction cycle the search enters each of them once, and ends at the
    cap exactly when there are more than ``step_cap`` of them (see
    :func:`check_termination`)."""
    successors = system.matcher.successors

    def bounded(word: Word) -> list[Word]:
        return [nxt for nxt in successors(word) if len(nxt) <= max_len]

    seen: dict[Word, bool] = {}
    cap_message = _cap_message(step_cap)
    try:
        for start in words_over(system.alphabet, max_len):
            for _ in _dfs(start, bounded, seen, step_cap, cap_message):
                pass
    except NonTerminationError as err:
        # A cycle comes as the trace; the cap hit has none.
        if err.trace:
            return TerminationEvidence(COUNTEREXAMPLE, cycle=err.trace)
        return TerminationEvidence(UNKNOWN, certificate=cap_message)
    return TerminationEvidence(BOUNDED_VERIFIED, depth=max_len)


def _more_words_than(letters: int, max_len: int, step_cap: int) -> bool:
    """Whether more than max(step_cap, 0) words have length 1..max_len
    over ``letters`` letters; the count stops once it is past the cap."""
    cap, words = max(step_cap, 0), 0
    for length in range(1, max_len + 1):
        words += letters**length
        if words > cap:
            return True
    return False


def check_termination(
    system: RewritingSystem,
    max_len: int = DEFAULT_SEARCH_LEN,
    step_cap: int = DEFAULT_STEP_CAP,
    heavy: frozenset[Letter] | None = None,
    images: Mapping[Letter, Word] | None = None,
) -> TerminationEvidence:
    """Three-tier termination check.

    1. every rule strictly length-reducing -> certified;
    2. a lexicographic heavy-letter measure (declared via ``heavy``, or
       found by searching letter subsets) strictly decreases -> certified;
    3. exhaustive cycle search over words of length <= max_len ->
       bounded_verified, or a concrete cycle as counterexample; unknown
       when more than ``step_cap`` states are entered.

    With the letters' ``images`` under phi, a certificate pulled back along
    phi (:func:`_pulled_back_certificate`) can show that the system has no
    reduction cycle.  Then tier 3 is answered without searching, with what
    the search would return: it would enter every word of length <=
    max_len once, so it is unknown exactly when there are more than
    max(step_cap, 0) such words, and bounded_verified otherwise.  A cycle
    is only ever reported by the search.
    """
    certificate = find_measure_certificate(system, heavy)
    if certificate is not None:
        return TerminationEvidence(CERTIFIED, certificate=certificate)
    if images and _pulled_back_certificate(system, images):
        if _more_words_than(len(system.alphabet), max_len, step_cap):
            return TerminationEvidence(UNKNOWN, certificate=_cap_message(step_cap))
        return TerminationEvidence(BOUNDED_VERIFIED, depth=max_len)
    return _bounded_cycle_search(system, max_len, step_cap)


def check_local_confluence(
    system: RewritingSystem, step_cap: int = DEFAULT_STEP_CAP
) -> ConfluenceEvidence:
    """Join every critical pair via normal forms, as the pairs are found:
    the list of :func:`critical_pairs` is never built.

    Each distinct result word is normalized once: the normal forms are
    kept, by result word, for the rest of the call.  A step-cap hit is not
    kept; it ends the call on the pair that reached it, reported as
    inconclusive rather than as a counterexample.  Decisive only when
    termination is already established.
    """
    normal: dict[Word, Word] = {}

    def normal_of(result: Word) -> Word:
        found = normal.get(result)
        if found is None:
            found = normal[result] = normal_form(result, system, step_cap)
        return found

    joined = 0
    for overlap in _overlaps(system):
        try:
            left_nf = normal_of(overlap[1])
            right_nf = normal_of(overlap[2])
        except NonTerminationError:
            return ConfluenceEvidence(
                INCONCLUSIVE, joined_count=joined, counterexample=CriticalPair(*overlap)
            )
        if left_nf != right_nf:
            return ConfluenceEvidence(
                COUNTEREXAMPLE,
                joined_count=joined,
                counterexample=CriticalPair(*overlap),
                left_nf=left_nf,
                right_nf=right_nf,
            )
        joined += 1
    return ConfluenceEvidence(ALL_JOINED, joined_count=joined)


def verify_complete(
    system: RewritingSystem,
    max_len: int = DEFAULT_SEARCH_LEN,
    step_cap: int = DEFAULT_STEP_CAP,
    images: Mapping[Letter, Word] | None = None,
) -> CompletenessReport:
    """Full report: termination evidence, local confluence, verdict.
    ``images`` is passed on to :func:`check_termination`."""
    termination = check_termination(system, max_len, step_cap, images=images)
    confluence = check_local_confluence(system, step_cap)
    if termination.holds() and confluence.status == ALL_JOINED:
        verdict = COMPLETE
    elif termination.status == COUNTEREXAMPLE or confluence.status == COUNTEREXAMPLE:
        verdict = INCOMPLETE
    else:
        verdict = INCONCLUSIVE
    return CompletenessReport(termination, confluence, verdict)
