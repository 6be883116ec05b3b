"""Completeness checking: termination certificates and critical-pair joins.

Termination of a finite rewriting system is undecidable in general, so the
checker is tiered: it first looks for a reduction-order certificate (strict
length decrease, or a lexicographic measure that lets a designated set of
"heavy" letters only disappear or drift to the right), and otherwise falls
back to an exhaustive cycle search over all words up to a length bound,
followed, when it finds no cycle, by a scan for a self-embedding rule.
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
    DEFAULT_SEARCH_LEN,
    DEFAULT_STEP_CAP,
    Alphabet,
    Letter,
    NonTerminationError,
    PreconditionError,
    RewritingSystem,
    Rule,
    Word,
    _dfs,
    normal_form,
    substitute,
    words_over,
)

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
        # Partner j -> the lengths k of the suffix-prefix overlaps, and the
        # positions at which lhs j embeds in lhs i (once for an equal lhs).
        overlaps: dict[int, list[int]] = {}
        embeddings: dict[int, list[int]] = {}
        for k in range(1, len_i):
            for j in by_prefix.get(li[len_i - k:], ()):
                overlaps.setdefault(j, []).append(k)
        for pos, j in matcher.redexes(li):
            if j != i and (len(lhs[j]) < len_i or i < j):
                embeddings.setdefault(j, []).append(pos)
        for j in sorted(overlaps.keys() | embeddings.keys()):
            lj = lhs[j]
            for k in overlaps.get(j, ()):
                tail = lj[k:]
                yield li + tail, rhs[i] + tail, li[: len_i - k] + rhs[j], SUFFIX_PREFIX, (i, j)
            for pos in embeddings.get(j, ()):
                yield li, rhs[i], li[:pos] + rhs[j] + li[pos + len(lj):], EMBEDDING, (i, j)


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


class _Deltas(NamedTuple):
    """How far a rule's right-hand side falls below its left-hand side in
    the measure (length, heavy count, heavy right-distance sum): the drop
    in length, and per letter whose count or right-distance sum changes,
    (letter, count drop, right-distance drop).  The heavy parts of the
    measure are sums over the heavy letters, so a heavy set's drops are
    sums of its letters' drops."""

    length: int
    letters: tuple[tuple[Letter, int, int], ...]


def _deltas(lhs: Word, rhs: Word) -> _Deltas:
    count: dict[Letter, int] = {}
    distance: dict[Letter, int] = {}
    for word, sign in ((lhs, 1), (rhs, -1)):
        last = len(word) - 1
        for pos, letter in enumerate(word):
            count[letter] = count.get(letter, 0) + sign
            distance[letter] = distance.get(letter, 0) + sign * (last - pos)
    letters = tuple(
        (letter, count[letter], distance[letter])
        for letter in count
        if count[letter] or distance[letter]
    )
    return _Deltas(len(lhs) - len(rhs), letters)


def _heavy_drops(deltas: _Deltas, heavy: frozenset[Letter]) -> tuple[int, int]:
    """The drops in heavy count and heavy right-distance sum."""
    count = distance = 0
    for letter, count_drop, distance_drop in deltas.letters:
        if letter in heavy:
            count += count_drop
            distance += distance_drop
    return count, distance


def _drops_length_first(deltas: _Deltas, heavy: frozenset[Letter]) -> bool:
    # The measure, lexicographic.  Stable under contexts: length-equal
    # replacements leave every other letter's distance to the right end
    # unchanged.
    if deltas.length:
        return deltas.length > 0
    count, distance = _heavy_drops(deltas, heavy)
    return count > 0 or count == 0 and distance > 0


def _drops_count_first(deltas: _Deltas, heavy: frozenset[Letter]) -> bool:
    # (heavy count, heavy right-distance sum), lexicographic; the tie case
    # additionally needs equal lengths so the context weights cancel.
    count, distance = _heavy_drops(deltas, heavy)
    return count > 0 or count == 0 and deltas.length == 0 and distance > 0


def _measure_candidates(
    letters: Iterable[Letter], seed: frozenset[Letter] = frozenset()
) -> Iterator[frozenset[Letter]]:
    """The heavy-letter sets to try, each once: ``seed`` first, at any
    alphabet size, then the empty set, the singletons, and every larger
    subset while there are at most 14 letters, smallest first."""
    yield seed
    letters = tuple(letters)
    # Exhaustive subset search stays cheap at desk scale.
    largest = len(letters) if len(letters) <= 14 else 1
    for size in range(largest + 1):
        for combo in itertools.combinations(letters, size):
            cand = frozenset(combo)
            if cand != seed:
                yield cand


def _all_drop(
    rules: list[_Deltas],
    drops: Callable[[_Deltas, frozenset[Letter]], bool],
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
    system: RewritingSystem, seed: frozenset[Letter] = frozenset()
) -> str | None:
    """Search for a reduction-order certificate, trying the heavy sets of
    :func:`_measure_candidates` in turn, ``seed`` first; returns the
    description of the first that certifies."""
    if not system.rules:
        return "no rules"
    # A rule that fails one candidate tends to fail the next: it is moved
    # to the front of ``rules``, so the next test of every rule starts there.
    rules = [_deltas(rule.lhs, rule.rhs) for rule in system.rules]
    # A rule that grows fails the length-first test under every heavy set.
    length_first = all(rule.length >= 0 for rule in rules)
    for cand in _measure_candidates(system.alphabet.names(), seed):
        if length_first and _all_drop(rules, _drops_length_first, cand):
            if not cand:
                return "all rules strictly length-reducing"
            return (
                "length-nonincreasing; on length ties the letters "
                f"{{{', '.join(sorted(cand))}}} are eliminated or move right"
            )
        if cand and _all_drop(rules, _drops_count_first, cand):
            return (
                f"letters {{{', '.join(sorted(cand))}}} are eliminated, or keep their count "
                "and move right at constant length"
            )
    return None


def right_drift_letters(images: Mapping[Letter, Word], alphabet: Alphabet) -> frozenset[Letter]:
    """The generators of right-drift kind, the heavy letters that a
    termination certificate tries first: every image of 3 or more letters,
    and every image of length 2 whose first letter is a letter of
    ``alphabet`` that phi fixes (one without an image).  In a
    large-subsemigroup construction these are the generators of kinds C_R,
    C_M1 and C_M2; in a letter introduction, the fresh letter."""
    return frozenset(
        letter
        for letter, image in images.items()
        if len(image) >= 3
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

    Every rule must either keep its image, phi(lhs) == phi(rhs), or move
    it.  The images of the moving rules, a system over the base letters,
    must have a certificate mu of :func:`find_measure_certificate`; the
    rules that keep their image must have a certificate nu of their own,
    found by one search seeded with the :func:`right_drift_letters`.  phi
    is a homomorphism and both measures are monotone under contexts, so
    (mu(phi(w)), nu(w)), compared lexicographically, drops on every rule
    in every context: no reduction cycle exists.

    A certificate only decides whether :func:`check_termination` searches:
    on a system without a reduction cycle the answer it computes is the
    one the bounded search returns, so which certificate is found, and
    whether one is, never changes the reported evidence.
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
    base = Alphabet(dict.fromkeys(letter for image in phi.values() for letter in image))
    if find_measure_certificate(RewritingSystem(base, tuple(moved))) is None:
        return False
    seed = right_drift_letters(images, system.alphabet)
    return find_measure_certificate(system.with_rules(kept), seed) is not None


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
    seed: frozenset[Letter] = frozenset(),
    images: Mapping[Letter, Word] | None = None,
) -> TerminationEvidence:
    """Three-tier termination check.

    1. every rule strictly length-reducing -> certified (tried first
       unless ``seed`` is a nonempty set);
    2. a lexicographic heavy-letter measure strictly decreases ->
       certified; :func:`find_measure_certificate` searches the heavy
       sets, ``seed`` first;
    3. exhaustive cycle search over words of length <= max_len ->
       bounded_verified, or a concrete cycle as counterexample; unknown
       when more than ``step_cap`` states are entered;
    4. when the search finds no cycle, a self-embedding rule l -> x l y,
       which rewrites forever in a chain that only grows, is a
       counterexample (lhs, rhs) all the same.

    With the letters' ``images`` under phi, a certificate pulled back along
    phi (:func:`_pulled_back_certificate`) can show that the system has no
    reduction cycle.  Then tier 3 is answered without searching, with what
    the search would return: it would enter every word of length <=
    max_len once, so it is unknown exactly when there are more than
    max(step_cap, 0) such words, and bounded_verified otherwise.  A cycle
    is only ever reported by the search, and a system that either
    certificate proves terminating has no self-embedding rule.
    """
    certificate = find_measure_certificate(system, seed)
    if certificate is not None:
        return TerminationEvidence(CERTIFIED, certificate=certificate)
    if images and _pulled_back_certificate(system, images):
        if _more_words_than(len(system.alphabet), max_len, step_cap):
            return TerminationEvidence(UNKNOWN, certificate=_cap_message(step_cap))
        return TerminationEvidence(BOUNDED_VERIFIED, depth=max_len)
    evidence = _bounded_cycle_search(system, max_len, step_cap)
    if evidence.status != COUNTEREXAMPLE:
        for i, rule in enumerate(system.rules):
            if any(j == i for _, j in system.matcher.redexes(rule.rhs)):
                return TerminationEvidence(COUNTEREXAMPLE, cycle=(rule.lhs, rule.rhs))
    return evidence


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


def require_complete(system: RewritingSystem, step_cap: int) -> None:
    """Refuse, as a precondition failure, an input system that
    :func:`verify_complete` does not find complete."""
    report = verify_complete(system, step_cap=step_cap)
    if report.verdict != COMPLETE:
        raise PreconditionError(
            f"input system is not verified complete (verdict: {report.verdict})"
        )
