"""Completeness checking: termination certificates and critical-pair joins.

Termination of a finite rewriting system is undecidable in general, so the
checker is tiered: it first looks for a reduction-order certificate (strict
length decrease, or a lexicographic measure that lets a designated set of
"heavy" letters only disappear or drift to the right), and otherwise falls
back to an exhaustive cycle search over all words up to a length bound.
Local confluence is decided exactly, by joining every critical pair; each
distinct result word is normalized once per check, and a step-cap hit is
not cached (it ends the check as inconclusive).
Completeness = termination + local confluence (Newman's lemma); the report
records which evidence tier supported the termination half, so bounded
verdicts are visibly weaker than certified ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    DEFAULT_STEP_CAP,
    Letter,
    NonTerminationError,
    RewritingSystem,
    Rule,
    Word,
    normal_form,
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


@dataclass(frozen=True)
class CriticalPair:
    """The two one-step results of a superposition word where two rule
    applications overlap."""

    source: Word
    left_result: Word
    right_result: Word
    overlap_kind: str
    rule_indices: tuple[int, int]


@dataclass(frozen=True)
class TerminationEvidence:
    status: str
    certificate: str | None = None
    depth: int | None = None
    cycle: tuple[Word, ...] | None = None

    def holds(self) -> bool:
        return self.status in (CERTIFIED, BOUNDED_VERIFIED)


@dataclass(frozen=True)
class ConfluenceEvidence:
    status: str
    joined_count: int = 0
    counterexample: CriticalPair | None = None
    left_nf: Word | None = None
    right_nf: Word | None = None


@dataclass(frozen=True)
class CompletenessReport:
    termination: TerminationEvidence
    local_confluence: ConfluenceEvidence
    verdict: str


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
    (the matcher's table).
    """
    pairs: list[CriticalPair] = []
    rules = system.rules
    matcher = system.matcher
    lhs, table, lengths = matcher.lhs, matcher.table, matcher.lengths
    by_prefix: dict[tuple[str, ...], list[int]] = {}
    for j, nj in enumerate(lhs):
        for k in range(1, len(nj)):
            by_prefix.setdefault(nj[:k], []).append(j)
    for i, ni in enumerate(lhs):
        ri, len_i = rules[i], len(ni)
        li = ri.lhs.letters
        partners: set[int] = set()
        for k in range(1, len_i):
            partners.update(by_prefix.get(ni[len_i - k:], ()))
        for k in lengths:
            if k > len_i:
                break
            for pos in range(len_i - k + 1):
                partners.update(table.get(ni[pos: pos + k], ()))
        for j in sorted(partners):
            nj = lhs[j]
            len_j = len(nj)
            for k in range(1, min(len_i, len_j)):
                if ni[len_i - k:] == nj[:k]:
                    rj = rules[j]
                    tail = rj.lhs.letters[k:]
                    pairs.append(
                        CriticalPair(
                            Word(li + tail),
                            Word(ri.rhs.letters + tail),
                            Word(li[: len_i - k] + rj.rhs.letters),
                            SUFFIX_PREFIX,
                            (i, j),
                        )
                    )
            if i == j or len_j > len_i:
                continue
            if ni == nj:
                if i < j:
                    pairs.append(
                        CriticalPair(ri.lhs, ri.rhs, rules[j].rhs, EMBEDDING, (i, j))
                    )
                continue
            for pos in range(len_i - len_j + 1):
                if ni[pos: pos + len_j] == nj:
                    inner = Word(li[:pos] + rules[j].rhs.letters + li[pos + len_j:])
                    pairs.append(CriticalPair(ri.lhs, ri.rhs, inner, EMBEDDING, (i, j)))
    return pairs


def _heavy_count(word: Word, heavy: frozenset[Letter]) -> int:
    return sum(1 for letter in word if letter in heavy)


def _right_weight(word: Word, heavy: frozenset[Letter]) -> int:
    n = len(word)
    return sum(n - 1 - pos for pos, letter in enumerate(word) if letter in heavy)


def _drops_length_first(rule: Rule, heavy: frozenset[Letter]) -> bool:
    # (length, heavy count, heavy right-distance sum), lexicographic.
    # Stable under contexts: length-equal replacements leave every other
    # letter's distance to the right end unchanged.
    if len(rule.rhs) < len(rule.lhs):
        return True
    if len(rule.rhs) > len(rule.lhs):
        return False
    cl, cr = _heavy_count(rule.lhs, heavy), _heavy_count(rule.rhs, heavy)
    if cr < cl:
        return True
    if cr > cl:
        return False
    return _right_weight(rule.rhs, heavy) < _right_weight(rule.lhs, heavy)


def _drops_count_first(rule: Rule, heavy: frozenset[Letter]) -> bool:
    # (heavy count, heavy right-distance sum), lexicographic; the tie case
    # additionally needs equal lengths so the context weights cancel.
    cl, cr = _heavy_count(rule.lhs, heavy), _heavy_count(rule.rhs, heavy)
    if cr < cl:
        return True
    if cr > cl:
        return False
    if len(rule.lhs) != len(rule.rhs):
        return False
    return _right_weight(rule.rhs, heavy) < _right_weight(rule.lhs, heavy)


def _measure_candidates(system: RewritingSystem) -> list[frozenset[Letter]]:
    letters = system.alphabet.letters()
    candidates: list[frozenset[Letter]] = [frozenset()]
    candidates += [frozenset({letter}) for letter in letters]
    if len(letters) <= 14:
        # Exhaustive subset search stays cheap at desk scale.
        for size in range(2, len(letters) + 1):
            for combo in itertools.combinations(letters, size):
                candidates.append(frozenset(combo))
    return candidates


def find_measure_certificate(
    system: RewritingSystem, heavy: frozenset[Letter] | None = None
) -> str | None:
    """Search for a reduction-order certificate; returns its description."""
    if not system.rules:
        return "no rules"
    candidates = (
        [frozenset(heavy)] if heavy is not None else _measure_candidates(system)
    )
    for cand in candidates:
        names = ", ".join(sorted(letter.name for letter in cand))
        if all(_drops_length_first(rule, cand) for rule in system.rules):
            if not cand:
                return "all rules strictly length-reducing"
            return (
                "length-nonincreasing; on length ties the letters "
                f"{{{names}}} are eliminated or move right"
            )
        if cand and all(_drops_count_first(rule, cand) for rule in system.rules):
            return (
                f"letters {{{names}}} are eliminated, or keep their count "
                "and move right at constant length"
            )
    return None


def _bounded_cycle_search(
    system: RewritingSystem, max_len: int, step_cap: int
) -> TerminationEvidence:
    """Exhaustive cycle search over the reduction graph restricted to words
    of length <= max_len, on tuples of letter names."""
    successors = system.matcher.successors
    color: dict[tuple[str, ...], int] = {}  # 1 = on current path, 2 = done
    explored = 0
    for word in words_over(system.alphabet, max_len):
        start = word.names()
        if color.get(start) == 2:
            continue
        path: list[tuple[str, ...]] = []
        stack: list[tuple[tuple[str, ...], list[tuple[str, ...]] | None]] = [(start, None)]
        while stack:
            node, succ = stack.pop()
            if succ is None:
                if node in color:
                    continue
                color[node] = 1
                path.append(node)
                explored += 1
                if explored > step_cap:
                    return TerminationEvidence(
                        UNKNOWN,
                        certificate=f"bounded search stopped: more than {step_cap} states",
                    )
                succ = [nxt for nxt in successors(node) if len(nxt) <= max_len]
                for nxt in succ:
                    if color.get(nxt) == 1:
                        cycle = path[path.index(nxt):] + [nxt]
                        return TerminationEvidence(
                            COUNTEREXAMPLE,
                            cycle=tuple(system.alphabet.word(names) for names in cycle),
                        )
                stack.append((node, succ))
                for nxt in succ:
                    if nxt not in color:
                        stack.append((nxt, None))
            else:
                color[node] = 2
                path.pop()
    return TerminationEvidence(BOUNDED_VERIFIED, depth=max_len)


def check_termination(
    system: RewritingSystem,
    max_len: int = DEFAULT_SEARCH_LEN,
    step_cap: int = DEFAULT_STEP_CAP,
    heavy: frozenset[Letter] | None = None,
) -> TerminationEvidence:
    """Three-tier termination check.

    1. every rule strictly length-reducing -> certified;
    2. a lexicographic heavy-letter measure (declared via ``heavy``, or
       found by searching letter subsets) strictly decreases -> certified;
    3. exhaustive cycle search over words of length <= max_len ->
       bounded_verified, or a concrete cycle as counterexample.
    """
    certificate = find_measure_certificate(system, heavy)
    if certificate is not None:
        return TerminationEvidence(CERTIFIED, certificate=certificate)
    return _bounded_cycle_search(system, max_len, step_cap)


def check_local_confluence(
    system: RewritingSystem, step_cap: int = DEFAULT_STEP_CAP
) -> ConfluenceEvidence:
    """Join every critical pair via normal forms.

    Each distinct result word is normalized once: the normal forms are
    kept, by name tuple, for the rest of the call.  A step-cap hit is not
    kept; it ends the call on the pair that reached it, reported as
    inconclusive rather than as a counterexample.  Decisive only when
    termination is already established.
    """
    normal: dict[tuple[str, ...], tuple[str, ...]] = {}

    def normal_names(result: Word) -> tuple[str, ...]:
        key = result.names()
        found = normal.get(key)
        if found is None:
            found = normal[key] = normal_form(result, system, step_cap).names()
        return found

    joined = 0
    for pair in critical_pairs(system):
        try:
            left_nf = normal_names(pair.left_result)
            right_nf = normal_names(pair.right_result)
        except NonTerminationError:
            return ConfluenceEvidence(INCONCLUSIVE, joined_count=joined, counterexample=pair)
        if left_nf != right_nf:
            return ConfluenceEvidence(
                COUNTEREXAMPLE,
                joined_count=joined,
                counterexample=pair,
                left_nf=system.alphabet.word(left_nf),
                right_nf=system.alphabet.word(right_nf),
            )
        joined += 1
    return ConfluenceEvidence(ALL_JOINED, joined_count=joined)


def verify_complete(
    system: RewritingSystem,
    max_len: int = DEFAULT_SEARCH_LEN,
    step_cap: int = DEFAULT_STEP_CAP,
    heavy: frozenset[Letter] | None = None,
) -> CompletenessReport:
    """Full report: termination evidence, local confluence, verdict."""
    termination = check_termination(system, max_len, step_cap, heavy)
    confluence = check_local_confluence(system, step_cap)
    if termination.holds() and confluence.status == ALL_JOINED:
        verdict = COMPLETE
    elif termination.status == COUNTEREXAMPLE or confluence.status == COUNTEREXAMPLE:
        verdict = INCOMPLETE
    else:
        verdict = INCONCLUSIVE
    return CompletenessReport(termination, confluence, verdict)
