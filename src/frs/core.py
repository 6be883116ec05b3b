"""Words, rules and reduction for string rewriting (semi-Thue) systems.

Everything in this module is a pure value, and all reduction functions
are deterministic functions of their inputs.  A letter is its name, a
plain ``str``, and a word is the plain ``tuple`` of its letters; the
empty word ``()`` occurs as a context factor but is rejected as a rule
side and as a reduction input.  :func:`show` is the one place that knows
how a word is written: its letter names separated by single spaces.

Reduction contract: a reduction step rewrites the leftmost position at
which some left-hand side occurs, and among the rules whose left-hand side
occurs there, the one with the lowest index (``rightmost=True`` flips the
position order only).  ``one_step_reductions`` lists every step ordered by
(position, rule index).  Every redex and factor search walks one trie of
left-hand sides, the system's :class:`LhsMatcher`, which is built once per
system on first use.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

LETTER_NAME = re.compile(r"[A-Za-z0-9_']+\Z")

DEFAULT_STEP_CAP = 10_000


class RewriteError(Exception):
    """Base class for every error raised by this package."""


class InputError(RewriteError):
    """Malformed input: unknown letters, empty words where forbidden, bad names."""


class PreconditionError(RewriteError):
    """A documented precondition of an operation does not hold."""


class InternalError(RewriteError):
    """A pipeline stage reached a state that its own guarantees rule out."""


class NonTerminationError(RewriteError):
    """A step cap was exceeded; the system may be non-terminating.

    ``trace`` is the tuple of words that led to the error, or a function
    that builds it; the function runs on the first read of :attr:`trace`,
    so a caller that discards the error does not pay for the trace.
    """

    def __init__(
        self,
        message: str,
        trace: tuple[Word, ...] | Callable[[], tuple[Word, ...]] = (),
    ):
        super().__init__(message)
        self._trace = trace

    @property
    def trace(self) -> tuple[Word, ...]:
        if callable(self._trace):
            self._trace = self._trace()
        return self._trace


# A letter is its name and a word the tuple of its letters; the aliases
# mark where a name stands for a letter and a tuple for a word.
Letter = str
Word = tuple[Letter, ...]


def show(word: Word) -> str:
    """The written form of a word: its letters separated by spaces."""
    return " ".join(word)


class Alphabet:
    """Ordered, effectively immutable set of letters with unique names.

    The order is insertion order: an alphabet built by :meth:`extended`
    keeps the parent's letters first and appends new ones.  Each name is
    stored once, and :meth:`get` and iteration hand out that stored ``str``.
    """

    def __init__(self, names: Iterable[str] = ()):
        self._by_name: dict[str, Letter] = {}
        for name in names:
            self._intern(name)

    def _intern(self, name: str) -> None:
        if not LETTER_NAME.match(name):
            raise InputError(f"invalid letter name {name!r}")
        if name in self._by_name:
            raise InputError(f"duplicate letter {name!r}")
        self._by_name[name] = name

    def extended(self, names: Iterable[str]) -> "Alphabet":
        new = Alphabet()
        new._by_name = dict(self._by_name)
        for name in names:
            new._intern(name)
        return new

    def fresh_name(self, base: str = "s") -> str:
        if base not in self._by_name:
            return base
        for i in itertools.count():
            candidate = f"{base}{i}"
            if candidate not in self._by_name:
                return candidate
        raise AssertionError("unreachable")

    def get(self, name: str) -> Letter:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"unknown letter {name!r}") from None

    def __contains__(self, item: str) -> bool:
        return item in self._by_name

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> tuple[Letter, ...]:
        return tuple(self._by_name)

    def word(self, source: str | Iterable[str]) -> Word:
        """Build a word from whitespace-separated letter names (or any
        iterable of names)."""
        names = source.split() if isinstance(source, str) else source
        return tuple(self.get(name) for name in names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._by_name)})"


def substitute(word: Word, images: Mapping[str, Word]) -> Word:
    """The homomorphism phi of a generated presentation: each letter that
    is a key of ``images`` becomes its image word, every other letter
    stays."""
    letters: list[Letter] = []
    for letter in word:
        image = images.get(letter)
        if image is None:
            letters.append(letter)
        else:
            letters.extend(image)
    return tuple(letters)


def _read_only(self, name: str, *value: object) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable plain classes."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Rule:
    """A directed rule lhs -> rhs with both sides nonempty.

    Tags carry provenance labels (C1..C6, D1, D2) and are excluded from
    equality, so deduplication works on (lhs, rhs) alone.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, lhs: Word, rhs: Word, tags: tuple[str, ...] = ()):
        if not lhs or not rhs:
            raise InputError("rule sides must be nonempty words")
        self.__dict__.update(lhs=lhs, rhs=rhs, tags=tags)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lhs, self.rhs) == (other.lhs, other.rhs)

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def tagged(self, *tags: str) -> "Rule":
        merged = self.tags + tuple(t for t in tags if t not in self.tags)
        return Rule(self.lhs, self.rhs, merged)

    def __repr__(self) -> str:
        return f"Rule({show(self.lhs)!r} -> {show(self.rhs)!r})"


class RuleEmitter:
    """Collects emitted rules in first-emission order: a repeated
    (lhs, rhs) keeps its first position and gains the new tag through
    :meth:`Rule.tagged`."""

    def __init__(self) -> None:
        self._rules: dict[tuple[Word, Word], Rule] = {}

    def emit(self, lhs: Word, rhs: Word, tag: str) -> None:
        rule = self._rules.get((lhs, rhs))
        self._rules[lhs, rhs] = Rule(lhs, rhs, (tag,)) if rule is None else rule.tagged(tag)

    def rules(self) -> tuple[Rule, ...]:
        return tuple(self._rules.values())


class ReductionStep(NamedTuple):
    """One rule application: which rule, at which 0-based start position."""

    rule_index: int
    position: int


class RewritingSystem:
    """An alphabet plus an ordered, finite list of rules over it."""

    __setattr__ = __delattr__ = _read_only

    def __init__(self, alphabet: Alphabet, rules: tuple[Rule, ...] = ()):
        for rule in rules:
            for side in (rule.lhs, rule.rhs):
                for letter in side:
                    if letter not in alphabet:
                        raise InputError(
                            f"rule {rule!r} uses letter {letter!r} outside the alphabet"
                        )
        self.__dict__.update(alphabet=alphabet, rules=rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RewritingSystem):
            return NotImplemented
        return (
            set(self.alphabet.names()) == set(other.alphabet.names())
            and self.rules == other.rules
        )

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def matcher(self) -> "LhsMatcher":
        """The left-hand-side matcher of ``rules``, built on first use.

        Caching is safe because ``rules`` is an immutable tuple that cannot
        be reassigned; the cache lives in the instance dict and takes no
        part in ``__eq__``.
        """
        return LhsMatcher(self.rules)

    def with_rules(self, rules: Iterable[Rule]) -> "RewritingSystem":
        return RewritingSystem(self.alphabet, tuple(rules))

    def __repr__(self) -> str:
        rules = ", ".join(f"{show(r.lhs)}->{show(r.rhs)}" for r in self.rules)
        return f"RewritingSystem([{', '.join(self.alphabet.names())}]; {rules})"


class LhsMatcher:
    """The left-hand sides of a rule list, in a trie: the one index that
    every left-hand-side query goes through.

    ``lhs`` and ``rhs`` hold each rule's sides by rule index; ``maxlen``
    is the longest left-hand side (0 with no rules).  In ``trie`` a node
    maps each letter to its child node, and its key ``None`` holds the
    ascending indexes of the rules whose left-hand side ends there
    (duplicates keep every index).  A position of a word is tested by
    walking the trie from that position's letter, one dict lookup per
    letter, until the walk falls off; at most positions it stops at the
    first letter.
    """

    __slots__ = ("trie", "lhs", "rhs", "maxlen")

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        self.lhs = tuple(rule.lhs for rule in rules)
        self.rhs = tuple(rule.rhs for rule in rules)
        self.maxlen = max(map(len, self.lhs), default=0)
        self.trie: dict = {}
        for idx, side in enumerate(self.lhs):
            node = self.trie
            for letter in side:
                node = node.setdefault(letter, {})
            node[None] = node.get(None, ()) + (idx,)

    def first_redex(
        self, letters: Word, rightmost: bool = False, start: int = 0
    ) -> tuple[int, int] | None:
        """(rule index, position) of the first redex: leftmost position
        (rightmost with ``rightmost=True``), then lowest rule index.  A
        leftmost scan begins at ``start``; the caller knows that no redex
        starts before it.  A rightmost scan ignores ``start``."""
        root, n = self.trie, len(letters)
        positions = range(n - 1, -1, -1) if rightmost else range(start, n)
        for pos in positions:
            node = root.get(letters[pos])
            best = None
            end = pos + 1
            while node is not None:
                idxs = node.get(None)
                if idxs is not None and (best is None or idxs[0] < best):
                    best = idxs[0]
                if end == n:
                    break
                node = node.get(letters[end])
                end += 1
            if best is not None:
                return best, pos
        return None

    def _matches(self, letters: Word) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(position, ascending rule indexes) for every position at which
        some left-hand side occurs, left to right."""
        root, n = self.trie, len(letters)
        for pos in range(n):
            node = root.get(letters[pos])
            found = None
            end = pos + 1
            while node is not None:
                idxs = node.get(None)
                if idxs is not None:
                    # Two lengths matching at one position is rare; only
                    # then do their index lists need merging.
                    found = idxs if found is None else tuple(sorted(found + idxs))
                if end == n:
                    break
                node = node.get(letters[end])
                end += 1
            if found is not None:
                yield pos, found

    def redexes(self, letters: Word) -> list[tuple[int, int]]:
        """Every (position, rule index) occurrence, in that order."""
        return [(pos, idx) for pos, idxs in self._matches(letters) for idx in idxs]

    def successors(self, letters: Word) -> list[Word]:
        """Every one-step reduct of ``letters``, in the
        (position, rule index) order of :func:`one_step_reductions`.  The
        word is not validated; callers check it once before a search."""
        lhs, rhs = self.lhs, self.rhs
        out = []
        for pos, idxs in self._matches(letters):
            head = letters[:pos]
            for idx in idxs:
                out.append(head + rhs[idx] + letters[pos + len(lhs[idx]):])
        return out


def _require_known(word: Word, system: RewritingSystem) -> Word:
    """``word``, after checking that each letter is in the system's
    alphabet."""
    known = system.alphabet._by_name
    if not all(map(known.__contains__, word)):
        foreign = next(letter for letter in word if letter not in known)
        raise InputError(f"letter {foreign!r} is not in the system's alphabet")
    return word


def one_step_reductions(
    word: Word, system: RewritingSystem
) -> list[tuple[ReductionStep, Word]]:
    """Every one-step reduct of ``word``, ordered by (position, rule index).

    The list is empty exactly when the word is irreducible.
    """
    if not word:
        raise InputError("cannot reduce the empty word")
    letters = _require_known(word, system)
    matcher = system.matcher
    return [
        (
            ReductionStep(idx, pos),
            letters[:pos] + matcher.rhs[idx] + letters[pos + len(matcher.lhs[idx]):],
        )
        for pos, idx in matcher.redexes(letters)
    ]


def is_irreducible(word: Word, system: RewritingSystem) -> bool:
    """True iff no left-hand side occurs as a factor of ``word``."""
    if not word:
        raise InputError("the empty word is not a rewriting input")
    return system.matcher.first_redex(_require_known(word, system)) is None


def normal_form(
    word: Word,
    system: RewritingSystem,
    step_cap: int = DEFAULT_STEP_CAP,
    rightmost: bool = False,
) -> Word:
    """Reduce ``word`` to an irreducible descendant.

    The strategy is deterministic: leftmost occurrence, ties broken by
    lowest rule index (``rightmost=True`` flips the position order; it
    exists so tests can cross-check strategy independence).  For a complete
    system the result does not depend on the strategy.

    After a leftmost rewrite at ``pos`` the scan resumes at
    ``pos - maxlen + 1`` (``maxlen`` the longest left-hand side): no redex
    started before ``pos``, so a redex of the new word that starts earlier
    would have to reach into the rewritten part.  When ``step_cap`` steps
    do not reach a normal form (the word after the last of them is still
    reducible), the :class:`NonTerminationError` replays the steps from the
    start when its trace is first read.
    """
    if not word:
        raise InputError("the empty word is not a rewriting input")
    current = _require_known(word, system)
    matcher = system.matcher
    first_redex, lhs, rhs = matcher.first_redex, matcher.lhs, matcher.rhs
    back = max(matcher.maxlen - 1, 0)
    start = 0
    for _ in range(step_cap):
        redex = first_redex(current, rightmost, start)
        if redex is None:
            return current
        idx, pos = redex
        current = current[:pos] + rhs[idx] + current[pos + len(lhs[idx]):]
        start = max(0, pos - back)
    if first_redex(current, rightmost, start) is None:
        return current

    def replay() -> tuple[Word, ...]:
        trace, current = [word], word
        for _ in range(step_cap):
            idx, pos = first_redex(current, rightmost)
            current = current[:pos] + rhs[idx] + current[pos + len(lhs[idx]):]
            trace.append(current)
        return tuple(trace)

    raise NonTerminationError(
        f"possible non-termination: {step_cap} reduction steps exceeded", replay
    )


def disorder(word: Word, system: RewritingSystem, step_cap: int = DEFAULT_STEP_CAP) -> int:
    """Length of the longest reduction sequence from ``word`` to its normal
    form (0 iff the word is irreducible).

    Computed as a memoized longest-path search over the reduction DAG; a
    cycle or a search deeper/larger than ``step_cap`` raises
    :class:`NonTerminationError`.
    """
    if not word:
        raise InputError("the empty word is not a rewriting input")
    start = _require_known(word, system)
    successors = system.matcher.successors
    memo: dict[Word, int] = {}
    on_path: set[Word] = set()
    stack: list[tuple[Word, list[Word] | None]] = [(start, None)]
    while stack:
        node, succ = stack.pop()
        if succ is None:
            if node in memo:
                continue
            on_path.add(node)
            if len(on_path) > step_cap or len(memo) > step_cap:
                raise NonTerminationError(
                    f"possible non-termination: disorder search exceeded {step_cap} states"
                )
            succ = successors(node)
            for nxt in succ:
                if nxt in on_path:
                    raise NonTerminationError("reduction cycle detected", (node, nxt))
            stack.append((node, succ))
            for nxt in succ:
                if nxt not in memo:
                    stack.append((nxt, None))
        else:
            memo[node] = 1 + max(memo[nxt] for nxt in succ) if succ else 0
            on_path.discard(node)
    return memo[start]


def _reach(
    start: Word,
    system: RewritingSystem,
    goal: Callable[[Word], bool] | None,
    step_cap: int,
    cap_message: str,
) -> set[Word] | None:
    """Depth-first search of the reduction graph from ``start``.  Returns
    None as soon as a reached state other than ``start`` passes ``goal``;
    otherwise the set of every state reachable from ``start``.  Adding a
    state beyond ``step_cap`` raises :class:`NonTerminationError` with
    ``cap_message``.  The caller has validated ``start``."""
    successors = system.matcher.successors
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in successors(frontier.pop()):
            if nxt in seen:
                continue
            if goal is not None and goal(nxt):
                return None
            if len(seen) >= step_cap:
                raise NonTerminationError(cap_message)
            seen.add(nxt)
            frontier.append(nxt)
    return seen


def descendants(
    word: Word, system: RewritingSystem, step_cap: int = DEFAULT_STEP_CAP
) -> set[Word]:
    """All words reachable from ``word`` by zero or more reduction steps."""
    if not word:
        raise InputError("cannot reduce the empty word")
    start = _require_known(word, system)
    return _reach(start, system, None, step_cap, f"descendant search exceeded {step_cap} states")


def reduces_to(
    word: Word,
    target: Word,
    system: RewritingSystem,
    step_cap: int = DEFAULT_STEP_CAP,
) -> bool:
    """True iff ``word`` reduces to ``target`` in zero or more steps."""
    if word == target:
        return True
    if not word:
        raise InputError("cannot reduce the empty word")
    start = _require_known(word, system)
    return (
        _reach(
            start,
            system,
            target.__eq__,
            step_cap,
            f"reachability search exceeded {step_cap} states",
        )
        is None
    )


def words_over(
    letters: Iterable[Letter], max_len: int, min_len: int = 1
) -> Iterator[Word]:
    """All words over the given letters with min_len <= length <= max_len,
    in (length, letter-order) sequence."""
    pool = tuple(letters)
    for length in range(min_len, max_len + 1):
        yield from itertools.product(pool, repeat=length)


def irreducible_words(system: RewritingSystem, max_len: int) -> Iterator[Word]:
    """The irreducible words over the system's alphabet with
    1 <= length <= max_len, in the order of :func:`words_over`.

    Every factor of an irreducible word is irreducible, so the walk extends
    only irreducible words, one letter at a time, level by level.  The
    prefix of a candidate is irreducible, so a redex of the candidate ends
    at its last letter: the matcher's trie is walked from the last
    ``maxlen`` positions only.
    """
    first_redex, maxlen = system.matcher.first_redex, system.matcher.maxlen
    letters = system.alphabet.names()
    level: list[Word] = [()]
    for length in range(1, max_len + 1):
        start = max(0, length - maxlen)
        nxt = []
        for prefix in level:
            for letter in letters:
                word = prefix + (letter,)
                if first_redex(word, False, start) is None:
                    nxt.append(word)
                    yield word
        level = nxt
