"""Words, rules and reduction for string rewriting (semi-Thue) systems.

Everything in this module is a pure value, and all reduction functions
are deterministic functions of their inputs.  A letter is its name: a
:class:`Letter` is a ``str``, interned per alphabet, that also records its
index there.  A word is a tuple of letters: a :class:`Word` is a ``tuple``.
So a word, the plain tuple of its letters and the tuple of their names
are equal and hash alike, and there is nothing to convert between them.

Reduction contract: a reduction step rewrites the leftmost position at
which some left-hand side occurs, and among the rules whose left-hand side
occurs there, the one with the lowest index (``rightmost=True`` flips the
position order only).  ``one_step_reductions`` lists every step ordered by
(position, rule index).  Every redex and factor search goes through the
system's :class:`LhsMatcher`, which is built once per system on first use.

Hot loops (``normal_form`` and the graph searches: ``reduces_to``,
``descendants``, ``disorder``, and the cycle and property searches of
``completeness`` and ``property_r``) take ``tuple(word)`` once, at entry,
and slice that plain tuple: a :class:`Word` slice goes through Python to
return a word.  They check their start word once and wrap in :class:`Word`
only what they hand back: returned words, cycle traces and error traces.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

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
    """A step cap was exceeded; the system may be non-terminating."""

    def __init__(self, message: str, trace: tuple["Word", ...] = ()):
        super().__init__(message)
        self.trace = trace


class Letter(str):
    """A single alphabet symbol: a ``str`` that equals and hashes as its
    name; ``index`` records the interning order inside the owning
    alphabet and takes no part in equality."""

    def __new__(cls, name: str, index: int) -> "Letter":
        letter = super().__new__(cls, name)
        letter.index = index
        return letter

    @property
    def name(self) -> str:
        """The name as a plain ``str``."""
        return str(self)

    def __repr__(self) -> str:
        return f"Letter({self.name!r})"


class Alphabet:
    """Ordered, effectively immutable set of letters with unique names.

    Indexes are stable: an alphabet built by :meth:`extended` keeps the
    parent's letters (same objects, same indexes) and appends new ones.
    """

    def __init__(self, names: Iterable[str] = ()):
        self._by_name: dict[str, Letter] = {}
        for name in names:
            self._intern(name)

    def _intern(self, name: str) -> Letter:
        if not LETTER_NAME.match(name):
            raise InputError(f"invalid letter name {str(name)!r}")
        if name in self._by_name:
            raise InputError(f"duplicate letter {str(name)!r}")
        letter = Letter(name, len(self._by_name))
        self._by_name[letter.name] = letter
        return letter

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
            raise InputError(f"unknown letter {str(name)!r}") from None

    def __contains__(self, item: str) -> bool:
        return item in self._by_name

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def letters(self) -> tuple[Letter, ...]:
        return tuple(self._by_name.values())

    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def word(self, source: "str | Iterable[str]") -> "Word":
        """Build a word from whitespace-separated letter names (or any
        iterable of names)."""
        names = source.split() if isinstance(source, str) else list(source)
        return Word(self.get(name) for name in names)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._by_name)})"


class Word(tuple):
    """A finite (possibly empty) sequence of letters: a ``tuple`` of
    :class:`Letter` that equals and hashes as that tuple.  Slices and
    ``+`` return words.

    The empty word is representable because it occurs as a context factor,
    but it is rejected as a rule side and as a reduction input.
    """

    __slots__ = ()

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(self)

    def __add__(self, other: "Word") -> "Word":
        return Word(tuple.__add__(self, other))

    def __getitem__(self, item: "int | slice") -> "Letter | Word":
        if isinstance(item, slice):
            return Word(tuple.__getitem__(self, item))
        return tuple.__getitem__(self, item)

    def names(self) -> tuple[str, ...]:
        return tuple(map(str, self))

    def __str__(self) -> str:
        return " ".join(self)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


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
    return Word(letters)


@dataclass(frozen=True)
class Rule:
    """A directed rule lhs -> rhs with both sides nonempty.

    Tags carry provenance labels (C1..C6, D1, D2) and are excluded from
    equality, so deduplication works on (lhs, rhs) alone.
    """

    lhs: Word
    rhs: Word
    tags: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.lhs or not self.rhs:
            raise InputError("rule sides must be nonempty words")

    def tagged(self, *tags: str) -> "Rule":
        merged = self.tags + tuple(t for t in tags if t not in self.tags)
        return Rule(self.lhs, self.rhs, merged)

    def __repr__(self) -> str:
        return f"Rule({str(self.lhs)!r} -> {str(self.rhs)!r})"


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


@dataclass(frozen=True)
class ReductionStep:
    """One rule application: which rule, at which 0-based start position."""

    rule_index: int
    position: int


@dataclass(frozen=True, eq=False)
class RewritingSystem:
    """An alphabet plus an ordered, finite list of rules over it."""

    alphabet: Alphabet
    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        for rule in self.rules:
            for side in (rule.lhs, rule.rhs):
                for letter in side:
                    if letter not in self.alphabet:
                        raise InputError(
                            f"rule {rule!r} uses letter {letter.name!r} outside the alphabet"
                        )

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

        Caching is safe because ``rules`` is an immutable tuple; the cache
        lives in the instance dict and takes no part in ``__eq__``.
        """
        return LhsMatcher(self.rules)

    def max_lhs_len(self) -> int:
        return max((len(rule.lhs) for rule in self.rules), default=0)

    def with_rules(self, rules: Iterable[Rule]) -> "RewritingSystem":
        return RewritingSystem(self.alphabet, tuple(rules))

    def __repr__(self) -> str:
        rules = ", ".join(f"{r.lhs}->{r.rhs}" for r in self.rules)
        return f"RewritingSystem([{', '.join(self.alphabet.names())}]; {rules})"


class LhsMatcher:
    """The left-hand sides of a rule list, hashed.

    ``lhs`` and ``rhs`` hold each rule's sides as plain tuples of letters,
    by rule index; ``table`` maps each distinct left-hand side to the
    ascending indexes of the rules that have it (duplicates keep every
    index); ``lengths`` holds the distinct left-hand-side lengths in
    ascending order.  A position of a word is tested with one dict lookup
    per length instead of one slice comparison per rule.  Searches take the
    word as a plain tuple, whose slices CPython builds and hashes in C.
    """

    __slots__ = ("table", "lengths", "lhs", "rhs")

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        self.lhs = tuple(tuple(rule.lhs) for rule in rules)
        self.rhs = tuple(tuple(rule.rhs) for rule in rules)
        table: dict[tuple[Letter, ...], list[int]] = {}
        for idx, side in enumerate(self.lhs):
            table.setdefault(side, []).append(idx)
        self.table = {key: tuple(idxs) for key, idxs in table.items()}
        self.lengths = tuple(sorted({len(key) for key in table}))

    def first_redex(
        self, letters: tuple[Letter, ...], rightmost: bool = False, start: int = 0
    ) -> tuple[int, int] | None:
        """(rule index, position) of the first redex: leftmost position
        (rightmost with ``rightmost=True``), then lowest rule index.  A
        leftmost scan begins at ``start``; the caller knows that no redex
        starts before it.  A rightmost scan ignores ``start``."""
        get, lengths, n = self.table.get, self.lengths, len(letters)
        positions = range(n - 1, -1, -1) if rightmost else range(start, n)
        for pos in positions:
            best = None
            for k in lengths:
                end = pos + k
                if end > n:
                    break
                idxs = get(letters[pos:end])
                if idxs is not None and (best is None or idxs[0] < best):
                    best = idxs[0]
            if best is not None:
                return best, pos
        return None

    def _matches(self, letters: tuple[Letter, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(position, ascending rule indexes) for every position at which
        some left-hand side occurs, left to right."""
        get, lengths, n = self.table.get, self.lengths, len(letters)
        for pos in range(n):
            found = None
            for k in lengths:
                end = pos + k
                if end > n:
                    break
                idxs = get(letters[pos:end])
                if idxs is not None:
                    # Two lengths matching at one position is rare; only
                    # then do their index lists need merging.
                    found = idxs if found is None else tuple(sorted(found + idxs))
            if found is not None:
                yield pos, found

    def redexes(self, letters: tuple[Letter, ...]) -> list[tuple[int, int]]:
        """Every (position, rule index) occurrence, in that order."""
        return [(pos, idx) for pos, idxs in self._matches(letters) for idx in idxs]

    def successors(self, letters: tuple[Letter, ...]) -> list[tuple[Letter, ...]]:
        """Every one-step reduct of ``letters``, as plain tuples, in the
        (position, rule index) order of :func:`one_step_reductions`.  The
        word is not validated; callers check it once before a search."""
        lhs, rhs = self.lhs, self.rhs
        out = []
        for pos, idxs in self._matches(letters):
            head = letters[:pos]
            for idx in idxs:
                out.append(head + rhs[idx] + letters[pos + len(lhs[idx]):])
        return out


def _require_known(word: Word, system: RewritingSystem) -> tuple[Letter, ...]:
    """The letters of ``word`` as a plain tuple, after checking that each
    is in the system's alphabet."""
    letters = tuple(word)
    known = system.alphabet._by_name
    if not all(map(known.__contains__, letters)):
        foreign = next(letter for letter in letters if letter not in known)
        raise InputError(f"letter {str(foreign)!r} is not in the system's alphabet")
    return letters


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
            Word(letters[:pos] + matcher.rhs[idx] + letters[pos + len(matcher.lhs[idx]):]),
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

    The reduction runs on a plain tuple and builds one :class:`Word` at the
    end.  After a leftmost rewrite at ``pos`` the scan resumes at
    ``pos - maxlen + 1`` (``maxlen`` the longest left-hand side): no redex
    started before ``pos``, so a redex of the new word that starts earlier
    would have to reach into the rewritten part.  When ``step_cap`` steps
    do not reach a normal form, the steps are replayed from the start to
    give the :class:`NonTerminationError` its trace.
    """
    if not word:
        raise InputError("the empty word is not a rewriting input")
    letters = _require_known(word, system)
    matcher = system.matcher
    first_redex, lhs, rhs = matcher.first_redex, matcher.lhs, matcher.rhs
    back = max(matcher.lengths, default=1) - 1
    current, start = letters, 0
    for _ in range(step_cap):
        redex = first_redex(current, rightmost, start)
        if redex is None:
            return word if current is letters else Word(current)
        idx, pos = redex
        current = current[:pos] + rhs[idx] + current[pos + len(lhs[idx]):]
        start = max(0, pos - back)
    trace, current = [word], letters
    for _ in range(step_cap):
        idx, pos = first_redex(current, rightmost)
        current = current[:pos] + rhs[idx] + current[pos + len(lhs[idx]):]
        trace.append(Word(current))
    raise NonTerminationError(
        f"possible non-termination: {step_cap} reduction steps exceeded", tuple(trace)
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
    memo: dict[tuple[Letter, ...], int] = {}
    on_path: set[tuple[Letter, ...]] = set()
    stack: list[tuple[tuple[Letter, ...], list[tuple[Letter, ...]] | None]] = [(start, None)]
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
                    raise NonTerminationError("reduction cycle detected", (Word(node), Word(nxt)))
            stack.append((node, succ))
            for nxt in succ:
                if nxt not in memo:
                    stack.append((nxt, None))
        else:
            memo[node] = 1 + max(memo[nxt] for nxt in succ) if succ else 0
            on_path.discard(node)
    return memo[start]


def _reach(
    start: tuple[Letter, ...],
    system: RewritingSystem,
    goal: Callable[[tuple[Letter, ...]], bool] | None,
    step_cap: int,
    cap_message: str,
) -> set[tuple[Letter, ...]] | None:
    """Depth-first search of the reduction graph from ``start``, on plain
    tuples.  Returns None as soon as a reached state other than ``start``
    passes ``goal``; otherwise the set of every state reachable from
    ``start``.  Adding a state beyond ``step_cap`` raises
    :class:`NonTerminationError` with ``cap_message``.  The caller has
    validated ``start``."""
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
    seen = _reach(
        start, system, None, step_cap, f"descendant search exceeded {step_cap} states"
    )
    return {Word(letters) for letters in seen}


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
    letters: "Alphabet | Iterable[Letter]", max_len: int, min_len: int = 1
) -> Iterator[Word]:
    """All words over the given letters with min_len <= length <= max_len,
    in (length, letter-order) sequence."""
    pool = letters.letters() if isinstance(letters, Alphabet) else tuple(letters)
    for length in range(min_len, max_len + 1):
        for combo in itertools.product(pool, repeat=length):
            yield Word(combo)


def irreducible_words(system: RewritingSystem, max_len: int) -> Iterator[Word]:
    """The irreducible words over the system's alphabet with
    1 <= length <= max_len, in the order of :func:`words_over`.

    Every factor of an irreducible word is irreducible, so the walk extends
    only irreducible words, one letter at a time, level by level.  A
    candidate is dropped when some left-hand side ends at its last letter:
    one probe of the matcher's table per left-hand-side length.
    """
    table, lengths = system.matcher.table, system.matcher.lengths
    letters = system.alphabet.letters()
    level: list[tuple[Letter, ...]] = [()]
    for length in range(1, max_len + 1):
        fits = [k for k in lengths if k <= length]
        nxt = []
        for prefix in level:
            for letter in letters:
                word = prefix + (letter,)
                if not any(word[-k:] in table for k in fits):
                    nxt.append(word)
                    yield Word(word)
        level = nxt
