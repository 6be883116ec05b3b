"""Words, rules and reduction for string rewriting (semi-Thue) systems.

Everything in this module is a pure value, and all reduction functions
are deterministic functions of their inputs.  A letter is its name, a
plain ``str``, and a word is the plain ``tuple`` of its letters; the
empty word ``()`` occurs as a context factor but is rejected as a rule
side and as a reduction input.  :func:`show` is the one place that knows
how a word is written: its letter names separated by single spaces.

Reduction contract: a reduction step rewrites the leftmost position at
which some left-hand side occurs, and among the rules whose left-hand side
occurs there, the one with the lowest index.  ``one_step_reductions`` lists
every step ordered by (position, rule index).  Every redex and factor
search walks one trie of left-hand sides, the system's
:class:`LhsMatcher`, which is built once per system on first use.
Normal forms follow its :meth:`~LhsMatcher.walk`, the one reduction, which
:meth:`~LhsMatcher.walk_classes` takes for every word up to a length, a
class of words at a time; :func:`disorder` and the bounded termination
check share one cycle-detecting depth-first search over its successors,
which stops once more than ``step_cap`` states have been entered.  The
program has no other reduction order: the paper's systems are complete,
and the normal form of a complete system does not depend on the order.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

LETTER_NAME = re.compile(r"[A-Za-z0-9_']+\Z")

DEFAULT_STEP_CAP = 10_000
# Words up to this length are searched for reduction cycles by default.
DEFAULT_SEARCH_LEN = 6
# A normal form walk looks for a repeated word only past this many steps
# (a power of two).
_QUIET_STEPS = 16


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
    """``__setattr__`` and ``__delattr__`` of the immutable classes whose
    instances have a dict: the plain ``Rule`` and ``RewritingSystem``, and
    the NamedTuple subclasses that keep caches."""
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
    maps each letter to its child node.  A node at which some left-hand
    side ends holds, under its key ``None``, the ascending indexes of every
    rule whose left-hand side ends there or at a node above it on its path
    (duplicates keep every index): the left-hand sides that match at a
    position are exactly those of the deepest such node that the walk from
    there reaches.  A position of a word is tested by walking the trie from
    that position's letter, one dict lookup per letter, until the walk
    falls off; at most positions it stops at the first letter.
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
        # One pass down the trie merges the indexes ending above each end
        # node into its own.
        stack = [(self.trie, ())]
        while stack:
            node, above = stack.pop()
            if None in node:
                above = node[None] = tuple(sorted(above + node[None]))
            stack.extend((child, above) for letter, child in node.items() if letter is not None)

    def first_redex(self, letters: Word, start: int = 0) -> tuple[int, int] | None:
        """(rule index, position) of the first redex: leftmost position,
        then lowest rule index.  The scan begins at ``start``; the caller
        knows that no redex starts before it."""
        root, n = self.trie, len(letters)
        for pos in range(start, n):
            node = root.get(letters[pos])
            found = None
            end = pos + 1
            while node is not None:
                found = node.get(None, found)
                if end == n:
                    break
                node = node.get(letters[end])
                end += 1
            if found is not None:
                return found[0], pos
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
                found = node.get(None, found)
                if end == n:
                    break
                node = node.get(letters[end])
                end += 1
            if found is not None:
                yield pos, found

    def redexes(self, letters: Word) -> list[tuple[int, int]]:
        """Every (position, rule index) occurrence, in that order."""
        return [(pos, idx) for pos, idxs in self._matches(letters) for idx in idxs]

    def walk(self, word: Word) -> Iterator[Word]:
        """``word``, then each word of its leftmost reduction: every step
        rewrites the first redex (see :meth:`first_redex`).  Ends at the
        normal form, or never if the reduction does not terminate.

        After a rewrite at ``pos`` the scan resumes at
        ``pos - maxlen + 1``: no redex started before ``pos``, so a redex
        of the new word that starts earlier would have to reach into the
        rewritten part."""
        first_redex, lhs, rhs = self.first_redex, self.lhs, self.rhs
        back = max(self.maxlen - 1, 0)
        start = 0
        while True:
            yield word
            redex = first_redex(word, start)
            if redex is None:
                return
            idx, pos = redex
            word = word[:pos] + rhs[idx] + word[pos + len(lhs[idx]):]
            start = max(0, pos - back)

    def walk_classes(
        self, letters: Iterable[Letter], max_len: int, step_cap: int = DEFAULT_STEP_CAP
    ) -> Iterator[tuple[int, Word, int, int]]:
        """The leftmost walks of every word of length 1..``max_len`` over
        ``letters``, a class of words at a time.  Yields (length, normal
        form, weight, steps) for each class, level by level: the ``weight``
        words of the class have that length and normal form, and ``steps``
        is the most steps that any of them takes.

        Call a step of a walk, rewriting the current word w at position i,
        *safe* when the trie walk over w[s:] falls off for every s in
        [max(0, |w| + 1 - maxlen), i].  Lemma: a safe step of w is also the
        step of w·x, for every word x.  Proof: a redex of w·x that does not
        lie in w starts at some s with w[s:] on the trie and
        |w| - s < maxlen, so s > i by safety.  The redexes of w·x at
        positions <= i are thus those of w: the leftmost is at i, with the
        same rules there, and w·x steps to w'·x.  The step of w'·x is then
        safe when that of w' is: its range of s starts later, and
        (w'·x)[s:] extends w'[s:].  So if the first j steps of the walk of v
        are safe, the walk of v·x is those j steps with x appended, followed
        by the walk of w_j·x, w_j being the word after them.  In particular,
        if every step of the walk of p is safe, the walk of p·a is the walk
        of p with a appended, followed by the walk of nf(p)·a.

        Each word u of a level thus has a *head* h and a count b: u walks b
        safe steps and then the walk of h, where h is the word at the first
        step that is not safe, or the normal form; and u·a walks b steps and
        then the walk of h·a.  That walk takes the steps of :meth:`walk`,
        scanning from |h| + 1 - maxlen: a redex of h·a that is not one of h
        starts there or later, and so does the first redex of h, if any,
        since the step there is unsafe.  The words of a level that share
        their head form one class, walked once as h·a with the largest b
        among them.  One dict of classes, head -> [weight, largest b], is
        kept per level, and none for the last.  A class with a word that
        takes more than max(step_cap, 0) steps ends the walker with
        :class:`NonTerminationError`, at the shortest length that has such
        a word.
        """
        first_redex, trie, lhs, rhs = self.first_redex, self.trie, self.lhs, self.rhs
        maxlen = self.maxlen
        back = max(maxlen - 1, 0)
        limit = max(step_cap, 0)
        letters = tuple(letters)

        def safe(word: Word, pos: int) -> bool:
            for s in range(max(0, len(word) + 1 - maxlen), pos + 1):
                node = trie
                for letter in word[s:]:
                    node = node.get(letter)
                    if node is None:
                        break
                else:
                    return False
            return True

        level: dict[Word, list[int]] = {(): [1, 0]}
        for length in range(1, max_len + 1):
            last = length == max_len
            heads: dict[Word, list[int]] = {}
            for head, (weight, before) in level.items():
                start = max(0, len(head) + 1 - maxlen)
                for letter in letters:
                    word, steps, scan = head + (letter,), before, start
                    child = None
                    while (redex := first_redex(word, scan)) is not None:
                        idx, pos = redex
                        if child is None and not last and not safe(word, pos):
                            child, child_before = word, steps
                        steps += 1
                        if steps > limit:
                            raise NonTerminationError(
                                f"possible non-termination: {step_cap} reduction steps exceeded"
                            )
                        word = word[:pos] + rhs[idx] + word[pos + len(lhs[idx]):]
                        scan = max(0, pos - back)
                    yield length, word, weight, steps
                    if last:
                        continue
                    if child is None:
                        child, child_before = word, steps
                    entry = heads.get(child)
                    if entry is None:
                        heads[child] = [weight, child_before]
                    else:
                        entry[0] += weight
                        entry[1] = max(entry[1], child_before)
            level = heads

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
        (ReductionStep(idx, pos), result)
        for (pos, idx), result in zip(matcher.redexes(letters), matcher.successors(letters))
    ]


def is_irreducible(word: Word, system: RewritingSystem) -> bool:
    """True iff no left-hand side occurs as a factor of ``word``."""
    if not word:
        raise InputError("the empty word is not a rewriting input")
    return system.matcher.first_redex(_require_known(word, system)) is None


def normal_form(
    word: Word, system: RewritingSystem, step_cap: int = DEFAULT_STEP_CAP
) -> Word:
    """Reduce ``word`` to an irreducible descendant: the end of the
    matcher's :meth:`~LhsMatcher.walk`.

    The strategy is deterministic: leftmost occurrence, ties broken by
    lowest rule index.  For a complete system the result does not depend
    on the strategy.

    When ``step_cap`` steps do not reach a normal form (the word after the
    last of them is still reducible), the :class:`NonTerminationError`
    walks the steps again from the start when its trace is first read.

    Each word of the walk determines the next (the resume position of
    :meth:`~LhsMatcher.walk` only skips positions that hold no redex), so
    a word that comes back means the walk never ends, and the error is
    raised at once, as it would be at the cap.  Brent's test finds such a
    repeat: from step ``_QUIET_STEPS`` on, each word is compared with the
    word at the last step whose number is a power of two.  A shorter walk,
    as nearly all are, only counts its steps.
    """
    if not word:
        raise InputError("the empty word is not a rewriting input")
    start = _require_known(word, system)
    walk = system.matcher.walk
    limit = max(step_cap, 0)  # a cap below 0 allows no step, as 0 does
    watch = limit + 1 if limit < _QUIET_STEPS else _QUIET_STEPS  # the next step looked at
    mark = None
    for steps, current in enumerate(walk(start)):
        if steps >= watch:
            if steps > limit or current == mark:
                raise NonTerminationError(
                    f"possible non-termination: {step_cap} reduction steps exceeded",
                    lambda: tuple(itertools.islice(walk(start), limit + 1)),
                )
            if not steps & (steps - 1):  # a power of two, as _QUIET_STEPS is
                mark = current
            watch = steps + 1
    return current


def _dfs(
    start: Word,
    successors: Callable[[Word], list[Word]],
    seen: dict[Word, bool],
    step_cap: int,
    cap_message: str,
) -> Iterator[tuple[Word, list[Word]]]:
    """Post-order depth-first search from ``start`` over ``successors``:
    yields each state with its successors once all of them are finished.

    ``seen`` maps every state entered to True while it is on the current
    path and to False once it is finished; a state in it is not entered
    again, so searches that share it skip what an earlier one finished.
    Successors are entered last first.  Entering more than ``step_cap``
    states in all (``len(seen)``) raises :class:`NonTerminationError` with
    ``cap_message``; a successor on the current path raises it with the
    cycle, from that successor back to itself, as trace.
    """
    path: list[Word] = []
    stack: list[tuple[Word, list[Word] | None]] = [(start, None)]
    while stack:
        node, succ = stack.pop()
        if succ is not None:
            seen[node] = False
            path.pop()
            yield node, succ
        elif node not in seen:
            seen[node] = True
            path.append(node)
            if len(seen) > step_cap:
                raise NonTerminationError(cap_message)
            succ = successors(node)
            for nxt in succ:
                if seen.get(nxt):
                    cycle = (*path[path.index(nxt):], nxt)
                    raise NonTerminationError("reduction cycle detected", cycle)
            stack.append((node, succ))
            for nxt in succ:
                if nxt not in seen:
                    stack.append((nxt, None))


def disorder(word: Word, system: RewritingSystem, step_cap: int = DEFAULT_STEP_CAP) -> int:
    """Length of the longest reduction sequence from ``word`` to its normal
    form (0 iff the word is irreducible).

    Computed as a longest path over the post-order depth-first search of
    the reduction graph; a cycle, or more than ``step_cap`` states entered,
    raises :class:`NonTerminationError`.
    """
    if not word:
        raise InputError("the empty word is not a rewriting input")
    start = _require_known(word, system)
    message = f"possible non-termination: disorder search exceeded {step_cap} states"
    longest: dict[Word, int] = {}
    for node, succ in _dfs(start, system.matcher.successors, {}, step_cap, message):
        longest[node] = 1 + max(longest[nxt] for nxt in succ) if succ else 0
    return longest[start]


def _reach(
    start: Word,
    system: RewritingSystem,
    goal: Callable[[Word], bool],
    step_cap: int,
    cap_message: str,
) -> bool:
    """Depth-first search of the reduction graph from ``start``: whether a
    reachable state other than ``start`` passes ``goal``.  It answers as
    soon as one does.  Adding a state beyond ``step_cap`` raises
    :class:`NonTerminationError` with ``cap_message``.  The caller has
    validated ``start``."""
    successors = system.matcher.successors
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in successors(frontier.pop()):
            if nxt in seen:
                continue
            if goal(nxt):
                return True
            if len(seen) >= step_cap:
                raise NonTerminationError(cap_message)
            seen.add(nxt)
            frontier.append(nxt)
    return False


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
    return _reach(
        start, system, target.__eq__, step_cap, f"reachability search exceeded {step_cap} states"
    )


def words_over(letters: Iterable[Letter], max_len: int) -> Iterator[Word]:
    """All words over the given letters with 1 <= length <= max_len, in
    (length, letter-order) sequence."""
    pool = tuple(letters)
    for length in range(1, max_len + 1):
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
                if first_redex(word, start) is None:
                    nxt.append(word)
                    yield word
        level = nxt
