"""Flat-file presentation format.

    # comment (also allowed after a declaration)
    alphabet: a b c_a_b
    generator: c_a_b = a b
    rule: a a -> s       # optional provenance tags in a trailing comment
    complement: a ; b c

Letters are whitespace-separated identifier tokens ([A-Za-z0-9_']+), so
generated names like c_a_b and s0 are first-class.  A generator line gives
a generated letter's image under phi, a word over the source presentation's
alphabet (so not checked against this one's).  Serialization is canonical:
alphabet sorted by name, then generators and rules in stored order, one
declaration per line; parsing a canonical file and serializing it again
reproduces it byte for byte.

``Presentation`` is the record a file holds, and every command starts from
one.  It lives here, with its parser and writer, so that reading a file
loads no ``frs`` module other than ``core``.
"""

from __future__ import annotations

import re
from functools import cached_property

from .core import (
    LETTER_NAME,
    Alphabet,
    InputError,
    PreconditionError,
    RewritingSystem,
    Rule,
    Word,
    _read_only,
    show,
)

_TOKEN = re.compile(r"\S+")


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


class ParseError(InputError):
    """Syntax or validation error, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Tokens with 1-based columns; ';' separates even when glued on."""
    out: list[tuple[str, int]] = []
    for match in _TOKEN.finditer(line):
        token, column = match.group(), match.start() + 1
        while ";" in token and token != ";":
            head, _, token = token.partition(";")
            if head:
                out.append((head, column))
            out.append((";", column))
            if not token:
                break
        if token:
            out.append((token, column))
    return out


def parse_presentation(text: str) -> Presentation:
    """Parse the flat format; validates letter names, alphabet closure of
    rules and complement, and arrow placement."""
    # (keyword, tokens after it, line number, column one past the last token)
    decls: list[tuple[str, list[tuple[str, int]], int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        keyword, column = tokens[0]
        if keyword not in ("alphabet:", "generator:", "rule:", "complement:"):
            expected = "'alphabet:', 'generator:', 'rule:' or 'complement:'"
            raise ParseError(f"expected {expected}, got {keyword!r}", lineno, column)
        decls.append((keyword, tokens[1:], lineno, len(line.rstrip()) + 1))

    names: list[str] = []
    for keyword, tokens, lineno, _ in decls:
        if keyword != "alphabet:":
            continue
        if not tokens:
            raise ParseError("empty alphabet declaration", lineno, 1)
        for token, column in tokens:
            if not LETTER_NAME.match(token):
                raise ParseError(f"invalid letter name {token!r}", lineno, column)
            if token in names:
                raise ParseError(f"duplicate alphabet entry {token!r}", lineno, column)
            names.append(token)
    alphabet = Alphabet(names)

    def to_word(tokens: list[tuple[str, int]], lineno: int) -> Word:
        letters = []
        for token, column in tokens:
            if token not in alphabet:
                raise ParseError(f"unknown letter token {token!r}", lineno, column)
            letters.append(token)
        return tuple(letters)

    rules: list[Rule] = []
    complement_words: list[Word] = []
    has_complement = False
    generators: dict[str, tuple[str, ...]] = {}
    for keyword, tokens, lineno, end in decls:
        if keyword == "generator:":
            if len(tokens) < 2 or tokens[1][0] != "=":
                column = tokens[1][1] if len(tokens) > 1 else end
                raise ParseError("expected '<letter> = <image word>'", lineno, column)
            (name, column), (_, eq_column), *image = tokens
            if name not in alphabet:
                raise ParseError(f"generator {name!r} is not in the alphabet", lineno, column)
            if name in generators:
                raise ParseError(f"repeated generator {name!r}", lineno, column)
            if not image:
                raise ParseError("empty generator image", lineno, eq_column)
            for token, column in image:
                if not LETTER_NAME.match(token):
                    raise ParseError(f"invalid letter name {token!r}", lineno, column)
            generators[name] = tuple(token for token, _ in image)
        elif keyword == "rule:":
            arrows = [i for i, (token, _) in enumerate(tokens) if token == "->"]
            if len(arrows) != 1:
                raise ParseError(
                    "malformed arrow: a rule needs exactly one '->'", lineno, 1
                )
            split = arrows[0]
            lhs_tokens, rhs_tokens = tokens[:split], tokens[split + 1:]
            if not lhs_tokens:
                raise ParseError("empty rule left-hand side", lineno, tokens[split][1])
            if not rhs_tokens:
                raise ParseError("empty rule right-hand side", lineno, tokens[split][1])
            rules.append(Rule(to_word(lhs_tokens, lineno), to_word(rhs_tokens, lineno)))
        elif keyword == "complement:":
            has_complement = True
            group: list[tuple[str, int]] = []
            for token, column in tokens + [(";", end)]:
                if token == ";":
                    if not group:
                        raise ParseError("empty complement word", lineno, column)
                    complement_words.append(to_word(group, lineno))
                    group = []
                else:
                    group.append((token, column))

    system = RewritingSystem(alphabet, tuple(rules))
    complement = tuple(complement_words) if has_complement else None
    return Presentation(system, complement, tuple(generators.items()))


def serialize_presentation(presentation: Presentation) -> str:
    """Canonical text form; provenance tags appear as trailing comments."""
    lines = ["alphabet: " + " ".join(sorted(presentation.system.alphabet.names()))]
    for name, image in presentation.generators:
        lines.append(f"generator: {name} = {show(image)}")
    for rule in presentation.system.rules:
        line = f"rule: {show(rule.lhs)} -> {show(rule.rhs)}"
        if rule.tags:
            line += "  # " + " ".join(rule.tags)
        lines.append(line)
    if presentation.complement is not None:
        lines.append("complement: " + " ; ".join(map(show, presentation.complement)))
    return "\n".join(lines) + "\n"
