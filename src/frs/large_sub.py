"""Construct a finite complete presentation of a large subsemigroup T.

Input: a presentation of S satisfying Q1 (the complement S\\T is a set of
single irreducible letters), Q2 and Q3.  Output: a generating alphabet
B = A1 + C, where A1 holds the letters whose class lies in T and C holds
one fresh letter per short boundary word (shapes a.s, s.a, s.s', s'.a.s,
s.s'.s'' crossing the complement letters), plus a rewriting system R_T in
two rule families:

  D1  rewrites any B-word whose image is reducible in the base system
      (image length capped by N = longest left-hand side + 4);
  D2  normalizes length-2 B-words to the canonical factorization of their
      image, driving the boundary letters rightward.

The retraction rho sends each representative word to its canonical
B-factorization; phi substitutes images back.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import pipeline, property_r
from .core import (
    DEFAULT_STEP_CAP,
    Alphabet,
    InputError,
    Letter,
    PreconditionError,
    RewritingSystem,
    RuleEmitter,
    Word,
    _read_only,
    normal_form,
    show,
    substitute,
)
from .fileformat import Presentation

D1, D2 = "D1", "D2"

C_R, C_L1, C_L2, C_M1, C_M2 = "C_R", "C_L1", "C_L2", "C_M1", "C_M2"


class ConstructionError(PreconditionError):
    """The construction cannot produce a usable generating set: the input
    admits no construction, so the command line reports it as a
    precondition error."""


class LetterClassification(NamedTuple):
    """Split of the base alphabet: a1 generates inside T, a_s is the
    complement letters, excluded covers letters that merely reduce to a
    complement letter (they never enter B)."""

    a1: tuple[Letter, ...]
    a_s: tuple[Letter, ...]
    excluded: tuple[Letter, ...] = ()


class FSets(NamedTuple):
    f1: tuple[Word, ...]
    f2: tuple[Word, ...]
    f3: tuple[Word, ...]
    f4: tuple[Word, ...]


class LargeSubConstruction:
    """The output of :func:`build_construction`: the prepared presentation,
    its letter split, phi's generator table and the system R_T.

    ``images`` maps each generator letter to its boundary word, in B order;
    a generator's kind is its image's shape.  B = A1 + C is R_T's alphabet,
    read back as ``b_alphabet``.  Two constructions are equal when their
    fields are, the generator table compared as a dict, whatever the order
    of its entries.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        presentation: Presentation,
        classification: LetterClassification,
        images: dict[Letter, Word],
        r_t: RewritingSystem,
    ):
        self.__dict__.update(
            presentation=presentation, classification=classification, images=images, r_t=r_t
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = ("presentation", "classification", "images", "r_t")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    @property
    def b_alphabet(self) -> Alphabet:
        """B, the alphabet of R_T."""
        return self.r_t.alphabet

    @property
    def n_bound(self) -> int:
        """The D1 image-length cap N: longest base left-hand side + 4."""
        return self.presentation.system.matcher.maxlen + 4

    # The tables rho reads, built once per construction on first use (no
    # field can be reassigned, so they cannot go stale).
    @cached_property
    def _by_image(self) -> dict[Word, Letter]:
        by_image = {image: letter for letter, image in self.images.items()}
        for letter in self.classification.a1:
            by_image.setdefault((letter,), letter)
        return by_image

    @cached_property
    def _a1(self) -> frozenset[Letter]:
        return frozenset(self.classification.a1)

    def as_candidate_tuple(self, step_cap: int = DEFAULT_STEP_CAP) -> property_r.CandidateTuple:
        """The tuple (B, R_T, A(T), phi, rho); membership and rho reduce
        within ``step_cap`` steps."""
        return property_r.CandidateTuple(
            base=self.presentation.system,
            system=self.r_t,
            images=self.images,
            rho=lambda word: rho_t(word, self, step_cap=step_cap),
            in_at=lambda word: in_AT(word, self.presentation, step_cap),
            in_t=lambda word: in_T(word, self.presentation, step_cap),
        )


def _require_prepared(presentation: Presentation) -> None:
    if not pipeline.satisfies_q1(presentation):
        raise PreconditionError(
            "the presentation must satisfy Q1: every complement class a "
            "single irreducible letter (run the preparation pipeline first)"
        )
    system = presentation.system
    if not pipeline.satisfies_q2(system) or not pipeline.satisfies_q3(system):
        raise PreconditionError(
            "the presentation must be interreduced (Q2 and Q3); run the "
            "preparation pipeline first"
        )


def classify_letters(
    presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> LetterClassification:
    """Partition the alphabet by where each letter's class lives."""
    _require_prepared(presentation)
    complement = presentation.membership.complement_letters
    a1, a_s, excluded = [], [], []
    for letter in presentation.system.alphabet:
        if letter in complement:
            a_s.append(letter)
        elif _class_in_t((letter,), presentation, step_cap):
            a1.append(letter)
        else:
            excluded.append(letter)
    return LetterClassification(tuple(a1), tuple(a_s), tuple(excluded))


def in_T(
    word: Word, presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> bool:
    """True iff the word's class lies in the subsemigroup, i.e. its normal
    form is not a complement word."""
    complement = presentation.membership.complement_words
    return normal_form(word, presentation.system, step_cap) not in complement


def _class_in_t(word: Word, presentation: Presentation, step_cap: int) -> bool:
    """True iff the word's normal form is not a complement letter."""
    form = normal_form(word, presentation.system, step_cap)
    return not (len(form) == 1 and form[0] in presentation.membership.complement_letters)


def in_AT(
    word: Word, presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> bool:
    """Membership in the representative set: the word's class is in T, all
    its letters are usable (in a1 or a_s), and every factor whose class
    falls outside T is a single complement letter.

    Let ok(w) say that every letter of w is usable and every factor of w of
    length at least 2 has its class in T.  The factors of w of length at
    least 2 are w itself and the factors of w[:-1] and of w[1:], so

      ok(x)  iff  x is a complement letter or nf(x) is not one  (one letter)
      ok(w)  iff  ok(w[:-1]) and ok(w[1:]) and nf(w) is not a complement
                  letter                                         (|w| >= 2)

    and w is in A(T) iff ok(w), plus, for a single letter, nf(w) is not a
    complement letter.  ok is memoized per presentation and step cap
    (``Presentation.membership``), so a word whose two maximal proper
    factors were seen before costs one normal form instead of one per
    factor.  A step cap exceeded on some factor raises and caches nothing
    for that factor.
    """
    if not word:
        return False
    membership = presentation.membership
    table = membership.factor_ok.setdefault(step_cap, {})
    ok = table.get(word)
    if ok is None:
        ok = _factors_ok(word, presentation, table, step_cap)
    if len(word) == 1 and word[0] in membership.complement_letters:
        return ok and _class_in_t(word, presentation, step_cap)
    return ok


def _factors_ok(
    letters: Word,
    presentation: Presentation,
    table: dict[Word, bool],
    step_cap: int,
) -> bool:
    """ok(word) by the recursion in :func:`in_AT`, filling ``table``.

    The letters are tested first, left to right, so an unusable letter
    answers False and a letter outside the alphabet raises InputError just
    as a scan of every factor would.  The recursion runs on an explicit
    stack of factor bounds, so long words stay clear of the interpreter's
    recursion limit.
    """
    complement = presentation.membership.complement_letters
    for letter in letters:
        key = (letter,)
        ok = table.get(key)
        if ok is None:
            ok = letter in complement or _class_in_t(key, presentation, step_cap)
            table[key] = ok
        if not ok:
            return False
    if len(letters) == 1:
        return True
    stack = [(0, len(letters))]
    while stack:
        i, j = stack[-1]
        ok = table.get(letters[i : j - 1])
        if ok is None:
            stack.append((i, j - 1))
            continue
        if ok:
            ok = table.get(letters[i + 1 : j])
            if ok is None:
                stack.append((i + 1, j))
                continue
        if ok:
            ok = _class_in_t(letters[i:j], presentation, step_cap)
        table[letters[i:j]] = ok
        stack.pop()
    return table[letters]


def build_f_sets(
    classification: LetterClassification,
    presentation: Presentation,
    step_cap: int = DEFAULT_STEP_CAP,
) -> FSets:
    """The four seed shapes of the representative set."""
    a1, a_s = classification.a1, classification.a_s
    both = a1 + a_s

    def member(word: Word) -> bool:
        return in_T(word, presentation, step_cap)

    f1 = tuple((a,) for a in a1)
    f2 = tuple((s, b) for s in a_s for b in both if member((s, b)))
    f3 = tuple((a, s) for a in a1 for s in a_s if member((a, s)))
    f4 = tuple(
        (s, b, s2)
        for s in a_s
        for b in both
        for s2 in a_s
        if member((s, b)) and member((b, s2)) and member((s, b, s2))
    )
    def ordered(words: tuple[Word, ...]) -> tuple[Word, ...]:
        return tuple(sorted(words, key=lambda w: (len(w), w)))

    return FSets(ordered(f1), ordered(f2), ordered(f3), ordered(f4))


def _c_kind(word: Word, classification: LetterClassification) -> str:
    a1 = set(classification.a1)
    if len(word) == 2:
        first, second = word
        if first in a1:
            return C_R
        return C_L1 if second in a1 else C_L2
    middle = word[1]
    return C_M1 if middle in a1 else C_M2


def build_b_alphabet(
    f_sets: FSets,
    classification: LetterClassification,
    base_alphabet: Alphabet,
) -> tuple[Alphabet, dict[Letter, Word]]:
    """B and phi's generator table: one fresh letter per boundary word,
    named after its image (c_<letters>, numeric suffix on collision), the
    generators ordered by kind (C_R, C_L1, C_L2, C_M1, C_M2), then by
    image length and image."""
    kind_order = {C_R: 0, C_L1: 1, C_L2: 2, C_M1: 3, C_M2: 4}
    boundary = sorted(
        f_sets.f3 + f_sets.f2 + f_sets.f4,
        key=lambda w: (kind_order[_c_kind(w, classification)], len(w), w),
    )
    images: dict[Letter, Word] = {}
    taken = base_alphabet
    for image in boundary:
        name = taken.fresh_name("c_" + "_".join(image))
        taken = taken.extended([name])
        images[name] = image
    alphabet = generator_letters(classification, images)
    if len(alphabet) == 0:
        raise ConstructionError(
            "the subsemigroup is not expressible: no generator letters "
            "(empty a1 and no admissible boundary words)"
        )
    return alphabet, images


def generator_letters(
    classification: LetterClassification, images: dict[Letter, Word]
) -> Alphabet:
    """B in construction order: the a1 letters in base order, then the
    generators of ``images`` (name -> boundary word over the base
    alphabet) in its order.  A table read from a file may hold anything,
    so an image that is not 2 or 3 letters long is refused."""
    alphabet = Alphabet([*classification.a1, *images])
    for name, image in images.items():
        if len(image) not in (2, 3):
            raise InputError(f"generator {name!r}: a boundary word has 2 or 3 letters")
    return alphabet


def phi_t(word: Word, construction: LargeSubConstruction) -> Word:
    """phi of a construction: :func:`substitute` over its generator images."""
    return substitute(word, construction.images)


def rho_t(
    word: Word,
    construction: LargeSubConstruction,
    check: bool = True,
    step_cap: int = DEFAULT_STEP_CAP,
) -> Word:
    """Canonical B-factorization of a representative word.

    Base case first: a word that is itself a seed shape becomes a single
    letter.  Otherwise peel one a1 letter, or one length-2 boundary prefix,
    and recurse; the remainder is again a representative.
    """
    if (check and not in_AT(word, construction.presentation, step_cap)) or not word:
        raise PreconditionError(
            f"'{show(word)}' is not in the representative set; rho is undefined on it"
        )
    a1, by_image = construction._a1, construction._by_image
    a_s = construction.presentation.membership.complement_letters
    out: list[Letter] = []
    start = 0  # the part of the word left to factor is word[start:]
    while True:
        hit = by_image.get(word[start:])
        if hit is not None:
            out.append(hit)
            return tuple(out)
        first = word[start]
        if first in a1:
            out.append(first)
            start += 1
        elif first in a_s and len(word) - start >= 3:
            head = by_image.get(word[start : start + 2])
            if head is None:
                raise PreconditionError(
                    f"'{show(word)}' is not in the representative set "
                    f"(prefix '{show(word[start : start + 2])}' crosses the complement)"
                )
            out.append(head)
            start += 2
        else:
            raise PreconditionError(f"'{show(word)}' is not in the representative set")


def build_construction(
    presentation: Presentation, step_cap: int = DEFAULT_STEP_CAP
) -> LargeSubConstruction:
    """Run the whole construction for a prepared (Q1-Q3) presentation.

    The presentation is taken as given: its completeness is not checked
    here (the command line prepares every source with
    :func:`pipeline.prepare_presentation`, which verifies it).  The
    letter classification runs first, and with it the Q1-Q3 gate.  The
    bounded subsemigroup-closure check comes next
    (:func:`pipeline.require_subsemigroup_closed`).

    R_T is built in the order it is written: the D1 rules by length and
    then letter order of B, then the D2 rules in letter order; nothing is
    sorted afterwards.
    """
    classification = classify_letters(presentation, step_cap)
    pipeline.require_subsemigroup_closed(presentation, step_cap)

    f_sets = build_f_sets(classification, presentation, step_cap)
    b_alphabet, images = build_b_alphabet(f_sets, classification, presentation.system.alphabet)
    system = presentation.system
    construction = LargeSubConstruction(
        presentation, classification, images, RewritingSystem(b_alphabet)
    )
    n_bound = construction.n_bound

    emitter = RuleEmitter()

    # D1: the B-words level by level, each carried with its image.  A level
    # extends in letter order, so the words, and their rules, come by
    # length and then letter order.  The image only grows with the word,
    # so a word whose image passes N is dropped with all its extensions.
    letters = b_alphabet.names()
    letter_images = [(x, images.get(x, (x,))) for x in letters]
    level: list[tuple[Word, Word]] = [((), ())]
    while level:
        level = [
            (word + (x,), image + x_image)
            for word, image in level
            for x, x_image in letter_images
            if len(image) + len(x_image) <= n_bound
        ]
        for u_prime, u_image in level:
            reduced = normal_form(u_image, system, step_cap)
            if reduced != u_image:
                emitter.emit(u_prime, rho_t(reduced, construction, step_cap=step_cap), D1)

    # D2: every length-2 word whose image is a representative but is not
    # already that image's canonical factorization, after every D1 rule; a
    # rule emitted by both keeps its D1 place.
    for x in letters:
        for y in letters:
            u_prime = (x, y)
            image = phi_t(u_prime, construction)
            if not in_AT(image, presentation, step_cap):
                continue
            canonical = rho_t(image, construction, check=False, step_cap=step_cap)
            if canonical != u_prime:
                emitter.emit(u_prime, canonical, D2)

    r_t = RewritingSystem(b_alphabet, emitter.rules())
    return LargeSubConstruction(presentation, classification, images, r_t)
