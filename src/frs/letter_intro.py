"""Introduce a fresh letter naming one irreducible word, preserving the
presented semigroup and completeness.

Given a complete system over A and an irreducible word w0 of length > 1,
this builds a system over B = A + {s} in which w0 reduces to s, every
original class is preserved, and completeness survives.  The construction
rewrites the old rules through the retraction rho (which compresses w0
suffix-occurrences into s), adds the naming rule w0 -> s, closes under all
ways w0 can overlap a left-hand side (families C3/C4/C5), and adds one
commutation rule per self-overlap of w0 (family C6).
"""

from __future__ import annotations

from functools import cached_property

from . import property_r
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
    is_irreducible,
    normal_form,
    show,
)

C1, C2, C3, C4, C5, C6 = "C1", "C2", "C3", "C4", "C5", "C6"


def rho_s(word: Word, w0: Word, s: Letter) -> Word:
    """Retraction onto B-words: scan from the right, compressing each
    suffix occurrence of ``w0`` into the single letter ``s``.

    Total and deterministic on words over A; the empty word maps to itself.
    Letters are compared by name.  Expanding each s back into w0 gives the
    word again: phi(rho_s(u)) = u for every A-word u, so P5 holds at every
    length.

    Lemma (P1 from short words).  Call w0 borderless when no nonempty
    proper prefix of it is also a suffix.  Two occurrences of a borderless
    w0 never overlap, so rho_s replaces every occurrence by s, and
    rho_s(x y) = rho_s(x) rho_s(y) whenever no occurrence straddles the cut
    between x and y.  Let L = maxlen(R) + 2(|w0| - 1), R the base rules.
    If P1 holds on every A-word of length <= L, it holds on every A-word.

    Proof.  Let u = x l y reduce to v1 = x r y by a base rule l -> r.  Widen
    the window of l to the ends of the occurrences of w0, if any, that
    straddle its two edges.  This splits u = x1 f y2 with f = x2 l y1 and
    |f| <= L.  No occurrence straddles a cut: a new edge ends an
    occurrence, and a second occurrence across it would overlap that one.
    Every A-word is a representative, and f reduces to g = x2 r y1, so by
    P1 on f some one-step reduct f' of rho_s(f) has g ->* phi(f').  By
    context closure (Book & Otto, String-Rewriting Systems, 1993, ch. 2),
    rho_s(u) = rho_s(x1) rho_s(f) rho_s(y2) -> rho_s(x1) f' rho_s(y2).
    phi is a homomorphism and phi(rho_s(x)) = x, so the image of that
    reduct is x1 phi(f') y2, and v1 = x1 g y2 ->* x1 phi(f') y2.
    """
    if len(w0) < 2:
        raise PreconditionError("the named word must have length > 1")
    if s in word:
        raise InputError(f"input to rho contains the fresh letter {s!r}")
    out: list[Letter] = []
    i = len(word)
    k = len(w0)
    while i > 0:
        if i >= k and word[i - k : i] == w0:
            out.append(s)
            i -= k
        else:
            out.append(word[i - 1])
            i -= 1
    out.reverse()
    return tuple(out)


def self_overlaps(w0: Word) -> list[tuple[Word, Word, Word]]:
    """All factorizations w0 = x1 x2 = x2 x3 with x1, x2, x3 nonempty.

    Equivalently, x2 ranges over the proper nonempty borders of w0; x1 and
    x3 always have equal length.
    """
    if len(w0) < 2:
        raise PreconditionError("the named word must have length > 1")
    out = []
    n = len(w0)
    for k in range(1, n):
        if w0[:k] == w0[n - k:]:
            out.append((w0[: n - k], w0[:k], w0[k:]))
    return out


class LetterIntroResult:
    """Output of one letter-introduction round: the fresh letter, the word
    w0 it names, the system R_S and the base system it extends.  B = A + {s}
    is R_S's alphabet, read back as ``b_alphabet``."""

    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        new_letter: Letter,
        w0: Word,
        r_s: RewritingSystem,
        base: RewritingSystem,
    ):
        self.__dict__.update(new_letter=new_letter, w0=w0, r_s=r_s, base=base)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = ("new_letter", "w0", "r_s", "base")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    @property
    def b_alphabet(self) -> Alphabet:
        """B, the alphabet of R_S."""
        return self.r_s.alphabet

    @cached_property
    def images(self) -> dict[Letter, Word]:
        """The generator table phi substitutes: the fresh letter names w0."""
        return {self.new_letter: self.w0}

    @cached_property
    def borderless(self) -> bool:
        """Whether no nonempty proper prefix of w0 is also a suffix, so
        that P1 follows from short words (see :func:`rho_s`)."""
        return not self_overlaps(self.w0)

    def rho(self, word: Word) -> Word:
        return rho_s(word, self.w0, self.new_letter)

    def in_at(self, word: Word) -> bool:
        """Every A-word represents an element of the target semigroup
        here, so both membership predicates are trivially true."""
        return True

    def as_candidate_tuple(self) -> property_r.CandidateTuple:
        return property_r.CandidateTuple(
            base=self.base,
            system=self.r_s,
            images=self.images,
            rho=self.rho,
            in_at=self.in_at,
            in_t=self.in_at,
            letter_intro=self,
        )


def build_letter_intro(
    system: RewritingSystem,
    w0: Word,
    s_name: str = "s",
    step_cap: int = DEFAULT_STEP_CAP,
) -> LetterIntroResult:
    """Build the extended system for naming ``w0`` by a fresh letter.

    Requires ``w0`` irreducible with length > 1, and assumes ``system`` has
    been verified complete by the caller.  The requested fresh name gets a
    deterministic numeric suffix if it collides with an existing letter.
    """
    if len(w0) < 2:
        raise PreconditionError("the named word must have length > 1")
    for letter in w0:
        if letter not in system.alphabet:
            raise InputError(f"letter {letter!r} is not in the alphabet")
    if not is_irreducible(w0, system):
        raise PreconditionError(f"the named word '{show(w0)}' must be irreducible")

    s = system.alphabet.fresh_name(s_name)
    b_alphabet = system.alphabet.extended([s])

    def rho(word: Word) -> Word:
        return rho_s(word, w0, s)

    emitter = RuleEmitter()

    def close(assembled: Word, family: str) -> None:
        """Emit the rule taking ``assembled`` to its normal form, through rho."""
        emitter.emit(rho(assembled), rho(normal_form(assembled, system, step_cap)), family)

    # C1: the original rules, transported through rho.
    for rule in system.rules:
        emitter.emit(rho(rule.lhs), rho(rule.rhs), C1)
    # C2: the naming rule itself.
    emitter.emit(w0, (s,), C2)
    # The overlap lengths k of w0 with each lhs, ascending: from the left
    # (a nonempty prefix of the lhs is a suffix of w0) and from the right
    # (a nonempty suffix of the lhs is a prefix of w0).
    n = len(w0)
    overlaps = []
    for rule in system.rules:
        lhs = rule.lhs
        lengths = range(1, min(len(lhs), n) + 1)
        left = [k for k in lengths if w0[n - k:] == lhs[:k]]
        right = [k for k in lengths if w0[:k] == lhs[len(lhs) - k:]]
        overlaps.append((lhs, left, right))
    # C3: w0 overlapping a lhs from the left; the assembled word is w0's
    # remainder + lhs.
    for lhs, left, _ in overlaps:
        for k in left:
            close(w0[: n - k] + lhs, C3)
    # C4: mirror image, w0 overlapping a lhs from the right.
    for lhs, _, right in overlaps:
        for k in right:
            close(lhs + w0[k:], C4)
    # C5: two w0 occurrences straddling both ends of one lhs, disjoint
    # within it.
    for lhs, left, right in overlaps:
        for i in left:
            for j in right:
                if j <= len(lhs) - i:
                    close(w0[: n - i] + lhs + w0[j:], C5)
    # C6: one commutation rule per self-overlap of w0.
    for x1, _x2, x3 in self_overlaps(w0):
        emitter.emit((s, *x3), (*x1, s), C6)

    # Emission runs family by family, so insertion order is already the
    # canonical order: C1 block, C2, C3 block, C4, C5, C6; a deduplicated
    # rule keeps its first position and accumulates tags.
    r_s = RewritingSystem(b_alphabet, emitter.rules())
    return LetterIntroResult(s, w0, r_s, system)
