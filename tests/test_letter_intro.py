import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from frs import (
    Alphabet,
    InputError,
    NonTerminationError,
    PreconditionError,
    Word,
    build_letter_intro,
    is_irreducible,
    normal_form,
    reduces_to,
    rho_s,
    self_overlaps,
    show,
    substitute,
    verify_complete,
    words_over,
)

from frs.core import RuleEmitter

from conftest import looping_systems, rule_set, system, w

S = "s"


def reference_rho_s(word, w0, s):
    """rho_s as it was when it compared letters one by one."""
    if len(w0) < 2:
        raise PreconditionError("the named word must have length > 1")
    if any(letter == s for letter in word):
        raise InputError(f"input to rho contains the fresh letter {s!r}")
    out = []
    i = len(word)
    k = len(w0)
    while i > 0:
        if i >= k and word[i - k: i] == w0:
            out.append(s)
            i -= k
        else:
            out.append(word[i - 1])
            i -= 1
    out.reverse()
    return Word(tuple(out))


def outcome(rho, word, w0):
    try:
        return tuple(rho(word, w0, S))
    except (InputError, PreconditionError) as exc:
        return type(exc), str(exc)


class TestRho:
    def test_compresses_every_suffix_occurrence(self, free_ab):
        assert show(rho_s(w(free_ab.alphabet, "abab"), w(free_ab.alphabet, "ab"), S)) == "s s"

    def test_untouched_when_never_matching(self, free_ab):
        assert show(rho_s(w(free_ab.alphabet, "ba"), w(free_ab.alphabet, "ab"), S)) == "b a"

    def test_overlapping_occurrences_resolved_from_the_right(self, free_a):
        assert show(rho_s(w(free_a.alphabet, "aaa"), w(free_a.alphabet, "aa"), S)) == "a s"

    def test_rejects_fresh_letter_in_input(self, free_a):
        with pytest.raises(InputError):
            rho_s(Word((S,)), w(free_a.alphabet, "aa"), S)

    def test_empty_word_maps_to_itself(self, free_a):
        assert rho_s(Word(), w(free_a.alphabet, "aa"), S) == Word()


class TestRhoAgainstReference:
    @pytest.mark.parametrize(
        "fixture", ["sys_aaa", "sys_moves", "sys_nonconfluent", "free_a", "free_ab"]
    )
    def test_same_results_and_errors(self, fixture, request):
        # sys_moves has a letter named s, so its words exercise the error
        # for the fresh letter; w0 of length 1 exercises the length error.
        alphabet = request.getfixturevalue(fixture).alphabet
        words = list(itertools.chain([Word()], words_over(alphabet, 7)))
        for w0 in words_over(alphabet, 3):
            for word in words:
                assert outcome(rho_s, word, w0) == outcome(reference_rho_s, word, w0)


class TestPhi:
    def test_substitutes_the_named_word(self, free_ab):
        assert show(substitute(Word((S, S)), {"s": w(free_ab.alphabet, "ab")})) == "a b a b"

    def test_identity_on_base_letters(self, free_ab):
        word = w(free_ab.alphabet, "a")
        assert substitute(word, {"s": w(free_ab.alphabet, "ab")}) == word

    def test_concatenates_images(self, free_ab):
        a, b = free_ab.alphabet.get("a"), free_ab.alphabet.get("b")
        assert show(substitute(Word((a, S, b)), {"s": w(free_ab.alphabet, "aa")})) == "a a a b"


A_WORDS = st.lists(st.sampled_from("abc"), max_size=10).map(tuple)
NAMED_WORDS = st.lists(st.sampled_from("abc"), min_size=2, max_size=4).map(tuple)


class TestShortWordLemma:
    """The parts of the lemma at rho_s that prove P1 and P5 of a letter
    introduction from its short words."""

    @settings(max_examples=300, deadline=None)
    @given(NAMED_WORDS, A_WORDS, A_WORDS)
    def test_rho_factors_over_a_cut_that_splits_no_occurrence(self, w0, x, y):
        assume(not self_overlaps(w0))
        word, k = x + y, len(w0)
        straddling = range(max(0, len(x) - k + 1), len(x))
        assume(all(word[i : i + k] != w0 for i in straddling))
        assert rho_s(word, w0, S) == rho_s(x, w0, S) + rho_s(y, w0, S)

    @settings(max_examples=300, deadline=None)
    @given(NAMED_WORDS, A_WORDS)
    def test_every_occurrence_of_a_borderless_word_is_replaced(self, w0, word):
        assume(not self_overlaps(w0))
        occurrences = sum(word[i : i + len(w0)] == w0 for i in range(len(word)))
        assert rho_s(word, w0, S).count(S) == occurrences

    @settings(max_examples=300, deadline=None)
    @given(NAMED_WORDS, A_WORDS)
    def test_phi_undoes_rho(self, w0, word):
        assert substitute(rho_s(word, w0, S), {S: w0}) == word


class TestSelfOverlaps:
    def test_no_border(self, free_ab):
        assert self_overlaps(w(free_ab.alphabet, "ab")) == []

    def test_square(self, free_a):
        overlaps = self_overlaps(w(free_a.alphabet, "aa"))
        assert [(show(x), show(y), show(z)) for x, y, z in overlaps] == [("a", "a", "a")]

    def test_palindromic_border(self, free_ab):
        overlaps = self_overlaps(w(free_ab.alphabet, "aba"))
        assert [(show(x), show(y), show(z)) for x, y, z in overlaps] == [("a b", "a", "b a")]

    def test_factorization_laws(self, free_ab):
        for word in (u for u in words_over(free_ab.alphabet, 6) if len(u) >= 2):
            for x1, x2, x3 in self_overlaps(word):
                assert x1 + x2 == word == x2 + x3
                assert len(x1) == len(x3)


class TestBuild:
    def test_square_fixture(self, free_a):
        result = build_letter_intro(free_a, w(free_a.alphabet, "aa"))
        assert rule_set(result.r_s) == {
            (("a", "a"), ("s",)),
            (("s", "a"), ("a", "s")),
        }
        assert result.new_letter == "s"
        assert result.b_alphabet.names() == ("a", "s")

    def test_two_letter_fixture(self, free_ab):
        result = build_letter_intro(free_ab, w(free_ab.alphabet, "ab"))
        assert rule_set(result.r_s) == {(("a", "b"), ("s",))}

    def test_reducible_word_rejected(self, sys_aaa):
        with pytest.raises(PreconditionError):
            build_letter_intro(sys_aaa, w(sys_aaa.alphabet, "aaa"))

    def test_too_short_rejected(self, free_a):
        with pytest.raises(PreconditionError):
            build_letter_intro(free_a, w(free_a.alphabet, "a"))

    def test_name_collision_gets_suffix(self):
        sys = system("a s")
        result = build_letter_intro(sys, w(sys.alphabet, "aa"))
        assert result.new_letter == "s0"

    def test_exactly_one_naming_rule(self, sys_aaa):
        result = build_letter_intro(sys_aaa, w(sys_aaa.alphabet, "aa"))
        naming = [r for r in result.r_s.rules if "C2" in r.tags]
        assert len(naming) == 1
        assert naming[0].lhs == result.w0
        assert naming[0].rhs == Word((result.new_letter,))

    def test_c1_rules_are_transported_originals(self, sys_aaa):
        result = build_letter_intro(sys_aaa, w(sys_aaa.alphabet, "aa"))
        transported = {
            (r.lhs, r.rhs)
            for r in result.r_s.rules
            if "C1" in r.tags
        }
        expected = {
            (result.rho(rule.lhs), result.rho(rule.rhs)) for rule in sys_aaa.rules
        }
        assert transported == expected

    def test_overlap_closure_on_nontrivial_base(self, sys_aaa):
        result = build_letter_intro(sys_aaa, w(sys_aaa.alphabet, "aa"))
        assert rule_set(result.r_s) == {
            (("a", "s"), ("a",)),
            (("a", "a"), ("s",)),
            (("s", "s"), ("s",)),
            (("a", "s", "s"), ("a",)),
            (("s", "a"), ("a", "s")),
        }


def reference_letter_intro_rules(system, w0, step_cap):
    """The rules of build_letter_intro as they were when C3, C4 and C5
    each tested the overlaps of w0 with every left-hand side anew."""
    s = system.alphabet.fresh_name(S)
    emitter = RuleEmitter()

    def close(assembled, family):
        reduced = normal_form(assembled, system, step_cap)
        emitter.emit(rho_s(assembled, w0, s), rho_s(reduced, w0, s), family)

    for rule in system.rules:
        emitter.emit(rho_s(rule.lhs, w0, s), rho_s(rule.rhs, w0, s), "C1")
    emitter.emit(w0, (s,), "C2")
    for rule in system.rules:
        lhs = rule.lhs
        for k in range(1, min(len(lhs), len(w0)) + 1):
            if w0[len(w0) - k:] == lhs[:k]:
                close(w0[: len(w0) - k] + lhs, "C3")
    for rule in system.rules:
        lhs = rule.lhs
        for k in range(1, min(len(lhs), len(w0)) + 1):
            if w0[:k] == lhs[len(lhs) - k:]:
                close(lhs + w0[k:], "C4")
    for rule in system.rules:
        lhs = rule.lhs
        for i in range(1, min(len(lhs), len(w0)) + 1):
            if w0[len(w0) - i:] != lhs[:i]:
                continue
            for j in range(1, min(len(lhs) - i, len(w0)) + 1):
                if w0[:j] == lhs[len(lhs) - j:]:
                    close(w0[: len(w0) - i] + lhs + w0[j:], "C5")
    for x1, _x2, x3 in self_overlaps(w0):
        emitter.emit((s, *x3), (*x1, s), "C6")
    return emitter.rules()


def rules_or_error(build, *args):
    """The rules with their tags, or the message of the step-cap hit."""
    try:
        return [(rule.lhs, rule.rhs, rule.tags) for rule in build(*args)]
    except NonTerminationError as err:
        return str(err)


class TestBuildAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(looping_systems(), st.lists(st.sampled_from("abc"), min_size=2, max_size=4), st.data())
    def test_same_rules_in_the_same_order(self, sys, names, data):
        w0 = sys.alphabet.word(names)
        assume(is_irreducible(w0, sys))
        step_cap = data.draw(st.sampled_from([0, 1, 3, 30]))
        assert rules_or_error(
            lambda: build_letter_intro(sys, w0, S, step_cap).r_s.rules
        ) == rules_or_error(reference_letter_intro_rules, sys, w0, step_cap)


def _fixtures(free_a, free_ab):
    return [
        build_letter_intro(free_a, w(free_a.alphabet, "aa")),
        build_letter_intro(free_ab, w(free_ab.alphabet, "ab")),
        build_letter_intro(free_ab, w(free_ab.alphabet, "aba")),
        build_letter_intro(
            system("a", ("aaa", "a")), w(Alphabet(["a"]), "aa")
        ),
    ]


class TestConstructionLaws:
    def test_every_fixture_complete(self, free_a, free_ab):
        for result in _fixtures(free_a, free_ab):
            assert verify_complete(result.r_s).verdict == "complete"

    def test_named_word_reduces_to_new_letter(self, free_a, free_ab):
        for result in _fixtures(free_a, free_ab):
            assert reduces_to(result.w0, Word((result.new_letter,)), result.r_s)
            assert is_irreducible(Word((result.new_letter,)), result.r_s)

    def test_irreducible_base_letters_stay_irreducible(self, free_a, free_ab):
        for result in _fixtures(free_a, free_ab):
            for letter in result.base.alphabet:
                single = Word((letter,))
                if is_irreducible(single, result.base):
                    assert is_irreducible(single, result.r_s)

    def test_only_transported_rules_may_have_short_lhs(self, free_a, free_ab):
        for result in _fixtures(free_a, free_ab):
            for rule in result.r_s.rules:
                if rule.tags != ("C1",):
                    assert len(rule.lhs) > 1

    def test_retraction_is_left_inverse_of_substitution(self, free_a, free_ab):
        for result in _fixtures(free_a, free_ab):
            for word in words_over(result.base.alphabet, 8):
                assert result.phi(result.rho(word)) == word

    def test_rho_tail_factorization(self, free_a, free_ab):
        # If rho splits off the last factor of a triple product, it also
        # splits the corresponding pair product.
        for result in _fixtures(free_a, free_ab)[:3]:
            for word in (u for u in words_over(result.base.alphabet, 9) if len(u) >= 3):
                rho_word = result.rho(word)
                for i in range(1, len(word) - 1):
                    for j in range(i + 1, len(word)):
                        x1, x2, x3 = word[:i], word[i:j], word[j:]
                        if rho_word == result.rho(x1 + x2) + result.rho(x3):
                            assert result.rho(x2 + x3) == result.rho(x2) + result.rho(x3)

    def test_rho_of_product_splits_or_straddles(self, free_a, free_ab):
        # Either rho is multiplicative on the pair, or the two parts
        # straddle one occurrence of the named word.
        for result in _fixtures(free_a, free_ab)[:3]:
            letters = result.base.alphabet
            s_word = Word((result.new_letter,))
            for word in (u for u in words_over(letters, 8) if len(u) >= 2):
                for cut in range(1, len(word)):
                    x1, x2 = word[:cut], word[cut:]
                    if result.rho(word) == result.rho(x1) + result.rho(x2):
                        continue
                    witnessed = False
                    for z2_len in range(1, min(len(x1), len(result.w0)) + 1):
                        z3_len = len(result.w0) - z2_len
                        if not 1 <= z3_len <= len(x2):
                            continue
                        z1, z2 = x1[: len(x1) - z2_len], x1[len(x1) - z2_len:]
                        z3, z4 = x2[:z3_len], x2[z3_len:]
                        if z2 + z3 == result.w0 and result.rho(word) == (
                            result.rho(z1) + s_word + result.rho(z4)
                        ):
                            witnessed = True
                            break
                    assert witnessed, f"{show(word)} split at {cut} has no witness"

    def test_every_extended_word_reaches_its_canonical_form(self, free_a, free_ab):
        for result in _fixtures(free_a, free_ab):
            for word in words_over(result.b_alphabet, 6):
                target = result.rho(result.phi(word))
                assert reduces_to(word, target, result.r_s)
