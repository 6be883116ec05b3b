import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings, strategies as st

from frs import (
    Alphabet,
    InputError,
    NonTerminationError,
    PreconditionError,
    Presentation,
    RewriteError,
    RewritingSystem,
    Rule,
    Word,
    build_construction,
    build_f_sets,
    classify_letters,
    in_AT,
    in_T,
    normal_form,
    normalize_q2_q3,
    phi_t,
    prepare_presentation,
    reduces_to,
    rho_t,
    show,
    verify_complete,
    words_over,
)
from frs.completeness import right_drift_letters
from frs.core import DEFAULT_STEP_CAP
from frs.large_sub import C_M1, C_M2, C_R, ConstructionError, build_b_alphabet

from conftest import rule_set, system, w

# Ladder shapes as (alphabet, rules, complement), prepared before use.
LADDER_SHAPES = {
    "comm": ("a b", [("ba", "ab")], ["a"]),
    "two": ("a b", [("aaa", "a"), ("bb", "b")], ["a", "aa"]),
    "idem": ("a b", [("aa", "a"), ("bb", "b")], ["a"]),
    "idcomm": ("a b", [("aa", "a"), ("ba", "ab")], ["a"]),
    "aba": ("a b", [("aba", "a")], ["a"]),
    "mono42": ("a", [("aaaa", "aa")], ["a"]),
    "comm_aa": ("a b", [("ba", "ab")], ["a", "aa"]),
}
# The other five inputs of the benchmark ladder.
MORE_LADDER_SHAPES = {
    "three": ("a b c", [("ca", "ac"), ("cb", "bc")], ["a", "b"]),
    "free": ("a b", [], ["a"]),
    "aaa": ("a", [("aaa", "a")], ["a"]),
    "comm_ab": ("a b", [("ba", "ab")], ["a", "b"]),
    "free3": ("a b c", [], ["a"]),
}


def ladder_presentation(shape):
    letters, rules, complement = {**LADDER_SHAPES, **MORE_LADDER_SHAPES}[shape]
    sys = system(letters, *rules)
    words = tuple(w(sys.alphabet, text) for text in complement)
    return prepare_presentation(Presentation(sys, words))


def reference_in_T(word, presentation, step_cap=DEFAULT_STEP_CAP):
    """The unmemoized membership test in T."""
    complement = set(presentation.complement)
    return normal_form(word, presentation.system, step_cap) not in complement


def reference_in_AT(word, presentation, step_cap=DEFAULT_STEP_CAP):
    """The unmemoized representative-set test: one normal form per factor."""
    if not word:
        return False
    complement = {w[0] for w in presentation.complement}
    system = presentation.system

    def factor_in_t(factor):
        form = normal_form(factor, system, step_cap)
        return not (len(form) == 1 and form[0] in complement)

    for letter in word:
        single = Word((letter,))
        if letter not in complement and not factor_in_t(single):
            return False  # reduces to a complement letter without being one
    if not factor_in_t(word):
        return False
    n = len(word)
    for i in range(n):
        for j in range(i + 2, n + 1):
            if (i, j) != (0, n) and not factor_in_t(word[i:j]):
                return False
    return True


def assert_membership_matches_reference(presentation, max_len):
    for word in words_over(presentation.system.alphabet, max_len):
        assert in_AT(word, presentation) == reference_in_AT(word, presentation), word
        assert in_T(word, presentation) == reference_in_T(word, presentation), word


@st.composite
def prepared_presentations(draw):
    """Random length-reducing systems over {a, b} with a random complement
    of short words, run through the preparation pipeline; inputs that are
    not complete are rejected."""
    alphabet = Alphabet(["a", "b"])
    rules = []
    for lhs in draw(st.lists(st.text("ab", min_size=2, max_size=3), min_size=1, max_size=3)):
        rhs = draw(st.text("ab", min_size=1, max_size=len(lhs) - 1))
        rules.append(Rule(alphabet.word(list(lhs)), alphabet.word(list(rhs))))
    complement = draw(st.lists(st.text("ab", min_size=1, max_size=2), min_size=1, max_size=2))
    presentation = Presentation(
        RewritingSystem(alphabet, tuple(rules)),
        tuple(alphabet.word(list(text)) for text in complement),
    )
    try:
        return prepare_presentation(presentation)
    except RewriteError:
        assume(False)


@pytest.fixture
def cons_aaa(pres_aaa):
    return build_construction(prepare_presentation(pres_aaa))


@pytest.fixture
def cons_free(pres_free_ab):
    return build_construction(prepare_presentation(pres_free_ab))


class TestClassification:
    def test_free_two_letters(self, pres_free_ab):
        cls = classify_letters(pres_free_ab)
        assert cls.a1 == ("b",)
        assert cls.a_s == ("a",)
        assert cls.excluded == ()

    def test_single_letter_complement_only(self, pres_aaa):
        cls = classify_letters(pres_aaa)
        assert cls.a1 == ()
        assert cls.a_s == ("a",)

    def test_after_letterization(self, free_ab):
        pres = prepare_presentation(
            Presentation(free_ab, (w(free_ab.alphabet, "ab"),))
        )
        cls = classify_letters(pres)
        assert cls.a1 == ("a", "b")
        assert cls.a_s == ("s",)

    def test_letter_reducing_to_complement_is_excluded(self):
        sys = system("a b", ("b", "a"))
        pres = Presentation(sys, (w(sys.alphabet, "a"),))
        cls = classify_letters(pres)
        assert cls.excluded == ("b",)
        assert cls.a1 == ()


class TestMembership:
    def test_complement_letter_not_in_t(self, pres_aaa):
        assert not in_T(w(pres_aaa.system.alphabet, "a"), pres_aaa)

    def test_irreducible_square_in_t(self, pres_aaa):
        assert in_T(w(pres_aaa.system.alphabet, "aa"), pres_aaa)

    def test_class_decided_by_normal_form(self, pres_aaa):
        assert not in_T(w(pres_aaa.system.alphabet, "aaa"), pres_aaa)

    def test_representative_set_examples(self, pres_free_ab, pres_aaa):
        ab = pres_free_ab.system.alphabet
        assert in_AT(w(ab, "aba"), pres_free_ab)
        assert not in_AT(w(ab, "a"), pres_free_ab)
        a = pres_aaa.system.alphabet
        assert not in_AT(w(a, "aaaa"), pres_aaa)
        assert in_AT(w(a, "aa"), pres_aaa)

    def test_excluded_letters_break_membership(self):
        sys = system("a b", ("b", "a"))
        pres = Presentation(sys, (w(sys.alphabet, "a"),))
        assert not in_AT(w(sys.alphabet, "bb"), pres)

    def test_without_complement_rejected(self, free_ab):
        pres = Presentation(free_ab)
        word = w(free_ab.alphabet, "ab")
        for member in (in_AT, in_T):
            with pytest.raises(PreconditionError, match="no complement declaration"):
                member(word, pres)


class TestMembershipAgainstReference:
    @pytest.mark.parametrize("fixture", ["pres_aaa", "pres_free_ab"])
    def test_fixture_words_agree(self, fixture, request):
        assert_membership_matches_reference(request.getfixturevalue(fixture), 7)

    @pytest.mark.parametrize("shape", sorted(LADDER_SHAPES))
    def test_ladder_words_agree(self, shape):
        assert_membership_matches_reference(ladder_presentation(shape), 7)

    @settings(max_examples=100, deadline=None)
    @given(prepared_presentations())
    def test_random_presentations_agree(self, presentation):
        assert_membership_matches_reference(presentation, 5)


class TestMembershipCache:
    def test_step_cap_failure_not_cached(self):
        pres = ladder_presentation("comm")
        # b b a needs two steps to its normal form a b b.
        word = w(pres.system.alphabet, "bba")
        for _ in range(2):
            with pytest.raises(NonTerminationError):
                in_AT(word, pres, step_cap=1)
        assert ("b", "b", "a") not in pres.membership.factor_ok[1]
        assert in_AT(word, pres, step_cap=2)

    def test_step_caps_never_share_entries(self):
        pres = ladder_presentation("comm")
        word = w(pres.system.alphabet, "bba")
        assert in_AT(word, pres)
        with pytest.raises(NonTerminationError):
            in_AT(word, pres, step_cap=1)
        tables = pres.membership.factor_ok
        assert tuple(word) in tables[DEFAULT_STEP_CAP]
        assert tuple(word) not in tables[1]

    def test_foreign_letter_rejected_after_table_warm(self, pres_free_ab):
        for word in words_over(pres_free_ab.system.alphabet, 4):
            in_AT(word, pres_free_ab)
        foreign = w(Alphabet(["a", "b", "z"]), "abz")
        with pytest.raises(InputError):
            in_AT(foreign, pres_free_ab)
        with pytest.raises(InputError):
            in_T(foreign, pres_free_ab)

    def test_threads_sharing_a_cold_table_agree_with_reference(self):
        # The sweeps run serially, but a library caller may share one
        # presentation across threads, which then fill one table at the
        # same time.
        pres = ladder_presentation("two")
        words = list(words_over(pres.system.alphabet, 6))
        expected = [reference_in_AT(word, pres) for word in words]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(lambda: [in_AT(word, pres) for word in words])
                    for _ in range(4)
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 4

    def test_equality_ignores_the_cache(self, free_ab):
        left = Presentation(free_ab, (w(free_ab.alphabet, "a"),))
        right = Presentation(free_ab, (w(free_ab.alphabet, "a"),))
        assert in_AT(w(free_ab.alphabet, "aba"), left)
        assert left == right and right == left
        assert left.membership is not right.membership
        assert left != Presentation(free_ab, (w(free_ab.alphabet, "b"),))


class TestFSets:
    def test_free_fixture(self, pres_free_ab):
        cls = classify_letters(pres_free_ab)
        f = build_f_sets(cls, pres_free_ab)
        assert [show(x) for x in f.f1] == ["b"]
        assert [show(x) for x in f.f2] == ["a a", "a b"]
        assert [show(x) for x in f.f3] == ["b a"]
        assert [show(x) for x in f.f4] == ["a a a", "a b a"]

    def test_single_letter_fixture(self, pres_aaa):
        prepared = prepare_presentation(pres_aaa)
        cls = classify_letters(prepared)
        f = build_f_sets(cls, prepared)
        assert f.f1 == () and f.f3 == () and f.f4 == ()
        assert [show(x) for x in f.f2] == ["a a"]

    def test_membership_filtering(self):
        # Both letters excluded from T and no products in T: everything
        # empty, so no generating alphabet exists.
        sys = system("a b", ("ab", "a"), ("ba", "a"), ("aa", "a"), ("bb", "b"))
        pres = Presentation(
            sys, (w(sys.alphabet, "a"), w(sys.alphabet, "b"))
        )
        cls = classify_letters(pres)
        f = build_f_sets(cls, pres)
        assert f.f1 == () and f.f2 == () and f.f3 == () and f.f4 == ()
        with pytest.raises(ConstructionError):
            build_b_alphabet(f, cls, sys.alphabet)


class TestBAlphabet:
    def test_free_fixture_kinds(self, cons_free):
        assert cons_free.b_alphabet.names() == (
            "b",
            "c_b_a",
            "c_a_b",
            "c_a_a",
            "c_a_b_a",
            "c_a_a_a",
        )
        kinds = {c.letter: c.kind for c in cons_free.c_letters}
        assert kinds == {
            "c_b_a": "C_R",
            "c_a_b": "C_L1",
            "c_a_a": "C_L2",
            "c_a_b_a": "C_M1",
            "c_a_a_a": "C_M2",
        }

    def test_single_boundary_letter(self, cons_aaa):
        assert cons_aaa.b_alphabet.names() == ("c_a_a",)
        assert cons_aaa.c_letters[0].kind == "C_L2"

    def test_every_image_short(self, cons_free, cons_aaa):
        for cons in (cons_free, cons_aaa):
            for c in cons.c_letters:
                assert 2 <= len(c.image) <= 3

    @pytest.mark.parametrize("shape", sorted({**LADDER_SHAPES, **MORE_LADDER_SHAPES}))
    def test_right_drift_letters_are_the_right_drift_kinds(self, shape):
        # The image shapes pick the generators of kinds C_R, C_M1 and C_M2.
        cons = build_construction(ladder_presentation(shape))
        kinds = {c.letter for c in cons.c_letters if c.kind in (C_R, C_M1, C_M2)}
        assert right_drift_letters(cons.images, cons.b_alphabet) == kinds
        assert cons.as_candidate_tuple().heavy == kinds


class TestPhiRho:
    def test_phi_concatenates_images(self, cons_free):
        word = cons_free.b_alphabet.word("c_b_a c_a_b")
        assert show(phi_t(word, cons_free)) == "b a a b"

    def test_phi_identity_on_generators(self, cons_free):
        word = cons_free.b_alphabet.word("b")
        assert phi_t(word, cons_free) == w(cons_free.presentation.system.alphabet, "b")

    def test_phi_never_shrinks(self, cons_free):
        for word in words_over(cons_free.b_alphabet, 3):
            assert len(phi_t(word, cons_free)) >= len(word)

    def test_rho_peels_prefixes(self, cons_free):
        base = cons_free.presentation.system.alphabet
        assert show(rho_t(w(base, "baab"), cons_free)) == "b c_a_a b"

    def test_rho_prefers_seed_words(self, cons_free):
        base = cons_free.presentation.system.alphabet
        assert show(rho_t(w(base, "aba"), cons_free)) == "c_a_b_a"

    def test_rho_outside_domain_rejected(self, cons_free):
        base = cons_free.presentation.system.alphabet
        with pytest.raises(PreconditionError):
            rho_t(w(base, "a"), cons_free)

    def test_rho_of_the_empty_word_rejected(self, cons_free):
        for check in (True, False):
            with pytest.raises(PreconditionError, match="rho is undefined"):
                rho_t(Word(), cons_free, check=check)

    def test_rho_precondition_messages_name_the_word(self):
        # c reduces to the complement letter a, so it is excluded from B and
        # the prefix a c is no boundary word.
        base = system("a b c", ("c", "a"))
        cons = build_construction(prepare_presentation(Presentation(base, (w(base.alphabet, "a"),))))
        cases = [
            ("b c", True, "'b c' is not in the representative set; rho is undefined on it"),
            (
                "a c b",
                False,
                "'a c b' is not in the representative set (prefix 'a c' crosses the complement)",
            ),
            ("b c", False, "'b c' is not in the representative set"),
        ]
        for text, check, message in cases:
            with pytest.raises(PreconditionError) as exc:
                rho_t(w(base.alphabet, text), cons, check=check)
            assert str(exc.value) == message

    def test_retraction_identity_on_representatives(self, cons_free, cons_aaa):
        for cons in (cons_free, cons_aaa):
            base = cons.presentation.system.alphabet
            for word in words_over(base, 8):
                if in_AT(word, cons.presentation):
                    assert phi_t(rho_t(word, cons), cons) == word

    def test_rho_shape_all_but_last_light(self, cons_free, cons_aaa):
        for cons in (cons_free, cons_aaa):
            heavy = right_drift_letters(cons.images, cons.b_alphabet)
            base = cons.presentation.system.alphabet
            for word in words_over(base, 8):
                if in_AT(word, cons.presentation):
                    image = rho_t(word, cons)
                    assert all(letter not in heavy for letter in image[:-1])

    def test_straight_words_round_trip(self, cons_free):
        heavy = right_drift_letters(cons_free.images, cons_free.b_alphabet)
        for word in words_over(cons_free.b_alphabet, 5):
            if any(letter in heavy for letter in word[:-1]):
                continue
            image = phi_t(word, cons_free)
            if in_AT(image, cons_free.presentation):
                assert rho_t(image, cons_free) == word


class TestConstruction:
    def test_single_generator_fixture(self, cons_aaa):
        assert cons_aaa.n_bound == 7
        assert rule_set(cons_aaa.r_t) == {
            (("c_a_a", "c_a_a"), ("c_a_a",)),
            (("c_a_a", "c_a_a", "c_a_a"), ("c_a_a",)),
        }
        assert all("D1" in rule.tags for rule in cons_aaa.r_t.rules)

    def test_interreduced_variant(self, cons_aaa):
        reduced = normalize_q2_q3(cons_aaa.r_t)
        assert rule_set(reduced) == {(("c_a_a", "c_a_a"), ("c_a_a",))}
        assert verify_complete(reduced).verdict == "complete"

    def test_free_fixture_rules(self, cons_free):
        assert cons_free.n_bound == 4
        assert all("D2" in rule.tags for rule in cons_free.r_t.rules)
        sample = {
            (tuple(rule.lhs), tuple(rule.rhs)) for rule in cons_free.r_t.rules
        }
        assert (("c_b_a", "c_a_b"), ("b", "c_a_a", "b")) in sample
        assert len(cons_free.r_t.rules) == 18

    def test_no_rewrite_starts_with_a_light_letter(self, cons_free, cons_aaa):
        for cons in (cons_free, cons_aaa):
            heavy = right_drift_letters(cons.images, cons.b_alphabet)
            for rule in cons.r_t.rules:
                if "D2" in rule.tags:
                    assert rule.lhs[0] in heavy

    def test_both_fixtures_complete(self, cons_free, cons_aaa):
        for cons in (cons_free, cons_aaa):
            assert verify_complete(cons.r_t).verdict == "complete"

    def test_non_subsemigroup_rejected(self, free_ab):
        pres = prepare_presentation(
            Presentation(free_ab, (w(free_ab.alphabet, "ab"),))
        )
        with pytest.raises(PreconditionError):
            build_construction(pres)


class TestRuleLaws:
    def test_d1_bounds_and_reducibility(self, cons_aaa, cons_free):
        for cons in (cons_aaa, cons_free):
            base = cons.presentation.system
            for rule in cons.r_t.rules:
                if "D1" not in rule.tags:
                    continue
                image = phi_t(rule.lhs, cons)
                assert len(image) <= cons.n_bound
                assert normal_form(image, base) != image  # reducible image

    def test_d1_strictly_advances_the_image(self, cons_aaa):
        base = cons_aaa.presentation.system
        for rule in cons_aaa.r_t.rules:
            if "D1" in rule.tags:
                left = phi_t(rule.lhs, cons_aaa)
                right = phi_t(rule.rhs, cons_aaa)
                assert left != right
                assert reduces_to(left, right, base)

    def test_d2_preserves_image_and_drops_measure(self, cons_free):
        heavy = right_drift_letters(cons_free.images, cons_free.b_alphabet)

        def measure(word):
            count = sum(1 for letter in word if letter in heavy)
            weight = sum(
                len(word) - 1 - pos
                for pos, letter in enumerate(word)
                if letter in heavy
            )
            return (count, weight)

        for rule in cons_free.r_t.rules:
            if "D2" not in rule.tags:
                continue
            assert phi_t(rule.lhs, cons_free) == phi_t(rule.rhs, cons_free)
            assert len(rule.lhs) == 2
            before, after = measure(rule.lhs), measure(rule.rhs)
            assert after < before
            if after[0] == before[0]:
                assert len(rule.rhs) == len(rule.lhs)

    def test_canonicalization_reachable_in_system(self, cons_free, cons_aaa):
        for cons in (cons_free, cons_aaa):
            for word in words_over(cons.b_alphabet, 5):
                image = phi_t(word, cons)
                if in_AT(image, cons.presentation):
                    target = rho_t(image, cons, check=False)
                    assert reduces_to(word, target, cons.r_t)
