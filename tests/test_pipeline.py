import pytest
from hypothesis import given, settings, strategies as st

from frs import (
    Alphabet,
    InputError,
    NonTerminationError,
    PreconditionError,
    Presentation,
    canonicalize_complement,
    check_subsemigroup_closed,
    is_irreducible,
    letterize_complement,
    normal_form,
    normalize_q2_q3,
    prepare_presentation,
    RewritingSystem,
    Rule,
    build_construction,
    show,
    words_over,
)
from frs import completeness, pipeline
from frs.core import DEFAULT_STEP_CAP
from frs.pipeline import satisfies_q1, satisfies_q2, satisfies_q3

from conftest import looping_systems, rule_set, system, w


def present(sys, *complement):
    return Presentation(
        sys, tuple(w(sys.alphabet, text) for text in complement)
    )


class TestCanonicalize:
    def test_reduces_to_normal_form(self, sys_aaa):
        spec = canonicalize_complement(present(sys_aaa, "aaa"))
        assert [show(word) for word in spec] == ["a"]

    def test_deduplicates(self, free_a):
        spec = canonicalize_complement(present(free_a, "a", "a"))
        assert [show(word) for word in spec] == ["a"]

    def test_sorts_by_length_then_names(self, free_ab):
        spec = canonicalize_complement(present(free_ab, "b", "a", "ab"))
        assert [show(word) for word in spec] == ["a", "b", "a b"]

    def test_empty_complement_rejected(self, free_ab):
        with pytest.raises(InputError):
            canonicalize_complement(Presentation(free_ab, ()))
        with pytest.raises(InputError):
            canonicalize_complement(Presentation(free_ab))


class TestLetterize:
    def test_single_letter_already_done(self, free_ab):
        result = letterize_complement(present(free_ab, "a"))
        assert result.system == free_ab
        assert [show(word) for word in result.complement] == ["a"]

    def test_one_round_names_the_long_word(self, free_ab):
        result = letterize_complement(present(free_ab, "ab"))
        assert result.system.alphabet.names() == ("a", "b", "s")
        assert rule_set(result.system) == {(("a", "b"), ("s",))}
        assert [show(word) for word in result.complement] == ["s"]

    def test_untouched_when_complement_is_a_letter(self, sys_aaa):
        result = letterize_complement(present(sys_aaa, "a"))
        assert result.system == sys_aaa

    def test_two_long_words_two_rounds(self, free_ab):
        result = letterize_complement(present(free_ab, "ab", "bb"))
        assert satisfies_q1(result)
        assert len(result.complement) == 2
        assert len(result.system.alphabet) == 4

    def test_preserves_class_equality_under_embedding(self, free_ab):
        before = present(free_ab, "ab")
        after = letterize_complement(before)
        small = list(words_over(free_ab.alphabet, 6))
        for i, left in enumerate(small):
            for right in small[i:]:
                pre_equal = normal_form(left, free_ab) == normal_form(right, free_ab)
                post_equal = normal_form(left, after.system) == normal_form(
                    right, after.system
                )
                assert pre_equal == post_equal


class TestNormalizeQ2Q3:
    def test_already_normal(self, sys_aaa):
        assert normalize_q2_q3(sys_aaa) == sys_aaa

    def test_redundant_rule_deleted(self):
        # The third rule's left side contains 'a a', which the first rule
        # already reduces.
        sys = system("a s", ("aa", "s"), ("sa", "as"), ("aaa", "as"))
        result = normalize_q2_q3(sys)
        assert rule_set(result) == {
            (("a", "a"), ("s",)),
            (("s", "a"), ("a", "s")),
        }

    def test_reducible_rhs_normalized(self):
        sys = system("a b c", ("ba", "ab"), ("ca", "ba"))
        result = normalize_q2_q3(sys)
        assert rule_set(result) == {
            (("b", "a"), ("a", "b")),
            (("c", "a"), ("a", "b")),
        }
        assert satisfies_q2(result)

    def test_q2_q3_hold_afterwards(self):
        sys = system("a s", ("aa", "s"), ("sa", "as"), ("aaa", "as"))
        result = normalize_q2_q3(sys)
        assert satisfies_q2(result)
        assert satisfies_q3(result)

    def test_preserves_normal_form_partition(self):
        sys = system("a s", ("aa", "s"), ("sa", "as"), ("aaa", "as"))
        result = normalize_q2_q3(sys)
        for word in words_over(sys.alphabet, 6):
            assert normal_form(word, sys) == normal_form(word, result)


def naive_satisfies_q3(sys):
    """Reference: no left-hand side occurs in another rule's left-hand side."""
    return not any(
        i != j and f" {show(other.lhs)} " in f" {show(rule.lhs)} "
        for i, rule in enumerate(sys.rules)
        for j, other in enumerate(sys.rules)
    )


def naive_normalize_q2_q3(sys, step_cap=DEFAULT_STEP_CAP):
    """Reference: the pairwise deletion scan, first deleted index, restart."""
    rules = list(sys.rules)
    while True:
        current = sys.with_rules(rules)
        normalized, seen = [], set()
        for rule in rules:
            rhs = normal_form(rule.rhs, current, step_cap)
            key = (tuple(rule.lhs), tuple(rhs))
            if key not in seen:
                seen.add(key)
                normalized.append(Rule(rule.lhs, rhs, rule.tags))
        deleted = False
        # Letter names hold no spaces, so a padded substring is a factor;
        # each left-hand side counts itself once.
        padded = [f" {show(rule.lhs)} " for rule in normalized]
        for i, lhs in enumerate(padded):
            if sum(map(lhs.__contains__, padded)) > 1:
                del normalized[i]
                deleted = True
                break
        if normalized == rules and not deleted:
            return sys.with_rules(normalized)
        rules = normalized


def with_rule_tags(sys):
    """``sys`` with each rule tagged by its index, so that a result shows
    which of several equal rules it kept."""
    return sys.with_rules(
        Rule(rule.lhs, rule.rhs, (f"r{i}",)) for i, rule in enumerate(sys.rules)
    )


def assert_matches_reference(sys, step_cap=DEFAULT_STEP_CAP):
    """Rules, tags and order equal the reference's, or both raise the same
    step-cap error."""
    try:
        expected = naive_normalize_q2_q3(sys, step_cap)
    except NonTerminationError as err:
        with pytest.raises(NonTerminationError) as got:
            normalize_q2_q3(sys, step_cap)
        assert str(got.value) == str(err)
        return
    result = normalize_q2_q3(sys, step_cap)
    assert result.rules == expected.rules
    assert [rule.tags for rule in result.rules] == [rule.tags for rule in expected.rules]


@st.composite
def length_reducing_systems(draw):
    """Random terminating rules over {a, b}, with duplicate left-hand sides
    and left-hand sides nested in others likely."""
    alphabet = Alphabet(["a", "b"])
    side = st.lists(st.sampled_from("ab"), min_size=1, max_size=4)
    rules = []
    for lhs in draw(st.lists(side.filter(lambda s: len(s) > 1), min_size=1, max_size=6)):
        rhs = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=len(lhs) - 1))
        rules.append(Rule(alphabet.word(lhs), alphabet.word(rhs)))
    rules.append(Rule(draw(st.sampled_from(rules)).lhs, alphabet.word("a")))
    return RewritingSystem(alphabet, tuple(rules))


class TestQ3AgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(length_reducing_systems())
    def test_interreduction_and_q3_agree(self, sys):
        sys = with_rule_tags(sys)
        assert satisfies_q3(sys) == naive_satisfies_q3(sys)
        assert_matches_reference(sys)
        result = normalize_q2_q3(sys)
        assert satisfies_q3(result) and naive_satisfies_q3(result)

    @settings(max_examples=300, deadline=None)
    @given(looping_systems(), st.integers(1, 30))
    def test_incomplete_systems_agree(self, sys, step_cap):
        assert_matches_reference(with_rule_tags(sys), step_cap)

    @pytest.mark.parametrize(
        "letters, rules, complement, size",
        [
            ("a b", [("ba", "ab")], ["a"], 223),
            ("a b", [("aaa", "a"), ("bb", "b")], ["a", "aa"], 367),
        ],
        ids=["comm", "two"],
    )
    def test_construction_outputs_agree(self, letters, rules, complement, size):
        prepared = prepare_presentation(present(system(letters, *rules), *complement))
        r_t = build_construction(prepared).r_t
        assert len(r_t.rules) == size
        assert_matches_reference(r_t)


class TestPrepare:
    def test_fixed_point_on_letter_complement(self, free_ab):
        prepared = prepare_presentation(present(free_ab, "a"))
        assert prepared.system == free_ab
        assert [show(word) for word in prepared.complement] == ["a"]

    def test_letterizes_then_normalizes(self, free_ab):
        prepared = prepare_presentation(present(free_ab, "ab"))
        assert rule_set(prepared.system) == {(("a", "b"), ("s",))}
        assert [show(word) for word in prepared.complement] == ["s"]
        assert satisfies_q1(prepared)
        assert satisfies_q2(prepared.system)
        assert satisfies_q3(prepared.system)

    def test_verifies_existing_presentation(self, pres_aaa):
        prepared = prepare_presentation(pres_aaa)
        assert prepared.system == pres_aaa.system
        assert [show(word) for word in prepared.complement] == ["a"]

    def test_incomplete_input_rejected(self, sys_nonconfluent):
        with pytest.raises(PreconditionError):
            prepare_presentation(present(sys_nonconfluent, "a"))

    @pytest.mark.parametrize("name, calls", [("comm", 1), ("comm_aa", 2), ("two", 3)])
    def test_verifies_only_the_stages_that_change_the_system(self, name, calls, monkeypatch):
        # comm already meets Q1-Q3; comm_aa gains a letter and keeps its
        # rules through interreduction; two changes at both stages.
        letters, rules, complement = LADDER_SHAPES[name]
        verify = completeness.verify_complete
        systems = []

        def counted(system, *args, **kwargs):
            systems.append(system)
            return verify(system, *args, **kwargs)

        monkeypatch.setattr(completeness, "verify_complete", counted)
        prepared = prepare_presentation(present(system(letters, *rules), *complement))
        assert len(systems) == calls
        assert systems[-1] == prepared.system

    def test_complement_words_all_letters_after(self, free_ab):
        prepared = prepare_presentation(present(free_ab, "ab", "ba", "b"))
        assert all(len(word) == 1 for word in prepared.complement)


class TestSubsemigroupCheck:
    def test_closed_fixture(self, pres_aaa):
        assert check_subsemigroup_closed(pres_aaa) == []

    def test_closed_free_fixture(self, pres_free_ab):
        assert check_subsemigroup_closed(pres_free_ab) == []

    def test_violation_found(self, free_ab):
        # Excluding the class of 'a b' alone does not leave a subsemigroup:
        # the product of the representatives 'a' and 'b' falls in it.
        prepared = prepare_presentation(present(free_ab, "ab"))
        violations = check_subsemigroup_closed(prepared)
        assert violations
        u, v = violations[0]
        assert (show(u), show(v)) == ("a", "b")


# The filter over every word that the irreducible-word walk of
# check_subsemigroup_closed replaced, and the loop over every pair of
# representatives that its early break replaced.
def reference_subsemigroup_closed(presentation, max_len=6, step_cap=DEFAULT_STEP_CAP):
    complement = set(canonicalize_complement(presentation, step_cap))
    system = presentation.system
    reps = [
        word
        for word in words_over(system.alphabet, max_len - 1)
        if is_irreducible(word, system) and word not in complement
    ]
    return [
        (u, v)
        for u in reps
        for v in reps
        if len(u) + len(v) <= max_len
        and normal_form(u + v, system, step_cap) in complement
    ]


# The ladder's inputs (comm, comm_aa, two, comm_ab, three, free3) and one that is not closed.
LADDER_SHAPES = {
    "comm": ("a b", [("ba", "ab")], ["a"]),
    "comm_aa": ("a b", [("ba", "ab")], ["a", "aa"]),
    "two": ("a b", [("aaa", "a"), ("bb", "b")], ["a", "aa"]),
    "comm_ab": ("a b", [("ba", "ab")], ["a", "b"]),
    "three": ("a b c", [("ca", "ac"), ("cb", "bc")], ["a", "b"]),
    "free3": ("a b c", [], ["a"]),
    "not_closed": ("a b", [], ["ab"]),
}


class TestSubsemigroupCheckAgainstReference:
    @pytest.mark.parametrize("fixture", ["pres_aaa", "pres_free_ab"])
    @pytest.mark.parametrize("max_len", range(7))
    def test_fixtures_agree(self, fixture, max_len, request):
        pres = request.getfixturevalue(fixture)
        assert check_subsemigroup_closed(pres, max_len) == (
            reference_subsemigroup_closed(pres, max_len)
        )

    @pytest.mark.parametrize("name", sorted(LADDER_SHAPES))
    @pytest.mark.parametrize("max_len", [1, 2, 4, 6])
    def test_prepared_ladder_shapes_agree(self, name, max_len):
        letters, rules, complement = LADDER_SHAPES[name]
        prepared = prepare_presentation(present(system(letters, *rules), *complement))
        violations = check_subsemigroup_closed(prepared, max_len)
        assert violations == reference_subsemigroup_closed(prepared, max_len)
        assert bool(violations) == (name == "not_closed" and max_len > 1)

    def test_one_normal_form_per_product_word(self, monkeypatch):
        # free3 without a: 4,198 splits u v of 1,081 distinct words, plus
        # the complement word a, which the complement's canonical form
        # reduces once.
        letters, rules, complement = LADDER_SHAPES["free3"]
        prepared = prepare_presentation(present(system(letters, *rules), *complement))
        reduce = pipeline.normal_form
        words = []

        def counted(word, *args):
            words.append(word)
            return reduce(word, *args)

        monkeypatch.setattr(pipeline, "normal_form", counted)
        assert check_subsemigroup_closed(prepared) == []
        assert len(words) == len(set(words)) == 1081 + 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([[], [("ba", "ab")], [("aa", "a"), ("bb", "b")]]),
        st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=3),
        st.integers(0, 6),
    )
    def test_complete_systems_with_any_complement_agree(self, rules, complement, max_len):
        # Unprepared complements: long and overlapping words, most of them
        # not closed under products.
        pres = present(system("a b", *rules), *complement)
        assert check_subsemigroup_closed(pres, max_len) == (
            reference_subsemigroup_closed(pres, max_len)
        )
