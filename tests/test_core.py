import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from sys import getswitchinterval, setswitchinterval

import pytest
from hypothesis import given, settings, strategies as st

from frs import (
    Alphabet,
    InputError,
    NonTerminationError,
    ReductionStep,
    Rule,
    RewritingSystem,
    Word,
    build_construction,
    check_termination,
    critical_pairs,
    disorder,
    is_irreducible,
    normal_form,
    one_step_reductions,
    parse_presentation,
    phi_t,
    prepare_presentation,
    reduces_to,
    rho_s,
    rho_t,
    show,
    words_over,
)
from frs.completeness import CriticalPair, Evidence, Report
from frs.core import _QUIET_STEPS, DEFAULT_STEP_CAP, LhsMatcher, irreducible_words
from frs.large_sub import FSets, LargeSubConstruction, LetterClassification
from frs.letter_intro import LetterIntroResult
from frs.pipeline import Presentation
from frs.property_r import CandidateTuple, IsomorphismReport

from conftest import (
    all_normal_forms,
    descendants,
    longest_path_by_enumeration,
    looping_systems,
    naive_apply,
    naive_first_redex,
    naive_normal_form,
    naive_trace,
    system,
    w,
)

# The conftest fixtures that are rewriting systems.
SYSTEM_FIXTURES = ["sys_aaa", "sys_moves", "sys_nonconfluent", "free_a", "free_ab"]


def assert_walk_matches_reference(word, sys, limit=30):
    walked = list(itertools.islice(sys.matcher.walk(word), limit))
    assert walked == naive_trace(word, sys, limit)


def naive_one_step_reductions(word, sys):
    return [
        (ReductionStep(idx, pos), naive_apply(word, sys, idx, pos))
        for pos in range(len(word))
        for idx, rule in enumerate(sys.rules)
        if word[pos: pos + len(rule.lhs)] == rule.lhs
    ]


def naive_is_irreducible(word, sys):
    return all(f" {show(rule.lhs)} " not in f" {show(word)} " for rule in sys.rules)


def outcome(reduce, *args, **kwargs):
    """The normal form, or the trace of the step-cap hit."""
    try:
        return "normal form", reduce(*args, **kwargs)
    except NonTerminationError as err:
        return "step cap", err.trace


def assert_kernel_matches_reference(word, sys, step_cap=DEFAULT_STEP_CAP):
    assert outcome(normal_form, word, sys, step_cap) == outcome(
        naive_normal_form, word, sys, step_cap
    )
    assert one_step_reductions(word, sys) == naive_one_step_reductions(word, sys)
    assert is_irreducible(word, sys) == naive_is_irreducible(word, sys)


# Reference searches: the Word-keyed loops over one_step_reductions that
# the plain-tuple searches through LhsMatcher.successors replaced.
def reference_disorder(word, sys, step_cap=DEFAULT_STEP_CAP):
    memo = {}
    on_path = []
    stack = [(word, None)]
    while stack:
        node, succ = stack.pop()
        if succ is None:
            if node in memo:
                continue
            on_path.append(node)
            if len(on_path) + len(memo) > step_cap:
                raise NonTerminationError(
                    f"possible non-termination: disorder search exceeded {step_cap} states"
                )
            succ = [result for _, result in one_step_reductions(node, sys)]
            for nxt in succ:
                if nxt in on_path:
                    cycle = (*on_path[on_path.index(nxt):], nxt)
                    raise NonTerminationError("reduction cycle detected", cycle)
            stack.append((node, succ))
            for nxt in succ:
                if nxt not in memo:
                    stack.append((nxt, None))
        else:
            memo[node] = 1 + max(memo[nxt] for nxt in succ) if succ else 0
            on_path.pop()
    return memo[word]


def reference_descendants(word, sys, step_cap=DEFAULT_STEP_CAP):
    seen = {word}
    frontier = [word]
    while frontier:
        current = frontier.pop()
        for _, result in one_step_reductions(current, sys):
            if result not in seen:
                if len(seen) >= step_cap:
                    raise NonTerminationError(f"descendant search exceeded {step_cap} states")
                seen.add(result)
                frontier.append(result)
    return seen


def reference_reduces_to(word, target, sys, step_cap=DEFAULT_STEP_CAP):
    if word == target:
        return True
    seen = {word}
    frontier = [word]
    while frontier:
        current = frontier.pop()
        for _, result in one_step_reductions(current, sys):
            if result == target:
                return True
            if result not in seen:
                if len(seen) >= step_cap:
                    raise NonTerminationError(f"reachability search exceeded {step_cap} states")
                seen.add(result)
                frontier.append(result)
    return False


def search_outcome(search, *args):
    """The result, or the message and trace of the step-cap hit."""
    try:
        return "result", search(*args)
    except NonTerminationError as err:
        return "step cap", str(err), err.trace


def assert_searches_match_reference(word, target, sys, step_cap):
    for search, reference, args in (
        (disorder, reference_disorder, (word, sys, step_cap)),
        (descendants, reference_descendants, (word, sys, step_cap)),
        (reduces_to, reference_reduces_to, (word, target, sys, step_cap)),
    ):
        assert search_outcome(search, *args) == search_outcome(reference, *args)


LETTERS = ("a", "b", "c")
letter_lists = st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3)


@st.composite
def small_systems(draw):
    """Random rules over {a, b, c}, always with a duplicate left-hand side
    and with a proper prefix of a longer left-hand side at a higher index,
    so two lengths match at one position and the shorter one loses."""
    pairs = draw(st.lists(st.tuples(letter_lists, letter_lists), max_size=5))
    longer = draw(st.lists(st.sampled_from(LETTERS), min_size=2, max_size=3))
    pairs.insert(draw(st.integers(0, len(pairs))), (longer, draw(letter_lists)))
    pairs.append((draw(st.sampled_from(pairs))[0], draw(letter_lists)))
    pairs.append((longer[: draw(st.integers(1, len(longer) - 1))], draw(letter_lists)))
    alphabet = Alphabet(LETTERS)
    return RewritingSystem(
        alphabet, tuple(Rule(alphabet.word(lhs), alphabet.word(rhs)) for lhs, rhs in pairs)
    )


@st.composite
def trie_systems(draw):
    """Random rules over two or three letters with sides of one to four
    letters, always with a duplicate left-hand side, a proper prefix and a
    proper factor of a longer left-hand side and a one-letter left-hand
    side, each at a random index."""
    letters = LETTERS[: draw(st.integers(2, 3))]
    side = st.lists(st.sampled_from(letters), min_size=1, max_size=4)
    pairs = draw(st.lists(st.tuples(side, side), max_size=4))
    longer = draw(st.lists(st.sampled_from(letters), min_size=3, max_size=4))
    start = draw(st.integers(1, len(longer) - 1))
    end = draw(st.integers(start + 1, len(longer)))
    extra = [
        longer,
        longer[: draw(st.integers(1, len(longer) - 1))],
        longer[start:end],
        [draw(st.sampled_from(letters))],
    ]
    for lhs in extra + [draw(st.sampled_from(extra + [lhs for lhs, _ in pairs]))]:
        pairs.insert(draw(st.integers(0, len(pairs))), (lhs, draw(side)))
    alphabet = Alphabet(letters)
    return RewritingSystem(
        alphabet, tuple(Rule(alphabet.word(lhs), alphabet.word(rhs)) for lhs, rhs in pairs)
    )


class TestLettersAndWords:
    def test_letter_names_validated(self):
        with pytest.raises(InputError):
            Alphabet(["a-b"])
        with pytest.raises(InputError):
            Alphabet(["a", "a"])
        names = Alphabet(["a", "b'", "c_0"]).names()
        assert names == ("a", "b'", "c_0")

    def test_letters_equal_by_name_across_extensions(self):
        base = Alphabet(["a", "b"])
        extended = base.extended(["s"])
        assert base.get("a") is extended.get("a")
        assert extended.names() == ("a", "b", "s") and list(extended) == ["a", "b", "s"]

    def test_fresh_name_is_deterministic(self):
        alphabet = Alphabet(["s", "s0"])
        assert alphabet.fresh_name("s") == "s1"
        assert alphabet.fresh_name("t") == "t"

    def test_concatenation_associative_with_empty_identity(self):
        alphabet = Alphabet(["a", "b"])
        words = [w(alphabet, t) for t in ("a", "ab", "ba")] + [Word()]
        for x, y, z in itertools.product(words, repeat=3):
            assert (x + y) + z == x + (y + z)
        for x in words:
            assert x + Word() == x == Word() + x

    def test_word_length_and_slicing(self):
        alphabet = Alphabet(["a", "b"])
        word = w(alphabet, "abba")
        assert len(word) == 4
        assert word[1:3] == w(alphabet, "bb")
        assert show(word) == "a b b a"

    def test_rule_sides_nonempty(self):
        alphabet = Alphabet(["a"])
        with pytest.raises(InputError):
            Rule(Word(), w(alphabet, "a"))
        with pytest.raises(InputError):
            Rule(w(alphabet, "a"), Word())

    def test_system_rejects_foreign_letters(self):
        a = Alphabet(["a"])
        b = Alphabet(["b"])
        with pytest.raises(InputError):
            RewritingSystem(a, (Rule(w(b, "b"), w(b, "b")),))


class TestRepresentation:
    """A letter is its name and a word is the tuple of its letters."""

    def test_word_is_its_tuple_of_letters_and_of_names(self):
        word = w(Alphabet(["a", "b"]), "abb")
        assert word == tuple(word) == ("a", "b", "b")
        assert hash(word) == hash(tuple(word)) == hash(("a", "b", "b"))
        assert {word: 1}[("a", "b", "b")] == 1

    def test_slices_and_concatenation_are_words(self):
        word = w(Alphabet(["a", "b"]), "abb")
        for part in (word[1:], word[:0], word[::-1], word + word, word[:1] + Word()):
            assert type(part) is tuple
        assert word[1:] == ("b", "b")
        assert word[0] == "a" and type(word[0]) is str

    def test_every_source_hands_out_plain_tuples(self, sys_moves, pres_free_ab):
        # Nothing wraps a word: each public source returns the builtin tuple.
        word = w(sys_moves.alphabet, "saa")
        words = [word, normal_form(word, sys_moves)]
        words += [result for _, result in one_step_reductions(word, sys_moves)]
        words += descendants(word, sys_moves)
        words += words_over(sys_moves.alphabet, 2)
        words += irreducible_words(sys_moves, 3)
        words += [field for pair in critical_pairs(sys_moves) for field in pair[:3]]
        parsed = parse_presentation("alphabet: a b\nrule: b a -> a b\ncomplement: a ; b a\n")
        words += [side for rule in parsed.system.rules for side in (rule.lhs, rule.rhs)]
        words += parsed.complement
        cons = build_construction(prepare_presentation(pres_free_ab))
        image = w(cons.presentation.system.alphabet, "baab")
        words += [rho_t(image, cons), phi_t(rho_t(image, cons), cons)]
        words.append(rho_s(w(sys_moves.alphabet, "aaa"), w(sys_moves.alphabet, "aa"), "t"))
        loop = system("a b", ("ab", "ba"), ("ba", "ab"))
        words += check_termination(loop, max_len=2).counterexample
        for search in (normal_form, disorder):
            with pytest.raises(NonTerminationError) as err:
                search(w(loop.alphabet, "ab"), loop, 3)
            words += err.value.trace
        assert len(words) > 40
        assert {type(word) for word in words} == {tuple}

    def test_words_have_no_instance_dict(self):
        word = w(Alphabet(["a"]), "a")
        with pytest.raises(AttributeError):
            word.extra = 1

    def test_letter_is_its_name(self):
        alphabet = Alphabet(["x", "y"])
        letter = alphabet.get("y")
        assert letter == "y" and type(letter) is str
        assert letter is alphabet.get("y") and alphabet.names() == ("x", "y")

    def test_reprs(self):
        alphabet = Alphabet(["a", "b"])
        assert repr(w(alphabet, "ab")) == "('a', 'b')"
        assert repr(Word()) == "()"
        assert repr(alphabet.get("a")) == "'a'"
        assert show(w(alphabet, "ab")) == "a b" and type(show(w(alphabet, "ab"))) is str

    def test_a_letter_of_another_alphabet_is_named_plainly(self):
        letters = Alphabet(["a", "b"]).names()
        assert Alphabet([*letters, "c"]).names() == ("a", "b", "c")
        with pytest.raises(InputError, match=r"^duplicate letter 'a'$"):
            Alphabet([*letters, letters[0]])
        with pytest.raises(InputError, match=r"^unknown letter 'b'$"):
            Alphabet(["a"]).get(letters[1])

    def test_require_known_names_the_letter_plainly(self, sys_moves):
        foreign = w(Alphabet(["a", "z"]), "az")
        with pytest.raises(InputError, match=r"^letter 'z' is not in the system's alphabet$"):
            is_irreducible(foreign, sys_moves)


def record_cases():
    """(class, field names in constructor order, defaults, one value per
    field) for every result record; no value equals its field's default."""
    ab = Alphabet(["a", "b"])
    ba, a_b, a = ab.word("b a"), ab.word("a b"), ab.word("a")
    rule = Rule(ba, a_b, ("D1",))
    comm = RewritingSystem(ab, (rule,))
    presentation = Presentation(comm, (a,), (("c", ("a", "b")),))
    split = ((ab.get("b"),), (ab.get("a"),), (ab.get("b"),))
    classification = LetterClassification(*split)
    result = Evidence("P4", "counterexample", 3, 5, (ba,), "note")
    intro = LetterIntroResult(ab.get("b"), a_b, comm, comm)
    return [
        (ReductionStep, ("rule_index", "position"), {}, (1, 2)),
        (Rule, ("lhs", "rhs", "tags"), {"tags": ()}, (ba, a_b, ("D1",))),
        (RewritingSystem, ("alphabet", "rules"), {"rules": ()}, (ab, (rule,))),
        (CriticalPair, ("source", "left_result", "right_result", "overlap_kind", "rule_indices"),
         {}, (ba, a_b, ba, "suffix-prefix", (0, 1))),
        (Evidence, ("name", "status", "bound", "witness_count", "counterexample", "note"),
         {"witness_count": 0, "counterexample": None, "note": ""},
         ("P4", "counterexample", 3, 5, (ba,), "note")),
        (Report, ("results", "verdict"), {}, ((result,), "incomplete")),
        (LetterClassification, ("a1", "a_s", "excluded"), {"excluded": ()}, split),
        (FSets, ("f1", "f2", "f3", "f4"), {}, ((a,), (ba,), (a_b,), ())),
        (LargeSubConstruction, ("presentation", "classification", "images", "r_t"),
         {}, (presentation, classification, {"c": a_b}, comm)),
        (LetterIntroResult, ("new_letter", "w0", "r_s", "base"), {},
         (ab.get("b"), a_b, comm, comm)),
        (Presentation, ("system", "complement", "generators"),
         {"complement": None, "generators": ()},
         (comm, (a,), (("c", ("a", "b")),))),
        (CandidateTuple, ("base", "system", "images", "rho", "in_at", "in_t", "letter_intro"),
         {"letter_intro": None}, (comm, comm, {"b": a_b}, repr, bool, callable, intro)),
        (IsomorphismReport,
         ("slice_bound", "forward_injective", "slice_surjective", "mismatches", "t_class_count",
          "image_count"),
         {"mismatches": (), "t_class_count": 0, "image_count": 0},
         (4, True, False, ((a, ba),), 3, 2)),
    ]


RECORD_CASES = record_cases()
# Records with a rewriting system among their fields cannot be hashed, as
# RewritingSystem itself cannot.
UNHASHABLE = {RewritingSystem, Presentation, LargeSubConstruction, LetterIntroResult, CandidateTuple}


class TestRecords:
    """The constructor, immutability and equality contract of every result
    record."""

    def test_every_record_is_covered(self):
        assert len({cls for cls, *_ in RECORD_CASES}) == 13

    @pytest.mark.parametrize("case", RECORD_CASES, ids=lambda case: case[0].__name__)
    def test_positional_and_keyword_construction(self, case):
        cls, fields, defaults, values = case
        assert len(values) == len(fields)
        for record in (cls(*values), cls(**dict(zip(fields, values)))):
            assert [getattr(record, name) for name in fields] == list(values)
            for name, value in zip(fields, values):
                assert getattr(record, name) is value

    @pytest.mark.parametrize("case", RECORD_CASES, ids=lambda case: case[0].__name__)
    def test_defaults_are_the_trailing_fields(self, case):
        cls, fields, defaults, values = case
        required = len(fields) - len(defaults)
        assert tuple(defaults) == fields[required:]
        record = cls(*values[:required])
        for name, default in defaults.items():
            assert getattr(record, name) == default
        for name, value in zip(fields[required:], values[required:]):
            assert value != defaults[name]
        with pytest.raises(TypeError):
            cls(*values[: required - 1])

    @pytest.mark.parametrize("case", RECORD_CASES, ids=lambda case: case[0].__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, case):
        cls, fields, _, values = case
        record = cls(*values)
        for name, value in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("case", RECORD_CASES, ids=lambda case: case[0].__name__)
    def test_records_of_equal_fields_are_equal(self, case):
        cls, _, _, values = case
        first, second = cls(*values), cls(*values)
        assert first == second and not first != second
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)

    def test_rule_equality_ignores_tags(self):
        ab = Alphabet(["a", "b"])
        plain = Rule(ab.word("b a"), ab.word("a b"))
        tagged = Rule(ab.word("b a"), ab.word("a b"), ("C1", "D2"))
        assert plain == tagged and hash(plain) == hash(tagged)
        assert plain.tags == () and tagged.tags == ("C1", "D2")
        assert plain.tagged("D1").tags == ("D1",)
        assert plain != Rule(ab.word("b a"), ab.word("b"))
        assert plain != Rule(ab.word("a b"), ab.word("a b"))
        with pytest.raises(InputError, match="rule sides must be nonempty words"):
            Rule(Word(), ab.word("a"))
        with pytest.raises(InputError, match="rule sides must be nonempty words"):
            Rule(ab.word("a"), Word())

    def test_rewriting_systems_compare_letter_names_and_rules(self):
        first = system("a b", ("ba", "ab"))
        assert first == system("b a", ("ba", "ab"))
        assert first != system("a b c", ("ba", "ab"))
        assert first != system("a b", ("ba", "ab"), ("bb", "b"))
        assert first != system("a b", ("bb", "b"), ("ba", "ab"))
        with pytest.raises(TypeError):
            hash(first)
        with pytest.raises(InputError, match="outside the alphabet"):
            RewritingSystem(Alphabet(["a"]), first.rules)

    def test_presentations_and_complements_compare_by_value(self):
        def build(generators=(), complement="a"):
            base = system("a b", ("ba", "ab"))
            words = (w(base.alphabet, complement),)
            return Presentation(base, words, generators)

        first = build()
        assert first == build() and first.complement == build().complement
        assert type(first.complement) is tuple
        assert first != build(complement="b") and first != build((("c", ("a",)),))
        assert first != Presentation(first.system)
        assert Presentation(first.system) == Presentation(system("a b", ("ba", "ab")))
        with pytest.raises(InputError, match="outside the alphabet"):
            Presentation(first.system, (Alphabet(["z"]).word("z"),))
        with pytest.raises(InputError) as exc:
            Presentation(first.system, (Alphabet(["a", "z"]).word("a z"),))
        assert str(exc.value) == "complement word 'a z' uses letter 'z' outside the alphabet"

    def test_caches_take_no_part_in_equality(self):
        cold, warm = (
            Presentation(system("a b", ("ba", "ab")), (Alphabet(["a"]).word("a"),))
            for _ in range(2)
        )
        warm.membership, warm.system.matcher
        assert "membership" in vars(warm) and "matcher" in vars(warm.system)
        assert "membership" not in vars(cold) and "matcher" not in vars(cold.system)
        assert warm == cold and warm.system == cold.system

    def test_reprs(self):
        ab = Alphabet(["a", "b"])
        assert repr(ReductionStep(1, 2)) == "ReductionStep(rule_index=1, position=2)"
        assert repr(Rule(ab.word("b a"), ab.word("a b"), ("D1",))) == "Rule('b a' -> 'a b')"
        assert repr(Presentation(system("a b", ("ba", "ab")), (ab.word("a"),))) == (
            "Presentation(system=RewritingSystem([a, b]; b a->a b), "
            "complement=(('a',),), generators=())"
        )
        assert repr(Evidence("P1", "verified", 4)) == (
            "Evidence(name='P1', status='verified', bound=4, witness_count=0, "
            "counterexample=None, note='')"
        )


class TestOneStepReductions:
    def test_three_overlapping_occurrences(self, sys_aaa):
        results = one_step_reductions(w(sys_aaa.alphabet, "aaaaa"), sys_aaa)
        assert [(step.position, show(word)) for step, word in results] == [
            (0, "a a a"),
            (1, "a a a"),
            (2, "a a a"),
        ]

    def test_no_occurrence(self, sys_aaa):
        ab = system("a b", ("aaa", "a"))
        assert one_step_reductions(w(ab.alphabet, "ab"), ab) == []

    def test_two_rules_ordered_by_position(self, sys_moves):
        results = one_step_reductions(w(sys_moves.alphabet, "saa"), sys_moves)
        assert [
            (step.rule_index, step.position, show(word)) for step, word in results
        ] == [(1, 0, "a s a"), (0, 1, "s s")]

    def test_deterministic(self, sys_moves):
        word = w(sys_moves.alphabet, "sasa")
        assert one_step_reductions(word, sys_moves) == one_step_reductions(
            word, sys_moves
        )

    def test_rejects_empty_and_foreign(self, sys_aaa):
        with pytest.raises(InputError):
            one_step_reductions(Word(), sys_aaa)
        other = Alphabet(["z"])
        with pytest.raises(InputError):
            one_step_reductions(w(other, "z"), sys_aaa)


class TestIrreducibility:
    def test_short_word(self, sys_aaa):
        assert is_irreducible(w(sys_aaa.alphabet, "a"), sys_aaa)

    def test_lhs_occurs(self, sys_aaa):
        assert not is_irreducible(w(sys_aaa.alphabet, "aaaa"), sys_aaa)

    def test_checked_against_all_factors(self, sys_moves):
        assert is_irreducible(w(sys_moves.alphabet, "as"), sys_moves)

    def test_empty_iff_no_reductions(self, sys_moves):
        for word in words_over(sys_moves.alphabet, 5):
            assert is_irreducible(word, sys_moves) == (
                one_step_reductions(word, sys_moves) == []
            )


def reference_irreducible_words(sys, max_len):
    """Every word up to ``max_len``, filtered by the matcher's redex test."""
    return [word for word in words_over(sys.alphabet, max_len) if is_irreducible(word, sys)]


class TestIrreducibleWords:
    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixture_systems_agree(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        assert list(irreducible_words(sys, 6)) == reference_irreducible_words(sys, 6)

    @pytest.mark.parametrize(
        "sys",
        [
            system("c a b"),
            system("c a b", ("b", "a a"), ("c c", "a")),
            system("b a", ("ab", "a"), ("ab", "b"), ("ba", "b"), ("ba", "a")),
        ],
        ids=["no-rules", "length-one-lhs", "duplicate-lhs"],
    )
    def test_edge_systems_agree(self, sys):
        # The alphabets are not in name order: words follow the alphabet.
        assert list(irreducible_words(sys, 5)) == reference_irreducible_words(sys, 5)

    @settings(max_examples=200, deadline=None)
    @given(small_systems(), st.integers(0, 5))
    def test_random_systems_agree(self, sys, max_len):
        assert list(irreducible_words(sys, max_len)) == reference_irreducible_words(sys, max_len)


# The cap cases also ran the rightmost order once; the leftmost ones keep
# the ids they had then.
LEFTMOST_IDS = "False-{}".format


class TestNormalForm:
    def test_all_paths_converge(self, sys_aaa):
        assert normal_form(w(sys_aaa.alphabet, "aaaaa"), sys_aaa) == w(
            sys_aaa.alphabet, "a"
        )

    def test_already_irreducible(self):
        ab = system("a b", ("aaa", "a"))
        assert normal_form(w(ab.alphabet, "b"), ab) == w(ab.alphabet, "b")

    def test_branches_join(self, sys_moves):
        assert normal_form(w(sys_moves.alphabet, "saa"), sys_moves) == w(
            sys_moves.alphabet, "ss"
        )

    def test_step_cap_raises_with_trace(self):
        loop = system("a b", ("a", "b"), ("b", "a"))
        with pytest.raises(NonTerminationError) as err:
            normal_form(w(loop.alphabet, "a"), loop, step_cap=5)
        assert len(err.value.trace) == 6

    @pytest.mark.parametrize("steps", [1, 2, 3, 5], ids=LEFTMOST_IDS)
    def test_a_normal_form_exactly_the_cap_away_is_reached(self, steps):
        # b^k a needs k steps of b a -> a b to reach a b^k.
        comm = system("a b", ("ba", "ab"))
        word = comm.alphabet.word(["b"] * steps + ["a"])
        expected = comm.alphabet.word(["a"] + ["b"] * steps)
        assert normal_form(word, comm, step_cap=steps) == expected

    def test_a_cap_below_zero_allows_no_step(self):
        comm = system("a b", ("ba", "ab"))
        assert normal_form(w(comm.alphabet, "ab"), comm, step_cap=-1) == w(comm.alphabet, "ab")
        with pytest.raises(NonTerminationError) as err:
            normal_form(w(comm.alphabet, "ba"), comm, step_cap=-1)
        assert err.value.trace == (w(comm.alphabet, "ba"),)

    @pytest.mark.parametrize("cap", [1, 2, 3, 5], ids=LEFTMOST_IDS)
    def test_a_normal_form_one_step_past_the_cap_raises(self, cap):
        comm = system("a b", ("ba", "ab"))
        word = comm.alphabet.word(["b"] * (cap + 1) + ["a"])
        with pytest.raises(NonTerminationError) as err:
            normal_form(word, comm, step_cap=cap)
        assert str(err.value) == f"possible non-termination: {cap} reduction steps exceeded"
        trace = err.value.trace
        assert len(trace) == cap + 1 and trace[0] == word
        assert not is_irreducible(trace[-1], comm)

    @pytest.mark.parametrize("text, cap", [("aba", DEFAULT_STEP_CAP), ("ab", 3)])
    def test_a_periodic_walk_stops_at_its_first_repeat(self, text, cap, monkeypatch):
        # a b a -> b a a -> a b a -> ...: the error and its replayed trace
        # are those of the cap, but the walk ends a few steps in.
        cycle = system("a b", ("ab", "ba"), ("ba", "ab"))
        word = w(cycle.alphabet, text)
        walked = []
        walk = LhsMatcher.walk

        def counted(self, start):
            for current in walk(self, start):
                walked.append(current)
                yield current

        monkeypatch.setattr(LhsMatcher, "walk", counted)
        with pytest.raises(NonTerminationError) as err:
            normal_form(word, cycle, cap)
        assert len(walked) <= 2 * _QUIET_STEPS + 2
        assert str(err.value) == f"possible non-termination: {cap} reduction steps exceeded"
        assert err.value.trace == tuple(naive_trace(word, cycle, cap + 1))

    @settings(max_examples=100, deadline=None)
    @given(
        looping_systems(),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
        st.sampled_from([0, 1, 15, 16, 17, 40, DEFAULT_STEP_CAP]),
    )
    def test_looping_walks_agree_with_the_reference(self, sys, word, step_cap):
        # Right-hand sides cut to their left-hand side's length keep the
        # loops but not the growth, so every walk that does not end repeats.
        sys = sys.with_rules(Rule(rule.lhs, rule.rhs[: len(rule.lhs)]) for rule in sys.rules)
        word = sys.alphabet.word(word)
        expected = outcome(naive_normal_form, word, sys, step_cap)
        assert outcome(normal_form, word, sys, step_cap) == expected
        if expected[0] == "step cap":
            message = f"possible non-termination: {step_cap} reduction steps exceeded"
            with pytest.raises(NonTerminationError, match=f"^{message}$"):
                normal_form(word, sys, step_cap)

    def test_every_fixture_word_agrees_with_the_reference_at_its_own_distance(
        self, sys_moves, sys_aaa
    ):
        # At a cap equal to the leftmost path length the normal form is
        # reached; one less, the cap is hit.
        for sys in (sys_moves, sys_aaa):
            for word in words_over(sys.alphabet, 6):
                steps = 0
                current = word
                while (redex := naive_first_redex(current, sys)) is not None:
                    current = naive_apply(current, sys, *redex)
                    steps += 1
                if steps:
                    assert normal_form(word, sys, steps) == current
                    with pytest.raises(NonTerminationError):
                        normal_form(word, sys, steps - 1)
                assert_kernel_matches_reference(word, sys, step_cap=max(steps, 1))

    def test_strategy_independent_on_complete_system(self, sys_moves):
        for word in words_over(sys_moves.alphabet, 7):
            assert normal_form(word, sys_moves) == naive_normal_form(
                word, sys_moves, rightmost=True
            )

    def test_unique_endpoint_of_every_maximal_path(self, sys_moves, sys_aaa):
        for sys in (sys_moves, sys_aaa):
            for word in words_over(sys.alphabet, 7):
                endpoints = all_normal_forms(word, sys)
                assert endpoints == frozenset({normal_form(word, sys)})


class TestDisorder:
    def test_zero_iff_irreducible(self, sys_aaa):
        assert disorder(w(sys_aaa.alphabet, "a"), sys_aaa) == 0

    def test_longest_sequence_counted(self, sys_aaa):
        assert disorder(w(sys_aaa.alphabet, "aaaaa"), sys_aaa) == 2

    def test_irreducible_word(self, sys_moves):
        assert disorder(w(sys_moves.alphabet, "ss"), sys_moves) == 0

    def test_agrees_with_path_enumeration(self, sys_moves, sys_aaa):
        for sys in (sys_moves, sys_aaa):
            for word in words_over(sys.alphabet, 6):
                assert disorder(word, sys) == longest_path_by_enumeration(word, sys)

    def test_cycle_detected(self):
        loop = system("a b", ("a", "b"), ("b", "a"))
        with pytest.raises(NonTerminationError):
            disorder(w(loop.alphabet, "a"), loop)

    def test_cap_counts_every_state_entered(self, sys_moves):
        # s a a reaches 4 states: itself, a s a, a a s and s s.
        word = w(sys_moves.alphabet, "saa")
        message = "^possible non-termination: disorder search exceeded 3 states$"
        with pytest.raises(NonTerminationError, match=message):
            disorder(word, sys_moves, 3)
        with pytest.raises(NonTerminationError, match="^descendant search exceeded 3 states$"):
            descendants(word, sys_moves, 3)
        assert disorder(word, sys_moves, 4) == 3


class TestDisorderLaws:
    @pytest.mark.parametrize("fixture", ["sys_moves", "sys_aaa"])
    def test_strictly_decreases_along_steps(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        for word in words_over(sys.alphabet, 8):
            d = disorder(word, sys)
            for _, result in one_step_reductions(word, sys):
                assert d > disorder(result, sys)

    @pytest.mark.parametrize("fixture", ["sys_moves", "sys_aaa"])
    def test_factor_monotone(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        for word in words_over(sys.alphabet, 8):
            d = disorder(word, sys)
            n = len(word)
            for i in range(n):
                for j in range(i + 1, n + 1):
                    assert d >= disorder(word[i:j], sys)


class TestReachability:
    def test_descendants_of_fixture_word(self, sys_moves):
        found = descendants(w(sys_moves.alphabet, "saa"), sys_moves)
        names = {show(word) for word in found}
        assert names == {"s a a", "a s a", "s s", "a a s"}

    def test_reduces_to_follows_paths_only(self, sys_moves):
        alphabet = sys_moves.alphabet
        assert reduces_to(w(alphabet, "saa"), w(alphabet, "ss"), sys_moves)
        assert not reduces_to(w(alphabet, "ss"), w(alphabet, "saa"), sys_moves)


class TestMatcherAgainstReference:
    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixture_words_agree(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        max_len = 7 if len(sys.alphabet) <= 3 else 6
        for word in words_over(sys.alphabet, max_len):
            assert_kernel_matches_reference(word, sys)

    @settings(max_examples=300, deadline=None)
    @given(
        small_systems(),
        st.lists(st.sampled_from(LETTERS), min_size=1, max_size=8),
    )
    def test_random_systems_agree(self, sys, names):
        assert_kernel_matches_reference(sys.alphabet.word(names), sys, step_cap=30)

    def test_lowest_index_wins_across_lengths(self):
        # 'a' (index 1) and both 'a b' rules (indexes 0 and 2) match at 0.
        sys = system("a b", ("ab", "b"), ("a", "bb"), ("ab", "a"))
        word = w(sys.alphabet, "ab")
        assert [
            (step.position, step.rule_index) for step, _ in one_step_reductions(word, sys)
        ] == [(0, 0), (0, 1), (0, 2)]
        assert normal_form(word, sys) == w(sys.alphabet, "b")
        shorter_first = system("a b", ("a", "bb"), ("ab", "b"))
        assert normal_form(word, shorter_first) == w(sys.alphabet, "bbb")

    def test_foreign_letter_rejected_after_matcher_built(self, sys_moves):
        assert sys_moves.matcher is sys_moves.matcher
        foreign = w(Alphabet(["a", "z"]), "az")
        for reduce in (normal_form, one_step_reductions, is_irreducible):
            with pytest.raises(InputError):
                reduce(foreign, sys_moves)

    def test_equality_ignores_the_matcher(self):
        left = system("a s", ("aa", "s"), ("sa", "as"))
        right = system("a s", ("aa", "s"), ("sa", "as"))
        assert left.matcher is not None
        assert left == right and right == left
        assert right.matcher is not None
        assert left == right
        assert left != system("a s", ("aa", "s"))


class TestTrieAgainstReference:
    """The trie walk of LhsMatcher agrees with the plain scan over every
    rule, on left-hand sides that share prefixes, contain one another and
    repeat."""

    @settings(max_examples=300, deadline=None)
    @given(trie_systems(), st.data())
    def test_matcher_agrees(self, sys, data):
        names = data.draw(st.lists(st.sampled_from(sys.alphabet.names()), min_size=1, max_size=9))
        word = sys.alphabet.word(names)
        letters, matcher = tuple(word), sys.matcher
        assert matcher.maxlen == max(len(rule.lhs) for rule in sys.rules)
        for start in range(len(word) + 1):
            assert matcher.first_redex(letters, start) == naive_first_redex(
                word, sys, start=start
            )
        reference = naive_one_step_reductions(word, sys)
        assert matcher.redexes(letters) == [
            (step.position, step.rule_index) for step, _ in reference
        ]
        assert matcher.successors(letters) == [result for _, result in reference]

    def test_maxlen_is_zero_without_rules(self, free_ab):
        assert free_ab.matcher.maxlen == 0

    @settings(max_examples=200, deadline=None)
    @given(trie_systems(), st.integers(0, 5))
    def test_irreducible_words_agree(self, sys, max_len):
        assert list(irreducible_words(sys, max_len)) == [
            word for word in words_over(sys.alphabet, max_len) if naive_is_irreducible(word, sys)
        ]


class TestWalkAgainstReference:
    """LhsMatcher.walk, with its resume offset, follows the naive leftmost
    reduction word for word."""

    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixture_words_agree(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        for word in words_over(sys.alphabet, 6):
            assert_walk_matches_reference(word, sys)

    @settings(max_examples=300, deadline=None)
    @given(trie_systems(), st.data())
    def test_random_systems_agree(self, sys, data):
        names = data.draw(st.lists(st.sampled_from(sys.alphabet.names()), min_size=1, max_size=9))
        assert_walk_matches_reference(sys.alphabet.word(names), sys)


def classes_word_by_word(sys, max_len, step_cap):
    """(length, normal form) -> [words, most steps] from the normal form
    and the walk of each word on its own, below the first length that has a
    word past ``step_cap`` steps; with that length, or None."""
    classes = {}
    for word in words_over(sys.alphabet, max_len):
        try:
            nf = normal_form(word, sys, step_cap)
        except NonTerminationError:
            return {key: entry for key, entry in classes.items() if key[0] < len(word)}, len(word)
        entry = classes.setdefault((len(word), nf), [0, 0])
        entry[0] += 1
        entry[1] = max(entry[1], sum(1 for _ in sys.matcher.walk(word)) - 1)
    return classes, None


def assert_walk_classes_match_reference(sys, max_len, step_cap):
    expected, capped_at = classes_word_by_word(sys, max_len, step_cap)
    classes = {}
    walker = sys.matcher.walk_classes(sys.alphabet.names(), max_len, step_cap)
    with pytest.raises(NonTerminationError) if capped_at else contextlib.nullcontext():
        for length, nf, weight, steps in walker:
            entry = classes.setdefault((length, nf), [0, 0])
            entry[0] += weight
            entry[1] = max(entry[1], steps)
    if capped_at is not None:
        # The walker stops within the first length that has a capped word.
        assert all(length <= capped_at for length, _ in classes)
        classes = {key: entry for key, entry in classes.items() if key[0] < capped_at}
    assert classes == expected


class TestWalkClassesAgainstReference:
    """LhsMatcher.walk_classes gives each class the normal form, word count
    and largest step count of the naive leftmost reduction of its words,
    and stops at the same step cap hits."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(looping_systems(), trie_systems()),
        st.integers(0, 4),
        st.sampled_from([-1, 0, 1, 2, 3, 30]),
    )
    def test_random_systems_agree(self, sys, max_len, step_cap):
        assert_walk_classes_match_reference(sys, max_len, step_cap)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(looping_systems(), trie_systems()), st.integers(0, 4))
    def test_random_systems_agree_at_the_default_cap(self, sys, max_len):
        # Right-hand sides cut to their left-hand side's length keep the
        # loops but not the growth, which would walk words of thousands of
        # letters up to the cap.
        sys = sys.with_rules(Rule(rule.lhs, rule.rhs[: len(rule.lhs)]) for rule in sys.rules)
        assert_walk_classes_match_reference(sys, max_len, DEFAULT_STEP_CAP)

    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixture_systems_agree(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        for step_cap in (-1, 0, 1, 2, 3, DEFAULT_STEP_CAP):
            assert_walk_classes_match_reference(sys, 5, step_cap)

    @pytest.mark.parametrize(
        "rules",
        [(("ba", "x"), ("b", "d")), (("abc", "x"), ("b", "d"))],
        ids=["at-the-step", "before-the-step"],
    )
    def test_a_step_that_a_longer_left_hand_side_can_take_over(self, rules):
        # b -> d rewrites the b of a word that ends there, but a longer
        # left-hand side starting at or before it may take over once a
        # letter follows: b a walks to x, not to d a.
        sys = system("a b c d x", *rules)
        for step_cap in (0, 1, DEFAULT_STEP_CAP):
            assert_walk_classes_match_reference(sys, 4, step_cap)

    def test_raw_commutation_construction_agrees(self):
        # The raw R_T of comm has left-hand sides of two to five letters.
        base = system("a b", ("ba", "ab"))
        pres = Presentation(base, (w(base.alphabet, "a"),))
        target = build_construction(prepare_presentation(pres)).as_candidate_tuple().system
        assert target.matcher.maxlen == 5
        for step_cap in (-1, 0, 1, 2, 3, DEFAULT_STEP_CAP):
            assert_walk_classes_match_reference(target, 4, step_cap)

    def test_words_with_a_safe_walk_share_their_extensions(self):
        # Under b a -> a b, b a steps safely to a b, so a b x and b a x form
        # one class: the 8 words of length 3 walk as 6 classes.
        comm = system("a b", ("ba", "ab"))
        level_3 = [
            (show(nf), weight, steps)
            for length, nf, weight, steps in comm.matcher.walk_classes(("a", "b"), 3)
            if length == 3
        ]
        assert level_3 == [
            ("a a a", 1, 0),
            ("a a b", 1, 0),
            ("a a b", 2, 2),
            ("a b b", 2, 1),
            ("a b b", 1, 2),
            ("b b b", 1, 0),
        ]


class TestSearchesAgainstReference:
    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    @pytest.mark.parametrize("step_cap", [1, 3, DEFAULT_STEP_CAP])
    def test_fixture_words_agree(self, fixture, step_cap, request):
        sys = request.getfixturevalue(fixture)
        targets = list(words_over(sys.alphabet, 3))
        for word in words_over(sys.alphabet, 5):
            for target in targets:
                assert_searches_match_reference(word, target, sys, step_cap)

    @settings(max_examples=300, deadline=None)
    @given(
        looping_systems(),
        st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4),
        st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4),
        st.sampled_from([1, 2, 5, 30]),
    )
    def test_random_systems_agree(self, sys, word, target, step_cap):
        word, target = sys.alphabet.word(word), sys.alphabet.word(target)
        assert_searches_match_reference(word, target, sys, step_cap)

    def test_reachable_targets_found(self, sys_moves):
        # Every descendant is a target that the search must reach.
        for word in words_over(sys_moves.alphabet, 5):
            for target in reference_descendants(word, sys_moves):
                assert reduces_to(word, target, sys_moves)

    def test_two_cycle_agrees(self):
        loop = system("a b", ("a", "b"), ("b", "a"))
        for word in words_over(loop.alphabet, 3):
            assert_searches_match_reference(word, w(loop.alphabet, "bb"), loop, 30)


class TestSearchBoundary:
    """Each search validates its start word once, as before it ran on name
    tuples: same error type and message, same cases."""

    def test_empty_word_rejected(self, sys_moves):
        target = w(sys_moves.alphabet, "s")
        with pytest.raises(InputError, match="^cannot reduce the empty word$"):
            reduces_to(Word(), target, sys_moves)
        with pytest.raises(InputError, match="^cannot reduce the empty word$"):
            descendants(Word(), sys_moves)
        with pytest.raises(InputError, match="^the empty word is not a rewriting input$"):
            disorder(Word(), sys_moves)

    def test_first_foreign_letter_named(self, sys_moves):
        foreign = w(Alphabet(["a", "z", "y"]), "azy")
        target = w(sys_moves.alphabet, "s")
        message = "^letter 'z' is not in the system's alphabet$"
        for search, args in (
            (reduces_to, (foreign, target, sys_moves)),
            (descendants, (foreign, sys_moves)),
            (disorder, (foreign, sys_moves)),
            (normal_form, (foreign, sys_moves)),
        ):
            with pytest.raises(InputError, match=message):
                search(*args)

    def test_reduces_to_itself_without_validation(self, sys_moves):
        foreign = w(Alphabet(["z"]), "z")
        assert reduces_to(foreign, foreign, sys_moves)
        assert reduces_to(Word(), Word(), sys_moves)

    def test_disorder_cycle_carries_words(self):
        loop = system("a b", ("a", "b"), ("b", "a"))
        with pytest.raises(NonTerminationError, match="^reduction cycle detected$") as err:
            disorder(w(loop.alphabet, "a"), loop)
        assert err.value.trace == (
            w(loop.alphabet, "a"), w(loop.alphabet, "b"), w(loop.alphabet, "a")
        )
        assert all(type(word) is tuple for word in err.value.trace)

    def test_descendants_are_words(self, sys_moves):
        found = descendants(w(sys_moves.alphabet, "saa"), sys_moves)
        assert all(type(word) is tuple for word in found)
        assert found == reference_descendants(w(sys_moves.alphabet, "saa"), sys_moves)


class TestSuccessors:
    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_successors_list_one_step_reductions(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        for word in words_over(sys.alphabet, 6):
            assert sys.matcher.successors(tuple(word)) == [
                tuple(result) for _, result in one_step_reductions(word, sys)
            ]

    @settings(max_examples=300, deadline=None)
    @given(small_systems(), st.lists(st.sampled_from(LETTERS), min_size=1, max_size=8))
    def test_random_systems_agree(self, sys, names):
        word = sys.alphabet.word(names)
        assert sys.matcher.successors(tuple(word)) == [
            tuple(result) for _, result in naive_one_step_reductions(word, sys)
        ]

    def test_threads_sharing_a_cold_matcher_agree(self):
        # The sweeps run serially, but a library caller may share one
        # system across threads, which may then build the matcher's
        # right-hand-side table at the same time.
        rules = system("a b c", ("ab", "ba"), ("ba", "c"), ("c", "aa"), ("bb", "b"))
        words = [tuple(word) for word in words_over(rules.alphabet, 6)]
        expected = [rules.matcher.successors(names) for names in words]
        cold = rules.with_rules(rules.rules)
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(lambda: [cold.matcher.successors(names) for names in words])
                    for _ in range(4)
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            setswitchinterval(interval)
        assert results == [expected] * 4
