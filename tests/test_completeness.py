import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from frs import (
    Alphabet,
    NonTerminationError,
    Presentation,
    RewritingSystem,
    Rule,
    Word,
    build_construction,
    build_letter_intro,
    check_local_confluence,
    check_termination,
    critical_pairs,
    normal_form,
    normalize_q2_q3,
    one_step_reductions,
    prepare_presentation,
    show,
    substitute,
    verify_complete,
    words_over,
)
from frs import completeness
from frs.completeness import (
    ALL_JOINED,
    BOUNDED_VERIFIED,
    CONFLUENCE,
    COUNTEREXAMPLE,
    EMBEDDING,
    HOLDS,
    INCONCLUSIVE,
    SUFFIX_PREFIX,
    TERMINATION,
    UNKNOWN,
    CriticalPair,
    Evidence,
)
from frs.core import DEFAULT_STEP_CAP, LhsMatcher

from conftest import looping_systems, naive_normal_form, system, w
from test_core import small_systems, trie_systems
from test_large_sub import LADDER_SHAPES, MORE_LADDER_SHAPES, ladder_presentation

SYSTEM_FIXTURES = ["sys_aaa", "sys_moves", "sys_nonconfluent", "free_a", "free_ab"]

# Ladder inputs whose large-sub outputs (223, 367 and 278 rules) are joined
# against the reference loops: (alphabet, rules, complement).
CONSTRUCTIONS = {
    "comm": ("a b", [("ba", "ab")], ["a"]),
    "two": ("a b", [("aaa", "a"), ("bb", "b")], ["a", "aa"]),
    "comm_ab": ("a b", [("ba", "ab")], ["a", "b"]),
}

# Known-incomplete systems: one left-hand side with two irreducible
# right-hand sides, a two-rule reduction cycle, and the two systems whose
# join ends early after pairs that joined.
KNOWN_INCOMPLETE = [
    system("a b", ("ab", "a"), ("ab", "b")),
    system("a b", ("ab", "ba"), ("ba", "ab")),
    system("a b", ("aaa", "a"), ("ab", "ba"), ("ba", "ab")),
    system("a s b", ("aa", "s"), ("sa", "as"), ("ab", "a"), ("ab", "b")),
]


def large_sub_output(name):
    letters, rules, complement = CONSTRUCTIONS[name]
    base = system(letters, *rules)
    words = tuple(w(base.alphabet, text) for text in complement)
    prepared = prepare_presentation(Presentation(base, words))
    return build_construction(prepared).r_t


@pytest.fixture(scope="module", params=sorted(CONSTRUCTIONS))
def construction_output(request):
    return large_sub_output(request.param)


# Reference implementations: the Word-based loops that the name-tuple
# versions in frs.completeness replaced.
def reference_critical_pairs(sys):
    pairs = []
    rules = sys.rules
    for i, ri in enumerate(rules):
        for j, rj in enumerate(rules):
            li, lj = ri.lhs, rj.lhs
            for k in range(1, min(len(li), len(lj))):
                if li[len(li) - k:] == lj[:k]:
                    source = li + lj[k:]
                    left = ri.rhs + lj[k:]
                    right = li[: len(li) - k] + rj.rhs
                    pairs.append(CriticalPair(source, left, right, SUFFIX_PREFIX, (i, j)))
            if i == j:
                continue
            if li == lj:
                if i < j:
                    pairs.append(CriticalPair(li, ri.rhs, rj.rhs, EMBEDDING, (i, j)))
                continue
            if len(lj) >= len(li):
                continue
            for pos in range(len(li) - len(lj) + 1):
                if li[pos:pos + len(lj)] == lj:
                    inner = li[:pos] + rj.rhs + li[pos + len(lj):]
                    pairs.append(CriticalPair(li, ri.rhs, inner, EMBEDDING, (i, j)))
    return pairs


# The overlap-indexed list builder that the streamed pairs of
# completeness._overlaps replaced.  It builds its own hashed index of the
# left-hand sides (each side -> ascending rule indexes, and the ascending
# side lengths), so it does not share the trie that _overlaps walks.
def reference_indexed_critical_pairs(sys):
    pairs = []
    rules = sys.rules
    lhs, rhs = sys.matcher.lhs, sys.matcher.rhs
    table = {}
    for idx, side in enumerate(lhs):
        table.setdefault(side, []).append(idx)
    lengths = sorted({len(side) for side in table})
    by_prefix = {}
    for j, lj in enumerate(lhs):
        for k in range(1, len(lj)):
            by_prefix.setdefault(lj[:k], []).append(j)
    for i, li in enumerate(lhs):
        ri, len_i = rules[i], len(li)
        partners = set()
        for k in range(1, len_i):
            partners.update(by_prefix.get(li[len_i - k:], ()))
        for k in lengths:
            if k > len_i:
                break
            for pos in range(len_i - k + 1):
                partners.update(table.get(li[pos: pos + k], ()))
        for j in sorted(partners):
            lj = lhs[j]
            len_j = len(lj)
            for k in range(1, min(len_i, len_j)):
                if li[len_i - k:] == lj[:k]:
                    tail = lj[k:]
                    pairs.append(
                        CriticalPair(
                            Word(li + tail),
                            Word(rhs[i] + tail),
                            Word(li[: len_i - k] + rhs[j]),
                            SUFFIX_PREFIX,
                            (i, j),
                        )
                    )
            if i == j or len_j > len_i:
                continue
            if li == lj:
                if i < j:
                    pairs.append(
                        CriticalPair(ri.lhs, ri.rhs, rules[j].rhs, EMBEDDING, (i, j))
                    )
                continue
            for pos in range(len_i - len_j + 1):
                if li[pos: pos + len_j] == lj:
                    inner = Word(li[:pos] + rhs[j] + li[pos + len_j:])
                    pairs.append(CriticalPair(ri.lhs, ri.rhs, inner, EMBEDDING, (i, j)))
    return pairs


def reference_local_confluence(sys, step_cap=DEFAULT_STEP_CAP, pairs=None):
    """The per-pair join that the memoized one replaced: both results of
    every pair of ``pairs`` (the all-pairs reference list by default) are
    normalized afresh."""
    joined = 0
    for pair in reference_critical_pairs(sys) if pairs is None else pairs:
        try:
            left_nf = normal_form(pair.left_result, sys, step_cap)
            right_nf = normal_form(pair.right_result, sys, step_cap)
        except NonTerminationError:
            return Evidence(CONFLUENCE, INCONCLUSIVE, 0, joined, (pair.source,))
        if left_nf != right_nf:
            return Evidence(CONFLUENCE, COUNTEREXAMPLE, 0, joined, (pair.source, left_nf, right_nf))
        joined += 1
    return Evidence(CONFLUENCE, ALL_JOINED, 0, joined)


def reference_bounded_cycle_search(sys, max_len, step_cap):
    color = {}
    explored = 0
    for start in words_over(sys.alphabet, max_len):
        if color.get(start) == 2:
            continue
        path = []
        stack = [(start, None)]
        while stack:
            node, succ = stack.pop()
            if succ is None:
                if color.get(node) in (1, 2):
                    continue
                color[node] = 1
                path.append(node)
                explored += 1
                if explored > step_cap:
                    return Evidence(
                        TERMINATION,
                        UNKNOWN,
                        max_len,
                        note=f"bounded search stopped: more than {step_cap} states",
                    )
                succ = [
                    result
                    for _, result in one_step_reductions(node, sys)
                    if len(result) <= max_len
                ]
                for nxt in succ:
                    if color.get(nxt) == 1:
                        cycle = path[path.index(nxt):] + [nxt]
                        return Evidence(
                            TERMINATION, COUNTEREXAMPLE, max_len, counterexample=tuple(cycle)
                        )
                stack.append((node, succ))
                for nxt in succ:
                    if color.get(nxt) is None:
                        stack.append((nxt, None))
            else:
                color[node] = 2
                path.pop()
    return Evidence(TERMINATION, BOUNDED_VERIFIED, max_len)


def assert_cycle_search_matches_reference(sys, max_len, step_cap):
    found = completeness._bounded_cycle_search(sys, max_len, step_cap)
    assert found == reference_bounded_cycle_search(sys, max_len, step_cap)
    if found.counterexample is not None:
        assert all(type(word) is tuple for word in found.counterexample)


class TestCriticalPairs:
    def test_disjoint_lhs(self):
        sys = system("a b s", ("ab", "s"))
        assert critical_pairs(sys) == []

    def test_two_overlaps(self, sys_moves):
        pairs = critical_pairs(sys_moves)
        found = {
            (show(p.source), show(p.left_result), show(p.right_result), p.rule_indices)
            for p in pairs
        }
        assert found == {
            ("a a a", "s a", "a s", (0, 0)),
            ("s a a", "a s a", "s s", (1, 0)),
        }

    def test_identical_lhs_counted_once(self, sys_nonconfluent):
        pairs = critical_pairs(sys_nonconfluent)
        assert len(pairs) == 1
        (pair,) = pairs
        assert (show(pair.source), show(pair.left_result), show(pair.right_result)) == (
            "a b",
            "a",
            "b",
        )
        assert pair.overlap_kind == "embedding"

    def test_self_overlaps_of_one_rule(self, sys_aaa):
        sources = {show(p.source) for p in critical_pairs(sys_aaa)}
        assert sources == {"a a a a", "a a a a a"}

    def test_embedding_inside_longer_lhs(self):
        sys = system("a b", ("aba", "b"), ("b", "a"))
        pairs = [p for p in critical_pairs(sys) if p.overlap_kind == "embedding"]
        assert [(show(p.source), show(p.left_result), show(p.right_result)) for p in pairs] == [
            ("a b a", "b", "a a a")
        ]

    def test_each_unordered_overlap_unique(self, sys_moves, sys_aaa, sys_nonconfluent):
        for sys in (sys_moves, sys_aaa, sys_nonconfluent):
            seen = set()
            for pair in critical_pairs(sys):
                key = (
                    pair.source,
                    frozenset({pair.left_result, pair.right_result}),
                    frozenset(pair.rule_indices),
                )
                assert key not in seen
                seen.add(key)

    def test_source_one_step_reduces_to_both_results(self, sys_moves, sys_aaa):
        for sys in (sys_moves, sys_aaa):
            for pair in critical_pairs(sys):
                results = {word for _, word in one_step_reductions(pair.source, sys)}
                assert pair.left_result in results
                assert pair.right_result in results


class TestTermination:
    def test_length_reducing_certified(self, sys_aaa):
        evidence = check_termination(sys_aaa)
        assert evidence.status == "certified"
        assert "length-reducing" in evidence.note

    def test_rightward_measure_certified(self, sys_moves):
        evidence = check_termination(sys_moves)
        assert evidence.status == "certified"
        assert "{s}" in evidence.note

    def test_two_cycle_found_by_bounded_search(self):
        loop = system("a b", ("a", "b"), ("b", "a"))
        evidence = check_termination(loop)
        assert evidence.status == "counterexample"
        assert [show(word) for word in evidence.counterexample] == ["a", "b", "a"]

    def test_declared_heavy_set_used(self, sys_moves):
        seed = frozenset({sys_moves.alphabet.get("s")})
        assert check_termination(sys_moves, seed=seed).status == "certified"

    def test_bounded_verification_when_no_certificate(self):
        # a b -> b b a terminates, as each a only moves right, but it grows
        # words and keeps the count of a, so no built-in measure certifies;
        # the bounded verdict only states cycle-freeness within the window
        # and that no left-hand side loops within the loop search's states.
        grower = system("a b", ("ab", "bba"))
        evidence = check_termination(grower, max_len=5)
        assert evidence.status == "bounded_verified"
        assert evidence.bound == 5

    @pytest.mark.parametrize("step_cap", [1, DEFAULT_STEP_CAP])
    def test_self_embedding_rule_is_a_counterexample(self, step_cap):
        # a -> b a b rewrites a forever, but every chain only grows, so the
        # bounded search meets no cycle (or stops at a cap of 1).
        grower = system("a b", ("a", "bab"))
        evidence = check_termination(grower, step_cap=step_cap)
        assert evidence.status == "counterexample"
        assert [show(word) for word in evidence.counterexample] == ["a", "b a b"]

    def test_cycle_found_by_the_search_comes_first(self):
        # With the cycle a b -> b a -> a b in reach, the search reports it;
        # when its cap stops it first, the self-embedding a -> a a decides.
        sys = system("a b", ("ab", "ba"), ("ba", "ab"), ("a", "aa"))
        cycle = check_termination(sys).counterexample
        assert [show(word) for word in cycle] == ["a a a a a b", "a a a a b a", "a a a a a b"]
        capped = check_termination(sys, step_cap=1)
        assert [show(word) for word in capped.counterexample] == ["a", "a a"]

    @pytest.mark.parametrize("step_cap", [1, DEFAULT_STEP_CAP])
    def test_loop_through_two_rules_is_a_counterexample(self, step_cap):
        # a -> b b -> a b holds a, so a rewrites forever, though no rule's
        # right-hand side holds its own left-hand side and every chain only
        # grows: the bounded search meets no cycle (or stops at a cap of 1).
        looping = system("a b", ("a", "bb"), ("b", "a"))
        evidence = check_termination(looping, step_cap=step_cap)
        assert evidence.status == "counterexample"
        assert [show(word) for word in evidence.counterexample] == ["a", "b b", "a b"]

    def test_loop_search_enters_at_most_loop_states_words(self, monkeypatch):
        # The loop from a needs a second word, b b, to be entered.
        looping = system("a b", ("a", "bb"), ("b", "a"))
        monkeypatch.setattr(completeness, "LOOP_STATES", 1)
        assert check_termination(looping).status == "bounded_verified"
        monkeypatch.setattr(completeness, "LOOP_STATES", 2)
        assert check_termination(looping).status == "counterexample"

    @settings(max_examples=200, deadline=None)
    @given(looping_systems())
    def test_every_loop_found_regrows_its_left_hand_side(self, sys):
        loop = completeness._loop(sys)
        if loop is None:
            return
        start, *_, end = loop
        assert start in {rule.lhs for rule in sys.rules}
        for word, nxt in zip(loop, loop[1:]):
            assert nxt in {result for _, result in one_step_reductions(word, sys)}
        assert any(end[pos: pos + len(start)] == start for pos in range(len(end)))


# Systems that no letter measure certifies but whose generator images do:
# name -> (system, images).  Large-sub outputs of idcomm, mono42, comm_ab
# and aba, and letter introductions over comm, idcomm and three.
def pulled_back_targets():
    targets = {}
    for name, (letters, rules, complement) in {
        "idcomm": ("a b", [("aa", "a"), ("ba", "ab")], ["a"]),
        "mono42": ("a", [("aaaa", "aa")], ["a"]),
        "comm_ab": CONSTRUCTIONS["comm_ab"],
        "aba": ("a b", [("aba", "a")], ["a"]),
    }.items():
        base = system(letters, *rules)
        words = tuple(w(base.alphabet, text) for text in complement)
        construction = build_construction(prepare_presentation(Presentation(base, words)))
        targets[name] = (construction.r_t, construction.images)
    for name, letters, rules, w0 in (
        ("comm s=ab", "a b", [("ba", "ab")], "ab"),
        ("idcomm s=bb", "a b", [("aa", "a"), ("ba", "ab")], "bb"),
        ("three s=ac", "a b c", [("ca", "ac"), ("cb", "bc")], "ac"),
    ):
        base = system(letters, *rules)
        result = build_letter_intro(base, w(base.alphabet, w0))
        targets[name] = (result.r_s, result.images)
    return targets


PULLED_BACK = pulled_back_targets()
# Cycle searches larger than this are left out of the differential test.
SEARCH_BUDGET = 20_000


class TestPulledBackCertificate:
    def test_right_drift_letters_follow_phi(self):
        # x is its own image, so phi fixes it as it fixes a; y has an image
        # of its own, and b is no letter of the alphabet.
        alphabet = Alphabet(["a", "x", "y", "z", "u", "v"])
        images = {"x": ("x",), "y": ("x", "a"), "z": ("y", "a"), "u": ("b", "a")}
        images["v"] = ("b", "b", "b")
        assert completeness.right_drift_letters(images, alphabet) == {"y", "v"}

    @pytest.mark.parametrize("name", sorted(PULLED_BACK))
    def test_targets_certified_only_through_their_images(self, name):
        sys, images = PULLED_BACK[name]
        assert completeness.find_measure_certificate(sys) is None
        assert completeness._pulled_back_certificate(sys, images)

    # Without a cycle the search enters every word up to max_len, so its
    # answer is the count of those words against the cap: the computed
    # answer must be the search's, at the caps around that count.
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(PULLED_BACK)),
        st.integers(0, 6),
        # (times n, plus): the caps -1, 0, 1, n - 1, n, n + 1 and the default.
        st.sampled_from([(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (0, DEFAULT_STEP_CAP)]),
    )
    def test_computed_answer_is_the_search_answer(self, name, max_len, cap_of_n):
        sys, images = PULLED_BACK[name]
        n = sum(len(sys.alphabet) ** length for length in range(1, max_len + 1))
        times, plus = cap_of_n
        cap = times * n + plus
        assume(min(n, cap) <= SEARCH_BUDGET)
        assert check_termination(sys, max_len, cap, images=images) == (
            completeness._bounded_cycle_search(sys, max_len, cap)
        )

    def test_image_that_neither_drops_nor_is_kept_does_not_certify(self):
        # a -> s grows the image a to a b: no heavy set makes it drop.
        sys = system("a b s", ("a", "s"))
        assert not completeness._pulled_back_certificate(sys, {"s": ("a", "b")})

    def test_one_heavy_set_must_drop_every_rule(self):
        # s -> b a drops its image a b under {a}, and b a -> s drops b a
        # under {b}, but no one set drops both: the cycle is still found.
        sys = system("a b s", ("s", "ba"), ("ba", "s"))
        images = {"s": ("a", "b")}
        assert not completeness._pulled_back_certificate(sys, images)
        evidence = check_termination(sys, images=images)
        assert evidence.status == COUNTEREXAMPLE
        assert evidence == check_termination(sys)

    def test_kept_images_need_their_own_certificate(self):
        # Both rules keep the image b a b, so only a measure of the target
        # letters could order them, and none does: they undo each other.
        sys, images = PULLED_BACK["idcomm"]
        alphabet = sys.alphabet
        undo = Rule(alphabet.word("b c_a_b"), alphabet.word("c_b_a b"))
        looping = sys.with_rules(sys.rules + (undo,))
        assert not completeness._pulled_back_certificate(looping, images)
        evidence = check_termination(looping, images=images)
        assert [show(word) for word in evidence.counterexample] == [
            "b c_a_b", "c_b_a b", "b c_a_b"
        ]


class TestLocalConfluence:
    def test_all_joined(self, sys_moves):
        evidence = check_local_confluence(sys_moves)
        assert evidence.status == "all_joined"
        assert evidence.witness_count == 2

    def test_counterexample(self, sys_nonconfluent):
        evidence = check_local_confluence(sys_nonconfluent)
        assert evidence.status == "counterexample"
        assert [show(word) for word in evidence.counterexample] == ["a b", "a", "b"]

    def test_one_rule_self_overlaps_join(self, sys_aaa):
        evidence = check_local_confluence(sys_aaa)
        assert evidence.status == "all_joined"
        assert evidence.witness_count == 2

    def test_joins_stable_under_rightmost_strategy(self, sys_moves, sys_aaa):
        for sys in (sys_moves, sys_aaa):
            for pair in critical_pairs(sys):
                left = naive_normal_form(pair.left_result, sys, rightmost=True)
                right = naive_normal_form(pair.right_result, sys, rightmost=True)
                assert left == right


class TestVerifyComplete:
    def test_report_results_are_looked_up_by_name(self, sys_nonconfluent):
        report = verify_complete(sys_nonconfluent)
        termination, confluence = report.results
        assert (termination.name, confluence.name) == (TERMINATION, CONFLUENCE)
        assert report.result("local confluence") is confluence
        with pytest.raises(KeyError):
            report.result("P1")

    def test_complete(self, sys_aaa):
        assert verify_complete(sys_aaa).verdict == "complete"

    def test_incomplete(self, sys_nonconfluent):
        report = verify_complete(sys_nonconfluent)
        assert report.verdict == "incomplete"
        assert report.result("termination").status == "certified"

    def test_empty_system_complete(self, free_ab):
        report = verify_complete(free_ab)
        assert report.verdict == "complete"
        assert report.result("local confluence").witness_count == 0

    def test_verdict_matches_components(self, sys_moves, sys_nonconfluent):
        for sys in (sys_moves, sys_nonconfluent):
            report = verify_complete(sys)
            termination, confluence = report.results
            if report.verdict == "complete":
                assert termination.status in HOLDS
                assert confluence.status == "all_joined"
            elif report.verdict == "incomplete":
                assert (
                    termination.status == "counterexample"
                    or confluence.status == "counterexample"
                )

    def test_random_words_strategy_independent_on_complete_fixtures(
        self, sys_moves, sys_aaa
    ):
        rng = random.Random(20240811)
        for sys in (sys_moves, sys_aaa):
            letters = sys.alphabet.names()
            for _ in range(200):
                length = rng.randint(1, 8)
                word = Word(tuple(rng.choice(letters) for _ in range(length)))
                assert normal_form(word, sys) == naive_normal_form(
                    word, sys, rightmost=True
                )


class TestBoundedSearchBudget:
    def test_unknown_when_state_budget_exceeded(self):
        # A terminating system without a certificate: the search runs.
        grower = system("a b", ("ab", "bba"))
        evidence = completeness.check_termination(grower, max_len=6, step_cap=10)
        assert evidence.status == "unknown"


class TestAgainstReference:
    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixture_critical_pairs_agree(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        assert critical_pairs(sys) == reference_critical_pairs(sys)

    def test_embedding_and_duplicate_critical_pairs_agree(self):
        sys = system("a b", ("aba", "b"), ("b", "a"), ("ab", "a"), ("aba", "a"), ("a", "b"))
        assert critical_pairs(sys) == reference_critical_pairs(sys)

    @settings(max_examples=300, deadline=None)
    @given(looping_systems())
    def test_random_critical_pairs_agree(self, sys):
        assert critical_pairs(sys) == reference_critical_pairs(sys)

    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    @pytest.mark.parametrize("step_cap", [1, 10, 10_000])
    def test_fixture_cycle_search_agrees(self, fixture, step_cap, request):
        sys = request.getfixturevalue(fixture)
        for max_len in range(1, 6):
            assert_cycle_search_matches_reference(sys, max_len, step_cap)

    @settings(max_examples=300, deadline=None)
    @given(looping_systems(), st.integers(1, 4), st.sampled_from([1, 5, 40, 10_000]))
    def test_random_cycle_search_agrees(self, sys, max_len, step_cap):
        assert_cycle_search_matches_reference(sys, max_len, step_cap)

    def test_cycle_search_statuses_covered(self):
        loop = system("a b", ("ab", "ba"), ("ba", "ab"))
        grower = system("a b", ("ab", "ba"), ("ba", "aab"))
        for sys, max_len, step_cap, status in (
            (loop, 3, 10_000, COUNTEREXAMPLE),
            (grower, 5, 10_000, BOUNDED_VERIFIED),
            (grower, 6, 10, UNKNOWN),
        ):
            assert completeness._bounded_cycle_search(sys, max_len, step_cap).status == status
            assert_cycle_search_matches_reference(sys, max_len, step_cap)

    def test_construction_output_critical_pairs_agree(self, construction_output):
        assert critical_pairs(construction_output) == reference_critical_pairs(
            construction_output
        )


class TestConfluenceAgainstReference:
    """The memoized join gives the same evidence as the per-pair loop:
    status, joined count, counterexample pair and both normal forms."""

    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixtures_agree(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        assert check_local_confluence(sys) == reference_local_confluence(sys)

    @settings(max_examples=300, deadline=None)
    @given(looping_systems(), st.integers(1, 30))
    def test_random_systems_agree(self, sys, step_cap):
        assert check_local_confluence(sys, step_cap) == reference_local_confluence(
            sys, step_cap
        )

    def test_construction_outputs_agree(self, construction_output):
        evidence = check_local_confluence(construction_output)
        assert evidence.status == ALL_JOINED
        assert evidence == reference_local_confluence(construction_output)

    def test_early_stops_after_joined_pairs_agree(self):
        # Both verdicts that end the join early, each after pairs that
        # joined and whose normal forms were kept.
        loop = system("a b", ("aaa", "a"), ("ab", "ba"), ("ba", "ab"))
        split = system("a s b", ("aa", "s"), ("sa", "as"), ("ab", "a"), ("ab", "b"))
        for sys, status, joined in ((loop, INCONCLUSIVE, 2), (split, COUNTEREXAMPLE, 1)):
            evidence = check_local_confluence(sys, 30)
            assert (evidence.status, evidence.witness_count) == (status, joined)
            assert evidence == reference_local_confluence(sys, 30)


# Reference termination predicates: the two hand-written comparisons that
# the single (length, heavy count, heavy right-distance sum) measure replaced.
def reference_heavy_count(word, heavy):
    return sum(1 for letter in word if letter in heavy)


def reference_right_weight(word, heavy):
    n = len(word)
    return sum(n - 1 - pos for pos, letter in enumerate(word) if letter in heavy)


def reference_drops_length_first(rule, heavy):
    if len(rule.rhs) < len(rule.lhs):
        return True
    if len(rule.rhs) > len(rule.lhs):
        return False
    cl, cr = reference_heavy_count(rule.lhs, heavy), reference_heavy_count(rule.rhs, heavy)
    if cr < cl:
        return True
    if cr > cl:
        return False
    return reference_right_weight(rule.rhs, heavy) < reference_right_weight(rule.lhs, heavy)


def reference_drops_count_first(rule, heavy):
    cl, cr = reference_heavy_count(rule.lhs, heavy), reference_heavy_count(rule.rhs, heavy)
    if cr < cl:
        return True
    if cr > cl:
        return False
    if len(rule.lhs) != len(rule.rhs):
        return False
    return reference_right_weight(rule.rhs, heavy) < reference_right_weight(rule.lhs, heavy)


def assert_measure_matches_reference(sys):
    for heavy in completeness._measure_candidates(sys.alphabet.names()):
        for rule in sys.rules:
            deltas = completeness._deltas(rule.lhs, rule.rhs)
            assert completeness._drops_length_first(deltas, heavy) == (
                reference_drops_length_first(rule, heavy)
            ), (rule, heavy)
            assert completeness._drops_count_first(deltas, heavy) == (
                reference_drops_count_first(rule, heavy)
            ), (rule, heavy)


class TestMeasureAgainstReference:
    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixture_systems_agree(self, fixture, request):
        assert_measure_matches_reference(request.getfixturevalue(fixture))

    @settings(max_examples=150, deadline=None)
    @given(small_systems())
    def test_random_systems_agree(self, sys):
        assert_measure_matches_reference(sys)


def reference_candidates(letters, seed):
    """The heavy sets in search order, as a list: ``seed``, then the empty
    set, the singletons and, on at most 14 letters, every larger subset by
    size, without the seed."""
    letters = list(letters)
    subsets = [frozenset()] + [frozenset({letter}) for letter in letters]
    if len(letters) <= 14:
        for size in range(2, len(letters) + 1):
            subsets += [frozenset(combo) for combo in itertools.combinations(letters, size)]
    return [seed] + [subset for subset in subsets if subset != seed]


def reference_measure_certificate(sys, seed=frozenset()):
    """The in-order certificate search over the reference predicates."""
    if not sys.rules:
        return "no rules"
    candidates = reference_candidates(sys.alphabet.names(), seed)
    for cand in candidates:
        names = ", ".join(sorted(cand))
        if all(reference_drops_length_first(rule, cand) for rule in sys.rules):
            if not cand:
                return "all rules strictly length-reducing"
            return (
                "length-nonincreasing; on length ties the letters "
                f"{{{names}}} are eliminated or move right"
            )
        if cand and all(reference_drops_count_first(rule, cand) for rule in sys.rules):
            return (
                f"letters {{{names}}} are eliminated, or keep their count "
                "and move right at constant length"
            )
    return None


def reference_pulled_back_certificate(sys, images):
    """The pulled-back search over the image rules themselves and the
    reference predicates."""
    phi = {letter: images.get(letter, (letter,)) for letter in sys.alphabet}
    moved, kept = [], []
    for rule in sys.rules:
        lhs, rhs = substitute(rule.lhs, phi), substitute(rule.rhs, phi)
        if lhs == rhs:
            kept.append(rule)
        else:
            moved.append(Rule(lhs, rhs))
    base = dict.fromkeys(letter for image in phi.values() for letter in image)
    if not any(
        all(reference_drops_length_first(rule, heavy) for rule in moved)
        for heavy in completeness._measure_candidates(base)
    ):
        return False
    seed = completeness.right_drift_letters(images, sys.alphabet)
    return reference_measure_certificate(sys.with_rules(kept), seed) is not None


@st.composite
def wide_measure_systems(draw):
    """Rules over four to seven letters, in shuffled order: commutations
    y x -> x y, which only a heavy set that holds y and not x orders,
    mixed with length-reducing and length-increasing rules."""
    letters = [f"x{i}" for i in range(draw(st.integers(4, 7)))]
    letter = st.sampled_from(letters)
    pairs = [
        ([y, x], [x, y])
        for x, y in draw(
            st.lists(st.tuples(letter, letter).filter(lambda xy: xy[0] != xy[1]), max_size=6)
        )
    ]
    for _ in range(draw(st.integers(0, 3))):
        lhs = draw(st.lists(letter, min_size=2, max_size=4))
        pairs.append((lhs, draw(st.lists(letter, min_size=1, max_size=len(lhs) - 1))))
    for _ in range(draw(st.integers(0, 2))):
        lhs = draw(st.lists(letter, min_size=1, max_size=2))
        pairs.append((lhs, draw(st.lists(letter, min_size=len(lhs) + 1, max_size=3))))
    assume(pairs)
    alphabet = Alphabet(letters)
    rules = [Rule(alphabet.word(lhs), alphabet.word(rhs)) for lhs, rhs in pairs]
    return RewritingSystem(alphabet, tuple(draw(st.permutations(rules))))


# The large-sub output of every input of the benchmark ladder, raw and
# interreduced: (system, images).
def ladder_targets():
    targets = {}
    for shape in sorted({**LADDER_SHAPES, **MORE_LADDER_SHAPES}):
        construction = build_construction(ladder_presentation(shape))
        targets[shape] = (construction.r_t, construction.images)
        targets[f"{shape} interreduced"] = (normalize_q2_q3(construction.r_t), construction.images)
    return targets


class TestMeasureSearchAgainstReference:
    """The search over each rule's measure drops, computed once per rule,
    returns what the in-order search over the reference predicates
    returns, certificate strings included."""

    @settings(max_examples=300, deadline=None)
    @given(wide_measure_systems(), st.data())
    def test_wide_alphabets_agree(self, sys, data):
        found = completeness.find_measure_certificate(sys)
        assert found == reference_measure_certificate(sys)
        assert found == completeness.find_measure_certificate(sys, frozenset())
        names = sys.alphabet.names()
        for _ in range(3):
            seed = frozenset(data.draw(st.lists(st.sampled_from(names), max_size=3)))
            assert completeness.find_measure_certificate(sys, seed) == (
                reference_measure_certificate(sys, seed)
            )

    @pytest.mark.parametrize("letters", [2, 5, 12, 20])
    @pytest.mark.parametrize("seed_size", [0, 1, 3])
    def test_candidates_are_the_reference_order(self, letters, seed_size):
        names = [f"x{i}" for i in range(letters)]
        seed = frozenset(names[1 : 1 + seed_size])
        assert list(completeness._measure_candidates(names, seed)) == (
            reference_candidates(names, seed)
        )

    def test_certifying_seed_is_the_only_candidate_tested(self, monkeypatch):
        # y x0 -> x0 y for y = x1..x11, over twenty letters: a heavy set
        # orders these rules only if it holds all eleven y's, and the seed
        # is that set.  No set of the empty set and singletons, all that is
        # searched above 14 letters, certifies them.
        names = [f"x{i}" for i in range(20)]
        alphabet = Alphabet(names)
        rules = tuple(
            Rule(alphabet.word([y, "x0"]), alphabet.word(["x0", y])) for y in names[1:12]
        )
        sys = RewritingSystem(alphabet, rules)
        seed = frozenset(names[1:12])
        tested = []
        all_drop = completeness._all_drop

        def counted(rules, drops, heavy):
            tested.append(heavy)
            return all_drop(rules, drops, heavy)

        monkeypatch.setattr(completeness, "_all_drop", counted)
        certificate = completeness.find_measure_certificate(sys, seed)
        assert certificate is not None and set(tested) == {seed}
        assert completeness.find_measure_certificate(sys) is None

    def test_ladder_pulled_back_certificates_agree(self):
        targets = ladder_targets()
        assert len(targets) == 24
        found = {
            name: completeness._pulled_back_certificate(sys, images)
            for name, (sys, images) in targets.items()
        }
        assert found == {
            name: reference_pulled_back_certificate(sys, images)
            for name, (sys, images) in targets.items()
        }


def assert_join_matches_reference(sys, step_cap=DEFAULT_STEP_CAP):
    pairs = reference_indexed_critical_pairs(sys)
    assert critical_pairs(sys) == pairs
    assert check_local_confluence(sys, step_cap) == reference_local_confluence(
        sys, step_cap, pairs
    )


class TestStreamedJoinAgainstReference:
    """The pairs streamed into the join, and the list critical_pairs
    builds from them, agree with the overlap-indexed list builder; the
    certificate search that tests the last failing rule first returns what
    the in-order search returns."""

    @pytest.mark.parametrize("fixture", SYSTEM_FIXTURES)
    def test_fixtures_agree(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        assert_join_matches_reference(sys)
        assert completeness.find_measure_certificate(sys) == reference_measure_certificate(sys)

    @pytest.mark.parametrize("sys", KNOWN_INCOMPLETE)
    @pytest.mark.parametrize("step_cap", [1, 30, DEFAULT_STEP_CAP])
    def test_known_incomplete_agree(self, sys, step_cap):
        assert_join_matches_reference(sys, step_cap)
        assert completeness.find_measure_certificate(sys) == reference_measure_certificate(sys)

    @settings(max_examples=200, deadline=None)
    @given(small_systems(), st.integers(1, 30), st.randoms(use_true_random=False))
    def test_random_systems_agree(self, sys, step_cap, rng):
        assert_join_matches_reference(sys, step_cap)
        rules = list(sys.rules)
        rng.shuffle(rules)
        for ordered in (sys, sys.with_rules(rules)):
            assert completeness.find_measure_certificate(ordered) == (
                reference_measure_certificate(ordered)
            )

    # Duplicate, prefix, factor and one-letter left-hand sides: the factor
    # partners of a rule come from the trie's redexes of its left-hand side.
    @settings(max_examples=200, deadline=None)
    @given(trie_systems(), st.integers(1, 30))
    def test_trie_systems_agree(self, sys, step_cap):
        assert_join_matches_reference(sys, step_cap)
        assert critical_pairs(sys) == reference_critical_pairs(sys)

    def test_construction_outputs_agree(self, construction_output):
        assert_join_matches_reference(construction_output)

    @settings(max_examples=3, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_shuffled_construction_certificates_agree(self, construction_output, rng):
        rules = list(construction_output.rules)
        rng.shuffle(rules)
        for sys in (construction_output, construction_output.with_rules(rules)):
            assert completeness.find_measure_certificate(sys) == reference_measure_certificate(sys)


def test_step_cap_trace_is_not_replayed_by_the_join(monkeypatch):
    # a b -> b a -> a b: the first critical pair's left result 'b a a'
    # reaches the step cap after 50 rewrites, each found by one call.
    cycle = system("a b", ("ab", "ba"), ("ba", "ab"))
    calls = []
    first_redex = LhsMatcher.first_redex

    def counted(self, *args):
        calls.append(args)
        return first_redex(self, *args)

    monkeypatch.setattr(LhsMatcher, "first_redex", counted)
    evidence = check_local_confluence(cycle, 50)
    assert (evidence.status, evidence.witness_count) == (INCONCLUSIVE, 0)
    assert len(calls) <= 51


def test_each_distinct_result_is_normalized_once(monkeypatch):
    comm = large_sub_output("comm")
    calls = []

    def counted(word, *args):
        calls.append(tuple(word))
        return normal_form(word, *args)

    monkeypatch.setattr(completeness, "normal_form", counted)
    assert check_local_confluence(comm).status == ALL_JOINED
    results = [
        tuple(result)
        for pair in critical_pairs(comm)
        for result in (pair.left_result, pair.right_result)
    ]
    assert (len(results), len(set(results))) == (28_372, 2_617)
    assert sorted(calls) == sorted(set(results))
