import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from frs import (
    Alphabet,
    NonTerminationError,
    Presentation,
    Rule,
    Word,
    build_construction,
    build_letter_intro,
    check_local_confluence,
    check_termination,
    critical_pairs,
    normal_form,
    one_step_reductions,
    prepare_presentation,
    show,
    verify_complete,
    words_over,
)
from frs import completeness
from frs.completeness import (
    ALL_JOINED,
    BOUNDED_VERIFIED,
    COUNTEREXAMPLE,
    EMBEDDING,
    INCONCLUSIVE,
    SUFFIX_PREFIX,
    UNKNOWN,
    ConfluenceEvidence,
    CriticalPair,
    TerminationEvidence,
)
from frs.core import DEFAULT_STEP_CAP, LhsMatcher

from conftest import looping_systems, naive_normal_form, system, w
from test_core import small_systems, trie_systems

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
            return ConfluenceEvidence(INCONCLUSIVE, joined_count=joined, counterexample=pair)
        if left_nf != right_nf:
            return ConfluenceEvidence(
                COUNTEREXAMPLE,
                joined_count=joined,
                counterexample=pair,
                left_nf=left_nf,
                right_nf=right_nf,
            )
        joined += 1
    return ConfluenceEvidence(ALL_JOINED, joined_count=joined)


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
                    return TerminationEvidence(
                        UNKNOWN,
                        certificate=f"bounded search stopped: more than {step_cap} states",
                    )
                succ = [
                    result
                    for _, result in one_step_reductions(node, sys)
                    if len(result) <= max_len
                ]
                for nxt in succ:
                    if color.get(nxt) == 1:
                        cycle = path[path.index(nxt):] + [nxt]
                        return TerminationEvidence(COUNTEREXAMPLE, cycle=tuple(cycle))
                stack.append((node, succ))
                for nxt in succ:
                    if color.get(nxt) is None:
                        stack.append((nxt, None))
            else:
                color[node] = 2
                path.pop()
    return TerminationEvidence(BOUNDED_VERIFIED, depth=max_len)


def assert_cycle_search_matches_reference(sys, max_len, step_cap):
    found = completeness._bounded_cycle_search(sys, max_len, step_cap)
    assert found == reference_bounded_cycle_search(sys, max_len, step_cap)
    if found.cycle is not None:
        assert all(type(word) is tuple for word in found.cycle)


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
        assert "length-reducing" in evidence.certificate

    def test_rightward_measure_certified(self, sys_moves):
        evidence = check_termination(sys_moves)
        assert evidence.status == "certified"
        assert "{s}" in evidence.certificate

    def test_two_cycle_found_by_bounded_search(self):
        loop = system("a b", ("a", "b"), ("b", "a"))
        evidence = check_termination(loop)
        assert evidence.status == "counterexample"
        assert [show(word) for word in evidence.cycle] == ["a", "b", "a"]

    def test_declared_heavy_set_used(self, sys_moves):
        heavy = frozenset({sys_moves.alphabet.get("s")})
        assert check_termination(sys_moves, heavy=heavy).status == "certified"

    def test_bounded_verification_when_no_certificate(self):
        # The second rule grows words, so no built-in measure certifies;
        # the bounded verdict only states cycle-freeness within the window.
        grower = system("a b", ("ab", "ba"), ("ba", "aab"))
        evidence = check_termination(grower, max_len=5)
        assert evidence.status == "bounded_verified"
        assert evidence.depth == 5


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
        assert [show(word) for word in evidence.cycle] == [
            "b c_a_b", "c_b_a b", "b c_a_b"
        ]


class TestLocalConfluence:
    def test_all_joined(self, sys_moves):
        evidence = check_local_confluence(sys_moves)
        assert evidence.status == "all_joined"
        assert evidence.joined_count == 2

    def test_counterexample(self, sys_nonconfluent):
        evidence = check_local_confluence(sys_nonconfluent)
        assert evidence.status == "counterexample"
        assert (show(evidence.left_nf), show(evidence.right_nf)) == ("a", "b")

    def test_one_rule_self_overlaps_join(self, sys_aaa):
        evidence = check_local_confluence(sys_aaa)
        assert evidence.status == "all_joined"
        assert evidence.joined_count == 2

    def test_joins_stable_under_rightmost_strategy(self, sys_moves, sys_aaa):
        for sys in (sys_moves, sys_aaa):
            for pair in critical_pairs(sys):
                left = naive_normal_form(pair.left_result, sys, rightmost=True)
                right = naive_normal_form(pair.right_result, sys, rightmost=True)
                assert left == right


class TestVerifyComplete:
    def test_complete(self, sys_aaa):
        assert verify_complete(sys_aaa).verdict == "complete"

    def test_incomplete(self, sys_nonconfluent):
        report = verify_complete(sys_nonconfluent)
        assert report.verdict == "incomplete"
        assert report.termination.status == "certified"

    def test_empty_system_complete(self, free_ab):
        report = verify_complete(free_ab)
        assert report.verdict == "complete"
        assert report.local_confluence.joined_count == 0

    def test_verdict_matches_components(self, sys_moves, sys_nonconfluent):
        for sys in (sys_moves, sys_nonconfluent):
            report = verify_complete(sys)
            if report.verdict == "complete":
                assert report.termination.holds()
                assert report.local_confluence.status == "all_joined"
            elif report.verdict == "incomplete":
                assert (
                    report.termination.status == "counterexample"
                    or report.local_confluence.status == "counterexample"
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
        grower = system("a b", ("ab", "ba"), ("ba", "aab"))
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
            assert (evidence.status, evidence.joined_count) == (status, joined)
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
            assert completeness._drops_length_first(rule, heavy) == (
                reference_drops_length_first(rule, heavy)
            ), (rule, heavy)
            assert completeness._drops_count_first(rule, heavy) == (
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


def reference_measure_certificate(sys):
    """The in-order certificate search over the reference predicates."""
    if not sys.rules:
        return "no rules"
    for cand in completeness._measure_candidates(sys.alphabet.names()):
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
    assert (evidence.status, evidence.joined_count) == (INCONCLUSIVE, 0)
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
