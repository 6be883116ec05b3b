import pytest
from hypothesis import given, settings, strategies as st

from frs import (
    Alphabet,
    CandidateTuple,
    NonTerminationError,
    Presentation,
    PreconditionError,
    RewriteError,
    RewritingSystem,
    build_construction,
    build_letter_intro,
    check_isomorphism_slice,
    check_p1_to_p6,
    is_irreducible,
    normal_form,
    one_step_reductions,
    prepare_presentation,
    reduces_to,
    show,
    verify_complete,
    words_over,
)
from frs import Rule, completeness, property_r
from frs.core import DEFAULT_STEP_CAP
from frs.property_r import SWEEP_CHUNK

from conftest import descendants, oracle_classes, system, w
from test_large_sub import ladder_presentation


@pytest.fixture
def tuple_aa(free_a):
    return build_letter_intro(free_a, w(free_a.alphabet, "aa")).as_candidate_tuple()


@pytest.fixture
def tuple_free(pres_free_ab):
    return build_construction(prepare_presentation(pres_free_ab)).as_candidate_tuple()


@pytest.fixture
def tuple_aaa(pres_aaa):
    return build_construction(prepare_presentation(pres_aaa)).as_candidate_tuple()


def construction(letters, *rules, complement):
    base = system(letters, *rules)
    words = tuple(w(base.alphabet, word) for word in complement)
    pres = Presentation(base, words)
    return build_construction(prepare_presentation(pres)).as_candidate_tuple()


@pytest.fixture
def tuple_comm():
    return construction("a b", ("ba", "ab"), complement=("a",))


@pytest.fixture
def tuple_threebase():
    base = system("a b c", ("ca", "ac"), ("cb", "bc"))
    return build_letter_intro(base, w(base.alphabet, "ab")).as_candidate_tuple()


@pytest.fixture
def tuple_two():
    return construction("a b", ("aaa", "a"), ("bb", "b"), complement=("a", "aa"))


def reference_p1(tup, bound_a):
    """P1 as one search per candidate reduct, in order, until one reaches
    the image: (status, witnesses, counterexample)."""
    witnesses = 0
    for u in words_over(tup.base.alphabet, bound_a):
        if not tup.in_at(u):
            continue
        succ_b = one_step_reductions(tup.rho(u), tup.system)
        for _, v1 in one_step_reductions(u, tup.base):
            witnesses += 1
            if not any(reduces_to(v1, tup.phi(u_prime), tup.base) for _, u_prime in succ_b):
                return "counterexample", witnesses, (u, v1)
    return "verified", witnesses, None


def reference_p4(tup, bound):
    """P4 over a plain list of every B-word: (number of words, first failure)."""
    words = list(words_over(tup.system.alphabet, bound))
    for u in words:
        if tup.in_at(tup.phi(normal_form(u, tup.system))):
            continue
        if not any(tup.in_at(tup.phi(v)) for v in descendants(u, tup.system) - {u}):
            return len(words), u
    return len(words), None


def reference_p6(tup, bound):
    """P6 over a plain list of the B-words whose image is a representative."""
    words = [u for u in words_over(tup.system.alphabet, bound) if tup.in_at(tup.phi(u))]
    for u in words:
        if not reduces_to(u, tup.rho(tup.phi(u)), tup.system):
            return len(words), u
    return len(words), None


def reference_straightening_path(word, target, preserving, step_cap):
    """The greedy loop that the walk of the matcher replaced: up to
    ``step_cap`` leftmost steps of ``preserving``, stopping at ``target``."""
    current = word
    for _ in range(step_cap):
        if current == target:
            return True
        redex = preserving.first_redex(current)
        if redex is None:
            return False
        idx, pos = redex
        current = current[:pos] + preserving.rhs[idx] + current[pos + len(preserving.lhs[idx]):]
    return current == target


def preserving_system(tup):
    """The image-preserving rules, in system order."""
    return tup.system.with_rules(
        rule for rule in tup.system.rules if tup.phi(rule.lhs) == tup.phi(rule.rhs)
    )


def preserving_matcher(tup):
    """The matcher of the image-preserving rules, in system order."""
    return preserving_system(tup).matcher


def count_cycle_searches(monkeypatch):
    """The argument tuples of every bounded cycle search run from now on."""
    calls = []
    search = completeness._bounded_cycle_search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(completeness, "_bounded_cycle_search", counted)
    return calls


def p4_and_p6(tup, bound_b, step_cap):
    """The P4 and P6 results, or the error that ends the check."""
    try:
        report = check_p1_to_p6(tup, 1, bound_b, step_cap)
    except RewriteError as exc:
        return type(exc), str(exc)
    return report.result("P4"), report.result("P6")


def wrong_rho_at(tup, word, wrong):
    """``tup`` with rho sending the image of ``word`` to ``wrong``."""
    image = tup.phi(word)
    return tup._replace(rho=lambda u: wrong if u == image else tup.rho(u))


def drop_rules(tup, predicate):
    kept = tuple(rule for rule in tup.system.rules if not predicate(rule))
    return CandidateTuple(
        tup.base, tup.system.with_rules(kept), tup.images, tup.rho, tup.in_at, tup.in_t,
    )


class TestProperties:
    def test_letter_intro_tuple_fully_verified(self, tuple_aa):
        report = check_p1_to_p6(tuple_aa, 8, 6)
        assert report.overall
        assert all(res.status == "verified" for res in report.results)

    def test_subsemigroup_tuples_fully_verified(self, tuple_aaa, tuple_free):
        for tup in (tuple_aaa, tuple_free):
            report = check_p1_to_p6(tup, 6, 4)
            assert report.overall

    def test_dropping_the_commutation_rule_breaks_p6(self, tuple_aa):
        sabotaged = drop_rules(tuple_aa, lambda rule: "C6" in rule.tags)
        report = check_p1_to_p6(sabotaged, 8, 5)
        res = report.result("P6")
        assert res.status == "counterexample"
        assert show(res.counterexample[0]) == "s a"
        assert not report.overall

    def test_breaking_a_rule_image_breaks_p2(self, tuple_aa):
        alphabet = tuple_aa.system.alphabet
        bad = tuple_aa.system.with_rules(
            [rule for rule in tuple_aa.system.rules if "C6" not in rule.tags]
            + [type(tuple_aa.system.rules[0])(alphabet.word("s a"), alphabet.word("s s"))]
        )
        sabotaged = CandidateTuple(
            tuple_aa.base, bad, tuple_aa.images, tuple_aa.rho, tuple_aa.in_at, tuple_aa.in_t,
        )
        report = check_p1_to_p6(sabotaged, 6, 4)
        assert report.result("P2").status == "counterexample"

    def test_dropping_a_normalization_rule_breaks_p6(self, tuple_free):
        first_d2 = tuple_free.system.rules[0]
        sabotaged = drop_rules(tuple_free, lambda rule: rule == first_d2)
        report = check_p1_to_p6(sabotaged, 6, 4)
        res = report.result("P6")
        assert res.status == "counterexample"
        assert res.counterexample[0] == first_d2.lhs

    def test_invalid_membership_predicate_rejected(self, tuple_aa):
        broken = CandidateTuple(
            tuple_aa.base, tuple_aa.system, tuple_aa.images, tuple_aa.rho,
            in_at=lambda word: False, in_t=tuple_aa.in_t,
        )
        with pytest.raises(PreconditionError):
            check_p1_to_p6(broken, 6, 4)

    def test_sandwich_checks_words_up_to_length_six(self, tuple_aa):
        # Every word over a is an irreducible T-word; leaving a length out
        # of the representative set is caught up to length 6 only.
        skip_seven = tuple_aa._replace(in_at=lambda word: len(word) != 7)
        check_p1_to_p6(skip_seven, 7, 2)
        skip_three = tuple_aa._replace(in_at=lambda word: len(word) not in (3, 7))
        with pytest.raises(PreconditionError, match="misses the irreducible T-word 'a a a'$"):
            check_p1_to_p6(skip_three, 7, 2)

    def test_sandwich_messages_name_the_word(self, tuple_aa, tuple_two):
        # Under two's a a a -> a, a a is the complement class s.
        too_many = tuple_two._replace(in_at=lambda word: len(word) == 2 or tuple_two.in_at(word))
        with pytest.raises(PreconditionError) as exc:
            check_p1_to_p6(too_many, 3, 2)
        assert str(exc.value) == "representative set contains 'a a' whose class is outside T"
        too_few = tuple_aa._replace(in_at=lambda word: len(word) != 2)
        with pytest.raises(PreconditionError) as exc:
            check_p1_to_p6(too_few, 3, 2)
        assert str(exc.value) == "representative set misses the irreducible T-word 'a a'"

    def test_p3_runs_the_cycle_search_once(self, tuple_aa, monkeypatch):
        # a s -> s a undoes s a -> a s, and both keep the image, so neither
        # the right-drift letter s nor any other letter set certifies
        # the image-preserving rules; the cycle search runs once, after the
        # certificate search.
        alphabet = tuple_aa.system.alphabet
        undo = Rule(alphabet.word("a s"), alphabet.word("s a"))
        looping = tuple_aa._replace(system=tuple_aa.system.with_rules(tuple_aa.system.rules + (undo,)))
        calls = count_cycle_searches(monkeypatch)
        res = check_p1_to_p6(looping, 4, 3).result("P3")
        assert len(calls) == 1
        assert res.status == "counterexample"
        assert [show(word) for word in res.counterexample] == ["a s", "s a", "a s"]

    def test_p3_searches_past_a_failing_heavy_set(self, tuple_aa, monkeypatch):
        # Under {a}, s a -> a s moves a to the left, so the seed certifies
        # nothing; the singleton {s} does, and the cycle search never runs.
        calls = count_cycle_searches(monkeypatch)
        preserved = preserving_system(tuple_aa)
        assert len(preserved.rules) == 2
        res = completeness.check_termination(preserved, 3, seed=frozenset({"a"}))
        assert calls == []
        assert res.status == "certified"
        assert res.certificate == (
            "length-nonincreasing; on length ties the letters {s} are eliminated or move right"
        )

    # The right-drift seed of three is 14 of 21 letters, that of comm_aa 11
    # of 17: above 14 letters only the empty set and the singletons are
    # listed, and none of them certifies, so P3 holds by its seed alone.
    @pytest.mark.parametrize("shape, letters, seed_size", [("three", 21, 14), ("comm_aa", 17, 11)])
    def test_p3_tries_the_seed_beyond_the_subset_cut(self, shape, letters, seed_size):
        tup = build_construction(ladder_presentation(shape)).as_candidate_tuple()
        seed = completeness.right_drift_letters(tup.images, tup.system.alphabet)
        assert (len(tup.system.alphabet), len(seed)) == (letters, seed_size)
        res = check_p1_to_p6(tup, 1, 1).result("P3")
        assert res.status == "verified"
        assert res.note == (
            f"letters {{{', '.join(sorted(seed))}}} are eliminated, or keep their count "
            "and move right at constant length"
        )
        assert completeness.find_measure_certificate(preserving_system(tup)) is None


    def test_straightening_path_of_exactly_the_cap_is_found(self):
        # b b a -> b a b -> a b b takes two steps of b a -> a b.
        comm = system("a b", ("ba", "ab"))
        word, target = w(comm.alphabet, "bba"), w(comm.alphabet, "abb")
        assert property_r._straightening_path(word, target, comm.matcher, 2)
        assert not property_r._straightening_path(word, target, comm.matcher, 1)

    @pytest.mark.parametrize(
        "rules, complement",
        [
            ((("ba", "ab"),), ("a",)),
            ((("aaa", "a"), ("bb", "b")), ("a", "aa")),
            ((("ba", "ab"),), ("a", "b")),
        ],
        ids=["comm", "two", "comm_ab"],
    )
    def test_straightening_path_agrees_with_the_greedy_loop(self, rules, complement):
        tup = construction("a b", *rules, complement=complement)
        preserving = preserving_matcher(tup)
        found = set()
        for word in words_over(tup.system.alphabet, 4):
            image = tup.phi(word)
            if not tup.in_at(image):
                continue
            target = tup.rho(image)
            for cap in (-1, 0, 1, 2, 3, DEFAULT_STEP_CAP):
                path = property_r._straightening_path(word, target, preserving, cap)
                assert path == reference_straightening_path(word, target, preserving, cap)
                found.add(path)
        assert found == {True, False}

    def test_inconclusive_results_name_their_own_bound(self, tuple_comm):
        # b a -> a b gives P1 witnesses; step cap 1 stops every
        # reachability search that needs a second state.
        assert check_p1_to_p6(tuple_comm, 4, 2).result("P1").witness_count > 0
        report = check_p1_to_p6(tuple_comm, 4, 2, step_cap=1)
        expected = {"P1": 4, "P2": 0, "P4": 2}
        for name, bound in expected.items():
            res = report.result(name)
            assert res.status == "inconclusive"
            assert res.bound == bound
        assert not report.overall

    def test_p4_search_cap_names_the_word_and_the_cap(self, tuple_free):
        # Leaving the image of u out of the representative set sends P4 on
        # a search of u's four descendants, which all share that image.
        u = tuple_free.system.alphabet.word("c_b_a c_b_a b")
        assert len(descendants(u, tuple_free.system)) == 4
        image = tuple_free.phi(u)
        sabotaged = tuple_free._replace(in_at=lambda word: word != image and tuple_free.in_at(word))
        res = check_p1_to_p6(sabotaged, 2, 3, step_cap=3).result("P4")
        assert res.status == "inconclusive"
        assert res.bound == 3
        assert res.note == "P4 search from 'c_b_a c_b_a b' exceeded 3 states"

    def test_p1_search_cap_names_the_word_and_the_cap(self, tuple_comm):
        # Without the rule b c_a_b_a -> c_a_a b b, the reduct a b b a of
        # b a b a must reach b a a b, the image of the candidate's only
        # reduct; its three descendants never do.
        tup = drop_rules(tuple_comm, lambda rule: show(rule.lhs) == "b c_a_b_a")
        res = check_p1_to_p6(tup, 4, 1, step_cap=2).result("P1")
        assert res.status == "inconclusive"
        assert res.bound == 4
        assert res.note == "P1 search from 'a b b a' exceeded 2 states"
        res = check_p1_to_p6(tup, 4, 1, step_cap=3).result("P1")
        assert res.status == "counterexample"
        assert [show(word) for word in res.counterexample] == ["b a b a", "a b b a"]

    def test_letter_intro_threebase_witnesses_at_default_bounds(self, tuple_threebase):
        report = check_p1_to_p6(tuple_threebase)
        assert report.overall
        counts = {res.name: res.witness_count for res in report.results}
        assert counts == {"P1": 14216, "P2": 4, "P3": 1, "P4": 1364, "P5": 9840, "P6": 1364}

    def test_two_is_verified_with_witnesses_at_default_bounds(self, tuple_two):
        report = check_p1_to_p6(tuple_two)
        assert report.overall
        counts = {res.name: res.witness_count for res in report.results}
        assert counts == {"P1": 1292, "P2": 367, "P3": 18, "P4": 66429, "P5": 678, "P6": 7029}

    def test_p1_has_witnesses_on_the_commutation_construction(self, tuple_comm):
        res = check_p1_to_p6(tuple_comm, 6, 3).result("P1")
        assert res.status == "verified"
        assert res.witness_count > 0

    def test_rho_once_per_representative_and_p6_class(self, tuple_comm):
        calls = []

        def rho(word):
            calls.append(word)
            return tuple_comm.rho(word)

        report = check_p1_to_p6(tuple_comm._replace(rho=rho), 6, 3)
        assert report.overall
        # P1 and P5 share rho(u) for each representative u; P6 takes one
        # rho(phi(nf)) per class of its B-words whose image is in A(T).
        classes = [
            nf
            for _, nf, _, _ in preserving_matcher(tuple_comm).walk_classes(
                tuple_comm.system.alphabet.names(), 3
            )
            if tuple_comm.in_at(tuple_comm.phi(nf))
        ]
        assert len(classes) < report.result("P6").witness_count
        assert len(calls) == report.result("P5").witness_count + len(classes)


class TestP1AgainstReference:
    @pytest.mark.parametrize(
        "fixture", ["tuple_threebase", "tuple_free", "tuple_comm", "tuple_two"]
    )
    def test_verified_tuples_agree(self, fixture, request):
        tup = request.getfixturevalue(fixture)
        res = check_p1_to_p6(tup, 6, 1).result("P1")
        assert (res.status, res.witness_count, res.counterexample) == reference_p1(tup, 6)
        assert res.status == "verified"

    def test_sabotaged_tuple_agrees(self, tuple_comm):
        tup = drop_rules(tuple_comm, lambda rule: show(rule.lhs) == "b c_a_b_a")
        res = check_p1_to_p6(tup, 6, 1).result("P1")
        assert (res.status, res.witness_count, res.counterexample) == reference_p1(tup, 6)
        u, _ = res.counterexample
        assert res.status == "counterexample"
        assert one_step_reductions(tup.rho(u), tup.system)

    def test_empty_target_set_agrees(self, tuple_comm):
        # Without c_b_a -> c_a_b, rho(b a) = c_b_a is irreducible while
        # b a is not: there is no image to search for.
        tup = drop_rules(tuple_comm, lambda rule: show(rule.lhs) == "c_b_a")
        res = check_p1_to_p6(tup, 6, 1).result("P1")
        assert (res.status, res.witness_count, res.counterexample) == reference_p1(tup, 6)
        u, _ = res.counterexample
        assert show(u) == "b a"
        assert is_irreducible(tup.rho(u), tup.system)
        assert not is_irreducible(u, tup.base)


class TestIsomorphismSlice:
    def test_passes_at_bound_six_on_both_fixtures(self, tuple_free, tuple_aaa):
        for tup, classes in ((tuple_free, 125), (tuple_aaa, 1)):
            report = check_isomorphism_slice(tup, 6)
            assert report.t_class_count == classes
            assert report.image_count == classes
            assert report.mismatches == ()

    def test_free_fixture_bijects(self, tuple_free):
        report = check_isomorphism_slice(tuple_free, 4)
        # Oracle: words over {a, b} of length <= 4, except the single
        # excluded word 'a'.
        expected = sum(2 ** n for n in range(1, 5)) - 1
        assert expected == 29
        assert report.t_class_count == expected
        assert report.image_count == expected
        assert report.forward_injective and report.slice_surjective
        assert report.mismatches == ()

    def test_single_class_fixture(self, tuple_aaa):
        report = check_isomorphism_slice(tuple_aaa, 3)
        assert report.t_class_count == 1
        assert report.image_count == 1
        assert report.mismatches == ()
        a = tuple_aaa.base.alphabet
        assert show(normal_form(tuple_aaa.rho(w(a, "aa")), tuple_aaa.system)) == "c_a_a"

    def test_empty_slice_vacuously_passes(self, tuple_aaa):
        report = check_isomorphism_slice(tuple_aaa, 0)
        assert report.t_class_count == 0
        assert report.forward_injective and report.slice_surjective

    def test_mismatch_reported_for_sabotaged_system(self, tuple_free):
        sabotaged = drop_rules(tuple_free, lambda rule: True)  # no rules at all
        report = check_isomorphism_slice(sabotaged, 3)
        assert not report.forward_injective
        assert report.mismatches


class TestOracleClasses:
    def test_single_rule_classes(self, sys_aaa):
        classes = oracle_classes(sys_aaa, 4)
        assert [sorted(show(word) for word in cls) for cls in classes] == [
            ["a", "a a a"],
            ["a a", "a a a a"],
        ]

    def test_no_rules_all_singletons(self, free_ab):
        classes = oracle_classes(free_ab, 3)
        assert len(classes) == 14
        assert all(len(cls) == 1 for cls in classes)

    def test_symmetric_edge_merges(self):
        sys = system("a b", ("ab", "ba"))
        classes = oracle_classes(sys, 2)
        as_names = [sorted(show(word) for word in cls) for cls in classes]
        assert ["a b", "b a"] in as_names
        assert len(classes) == 5

    @pytest.mark.parametrize(
        "fixture", ["sys_aaa", "sys_moves"]
    )
    def test_agrees_with_normal_form_partition(self, fixture, request):
        sys = request.getfixturevalue(fixture)
        assert verify_complete(sys).verdict == "complete"
        assert all(len(rule.rhs) <= len(rule.lhs) for rule in sys.rules)
        by_nf = {}
        for word in words_over(sys.alphabet, 5):
            by_nf.setdefault(normal_form(word, sys), set()).add(word)
        expected = {frozenset(group) for group in by_nf.values()}
        assert set(oracle_classes(sys, 5)) == expected


class TestSweepChunks:
    # The free tuple has 9330 B-words up to length 5, more than two chunks.
    BOUND_B = 5

    def test_reports_identical_across_chunk_sizes(self, tuple_aa, monkeypatch):
        baseline = check_p1_to_p6(tuple_aa, 6, 4)
        for size in (1, 7):
            monkeypatch.setattr(property_r, "SWEEP_CHUNK", size)
            assert check_p1_to_p6(tuple_aa, 6, 4) == baseline

    def test_counts_across_chunks_match_a_plain_loop(self, tuple_free):
        report = check_p1_to_p6(tuple_free, 2, self.BOUND_B)
        p4, p6 = reference_p4(tuple_free, self.BOUND_B), reference_p6(tuple_free, self.BOUND_B)
        assert p4 == (9330, None) and p6 == (9330, None)
        assert p4[0] > 2 * SWEEP_CHUNK
        assert report.result("P4").witness_count == p4[0]
        assert report.result("P6").witness_count == p6[0]
        assert report.overall

    def test_failure_past_the_first_chunk_is_reported(self, tuple_free):
        words = list(words_over(tuple_free.system.alphabet, self.BOUND_B))
        wrong = tuple_free.system.alphabet.word("b")
        sabotaged = wrong_rho_at(tuple_free, words[SWEEP_CHUNK + 100], wrong)
        _, first = reference_p6(sabotaged, self.BOUND_B)
        assert words.index(first) >= SWEEP_CHUNK
        res = check_p1_to_p6(sabotaged, 2, self.BOUND_B).result("P6")
        assert res.status == "counterexample"
        assert res.counterexample == (first, wrong)

    @pytest.mark.parametrize(
        "cap_at, status", [(SWEEP_CHUNK + 100, "counterexample"), (100, "inconclusive")]
    )
    def test_cap_hit_after_a_counterexample(self, tuple_free, cap_at, status):
        # A counterexample in an earlier chunk than a cap hit is reported;
        # a cap hit in the same chunk still makes the property inconclusive.
        words = list(words_over(tuple_free.system.alphabet, self.BOUND_B))
        wrong = tuple_free.system.alphabet.word("b")
        sabotaged = wrong_rho_at(tuple_free, words[40], wrong)
        _, first = reference_p6(sabotaged, self.BOUND_B)
        capped = tuple_free.phi(words[cap_at])

        def in_at(word):
            if word == capped:
                raise NonTerminationError(f"step cap hit at '{word}'")
            return tuple_free.in_at(word)

        res = check_p1_to_p6(sabotaged._replace(in_at=in_at), 2, self.BOUND_B).result("P6")
        assert res.status == status
        if status == "counterexample":
            assert res.counterexample == (first, wrong)
        else:
            assert res.note == f"step cap hit at '{capped}'"


class TestClassWalkAgainstSweep:
    """P4 and P6 walk classes of B-words and fall back to the word-by-word
    sweep; their results are those of the sweep run alone."""

    @pytest.fixture
    def variants(self, tuple_free, tuple_comm, tuple_two, tuple_threebase, tuple_aa):
        free = tuple_free.system.alphabet
        missing = tuple_free.phi(free.word("c_b_a c_b_a b"))
        raising = tuple_free.phi(free.word("b c_b_a"))

        def in_at_raises(word):
            if word == raising:
                raise NonTerminationError(f"step cap hit at '{show(word)}'")
            return tuple_free.in_at(word)

        aa = tuple_aa.system.alphabet
        undo = Rule(aa.word("a s"), aa.word("s a"))
        return {
            "free": tuple_free,
            "comm": tuple_comm,
            "two": tuple_two,
            "threebase": tuple_threebase,
            "free, wrong rho": wrong_rho_at(tuple_free, free.word("c_b_a b"), free.word("b")),
            "free, image left out of A(T)": tuple_free._replace(
                in_at=lambda word: word != missing and tuple_free.in_at(word)
            ),
            "free, in_at raises": tuple_free._replace(in_at=in_at_raises),
            "free, first rule dropped": drop_rules(
                tuple_free, lambda rule: rule == tuple_free.system.rules[0]
            ),
            "comm, b c_a_b_a dropped": drop_rules(
                tuple_comm, lambda rule: show(rule.lhs) == "b c_a_b_a"
            ),
            "comm, c_b_a dropped": drop_rules(tuple_comm, lambda rule: show(rule.lhs) == "c_b_a"),
            "aa, C6 dropped": drop_rules(tuple_aa, lambda rule: "C6" in rule.tags),
            "aa, undo loop": tuple_aa._replace(
                system=tuple_aa.system.with_rules(tuple_aa.system.rules + (undo,))
            ),
        }

    def test_results_equal_the_sweep(self, variants, monkeypatch):
        grid = [
            (name, bound_b, step_cap)
            for name in variants
            for bound_b in (1, 2, 3, 4)
            for step_cap in (-1, 0, 1, 2, 3, 4, 5, DEFAULT_STEP_CAP)
        ]
        by_class = [p4_and_p6(variants[name], *rest) for name, *rest in grid]
        monkeypatch.setattr(property_r, "_proved_or_swept", lambda proof, sweep: sweep())
        for (name, *rest), results in zip(grid, by_class):
            assert results == p4_and_p6(variants[name], *rest), (name, *rest)
        statuses = {res.status for results in by_class for res in results if hasattr(res, "status")}
        assert statuses == {"verified", "counterexample", "inconclusive"}

    @pytest.mark.parametrize("fixture, bound_b", [("tuple_free", 5), ("tuple_comm", 4)])
    def test_construction_tuples_never_sweep(self, fixture, bound_b, request, monkeypatch):
        def sweep(*args):
            raise AssertionError("the class walk fell back to the sweep")

        monkeypatch.setattr(property_r, "_sweep", sweep)
        report = check_p1_to_p6(request.getfixturevalue(fixture), 2, bound_b)
        assert report.result("P4").status == report.result("P6").status == "verified"


def letter_intro_tuple(letters, *rules, w0):
    base = system(letters, *rules)
    return build_letter_intro(base, w(base.alphabet, w0)).as_candidate_tuple()


def p1_and_p5(tup, bound_a, step_cap=DEFAULT_STEP_CAP):
    report = check_p1_to_p6(tup, bound_a, 1, step_cap)
    return report.result("P1"), report.result("P5")


def swept(tup):
    """``tup`` with an in_at that is not the letter introduction's own, so
    that P1 and P5 sweep every A-word."""
    return tup._replace(in_at=lambda word: True)


class TestShortWordsAgainstSweep:
    """P1 and P5 of a letter introduction with a borderless named word are
    proved by the A-words of length <= L = maxlen(base) + 2(|w0| - 1), with
    the witness counts of the sweep; every other tuple is swept."""

    # name: (letters, rules, w0, L)
    BORDERLESS = {
        "threebase": ("a b c", (("ca", "ac"), ("cb", "bc")), "ab", 4),
        "aba": ("a b", (("aba", "a"),), "ba", 5),
        "idcomm": ("a b", (("aa", "a"), ("ba", "ab")), "ab", 4),
        "comm3": ("a b c", (("ba", "ab"), ("ca", "ac"), ("cb", "bc")), "abc", 6),
    }

    @pytest.mark.parametrize("name", BORDERLESS)
    def test_results_equal_the_sweep(self, name):
        letters, rules, w0, short_length = self.BORDERLESS[name]
        tup = letter_intro_tuple(letters, *rules, w0=w0)
        count = sum(len(letters.split()) ** n for n in range(1, short_length + 1))
        note = f"every length: {count} words of length <= {short_length}"
        for bound_a in range(short_length + 1, 8):
            by_lemma, by_sweep = p1_and_p5(tup, bound_a), p1_and_p5(swept(tup), bound_a)
            assert [res.status for res in by_sweep] == ["verified", "verified"]
            assert by_lemma == tuple(res._replace(note=note) for res in by_sweep), bound_a

    @pytest.mark.parametrize("name", BORDERLESS)
    def test_bound_of_at_most_the_short_length_sweeps(self, name):
        letters, rules, w0, short_length = self.BORDERLESS[name]
        tup = letter_intro_tuple(letters, *rules, w0=w0)
        for bound_a in (short_length - 1, short_length):
            assert p1_and_p5(tup, bound_a) == p1_and_p5(swept(tup), bound_a)
            assert all(res.note == "" for res in p1_and_p5(tup, bound_a))

    @pytest.mark.parametrize("w0, bound_a", [("aa", 6), ("aba", 7)])
    def test_bordered_named_word_sweeps(self, w0, bound_a):
        tup = letter_intro_tuple("a b c", ("ca", "ac"), ("cb", "bc"), w0=w0)
        assert not tup.letter_intro.borderless
        results = p1_and_p5(tup, bound_a)
        assert results == p1_and_p5(swept(tup), bound_a)
        assert [res.status for res in results] == ["verified", "verified"]
        assert all(res.note == "" for res in results)

    @pytest.mark.parametrize("bound_a", [9, 11])
    def test_proof_draws_only_the_short_words(self, tuple_threebase, bound_a, monkeypatch):
        # The sweep would list every A-word up to bound_a (29,523 at 9).
        letters = set(tuple_threebase.base.alphabet.names())
        drawn = []

        def words_over(alphabet, max_len):
            for word in property_r_words_over(alphabet, max_len):
                if set(word) <= letters:
                    drawn.append(word)
                yield word

        property_r_words_over = property_r.words_over
        monkeypatch.setattr(property_r, "words_over", words_over)
        p1, p5 = p1_and_p5(tuple_threebase, bound_a)
        assert p1.note == p5.note == "every length: 120 words of length <= 4"
        assert p5.witness_count == sum(3**n for n in range(1, bound_a + 1))
        assert len(drawn) <= 120

    def test_replaced_in_t_sweeps(self, tuple_threebase):
        # The proof skips the representative set's validation, which reads
        # in_t, so it applies only to the letter introduction's own in_t.
        tup = tuple_threebase._replace(in_t=lambda word: True)
        results = p1_and_p5(tup, 6)
        assert results == p1_and_p5(swept(tuple_threebase), 6)
        assert [res.status for res in results] == ["verified", "verified"]
        assert all(res.note == "" for res in results)

    def test_dropped_c4_rule_is_a_counterexample_of_the_sweep(self, tuple_threebase):
        # Without c s -> s c, rho(c a b) = c s is irreducible: a short word
        # fails, and the sweep reports it.
        system = tuple_threebase.system
        sabotaged = tuple_threebase._replace(
            system=system.with_rules(rule for rule in system.rules if "C4" not in rule.tags)
        )
        p1, p5 = p1_and_p5(sabotaged, 8)
        assert p1 == p1_and_p5(swept(sabotaged), 8)[0]
        assert p1.status == "counterexample"
        assert [show(word) for word in p1.counterexample] == ["c a b", "a c b"]
        # P5 does not read the system.
        assert p5.note == "every length: 120 words of length <= 4"

    def test_rho_wrong_beyond_the_short_length_is_caught(self, tuple_threebase):
        # Right on the words of length <= 4 that would prove the lemma for
        # the tuple's own rho, wrong (reversed) on longer words.
        rho = tuple_threebase.rho
        sabotaged = tuple_threebase._replace(
            rho=lambda word: rho(word if len(word) <= 4 else word[::-1])
        )
        p1, p5 = p1_and_p5(sabotaged, 6)
        assert p5.status == "counterexample"
        assert [show(word) for word in p5.counterexample] == ["a a a a b", "b a a a a"]
        assert (p1, p5) == p1_and_p5(swept(sabotaged), 6)
        assert p1.note == ""

    def test_step_cap_on_a_short_word_sweeps(self, tuple_threebase):
        # Every short word passes a step cap of 2, so P1 is proved at every
        # length, where the sweep stops at the cap on a word of length 6.
        by_lemma = p1_and_p5(tuple_threebase, 6, 2)
        by_sweep = p1_and_p5(swept(tuple_threebase), 6, 2)
        assert by_sweep[0] == property_r.PropertyResult(
            "P1", "inconclusive", 6, note="P1 search from 'c a c a c b' exceeded 2 states"
        )
        assert by_lemma[0] == property_r.PropertyResult(
            "P1", "verified", 6, 1094, note="every length: 120 words of length <= 4"
        )
        # A cap of 0 stops a short word's search, so the sweep decides.
        p1 = p1_and_p5(tuple_threebase, 6, 0)[0]
        assert p1 == p1_and_p5(swept(tuple_threebase), 6, 0)[0]
        assert p1.status == "inconclusive"

    @settings(max_examples=40, deadline=None)
    @given(
        letters=st.integers(1, 3),
        lhss=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=3),
        bound_a=st.integers(1, 9),
    )
    def test_p1_witness_count_is_the_sweep_count(self, letters, lhss, bound_a):
        # Only the left-hand sides count: one witness per word, rule and
        # position of the rule's lhs; two rules may share a lhs.
        alphabet = Alphabet("abc"[:letters])
        names = alphabet.names()
        lhs_words = [tuple(names[i % letters] for i in lhs) for lhs in lhss]
        base = RewritingSystem(alphabet, tuple(Rule(lhs, lhs) for lhs in lhs_words))
        sweep = sum(
            len(one_step_reductions(word, base)) for word in words_over(alphabet, bound_a)
        )
        assert property_r._p1_witnesses(base, bound_a) == sweep
