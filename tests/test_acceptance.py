"""Acceptance suite: one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import pytest

from frs import (
    CandidateTuple,
    Presentation,
    Rule,
    build_construction,
    build_letter_intro,
    check_isomorphism_slice,
    check_p1_to_p6,
    disorder,
    in_AT,
    is_irreducible,
    normal_form,
    normalize_q2_q3,
    one_step_reductions,
    parse_presentation,
    phi_t,
    prepare_presentation,
    reduces_to,
    rho_t,
    show,
    verify_complete,
    words_over,
)
from frs.cli import main
from frs.completeness import right_drift_letters

from conftest import oracle_classes, rule_set, system, w


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def built():
    """Everything the criteria share, constructed once."""
    free_a = system("a")
    free_ab = system("a b")
    intro_aa = build_letter_intro(free_a, w(free_a.alphabet, "aa"))
    intro_ab = build_letter_intro(free_ab, w(free_ab.alphabet, "ab"))
    pres_aaa = Presentation(
        system("a", ("aaa", "a")),
        (w(system("a", ("aaa", "a")).alphabet, "a"),),
    )
    cons_aaa = build_construction(prepare_presentation(pres_aaa))
    pres_free = Presentation(free_ab, (w(free_ab.alphabet, "a"),))
    cons_free = build_construction(prepare_presentation(pres_free))
    return {
        "intro_aa": intro_aa,
        "intro_ab": intro_ab,
        "cons_aaa": cons_aaa,
        "cons_free": cons_free,
    }


def test_criterion_1_letter_intro_exactness(tmp_path):
    ok = True
    for name, source, w0, expected in (
        ("one-letter", "alphabet: a\n", "a a", {(("a", "a"), ("s",)), (("s", "a"), ("a", "s"))}),
        ("two-letter", "alphabet: a b\n", "a b", {(("a", "b"), ("s",))}),
    ):
        src = tmp_path / f"{name}.frs"
        src.write_text(source)
        out = tmp_path / f"{name}.out.frs"
        started = time.monotonic()
        code = main(["letter-intro", str(src), "--w0", w0, "-o", str(out)])
        elapsed = time.monotonic() - started
        produced = parse_presentation(out.read_text())
        rep = verify_complete(produced.system)
        ok = ok and (
            code == 0
            and rule_set(produced.system) == expected
            and rep.result("termination").status == "certified"
            and rep.result("local confluence").status == "all_joined"
            and elapsed < 1.0
        )
    report(1, "letter-introduction exactness", ok)


def test_criterion_2_letter_intro_postconditions(built):
    ok = True
    for key in ("intro_aa", "intro_ab"):
        result = built[key]
        s_word = w(result.b_alphabet, result.new_letter)
        ok = ok and reduces_to(result.w0, s_word, result.r_s)
        ok = ok and is_irreducible(s_word, result.r_s)
        for letter in result.base.alphabet:
            single = w(result.base.alphabet, letter)
            if is_irreducible(single, result.base):
                ok = ok and is_irreducible(single, result.r_s)
    report(2, "named word reduces to the new letter; irreducibles preserved", ok)


def test_criterion_3_subsemigroup_exactness(built):
    cons = built["cons_aaa"]
    ok = cons.b_alphabet.names() == ("c_a_a",)
    ok = ok and cons.n_bound == 7
    ok = ok and rule_set(cons.r_t) == {
        (("c_a_a", "c_a_a"), ("c_a_a",)),
        (("c_a_a", "c_a_a", "c_a_a"), ("c_a_a",)),
    }
    ok = ok and not any("D2" in rule.tags for rule in cons.r_t.rules)
    reduced = normalize_q2_q3(cons.r_t)
    ok = ok and rule_set(reduced) == {(("c_a_a", "c_a_a"), ("c_a_a",))}
    ok = ok and verify_complete(cons.r_t).verdict == "complete"
    ok = ok and verify_complete(reduced).verdict == "complete"
    report(3, "single-generator subsemigroup construction exact", ok)


def test_criterion_4_full_pipeline(built):
    started = time.monotonic()
    cons = built["cons_free"]
    ok = set(cons.b_alphabet.names()) == {
        "b", "c_b_a", "c_a_b", "c_a_a", "c_a_b_a", "c_a_a_a",
    }
    ok = ok and verify_complete(cons.r_t).verdict == "complete"
    # Brute-force oracle: every word over {a, b} of length <= 4 is its own
    # class; exactly one of them (the word 'a') is excluded from T.
    base = cons.presentation.system.alphabet
    oracle_count = sum(
        1 for word in words_over(base, 4) if tuple(word) != ("a",)
    )
    assert oracle_count == 29
    iso = check_isomorphism_slice(cons.as_candidate_tuple(), 4)
    ok = ok and iso.t_class_count == oracle_count
    ok = ok and iso.image_count == oracle_count
    ok = ok and iso.mismatches == ()
    ok = ok and iso.forward_injective and iso.slice_surjective
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    report(4, f"full pipeline with slice bijection on {oracle_count} classes", ok)


def test_criterion_5_property_suite(built):
    started = time.monotonic()
    tuples = [
        ("intro aa", built["intro_aa"].as_candidate_tuple()),
        ("intro ab", built["intro_ab"].as_candidate_tuple()),
        ("subsemigroup aaa", built["cons_aaa"].as_candidate_tuple()),
        (
            "subsemigroup aaa interreduced",
            built["cons_aaa"].as_candidate_tuple()._replace(
                system=normalize_q2_q3(built["cons_aaa"].r_t)
            ),
        ),
        ("subsemigroup free", built["cons_free"].as_candidate_tuple()),
    ]
    ok = True
    for label, tup in tuples:
        rep = check_p1_to_p6(tup, 8, 5)
        ok = ok and rep.verdict == "complete"

    def sabotage(tup, rules):
        return CandidateTuple(
            tup.base, tup.system.with_rules(rules), tup.images, tup.rho, tup.in_at, tup.in_t,
        )

    aa = built["intro_aa"].as_candidate_tuple()
    dropped_c6 = sabotage(
        aa, [rule for rule in aa.system.rules if "C6" not in rule.tags]
    )
    altered_c6 = sabotage(
        aa,
        [rule for rule in aa.system.rules if "C6" not in rule.tags]
        + [Rule(aa.system.alphabet.word("s a"), aa.system.alphabet.word("s s"))],
    )
    free = built["cons_free"].as_candidate_tuple()
    dropped_d2 = sabotage(free, free.system.rules[1:])

    for tup, prop in ((dropped_c6, "P6"), (altered_c6, "P2"), (dropped_d2, "P6")):
        rep = check_p1_to_p6(tup, 8, 5)
        res = rep.result(prop)
        ok = ok and res.status == "counterexample"
        ok = ok and not any(r.status == "inconclusive" for r in rep.results)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report(5, f"six properties verified, sabotage caught ({elapsed:.1f}s)", ok)


def test_criterion_6_invariant_sweeps(built):
    violations = 0

    # Disorder strictly decreases along steps and is factor-monotone.
    for sys in (system("a s", ("aa", "s"), ("sa", "as")), system("a", ("aaa", "a"))):
        for word in words_over(sys.alphabet, 8):
            d = disorder(word, sys)
            for _, result in one_step_reductions(word, sys):
                violations += d <= disorder(result, sys)
            for i in range(len(word)):
                for j in range(i + 1, len(word) + 1):
                    violations += d < disorder(word[i:j], sys)

    # Retraction laws of the letter-introduction map.
    for result in (built["intro_aa"], built["intro_ab"]):
        phi = result.as_candidate_tuple().phi
        for word in words_over(result.base.alphabet, 8):
            violations += phi(result.rho(word)) != word
        s_word = w(result.b_alphabet, result.new_letter)
        for word in (u for u in words_over(result.base.alphabet, 8) if len(u) >= 2):
            rho_word = result.rho(word)
            for cut in range(1, len(word)):
                x1, x2 = word[:cut], word[cut:]
                if rho_word == result.rho(x1) + result.rho(x2):
                    continue
                witnessed = any(
                    x1[len(x1) - k:] + x2[: len(result.w0) - k] == result.w0
                    and rho_word
                    == result.rho(x1[: len(x1) - k])
                    + s_word
                    + result.rho(x2[len(result.w0) - k:])
                    for k in range(1, min(len(x1), len(result.w0)) + 1)
                    if 1 <= len(result.w0) - k <= len(x2)
                )
                violations += not witnessed

    # Image and factorization laws of the subsemigroup construction.
    for cons in (built["cons_aaa"], built["cons_free"]):
        pres = cons.presentation
        heavy = right_drift_letters(cons.images, cons.b_alphabet)
        for word in words_over(cons.b_alphabet, 4):
            violations += len(phi_t(word, cons)) < len(word)
        for word in words_over(pres.system.alphabet, 8):
            if not in_AT(word, pres):
                continue
            image = rho_t(word, cons)
            violations += phi_t(image, cons) != word
            violations += any(letter in heavy for letter in image[:-1])
        for word in words_over(cons.b_alphabet, 4):
            if any(letter in heavy for letter in word[:-1]):
                continue
            image = phi_t(word, cons)
            if in_AT(image, pres):
                violations += rho_t(image, cons) != word

    report(6, f"invariant sweeps ({violations} violations)", violations == 0)


def test_criterion_7_oracle_agreement():
    ok = True
    fixtures = [
        system("a", ("aaa", "a")),
        system("a s", ("aa", "s"), ("sa", "as")),
        system("a b s", ("ab", "s")),
    ]
    for sys in fixtures:
        assert all(len(rule.rhs) <= len(rule.lhs) for rule in sys.rules)
        assert verify_complete(sys).verdict == "complete"
        by_nf = {}
        for word in words_over(sys.alphabet, 5):
            by_nf.setdefault(normal_form(word, sys), set()).add(word)
        expected = {frozenset(group) for group in by_nf.values()}
        ok = ok and set(oracle_classes(sys, 5)) == expected

    nonconfluent = system("a b", ("ab", "a"), ("ab", "b"))
    rep = verify_complete(nonconfluent)
    ok = ok and rep.verdict == "incomplete"
    _, left_nf, right_nf = rep.result("local confluence").counterexample
    ok = ok and (show(left_nf), show(right_nf)) == ("a", "b")
    report(7, "class oracle agrees with normal forms; witness pair found", ok)


def test_criterion_8_determinism(tmp_path):
    sources = {
        "intro.frs": ("alphabet: a\n", ["letter-intro", "--w0", "a a"]),
        "prep.frs": ("alphabet: a\nrule: a a a -> a\ncomplement: a\n", ["prepare"]),
        "large.frs": ("alphabet: a b\ncomplement: a\n", ["large-sub"]),
        "inter.frs": (
            "alphabet: a\nrule: a a a -> a\ncomplement: a\n",
            ["large-sub", "--interreduce"],
        ),
    }
    ok = True
    for name, (text, args) in sources.items():
        src = tmp_path / name
        src.write_text(text)
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}.{run}.out"
            code = main([args[0], str(src), "-o", str(out)] + args[1:])
            ok = ok and code == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    report(8, "pipeline outputs byte-identical across runs", ok)
