import pytest

from frs import (
    ParseError,
    Presentation,
    parse_presentation,
    serialize_presentation,
    show,
)

from conftest import rule_set, system, w


class TestParse:
    def test_single_rule(self):
        pres = parse_presentation("alphabet: a b\nrule: a b -> a\n")
        assert pres.system.alphabet.names() == ("a", "b")
        assert rule_set(pres.system) == {(("a", "b"), ("a",))}
        assert pres.complement is None

    def test_complement(self):
        pres = parse_presentation("alphabet: a\ncomplement: a\n")
        assert [show(word) for word in pres.complement] == ["a"]

    def test_multi_word_complement(self):
        pres = parse_presentation("alphabet: a b\ncomplement: a ; b a\n")
        assert [show(word) for word in pres.complement] == ["a", "b a"]

    def test_comments_and_blank_lines_ignored(self):
        pres = parse_presentation(
            "# header\n\nalphabet: a\n# middle\nrule: a a -> a  # tagged\n"
        )
        assert len(pres.system.rules) == 1

    def test_empty_lhs_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("alphabet: a\nrule: -> a\n")
        assert err.value.line == 2

    def test_empty_rhs_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("alphabet: a\nrule: a ->\n")

    def test_malformed_arrow_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("alphabet: a\nrule: a a a\n")
        with pytest.raises(ParseError):
            parse_presentation("alphabet: a\nrule: a -> a -> a\n")

    def test_unknown_letter_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("alphabet: a\nrule: a b -> a\n")
        assert err.value.line == 2
        assert err.value.column == 9

    def test_empty_trailing_complement_word_column(self):
        text = "alphabet: a b\nrule: b a -> a b\ncomplement: a ;\n"
        assert len(text) == 47
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert (err.value.line, err.value.column) == (3, 16)

    def test_bare_complement_column(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("alphabet: a b\ncomplement:  # nothing excluded\n")
        assert (err.value.line, err.value.column) == (2, 12)

    def test_duplicate_alphabet_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("alphabet: a a\n")
        with pytest.raises(ParseError):
            parse_presentation("alphabet: a\nalphabet: a\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("letters: a\n")

    def test_multi_character_letter_names(self):
        pres = parse_presentation(
            "alphabet: b c_a_a\nrule: c_a_a c_a_a -> c_a_a\n"
        )
        assert len(pres.system.rules[0].lhs) == 2


class TestSerialize:
    def test_canonical_output(self, sys_moves):
        text = serialize_presentation(Presentation(sys_moves))
        assert text == "alphabet: a s\nrule: a a -> s\nrule: s a -> a s\n"

    def test_tags_as_trailing_comments(self):
        sys = system("a s", ("aa", "s"))
        tagged = sys.with_rules([sys.rules[0].tagged("C2")])
        text = serialize_presentation(Presentation(tagged))
        assert "rule: a a -> s  # C2" in text

    def test_alphabet_sorted_by_name(self):
        sys = system("s a")
        assert serialize_presentation(Presentation(sys)) == "alphabet: a s\n"

    def test_complement_line(self, sys_aaa):
        pres = Presentation(sys_aaa, (w(sys_aaa.alphabet, "a"),))
        assert serialize_presentation(pres).endswith("complement: a\n")


class TestGenerators:
    def test_parsed_in_line_order(self):
        pres = parse_presentation(
            "alphabet: b c_a_b c_a_a\ngenerator: c_a_b = a b\n"
            "generator: c_a_a = a a\n"
        )
        assert pres.generators == (("c_a_b", ("a", "b")), ("c_a_a", ("a", "a")))

    def test_image_letters_need_not_be_in_the_alphabet(self):
        pres = parse_presentation("alphabet: s\ngenerator: s = x y'\n")
        assert pres.generators == (("s", ("x", "y'")),)

    @pytest.mark.parametrize(
        "line, message, column",
        [
            ("generator: s a a", "expected '<letter> = <image word>'", 14),
            ("generator: s", "expected '<letter> = <image word>'", 13),
            ("generator: s =", "empty generator image", 14),
            ("generator: t = a a", "generator 't' is not in the alphabet", 12),
            ("generator: s = a ; a", "invalid letter name ';'", 18),
            ("generator: s = a = a", "invalid letter name '='", 18),
        ],
    )
    def test_malformed_line_rejected_with_position(self, line, message, column):
        with pytest.raises(ParseError) as err:
            parse_presentation(f"alphabet: a s\nrule: a a -> s\n{line}  # tag\n")
        assert (err.value.line, err.value.column) == (3, column)
        assert str(err.value) == f"line 3, column {column}: {message}"

    def test_repeated_generator_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_presentation(
                "alphabet: a s\ngenerator: s = a a\n\n  generator: s = a a\n"
            )
        assert (err.value.line, err.value.column) == (4, 14)
        assert "repeated generator 's'" in str(err.value)


class TestRoundTrip:
    def test_parse_of_serialize_is_identity(self, sys_moves, sys_aaa):
        for sys in (sys_moves, sys_aaa):
            pres = Presentation(sys, (w(sys.alphabet, "a"),))
            assert parse_presentation(serialize_presentation(pres)) == pres

    def test_serialize_of_parse_fixes_canonical_files(self):
        canonical = "alphabet: a s\nrule: a a -> s\nrule: s a -> a s\ncomplement: s\n"
        assert serialize_presentation(parse_presentation(canonical)) == canonical

    @pytest.mark.parametrize(
        "canonical",
        [
            "alphabet: a s\ngenerator: s = a a\nrule: a a -> s\nrule: s a -> a s\n",
            "alphabet: b c_a_a c_a_b\ngenerator: c_a_b = a b\n"
            "generator: c_a_a = a a\nrule: b c_a_a -> c_a_a b\n",
            "alphabet: a b s\ngenerator: s = a b\nrule: a b -> s\ncomplement: a ; b\n",
        ],
    )
    def test_generator_lines_round_trip(self, canonical):
        pres = parse_presentation(canonical)
        assert serialize_presentation(pres) == canonical
        assert parse_presentation(serialize_presentation(pres)) == pres

    def test_tags_survive_one_direction_only(self):
        sys = system("a", ("aa", "a"))
        tagged = sys.with_rules([sys.rules[0].tagged("D1")])
        text = serialize_presentation(Presentation(tagged))
        reparsed = parse_presentation(text)
        assert reparsed.system.rules[0].tags == ()
        assert reparsed == Presentation(tagged)  # tags excluded from equality
