import pytest

from frs.cli import main

FREE_A = "alphabet: a\n"
FREE_AB = "alphabet: a b\n"
AAA = "alphabet: a\nrule: a a a -> a\ncomplement: a\n"
FREE_AB_COMP = "alphabet: a b\ncomplement: a\n"
NONCONFLUENT = "alphabet: a b\nrule: a b -> a\nrule: a b -> b\n"
CYCLE = "alphabet: a b\nrule: a b -> b a\nrule: b a -> a b\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write, tmp_path


class TestCheck:
    def test_complete_exits_zero(self, files, capsys):
        write, _ = files
        assert main(["check", write("a.frs", AAA)]) == 0
        out = capsys.readouterr().out
        assert "verdict: complete" in out
        assert "certified" in out

    def test_incomplete_exits_one(self, files, capsys):
        write, _ = files
        assert main(["check", write("n.frs", NONCONFLUENT)]) == 1
        assert "incomplete" in capsys.readouterr().out

    def test_inconclusive_confluence_names_the_step_cap(self, files, capsys):
        write, _ = files
        assert main(["check", write("c.frs", CYCLE), "--step-cap", "50"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "termination: counterexample (a b -> b a -> a b)",
            "local confluence: inconclusive at source 'a b a' (step cap 50 exceeded)",
            "verdict: incomplete",
        ]

    def test_parse_error_exits_two(self, files, capsys):
        write, _ = files
        assert main(["check", write("bad.frs", "alphabet: a\nrule: -> a\n")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert main(["check", "/nonexistent/path.frs"]) == 2


class TestNf:
    def test_normal_form_printed(self, files, capsys):
        write, _ = files
        assert main(["nf", write("a.frs", AAA), "--word", "a a a a a"]) == 0
        assert capsys.readouterr().out.strip() == "a"

    def test_unknown_letter_exits_two(self, files):
        write, _ = files
        assert main(["nf", write("a.frs", AAA), "--word", "z"]) == 2

    def test_step_cap_exits_three(self, files):
        write, _ = files
        assert (
            main(["nf", write("a.frs", AAA), "--word", "a a a a a", "--step-cap", "1"])
            == 3
        )


class TestLetterIntro:
    def test_writes_expected_rules(self, files):
        write, tmp = files
        out = str(tmp / "out.frs")
        assert main(["letter-intro", write("f.frs", FREE_A), "--w0", "a a", "-o", out]) == 0
        text = (tmp / "out.frs").read_text()
        assert text == (
            "alphabet: a s\n"
            "rule: a a -> s  # C2\n"
            "rule: s a -> a s  # C6\n"
        )

    def test_reducible_w0_exits_two(self, files, tmp_path):
        write, _ = files
        out = str(tmp_path / "out.frs")
        assert (
            main(["letter-intro", write("a.frs", AAA), "--w0", "a a a", "-o", out]) == 2
        )

    def test_incomplete_input_exits_two(self, files, tmp_path):
        write, _ = files
        out = str(tmp_path / "out.frs")
        assert (
            main(["letter-intro", write("n.frs", NONCONFLUENT), "--w0", "a a", "-o", out])
            == 2
        )


class TestPrepareAndLargeSub:
    def test_prepare_writes_q1_form(self, files, tmp_path):
        write, _ = files
        out = str(tmp_path / "prep.frs")
        src = write("c.frs", "alphabet: a b\ncomplement: a b\n")
        assert main(["prepare", src, "-o", out]) == 0
        text = (tmp_path / "prep.frs").read_text()
        assert "complement: s" in text

    def test_prepare_requires_complement(self, files, tmp_path):
        write, _ = files
        assert (
            main(["prepare", write("f.frs", FREE_AB), "-o", str(tmp_path / "o.frs")])
            == 2
        )

    def test_large_sub_default_rules(self, files, tmp_path):
        write, _ = files
        out = str(tmp_path / "rt.frs")
        assert main(["large-sub", write("a.frs", AAA), "-o", out]) == 0
        text = (tmp_path / "rt.frs").read_text()
        assert text == (
            "alphabet: c_a_a\n"
            "rule: c_a_a c_a_a -> c_a_a  # D1\n"
            "rule: c_a_a c_a_a c_a_a -> c_a_a  # D1\n"
        )

    def test_large_sub_interreduced(self, files, tmp_path):
        write, _ = files
        out = str(tmp_path / "rt.frs")
        assert main(["large-sub", write("a.frs", AAA), "-o", out, "--interreduce"]) == 0
        text = (tmp_path / "rt.frs").read_text()
        assert "c_a_a c_a_a c_a_a" not in text
        assert "rule: c_a_a c_a_a -> c_a_a" in text

    def test_non_subsemigroup_complement_exits_two(self, files, tmp_path):
        write, _ = files
        src = write("c.frs", "alphabet: a b\ncomplement: a b\n")
        assert main(["large-sub", src, "-o", str(tmp_path / "o.frs")]) == 2


class TestVerifyCommands:
    def test_verify_tuple_letter_intro(self, files, tmp_path, capsys):
        write, _ = files
        src = write("f.frs", FREE_A)
        out = str(tmp_path / "out.frs")
        main(["letter-intro", src, "--w0", "a a", "-o", out])
        capsys.readouterr()
        assert main(["verify-tuple", src, out]) == 0
        stdout = capsys.readouterr().out
        assert "overall: verified" in stdout
        assert stdout.count("verified") >= 7

    def test_verify_tuple_detects_sabotage(self, files, tmp_path, capsys):
        write, _ = files
        src = write("f.frs", FREE_A)
        sabotaged = write(
            "sab.frs", "alphabet: a s\nrule: a a -> s\n"
        )  # commutation rule dropped: not a generated file
        assert main(["verify-tuple", src, sabotaged]) == 2

    def test_verify_tuple_large_sub(self, files, tmp_path, capsys):
        write, _ = files
        src = write("a.frs", AAA)
        out = str(tmp_path / "rt.frs")
        main(["large-sub", src, "-o", out])
        capsys.readouterr()
        assert main(["verify-tuple", src, out, "--bound-a", "6", "--bound-b", "4"]) == 0
        assert "overall: verified" in capsys.readouterr().out

    def test_verify_iso(self, files, tmp_path, capsys):
        write, _ = files
        src = write("c.frs", FREE_AB_COMP)
        out = str(tmp_path / "rt.frs")
        main(["large-sub", src, "-o", out])
        capsys.readouterr()
        assert main(["verify-iso", src, out, "--bound", "4"]) == 0
        stdout = capsys.readouterr().out
        assert "T-classes in slice: 29" in stdout
        assert "mismatches: 0" in stdout


class TestDeterminism:
    @pytest.mark.parametrize(
        "args, source",
        [
            (["letter-intro", "--w0", "a a"], FREE_A),
            (["prepare"], AAA),
            (["large-sub"], FREE_AB_COMP),
            (["large-sub", "--interreduce"], AAA),
        ],
    )
    def test_outputs_byte_identical(self, args, source, files, tmp_path):
        write, _ = files
        src = write("src.frs", source)
        first, second = str(tmp_path / "one.frs"), str(tmp_path / "two.frs")
        assert main([args[0], src, "-o", first] + args[1:]) == 0
        assert main([args[0], src, "-o", second] + args[1:]) == 0
        assert (tmp_path / "one.frs").read_bytes() == (tmp_path / "two.frs").read_bytes()
