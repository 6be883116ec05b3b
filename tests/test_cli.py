import os
import subprocess
import sys
from pathlib import Path

import pytest

import frs
from frs import cli, completeness
from frs.cli import main
from frs.core import (
    InputError,
    InternalError,
    NonTerminationError,
    PreconditionError,
    RewriteError,
)
from frs.fileformat import ParseError
from frs.large_sub import ConstructionError

FREE_A = "alphabet: a\n"
FREE_AB = "alphabet: a b\n"
AAA = "alphabet: a\nrule: a a a -> a\ncomplement: a\n"
FREE_AB_COMP = "alphabet: a b\ncomplement: a\n"
NONCONFLUENT = "alphabet: a b\nrule: a b -> a\nrule: a b -> b\n"
CYCLE = "alphabet: a b\nrule: a b -> b a\nrule: b a -> a b\n"
COMM = "alphabet: a b\nrule: b a -> a b\ncomplement: a\n"
TWO = "alphabet: a b\nrule: a a a -> a\nrule: b b -> b\ncomplement: a ; a a\n"
IDCOMM = "alphabet: a b\nrule: a a -> a\nrule: b a -> a b\ncomplement: a\n"
COMM_AB = "alphabet: a b\nrule: b a -> a b\ncomplement: a ; b\n"
THREEBASE = "alphabet: a b c\nrule: c a -> a c\nrule: c b -> b c\n"
MONO42 = "alphabet: a\nrule: a a a a -> a a\ncomplement: a\n"
REGENERATE = (
    "input error: the target file has no 'generator:' lines; regenerate it "
    "with 'frs large-sub' or 'frs letter-intro'\n"
)


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

    def test_undone_image_keeping_rule_prints_the_cycle(self, files, tmp_path, capsys):
        # b c_a_b -> c_b_a b undoes the D2 rule c_b_a b -> b c_a_b; both
        # keep the image b a b, so the generator lines prove nothing and
        # the cycle search reports the cycle, as it does without them.
        write, _ = files
        target = tmp_path / "idcomm.t"
        assert main(["large-sub", write("idcomm.frs", IDCOMM), "-o", str(target)]) == 0
        text = target.read_text() + "rule: b c_a_b -> c_b_a b\n"
        bare = "".join(line + "\n" for line in text.splitlines() if not line.startswith("generator:"))
        capsys.readouterr()
        outputs = []
        for name, content in (("undo.t", text), ("bare.t", bare)):
            assert main(["check", write(name, content)]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == (
            "termination: counterexample (b c_a_b -> c_b_a b -> b c_a_b)\n"
            "local confluence: all 4608 critical pairs joined\n"
            "verdict: incomplete\n"
        )

    @pytest.mark.parametrize(
        "source, searches, code",
        [(IDCOMM, 0, 0), (COMM_AB, 0, 3), (MONO42, 0, 0), (CYCLE, 1, 1)],
        ids=["idcomm.t", "comm_ab.t", "mono42.t", "cycle"],
    )
    def test_generator_lines_answer_the_cycle_search(
        self, source, searches, code, files, tmp_path, monkeypatch
    ):
        write, _ = files
        path = write("source.frs", source)
        if "complement:" in source:
            target = str(tmp_path / "target.t")
            assert main(["large-sub", path, "-o", target]) == 0
            path = target
        calls = []
        search = completeness._bounded_cycle_search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(completeness, "_bounded_cycle_search", counted)
        assert main(["check", path]) == code
        assert len(calls) == searches

    def test_parse_error_exits_two(self, files, capsys):
        write, _ = files
        assert main(["check", write("bad.frs", "alphabet: a\nrule: -> a\n")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert main(["check", "/nonexistent/path.frs"]) == 2

    def test_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin.frs"
        path.write_bytes(b"alphabet: a\xff\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            f"input error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 11: invalid start byte\n",
        )


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
            "generator: s = a a\n"
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

    def test_unwritable_output_exits_two(self, files, tmp_path, capsys):
        write, _ = files
        out = tmp_path / "no" / "such" / "dir" / "x.frs"
        assert main(["prepare", write("c.frs", COMM), "-o", str(out)]) == 2
        assert capsys.readouterr() == (
            "",
            f"input error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n",
        )

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
            "generator: c_a_a = a a\n"
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

    def test_no_generator_letters_is_a_precondition_error(self, files, tmp_path, capsys):
        # a a -> a leaves only the complement letter a, and a a is not in T.
        write, _ = files
        src = write("idem.frs", "alphabet: a\nrule: a a -> a\ncomplement: a\n")
        assert main(["large-sub", src, "-o", str(tmp_path / "o.frs")]) == 2
        assert capsys.readouterr().err == (
            "precondition error: the subsemigroup is not expressible: no generator "
            "letters (empty a1 and no admissible boundary words)\n"
        )
        assert not (tmp_path / "o.frs").exists()


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

    def test_target_without_generators_exits_two(self, files, capsys):
        write, _ = files
        src = write("c.frs", COMM)
        target = write("t.frs", "alphabet: b c_a_a\nrule: b c_a_a -> c_a_a b\n")
        for command in ("verify-tuple", "verify-iso"):
            assert main([command, src, target]) == 2
            assert capsys.readouterr().err == REGENERATE

    def test_sabotage_with_generator_is_a_property_failure(self, files, capsys):
        write, _ = files
        src = write("f.frs", FREE_A)
        # The C6 rule s a -> a s is dropped, so s a and a s stay apart.
        sabotaged = write(
            "sab.frs", "alphabet: a s\nrule: a a -> s\ngenerator: s = a a\n"
        )
        assert main(["verify-tuple", src, sabotaged]) == 1
        assert "P6: counterexample at 's a' / 'a s'" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "target, letter",
        [
            ("alphabet: a s t\nrule: a a -> s\ngenerator: s = a a\n", "t"),
            ("alphabet: s\ngenerator: s = a a\n", "a"),
        ],
    )
    def test_alphabet_must_be_source_plus_generators(self, files, capsys, target, letter):
        write, _ = files
        assert main(["verify-tuple", write("f.frs", FREE_A), write("t.frs", target)]) == 2
        assert f"letter {letter!r}" in capsys.readouterr().err

    def test_letter_intro_target_needs_one_generator(self, files, capsys):
        write, _ = files
        target = write(
            "t.frs", "alphabet: a s t\ngenerator: s = a a\ngenerator: t = a a a\n"
        )
        assert main(["verify-tuple", write("f.frs", FREE_A), target]) == 2
        assert "exactly one 'generator:' line" in capsys.readouterr().err

    def test_boundary_image_length_checked(self, files, capsys):
        write, _ = files
        target = write("t.frs", "alphabet: b c_a\ngenerator: c_a = a\n")
        assert main(["verify-tuple", write("c.frs", COMM), target]) == 2
        assert "generator 'c_a': a boundary word has 2 or 3 letters" in capsys.readouterr().err

    def test_interreduced_target_keeps_the_construction_order(self, files, tmp_path, capsys):
        # B is rebuilt in construction order (a1, then the generator lines),
        # not in the file's name-sorted alphabet order; the order decides
        # which counterexample comes first and which certificate is printed.
        write, _ = files
        src = write("comm.frs", COMM)
        out = str(tmp_path / "comm-i.frs")
        assert main(["large-sub", src, "-o", out, "--interreduce"]) == 0
        capsys.readouterr()
        assert main(["verify-tuple", src, out, "--bound-a", "5", "--bound-b", "3"]) == 1
        assert capsys.readouterr().out == (
            "P1: counterexample at 'b a b a' / 'a b b a'\n"
            "P2: verified (bound 0, 12 witnesses)\n"
            "P3: verified (bound 3, 4 witnesses) [letters {c_a_a_a, c_a_b_a, "
            "c_b_a} are eliminated, or keep their count and move right at "
            "constant length]\n"
            "P4: verified (bound 3, 258 witnesses)\n"
            "P5: verified (bound 5, 61 witnesses)\n"
            "P6: counterexample at 'c_b_a b' / 'b c_a_b'\n"
            "overall: not verified\n"
        )

    def test_source_that_needs_prepare(self, files, tmp_path, capsys):
        write, _ = files
        src = write("two.frs", TWO)
        out = str(tmp_path / "two.frs.t")
        assert main(["large-sub", src, "-o", out]) == 0
        capsys.readouterr()
        assert main(["verify-tuple", src, out, "--bound-a", "5", "--bound-b", "3"]) == 0
        assert capsys.readouterr().out == (
            "P1: verified (bound 5, 78 witnesses)\n"
            "P2: verified (bound 0, 367 witnesses)\n"
            "P3: verified (bound 3, 18 witnesses) [length-nonincreasing; on "
            "length ties the letters {c_a_b_a, c_a_b_s, c_b_a, c_b_s, c_s_b_a, "
            "c_s_b_s} are eliminated or move right]\n"
            "P4: verified (bound 3, 819 witnesses)\n"
            "P5: verified (bound 5, 81 witnesses)\n"
            "P6: verified (bound 3, 279 witnesses)\n"
            "overall: verified\n"
        )

    def test_inconclusive_lines_carry_their_bound(self, files, tmp_path, capsys):
        write, _ = files
        src = write("comm.frs", COMM)
        out = str(tmp_path / "comm.frs.t")
        assert main(["large-sub", src, "-o", out]) == 0
        capsys.readouterr()
        args = ["--bound-a", "4", "--bound-b", "3", "--step-cap", "2"]
        assert main(["verify-tuple", src, out, *args]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "P1: verified (bound 4, 17 witnesses)",
            "P2: inconclusive (bound 0) [reachability search exceeded 2 states]",
            "P3: verified (bound 3, 18 witnesses) [letters {c_a_a_a, c_a_b_a, "
            "c_b_a} are eliminated, or keep their count and move right at "
            "constant length]",
            "P4: inconclusive (bound 3) [possible non-termination: 2 reduction "
            "steps exceeded]",
            "P5: verified (bound 4, 29 witnesses)",
            # Every straightening path of a P6 word takes at most two steps.
            "P6: verified (bound 3, 258 witnesses)",
            "overall: not verified",
        ]

    def test_short_words_prove_p1_where_the_sweep_hits_the_step_cap(
        self, files, tmp_path, capsys
    ):
        # Swept word by word, P1 is inconclusive: the search from
        # 'c a c a c b' exceeds 2 states.  The words of length <= 4 prove
        # it at every length within that cap.  P4 stays inconclusive.
        write, _ = files
        src = write("threebase.frs", THREEBASE)
        out = str(tmp_path / "threebase.li")
        assert main(["letter-intro", src, "--w0", "a b", "-o", out]) == 0
        capsys.readouterr()
        args = ["--bound-a", "6", "--bound-b", "3", "--step-cap", "2"]
        assert main(["verify-tuple", src, out, *args]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "P1: verified (bound 6, 1094 witnesses) [every length: 120 words of length <= 4]",
            "P2: verified (bound 0, 4 witnesses)",
            "P3: verified (bound 3, 1 witnesses) [length-nonincreasing; on length "
            "ties the letters {s} are eliminated or move right]",
            "P4: inconclusive (bound 3) [possible non-termination: 2 reduction "
            "steps exceeded]",
            "P5: verified (bound 6, 1092 witnesses) [every length: 120 words of length <= 4]",
            "P6: verified (bound 3, 84 witnesses)",
            "overall: not verified",
        ]

    def test_verify_tuple_large_sub(self, files, tmp_path, capsys):
        write, _ = files
        src = write("a.frs", AAA)
        out = str(tmp_path / "rt.frs")
        main(["large-sub", src, "-o", out])
        capsys.readouterr()
        assert main(["verify-tuple", src, out, "--bound-a", "6", "--bound-b", "4"]) == 0
        assert "overall: verified" in capsys.readouterr().out

    def test_verify_iso_output_at_the_default_bound(self, files, tmp_path, capsys):
        write, _ = files
        src = write("free.frs", FREE_AB_COMP)
        out = str(tmp_path / "free.frs.t")
        assert main(["large-sub", src, "-o", out]) == 0
        capsys.readouterr()
        assert main(["verify-iso", src, out]) == 0
        assert capsys.readouterr().out == (
            "slice bound: 6\n"
            "T-classes in slice: 125\n"
            "distinct images: 125\n"
            "forward injective: yes\n"
            "slice surjective: yes\n"
            "mismatches: 0\n"
        )

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


class TestBoundsBelowOne:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("check", "--max-len", "0"),
            ("check", "--max-len", "-1"),
            ("nf", "--step-cap", "0"),
            ("letter-intro", "--max-len", "0"),
            ("prepare", "--step-cap", "0"),
            ("large-sub", "--step-cap", "-3"),
            ("verify-tuple", "--bound-a", "0"),
            ("verify-tuple", "--bound-b", "0"),
            ("verify-iso", "--bound", "0"),
        ],
    )
    def test_rejected_naming_the_flag(self, files, capsys, command, flag, value):
        # CYCLE does not terminate; a bound of 0 would search no word at all.
        write, _ = files
        src = write("c.frs", CYCLE)
        args = {
            "check": [src],
            "nf": [src, "--word", "a"],
            "letter-intro": [src, "--w0", "a b", "-o", "o.frs"],
            "prepare": [src, "-o", "o.frs"],
            "large-sub": [src, "-o", "o.frs"],
            "verify-tuple": [src, src],
            "verify-iso": [src, src],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err


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


def _error_classes(cls=RewriteError):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("frs."):
            yield sub
        yield from _error_classes(sub)


# The exit code and stderr prefix of each error class of the package.
ERROR_EXITS = {
    InputError: (2, "input error: "),
    ParseError: (2, "input error: line 1, column 2: "),
    PreconditionError: (2, "precondition error: "),
    ConstructionError: (2, "precondition error: "),
    NonTerminationError: (3, "inconclusive: "),
    InternalError: (1, "internal contradiction: "),
}


@pytest.mark.parametrize(
    "error", sorted(set(_error_classes()), key=lambda cls: cls.__name__),
    ids=lambda cls: cls.__name__,
)
def test_every_error_class_exits_with_a_one_line_message(error, files, capsys, monkeypatch):
    # A class missing from ERROR_EXITS fails here until its exit is decided.
    code, prefix = ERROR_EXITS[error]
    exc = error("boom", 1, 2) if error is ParseError else error("boom")

    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "normal_form", fail)
    write, _ = files
    assert main(["nf", write("a.frs", FREE_A), "--word", "a"]) == code
    assert capsys.readouterr() == ("", prefix + "boom\n")


def test_start_up_does_not_import_a_thread_pool():
    # The sweeps run serially, so a CLI process never needs
    # concurrent.futures; the records are NamedTuples and plain classes,
    # so it never needs dataclasses, nor the inspect module that loads;
    # files are read and written with open(), so it never needs pathlib.
    # Both interpreters run without site (-S), and the modules counted are
    # those that importing frs.cli adds to a bare interpreter's.
    env = dict(os.environ, PYTHONPATH=str(Path(frs.__file__).parent.parent))

    def modules(imports):
        probe = f"import sys{imports}; print(' '.join(sorted(sys.modules)))"
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        return set(result.stdout.split())

    bare, started = modules(""), modules(", frs.cli")
    assert "frs.cli" in started - bare
    absent = {"concurrent.futures", "dataclasses", "inspect", "pathlib"}
    assert absent & (started - bare) == set()


def test_traced_benchmark_finds_every_probed_name():
    # bench/spans.py wraps module-level functions by name (core.normal_form,
    # large_sub.phi_t, parallel.pmap, ...); renaming or deleting one breaks
    # the traced benchmark run, so the probe set is installed here.
    bench = Path(__file__).parent.parent / "bench"
    env = dict(os.environ, PYTHONPATH=str(Path(frs.__file__).parent.parent))
    probe = (
        f"import sys; sys.path.insert(0, {str(bench)!r}); import frs.cli, spans; "
        "recorder = spans.Recorder(); recorder.install(); recorder.uninstall(); print('ok')"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "ok\n", "")


GOLDEN = Path(__file__).parent / "golden"


class TestGolden:
    """Whole CLI outputs, pinned byte for byte: the stdout, stderr and exit
    code of each command in ``transcript.txt``, and each written target
    file under its own name.  After the constructions on comm and two come
    the outputs that print words: a normal form, a letter introduction and
    its refusal, a termination cycle, an unjoinable critical pair, the
    mismatches and counterexample of a sabotaged target, a complement that
    is not closed under products, and a termination cycle that does not
    pass through the word its search started from.  Then come a letter
    introduction that emits the C3, C4 and C5 families, a sweep whose
    P1, P2 and P4 stop at a step cap of 1, and a normal form past its
    step cap.  Last, the letter introduction on aba is verified at the
    default bounds, where P1 and P5 are proved from its short words, and
    at ``--bound-a 5``, its short-word length, where they are swept."""

    INPUTS = {
        "comm.frs": COMM,
        "two.frs": TWO,
        "cycle.frs": CYCLE,
        "fork.frs": "alphabet: a b c\nrule: a b c -> a b\nrule: b c -> c b\n",
        "free.frs": FREE_A,
        # The C6 rule s a -> a s is dropped, so s a and a s stay apart.
        "sab.frs": "alphabet: a s\nrule: a a -> s\ngenerator: s = a a\n",
        # a times b b is c, a complement letter.
        "open.frs": "alphabet: a b c\nrule: a b b -> c\ncomplement: c\n",
        # The search from x enters the cycle y -> z -> y one step in.
        "xyz.frs": "alphabet: x y z\nrule: x -> y\nrule: y -> z\nrule: z -> y\n",
        # b a overlaps a b a from both ends.
        "aba.frs": "alphabet: a b\nrule: a b a -> a\n",
    }
    COMMANDS = [
        ["large-sub", "comm.frs", "-o", "comm.t"],
        ["large-sub", "comm.frs", "-o", "comm.ti", "--interreduce"],
        ["large-sub", "two.frs", "-o", "two.t"],
        ["large-sub", "two.frs", "-o", "two.ti", "--interreduce"],
        ["check", "comm.ti"],
        ["check", "two.ti"],
        ["verify-tuple", "comm.frs", "comm.t", "--bound-a", "5", "--bound-b", "3"],
        ["verify-iso", "comm.frs", "comm.t", "--bound", "4"],
        ["nf", "comm.frs", "--word", "b a b a"],
        ["letter-intro", "two.frs", "--w0", "a b", "-o", "two.li"],
        ["letter-intro", "comm.frs", "--w0", "b a", "-o", "comm.li"],
        ["check", "cycle.frs", "--step-cap", "50"],
        ["check", "fork.frs"],
        ["verify-iso", "free.frs", "sab.frs", "--bound", "3"],
        ["verify-tuple", "free.frs", "sab.frs"],
        ["large-sub", "open.frs", "-o", "open.t"],
        ["check", "xyz.frs"],
        ["letter-intro", "aba.frs", "--w0", "b a", "-o", "aba.li"],
        ["verify-tuple", "comm.frs", "comm.t", "--bound-a", "4", "--bound-b", "2",
         "--step-cap", "1"],
        ["nf", "cycle.frs", "--word", "a b", "--step-cap", "3"],
        ["verify-tuple", "aba.frs", "aba.li"],
        ["verify-tuple", "aba.frs", "aba.li", "--bound-a", "5"],
    ]
    TARGETS = ["comm.t", "comm.ti", "two.t", "two.ti", "two.li", "aba.li"]

    @staticmethod
    def run(directory, capsys, monkeypatch):
        """The transcript and the target files that ``COMMANDS`` give when
        run in ``directory``, as {file name: text}."""
        monkeypatch.chdir(directory)
        for name, text in TestGolden.INPUTS.items():
            Path(name).write_text(text)
        capsys.readouterr()
        transcript = []
        for args in TestGolden.COMMANDS:
            code = main(args)
            captured = capsys.readouterr()
            transcript.append(f"$ frs {' '.join(args)}\n{captured.out}")
            transcript.extend(f"stderr: {line}\n" for line in captured.err.splitlines())
            transcript.append(f"exit {code}\n")
        outputs = {name: Path(name).read_text() for name in TestGolden.TARGETS}
        outputs["transcript.txt"] = "".join(transcript)
        return outputs

    def test_outputs_match_the_pinned_files(self, tmp_path, capsys, monkeypatch):
        outputs = self.run(tmp_path, capsys, monkeypatch)
        assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(outputs)
        for name, text in outputs.items():
            assert text == (GOLDEN / name).read_text(), name
