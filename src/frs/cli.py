"""Command-line surface.

Exit codes: 0 success/verified, 1 a verification produced a counterexample,
2 input error, 3 inconclusive (a step cap or search bound was exceeded).
"""

from __future__ import annotations

import argparse
import sys

from . import completeness
from .core import (
    DEFAULT_STEP_CAP,
    InputError,
    InternalError,
    NonTerminationError,
    PreconditionError,
    RewritingSystem,
    Word,
    normal_form,
    show,
)
from .fileformat import parse_presentation, serialize_presentation
from .large_sub import (
    LargeSubConstruction,
    build_construction,
    classify_letters,
    generator_letters,
)
from .letter_intro import LetterIntroResult, build_letter_intro
from .pipeline import (
    Presentation,
    normalize_q2_q3,
    prepare_presentation,
    satisfies_q1,
    satisfies_q2,
    satisfies_q3,
)
from .property_r import CandidateTuple, check_isomorphism_slice, check_p1_to_p6

OK, FAILED, BAD_INPUT, INCONCLUSIVE = 0, 1, 2, 3


def _load(path: str) -> Presentation:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_presentation(text)


def _word_from(arg: str, system: RewritingSystem) -> Word:
    word = system.alphabet.word(arg)
    if not word:
        raise InputError("the word must be nonempty")
    return word


def _write(path: str, presentation: Presentation) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_presentation(presentation))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _require_complete(system: RewritingSystem, max_len: int, step_cap: int, label: str) -> None:
    report = completeness.verify_complete(system, max_len, step_cap)
    if report.verdict != completeness.COMPLETE:
        raise InputError(f"{label} is not verified complete (verdict: {report.verdict})")


def _cmd_check(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    report = completeness.verify_complete(
        presentation.system, args.max_len, args.step_cap
    )
    term = report.termination
    detail = term.certificate or ""
    if term.status == completeness.BOUNDED_VERIFIED:
        detail = f"no reduction cycles among words of length <= {term.depth}"
    if term.status == completeness.COUNTEREXAMPLE and term.cycle:
        detail = " -> ".join(map(show, term.cycle))
    print(f"termination: {term.status}" + (f" ({detail})" if detail else ""))
    conf = report.local_confluence
    if conf.status == completeness.ALL_JOINED:
        print(f"local confluence: all {conf.joined_count} critical pairs joined")
    elif conf.counterexample is not None:
        pair = conf.counterexample
        if conf.status == completeness.INCONCLUSIVE:
            detail = f"step cap {args.step_cap} exceeded"
        else:
            detail = f"{show(conf.left_nf)} vs {show(conf.right_nf)}"
        print(f"local confluence: {conf.status} at source '{show(pair.source)}' ({detail})")
    else:
        print(f"local confluence: {conf.status}")
    print(f"verdict: {report.verdict}")
    if report.verdict == completeness.COMPLETE:
        return OK
    if report.verdict == completeness.INCOMPLETE:
        return FAILED
    return INCONCLUSIVE


def _cmd_nf(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    word = _word_from(args.word, presentation.system)
    print(show(normal_form(word, presentation.system, args.step_cap)))
    return OK


def _cmd_letter_intro(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    _require_complete(presentation.system, args.max_len, args.step_cap, "the input system")
    w0 = _word_from(args.w0, presentation.system)
    result = build_letter_intro(presentation.system, w0, args.name, args.step_cap)
    generators = tuple(result.images.items())
    _write(args.output, Presentation(result.r_s, presentation.complement, generators))
    print(
        f"introduced letter '{result.new_letter}' for '{show(result.w0)}'; "
        f"{len(result.r_s.rules)} rules written to {args.output}"
    )
    return OK


def _cmd_prepare(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    if presentation.complement is None:
        raise InputError("the input file must declare a complement")
    prepared = prepare_presentation(presentation, args.step_cap)
    _write(args.output, prepared)
    print(
        f"prepared presentation with {len(prepared.system.alphabet)} letters, "
        f"{len(prepared.system.rules)} rules, "
        f"{len(prepared.complement)} complement letters -> {args.output}"
    )
    return OK


def _prepared(presentation: Presentation, step_cap: int) -> Presentation:
    if (
        satisfies_q1(presentation, step_cap)
        and satisfies_q2(presentation.system)
        and satisfies_q3(presentation.system)
    ):
        return presentation
    return prepare_presentation(presentation, step_cap)


def _cmd_large_sub(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    if presentation.complement is None:
        raise InputError("the input file must declare a complement")
    prepared = _prepared(presentation, args.step_cap)
    construction = build_construction(prepared, args.step_cap)
    system = construction.r_t
    if args.interreduce:
        system = normalize_q2_q3(system, args.step_cap)
    _write(args.output, Presentation(system, generators=tuple(construction.images.items())))
    d1 = sum(1 for rule in system.rules if "D1" in rule.tags)
    d2 = sum(1 for rule in system.rules if "D2" in rule.tags)
    print(
        f"subsemigroup presentation: {len(system.alphabet)} letters, "
        f"{len(system.rules)} rules ({d1} D1, {d2} D2), "
        f"image bound {construction.n_bound} -> {args.output}"
    )
    return OK


def _candidate_tuple(
    s_pres: Presentation, t_pres: Presentation, step_cap: int
) -> CandidateTuple:
    """The tuple (B, R_T, A(T), phi, rho) of a target written by
    ``large-sub`` (the source declares a complement) or ``letter-intro``.

    phi comes from the target's generator lines and rho from the source
    and those images.  B lists the usable source letters in source order,
    then the generators in file order, as the construction does.
    """
    if not t_pres.generators:
        raise InputError(
            "the target file has no 'generator:' lines; regenerate it with "
            "'frs large-sub' or 'frs letter-intro'"
        )
    large_sub = bool(s_pres.complement)
    source = _prepared(s_pres, step_cap) if large_sub else s_pres
    images = {name: source.system.alphabet.word(image) for name, image in t_pres.generators}
    if large_sub:
        classification = classify_letters(source, step_cap)
        b_alphabet, c_letters = generator_letters(classification, images)
    else:
        _require_complete(
            source.system, completeness.DEFAULT_SEARCH_LEN, step_cap, "the source system"
        )
        if len(images) != 1:
            raise InputError("a letter introduction target has exactly one 'generator:' line")
        b_alphabet = source.system.alphabet.extended(images)
    stray = sorted(set(t_pres.system.alphabet.names()) ^ set(b_alphabet.names()))
    if stray:
        raise InputError(
            f"letter {stray[0]!r}: the target alphabet must be the usable "
            "source letters plus the generators"
        )
    system = RewritingSystem(b_alphabet, t_pres.system.rules)
    if large_sub:
        construction = LargeSubConstruction(source, classification, c_letters, b_alphabet, system)
        return construction.as_candidate_tuple()
    ((s_name, w0),) = images.items()
    result = LetterIntroResult(b_alphabet.get(s_name), w0, b_alphabet, system, source.system)
    return result.as_candidate_tuple()


def _cmd_verify_tuple(args: argparse.Namespace) -> int:
    tup = _candidate_tuple(_load(args.s_file), _load(args.t_file), args.step_cap)
    report = check_p1_to_p6(tup, args.bound_a, args.bound_b, args.step_cap)
    for res in report.results:
        line = f"{res.name}: {res.status}"
        if res.status == "verified":
            line += f" (bound {res.bound}, {res.witness_count} witnesses)"
        elif res.status == "inconclusive":
            line += f" (bound {res.bound})"
        elif res.counterexample:
            line += " at " + " / ".join(f"'{show(w)}'" for w in res.counterexample)
        if res.note:
            line += f" [{res.note}]"
        print(line)
    print(f"overall: {'verified' if report.overall else 'not verified'}")
    if report.overall:
        return OK
    if any(res.status == "counterexample" for res in report.results):
        return FAILED
    return INCONCLUSIVE


def _cmd_verify_iso(args: argparse.Namespace) -> int:
    tup = _candidate_tuple(_load(args.s_file), _load(args.t_file), args.step_cap)
    report = check_isomorphism_slice(tup, args.bound, args.step_cap)
    print(f"slice bound: {report.slice_bound}")
    print(f"T-classes in slice: {report.t_class_count}")
    print(f"distinct images: {report.image_count}")
    print(f"forward injective: {'yes' if report.forward_injective else 'no'}")
    print(f"slice surjective: {'yes' if report.slice_surjective else 'no'}")
    print(f"mismatches: {len(report.mismatches)}")
    for tag, *words in report.mismatches[:10]:
        print("  " + " / ".join([tag, *map(show, words)]))
    return OK if not report.mismatches else FAILED


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frs",
        description="Finite complete rewriting systems for semigroups and "
        "their large subsemigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)

    p = sub.add_parser("check", help="completeness report for a system")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=completeness.DEFAULT_SEARCH_LEN)
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("file")
    p.add_argument("--word", required=True, help="whitespace-separated letters")
    common(p)
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("letter-intro", help="name an irreducible word by a fresh letter")
    p.add_argument("file")
    p.add_argument("--w0", required=True, help="the word to name")
    p.add_argument("--name", default="s", help="preferred fresh letter name")
    p.add_argument("--max-len", type=int, default=completeness.DEFAULT_SEARCH_LEN)
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_letter_intro)

    p = sub.add_parser("prepare", help="letterize the complement and interreduce")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("large-sub", help="construct the subsemigroup presentation")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--interreduce", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_large_sub)

    p = sub.add_parser("verify-tuple", help="check properties P1-P6 of a generated pair")
    p.add_argument("s_file")
    p.add_argument("t_file")
    p.add_argument("--bound-a", type=int, default=8)
    p.add_argument("--bound-b", type=int, default=5)
    common(p)
    p.set_defaults(func=_cmd_verify_tuple)

    p = sub.add_parser("verify-iso", help="check the bounded slice isomorphism")
    p.add_argument("s_file")
    p.add_argument("t_file")
    p.add_argument("--bound", type=int, default=6)
    common(p)
    p.set_defaults(func=_cmd_verify_iso)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # Below 1, a sweep or search covers no word and its verdict is unearned.
    for flag in ("max_len", "bound_a", "bound_b", "bound", "step_cap"):
        value = getattr(args, flag, 1)
        if value < 1:
            parser.error(f"argument --{flag.replace('_', '-')}: must be at least 1, got {value}")
    try:
        return args.func(args)
    except NonTerminationError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except InternalError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return FAILED
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
