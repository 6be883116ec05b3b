"""Command-line surface.

Exit codes: 0 success/verified, 1 a verification produced a counterexample,
2 input error, 3 inconclusive (a step cap or search bound was exceeded).
"""

from __future__ import annotations

import argparse
import sys

from . import completeness, large_sub, letter_intro, pipeline, property_r
from .core import (
    DEFAULT_SEARCH_LEN,
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
from .fileformat import Presentation, parse_presentation, serialize_presentation

OK, FAILED, BAD_INPUT, INCONCLUSIVE = 0, 1, 2, 3
# The exit code of each verdict of completeness.decide, spelled out so that
# a command that decides nothing does not load completeness.
EXIT = {"complete": OK, "incomplete": FAILED, "inconclusive": INCONCLUSIVE}


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


def _cmd_check(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    report = completeness.verify_complete(
        presentation.system, args.max_len, args.step_cap, dict(presentation.generators)
    )
    term, conf = report.results
    if term.counterexample:
        detail = " -> ".join(map(show, term.counterexample))
    elif term.status == completeness.BOUNDED_VERIFIED:
        detail = f"no reduction cycles among words of length <= {term.bound}"
    else:
        detail = term.note
    print(f"termination: {term.status}" + (f" ({detail})" if detail else ""))
    if conf.status == completeness.ALL_JOINED:
        print(f"local confluence: all {conf.witness_count} critical pairs joined")
    else:
        source, *normal_forms = conf.counterexample
        detail = " vs ".join(map(show, normal_forms)) or f"step cap {args.step_cap} exceeded"
        print(f"local confluence: {conf.status} at source '{show(source)}' ({detail})")
    print(f"verdict: {report.verdict}")
    return EXIT[report.verdict]


def _cmd_nf(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    word = _word_from(args.word, presentation.system)
    print(show(normal_form(word, presentation.system, args.step_cap)))
    return OK


def _cmd_letter_intro(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    completeness.require_complete(presentation.system, args.step_cap)
    w0 = _word_from(args.w0, presentation.system)
    result = letter_intro.build_letter_intro(presentation.system, w0, args.name, args.step_cap)
    generators = tuple(result.images.items())
    _write(args.output, Presentation(result.r_s, presentation.complement, generators))
    print(
        f"introduced letter '{result.new_letter}' for '{show(result.w0)}'; "
        f"{len(result.r_s.rules)} rules written to {args.output}"
    )
    return OK


def _cmd_prepare(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    prepared = pipeline.prepare_presentation(presentation, args.step_cap)
    _write(args.output, prepared)
    print(
        f"prepared presentation with {len(prepared.system.alphabet)} letters, "
        f"{len(prepared.system.rules)} rules, "
        f"{len(prepared.complement)} complement letters -> {args.output}"
    )
    return OK


def _cmd_large_sub(args: argparse.Namespace) -> int:
    presentation = _load(args.file)
    prepared = pipeline.prepare_presentation(presentation, args.step_cap)
    construction = large_sub.build_construction(prepared, args.step_cap)
    system = construction.r_t
    if args.interreduce:
        system = pipeline.normalize_q2_q3(system, args.step_cap)
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
) -> property_r.CandidateTuple:
    """The tuple (B, R_T, A(T), phi, rho) of a target written by
    ``large-sub`` or ``letter-intro``.  ``letter-intro`` copies the
    source's complement declaration into its target and ``large-sub``
    writes none, so a target is read as a ``large-sub`` one exactly when
    the source declares a complement and the target does not.

    phi comes from the target's generator lines and rho from the source
    and those images.  A source with a complement is prepared as
    ``large-sub`` prepares it; any other source is checked complete as
    ``letter-intro`` checks it; either way one that is not verified
    complete is refused.  B lists the usable source letters in source
    order, then the generators in file order, as the construction does.
    """
    if not t_pres.generators:
        raise InputError(
            "the target file has no 'generator:' lines; regenerate it with "
            "'frs large-sub' or 'frs letter-intro'"
        )
    from_large_sub = s_pres.complement is not None and t_pres.complement is None
    source = pipeline.prepare_presentation(s_pres, step_cap) if from_large_sub else s_pres
    images = {name: source.system.alphabet.word(image) for name, image in t_pres.generators}
    if from_large_sub:
        classification = large_sub.classify_letters(source, step_cap)
        b_alphabet = large_sub.generator_letters(classification, images)
    else:
        completeness.require_complete(source.system, step_cap)
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
    if from_large_sub:
        construction = large_sub.LargeSubConstruction(source, classification, images, system)
        return construction.as_candidate_tuple(step_cap)
    ((s_name, w0),) = images.items()
    return letter_intro.LetterIntroResult(s_name, w0, system, source.system).as_candidate_tuple()


def _cmd_verify_tuple(args: argparse.Namespace) -> int:
    tup = _candidate_tuple(_load(args.s_file), _load(args.t_file), args.step_cap)
    report = property_r.check_p1_to_p6(tup, args.bound_a, args.bound_b, args.step_cap)
    for res in report.results:
        line = f"{res.name}: {res.status}"
        if res.status == completeness.VERIFIED:
            line += f" (bound {res.bound}, {res.witness_count} witnesses)"
        elif res.status == completeness.INCONCLUSIVE:
            line += f" (bound {res.bound})"
        elif res.counterexample:
            line += " at " + " / ".join(f"'{show(w)}'" for w in res.counterexample)
        if res.note:
            line += f" [{res.note}]"
        print(line)
    print("overall: " + ("verified" if report.verdict == completeness.COMPLETE else "not verified"))
    return EXIT[report.verdict]


def _cmd_verify_iso(args: argparse.Namespace) -> int:
    tup = _candidate_tuple(_load(args.s_file), _load(args.t_file), args.step_cap)
    report = property_r.check_isomorphism_slice(tup, args.bound, args.step_cap)
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
    p.add_argument("--max-len", type=int, default=DEFAULT_SEARCH_LEN)
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
