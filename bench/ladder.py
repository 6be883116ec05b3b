"""The fixed input pool, the seeded input generator, the job lists of the
three workloads and the known answer of every job.

A seed only renames letters and permutes the alphabet, rule and complement
declaration order of each input; the semigroups, and therefore every
verdict and structural count below, are the same for every seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

# name -> (alphabet, rules as (lhs, rhs), complement words or None)
POOL: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...], tuple[str, ...] | None]] = {
    "comm": (("a", "b"), (("b a", "a b"),), ("a",)),
    "two": (("a", "b"), (("a a a", "a"), ("b b", "b")), ("a", "a a")),
    "three": (("a", "b", "c"), (("c a", "a c"), ("c b", "b c")), ("a", "b")),
    "free": (("a", "b"), (), ("a",)),
    "aaa": (("a",), (("a a a", "a"),), ("a",)),
    "comm_ab": (("a", "b"), (("b a", "a b"),), ("a", "b")),
    "comm_aa": (("a", "b"), (("b a", "a b"),), ("a", "a a")),
    "idem": (("a", "b"), (("a a", "a"), ("b b", "b")), ("a",)),
    "idcomm": (("a", "b"), (("a a", "a"), ("b a", "a b")), ("a",)),
    "aba": (("a", "b"), (("a b a", "a"),), ("a",)),
    "mono42": (("a",), (("a a a a", "a a"),), ("a",)),
    "free3": (("a", "b", "c"), (), ("a",)),
    "threebase": (("a", "b", "c"), (("c a", "a c"), ("c b", "b c")), None),
    # Known incomplete: two rules with one left-hand side and distinct
    # irreducible right-hand sides, and a two-rule reduction cycle.
    "no_confluence": (("a", "b"), (("a b", "a"), ("a b", "b")), None),
    "cycle": (("a", "b"), (("a b", "b a"), ("b a", "a b")), None),
}

# The word that the letter-introduction pair names by a fresh letter.
THREEBASE_W0 = "a b"

# Two characters per name, so no generated name is a prefix of another's
# image name; 'c' and 's' are left out because the program derives fresh
# names from them (c_<image>, s, s0, ...).
_NAMES = tuple(f"{head}{digit}" for head in "abdeghkmnpqrtuvwxyz" for digit in "0123456789")


@dataclass(frozen=True)
class Inputs:
    """Generated input files (name -> text) and the renamed w0 word."""

    files: dict[str, str]
    threebase_w0: str


def _render(
    alphabet: tuple[str, ...],
    rules: tuple[tuple[str, str], ...],
    complement: tuple[str, ...] | None,
    rename: dict[str, str],
    rng: random.Random,
) -> str:
    def word(text: str) -> str:
        return " ".join(rename[name] for name in text.split())

    letters = [rename[name] for name in alphabet]
    rng.shuffle(letters)
    order = list(rules)
    rng.shuffle(order)
    lines = ["alphabet: " + " ".join(letters)]
    lines += [f"rule: {word(lhs)} -> {word(rhs)}" for lhs, rhs in order]
    if complement is not None:
        words = [word(w) for w in complement]
        rng.shuffle(words)
        lines.append("complement: " + " ; ".join(words))
    return "\n".join(lines) + "\n"


def generate(seed: int) -> Inputs:
    """Every pool input with fresh letter names and declaration orders."""
    rng = random.Random(seed)
    files: dict[str, str] = {}
    w0 = ""
    for name, (alphabet, rules, complement) in POOL.items():
        rename = dict(zip(alphabet, rng.sample(_NAMES, len(alphabet))))
        files[name] = _render(alphabet, rules, complement, rename, rng)
        if name == "threebase":
            w0 = " ".join(rename[letter] for letter in THREEBASE_W0.split())
    return Inputs(files, w0)


@dataclass(frozen=True)
class Job:
    """One `frs` invocation. ``args`` may name ``{<input>}`` (the source
    file), ``{<input>.t}`` (a target built in set-up or by an earlier job)
    and ``{w0}``; ``expect`` holds the facts parsed from the output that
    must match, and ``why`` says how that answer is known."""

    name: str
    args: tuple[str, ...]
    expect: dict[str, object]
    why: str


def _large_sub(name: str, letters: int, rules: int, d1: int, d2: int, why: str, *extra: str) -> Job:
    suffix = "-interreduce" if extra else ""
    return Job(
        f"large-sub {name}{' --interreduce' if extra else ''}",
        ("large-sub", f"{{{name}}}", "-o", f"{{{name}{suffix}.t}}", *extra),
        {"exit": 0, "letters": letters, "rules": rules, "D1": d1, "D2": d2},
        why,
    )


_CONSTRUCTED = "a deterministic construction of a fixed semigroup; the counts are those of the canonical names and hold for every renaming"

CONSTRUCT_JOBS: tuple[Job, ...] = (
    _large_sub("comm", 6, 223, 205, 18, _CONSTRUCTED),
    _large_sub("two", 9, 367, 349, 18, _CONSTRUCTED),
    _large_sub("three", 21, 2144, 1850, 294, _CONSTRUCTED),
    _large_sub("free", 6, 18, 0, 18, "free semigroup on 2 letters minus one letter: 6 boundary generators, only D2 rules"),
    _large_sub("aaa", 1, 2, 2, 0, "README example: a^3 = a without a leaves the single generator a a"),
    _large_sub("comm_ab", 12, 278, 182, 96, _CONSTRUCTED),
    _large_sub("comm_aa", 17, 1712, 1555, 157, _CONSTRUCTED),
    _large_sub("idem", 4, 91, 87, 4, _CONSTRUCTED),
    _large_sub("idcomm", 4, 104, 100, 4, _CONSTRUCTED),
    _large_sub("aba", 5, 207, 199, 8, _CONSTRUCTED),
    _large_sub("mono42", 2, 14, 12, 2, _CONSTRUCTED),
    _large_sub("free3", 10, 50, 0, 50, "free semigroup on 3 letters minus one letter: 10 boundary generators, only D2 rules"),
    _large_sub("comm", 6, 12, 8, 4, "interreduction keeps the unique reduced system of a complete system", "--interreduce"),
    _large_sub("two", 9, 63, 45, 18, "interreduction keeps the unique reduced system of a complete system", "--interreduce"),
    Job(
        "prepare two",
        ("prepare", "{two}", "-o", "{two-prepared.t}"),
        {"exit": 0, "letters": 3, "rules": 5, "complement": 2},
        "a a is irreducible, so one letter is introduced for it: 3 letters, 2 complement letters",
    ),
    Job(
        "prepare comm_aa",
        ("prepare", "{comm_aa}", "-o", "{comm_aa-prepared.t}"),
        {"exit": 0, "letters": 3, "rules": 4, "complement": 2},
        "a a is irreducible, so one letter is introduced for it: 3 letters, 2 complement letters",
    ),
)

_BY_NAME = {job.name: job for job in CONSTRUCT_JOBS}

# Targets the verify and check jobs read, built in set-up.
VERIFY_SETUP: tuple[Job, ...] = (
    _BY_NAME["large-sub comm"],
    _BY_NAME["large-sub free"],
    Job(
        "letter-intro threebase",
        ("letter-intro", "{threebase}", "--w0", "{w0}", "-o", "{threebase.t}"),
        {"exit": 0, "rules": 4},
        "two commutation rules, the naming rule and one C3/C4 rule for w0 = a b",
    ),
)

_VERIFIED = "the paper proves the construction presents T with a complete system, so every property holds"

VERIFY_JOBS: tuple[Job, ...] = (
    Job(
        "verify-tuple free",
        ("verify-tuple", "{free}", "{free.t}"),
        {"exit": 0, "overall": "verified", "P1": 0, "P2": 18, "P3": 18, "P4": 9330, "P5": 509, "P6": 9330},
        _VERIFIED + "; the base has no rules, so P1 has no witnesses",
    ),
    Job(
        "verify-tuple comm",
        ("verify-tuple", "{comm}", "{comm.t}", "--bound-a", "6", "--bound-b", "3"),
        {"exit": 0, "overall": "verified", "P1": 129, "P2": 223, "P3": 18, "P4": 258, "P5": 125, "P6": 258},
        _VERIFIED,
    ),
    Job(
        "verify-tuple threebase",
        ("verify-tuple", "{threebase}", "{threebase.t}"),
        {"exit": 0, "overall": "verified", "P1": 14216, "P2": 4, "P3": 1, "P4": 1364, "P5": 9840, "P6": 1364},
        "letter introduction presents the same semigroup with a complete system",
    ),
    Job(
        "verify-iso free",
        ("verify-iso", "{free}", "{free.t}"),
        {"exit": 0, "classes": 125, "images": 125, "mismatches": 0},
        "T-words up to length 6 over a b without the class a: 2^7 - 2 - 1 = 125",
    ),
)

CHECK_SETUP: tuple[Job, ...] = tuple(
    _BY_NAME[f"large-sub {name}"] for name in ("idem", "idcomm", "free3", "mono42", "comm_ab")
)

_CERTIFIED = "a construction output, complete by the paper; a heavy-letter measure certifies termination"
_BOUNDED = "a construction output, complete by the paper; no heavy-letter measure exists, and all words up to length 6 fit under the cycle-search cap"

CHECK_JOBS: tuple[Job, ...] = (
    Job("check idem.t", ("check", "{idem.t}"), {"exit": 0, "verdict": "complete", "termination": "certified", "joined": 4351}, _CERTIFIED),
    Job("check idcomm.t", ("check", "{idcomm.t}"), {"exit": 0, "verdict": "complete", "termination": "bounded_verified", "joined": 4517}, _BOUNDED),
    Job("check free3.t", ("check", "{free3.t}"), {"exit": 0, "verdict": "complete", "termination": "certified", "joined": 250}, _CERTIFIED),
    Job("check mono42.t", ("check", "{mono42.t}"), {"exit": 0, "verdict": "complete", "termination": "bounded_verified", "joined": 144}, _BOUNDED),
    Job(
        "check comm_ab.t",
        ("check", "{comm_ab.t}"),
        {"exit": 3, "verdict": "inconclusive", "termination": "unknown", "joined": 6901},
        "complete by the paper, but with 12 letters no heavy-letter measure is found and the bounded cycle search hits its 10000-state cap",
    ),
    Job(
        "check no_confluence",
        ("check", "{no_confluence}"),
        {"exit": 1, "verdict": "incomplete", "termination": "certified", "confluence": "counterexample"},
        "a b reduces to two distinct irreducible words, a and b",
    ),
    Job(
        "check cycle",
        ("check", "{cycle}"),
        {"exit": 1, "verdict": "incomplete", "termination": "counterexample"},
        "a b -> b a -> a b is a reduction cycle",
    ),
)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Job, ...]
    jobs: tuple[Job, ...]


WORKLOADS: dict[str, Workload] = {
    "construct": Workload("construct", (), CONSTRUCT_JOBS),
    "verify": Workload("verify", VERIFY_SETUP, VERIFY_JOBS),
    "check": Workload("check", CHECK_SETUP, CHECK_JOBS),
}


_FACT_PATTERNS: tuple[tuple[re.Pattern[str], tuple[str, ...]], ...] = (
    (re.compile(r"subsemigroup presentation: (\d+) letters, (\d+) rules \((\d+) D1, (\d+) D2\)"), ("letters", "rules", "D1", "D2")),
    (re.compile(r"prepared presentation with (\d+) letters, (\d+) rules, (\d+) complement letters"), ("letters", "rules", "complement")),
    (re.compile(r"introduced letter '\S+' for '[^']+'; (\d+) rules"), ("rules",)),
    (re.compile(r"^(P\d): verified \(bound \d+, (\d+) witnesses\)", re.M), ()),
    (re.compile(r"^overall: (verified|not verified)$", re.M), ("overall",)),
    (re.compile(r"^T-classes in slice: (\d+)$", re.M), ("classes",)),
    (re.compile(r"^distinct images: (\d+)$", re.M), ("images",)),
    (re.compile(r"^mismatches: (\d+)$", re.M), ("mismatches",)),
    (re.compile(r"^termination: (\w+)", re.M), ("termination",)),
    (re.compile(r"^local confluence: all (\d+) critical pairs joined", re.M), ("joined",)),
    (re.compile(r"^local confluence: (counterexample|inconclusive)", re.M), ("confluence",)),
    (re.compile(r"^verdict: (\w+)$", re.M), ("verdict",)),
)


def facts(exit_code: int, output: str) -> dict[str, object]:
    """The facts a job's exit code and output state, in ``expect`` form."""
    found: dict[str, object] = {"exit": exit_code}
    for pattern, keys in _FACT_PATTERNS:
        for match in pattern.finditer(output):
            if not keys:  # per-property witness lines
                found[match.group(1)] = int(match.group(2))
                continue
            for key, value in zip(keys, match.groups()):
                found[key] = int(value) if value.isdigit() else value
    return found


def mismatches(job: Job, found: dict[str, object]) -> list[str]:
    """Expected facts the output contradicts or leaves out."""
    return [
        f"{key}: expected {want!r}, got {found.get(key)!r}"
        for key, want in job.expect.items()
        if found.get(key) != want
    ]
