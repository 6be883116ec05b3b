import pytest
from hypothesis import strategies as st

from frs import (
    Alphabet,
    InputError,
    NonTerminationError,
    Presentation,
    RewritingSystem,
    Rule,
    one_step_reductions,
    words_over,
)
from frs.core import DEFAULT_STEP_CAP, _require_known


def w(alphabet, text):
    """Word helper: 'a a b' splits on spaces, 'aab' splits per character."""
    if " " in text or text in alphabet.names():
        return alphabet.word(text)
    return alphabet.word(" ".join(text))


def system(letter_names, *rule_pairs):
    alphabet = Alphabet(letter_names.split())
    rules = tuple(
        Rule(w(alphabet, lhs), w(alphabet, rhs)) for lhs, rhs in rule_pairs
    )
    return RewritingSystem(alphabet, rules)


def rule_set(sys):
    return {(tuple(r.lhs), tuple(r.rhs)) for r in sys.rules}


def all_normal_forms(word, sys, memo=None):
    """Oracle: the set of endpoints of every maximal reduction path."""
    if memo is None:
        memo = {}
    if word in memo:
        return memo[word]
    memo[word] = frozenset()  # cycle guard; fixtures are acyclic
    successors = [result for _, result in one_step_reductions(word, sys)]
    if not successors:
        result = frozenset({word})
    else:
        result = frozenset().union(
            *(all_normal_forms(nxt, sys, memo) for nxt in successors)
        )
    memo[word] = result
    return result


# Reference kernel: the plain scan over every rule at every position that
# the trie of LhsMatcher replaced.  It also reduces rightmost first, the
# other order: on a complete system that order ends at the same normal
# form as the program's leftmost one.
def naive_first_redex(word, sys, rightmost=False, start=0):
    positions = range(len(word) - 1, -1, -1) if rightmost else range(start, len(word))
    for pos in positions:
        for idx, rule in enumerate(sys.rules):
            k = len(rule.lhs)
            if pos + k <= len(word) and word[pos: pos + k] == rule.lhs:
                return idx, pos
    return None


def naive_apply(word, sys, idx, pos):
    rule = sys.rules[idx]
    return word[:pos] + rule.rhs + word[pos + len(rule.lhs):]


def naive_normal_form(word, sys, step_cap=DEFAULT_STEP_CAP, rightmost=False):
    trace = [word]
    while (redex := naive_first_redex(trace[-1], sys, rightmost)) is not None:
        if len(trace) > step_cap:
            raise NonTerminationError("step cap exceeded", tuple(trace))
        trace.append(naive_apply(trace[-1], sys, *redex))
    return trace[-1]


def naive_trace(word, sys, limit):
    """The first ``limit`` words of the naive leftmost reduction from
    ``word``, fewer if it reaches a normal form."""
    trace = [word]
    while len(trace) < limit and (redex := naive_first_redex(trace[-1], sys)):
        trace.append(naive_apply(trace[-1], sys, *redex))
    return trace


def descendants(word, sys, step_cap=DEFAULT_STEP_CAP):
    """All words reachable from ``word`` by zero or more reduction steps,
    searched depth first over the matcher's successors; adding a word
    beyond ``step_cap`` raises."""
    if not word:
        raise InputError("cannot reduce the empty word")
    start = _require_known(word, sys)
    successors = sys.matcher.successors
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in successors(frontier.pop()):
            if nxt not in seen:
                if len(seen) >= step_cap:
                    raise NonTerminationError(f"descendant search exceeded {step_cap} states")
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def oracle_classes(sys, max_len):
    """Partition all words of length <= max_len by undirected rule moves.

    Ground truth for class equality that never consults normal forms.  An
    under-approximation of the full congruence in general (joins through
    longer intermediaries are invisible); exact when every rule is
    length-nonincreasing.
    """
    words = list(words_over(sys.alphabet, max_len))
    index = {word: i for i, word in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for word in words:
        for result in sys.matcher.successors(word):
            if len(result) <= max_len:
                union(index[word], index[result])

    groups = {}
    for word, i in index.items():
        groups.setdefault(find(i), []).append(word)
    classes = [frozenset(members) for members in groups.values()]
    classes.sort(key=lambda cls: min((len(w), w) for w in cls))
    return tuple(classes)


def longest_path_by_enumeration(word, sys):
    """Oracle: maximum reduction-sequence length by explicit path search."""
    best = 0
    stack = [(word, 0)]
    while stack:
        current, depth = stack.pop()
        successors = [result for _, result in one_step_reductions(current, sys)]
        if not successors:
            best = max(best, depth)
        for nxt in successors:
            stack.append((nxt, depth + 1))
    return best


@st.composite
def looping_systems(draw, letters=("a", "b", "c")):
    """Random rules over ``letters`` with sides of one to three letters,
    so many systems grow words or loop; every other system also gets the
    two-rule cycle x -> y, y -> x on two of its letters."""
    sides = st.lists(st.sampled_from(letters), min_size=1, max_size=3)
    pairs = draw(st.lists(st.tuples(sides, sides), max_size=4))
    if draw(st.booleans()):
        x, y = draw(st.lists(st.sampled_from(letters), min_size=2, max_size=2, unique=True))
        at = draw(st.integers(0, len(pairs)))
        pairs[at:at] = [([x], [y]), ([y], [x])]
    alphabet = Alphabet(letters)
    return RewritingSystem(
        alphabet, tuple(Rule(alphabet.word(lhs), alphabet.word(rhs)) for lhs, rhs in pairs)
    )


@pytest.fixture
def sys_aaa():
    """One rule a a a -> a over {a}."""
    return system("a", ("aaa", "a"))


@pytest.fixture
def sys_moves():
    """aa -> s and sa -> as over {a, s} (complete, length-nonincreasing)."""
    return system("a s", ("aa", "s"), ("sa", "as"))


@pytest.fixture
def sys_nonconfluent():
    """ab -> a and ab -> b: terminating, not confluent."""
    return system("a b", ("ab", "a"), ("ab", "b"))


@pytest.fixture
def free_a():
    return system("a")


@pytest.fixture
def free_ab():
    return system("a b")


@pytest.fixture
def pres_aaa(sys_aaa):
    return Presentation(sys_aaa, (w(sys_aaa.alphabet, "a"),))


@pytest.fixture
def pres_free_ab(free_ab):
    return Presentation(free_ab, (w(free_ab.alphabet, "a"),))
