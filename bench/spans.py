"""Outside-in span recorder for one traced `frs` process.

``Recorder.install`` replaces each probed function by a timing wrapper in
every ``frs`` module namespace that holds it: the modules import with
``from .core import normal_form``, so patching ``frs.core`` alone would miss
the callers in the other modules.  Spans are aggregated per (parent, name)
edge as they close, on a stack kept per thread, because ``parallel.pmap``
runs sweep items in pool threads.  ``uninstall`` puts the originals back.

Self time of a span is its duration minus the part of it covered by child
spans.  The items that ``pmap`` maps count as its children, also when they
run in a pool thread, so ``parallel.pmap.self_s`` is the time the pool
spends outside the mapped function.
"""

from __future__ import annotations

import importlib
import sys
import threading
from time import perf_counter
from typing import Callable

PMAP = "parallel.pmap"
PMAP_ITEM = "parallel.pmap.item"
WORDS = "core.words_over.words"


def _critical_pairs(result, counts: dict[str, int]) -> None:
    _add(counts, "completeness.critical_pairs.count", len(result))


def _construction(result, counts: dict[str, int]) -> None:
    for rule in result.r_t.rules:
        _add(counts, f"large_sub.rules.{rule.tags[0]}", 1)


def _properties(result, counts: dict[str, int]) -> None:
    for res in result.results:
        _add(counts, f"property_r.{res.name}.witnesses", res.witness_count)


def _add(counts: dict[str, int], key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


# "<module>.<function>" -> optional hook that counts work in the result.
PROBES: dict[str, Callable | None] = {
    "core.normal_form": None,
    "core.one_step_reductions": None,
    "core.is_irreducible": None,
    "core.reduces_to": None,
    "large_sub.in_AT": None,
    "large_sub.in_T": None,
    "large_sub.rho_t": None,
    "large_sub.phi_t": None,
    "large_sub.classify_letters": None,
    "large_sub.build_f_sets": None,
    "large_sub.build_b_alphabet": None,
    "large_sub.build_construction": _construction,
    "pipeline.prepare_presentation": None,
    "pipeline.letterize_complement": None,
    "pipeline.normalize_q2_q3": None,
    "pipeline.check_subsemigroup_closed": None,
    "letter_intro.build_letter_intro": None,
    "completeness.critical_pairs": _critical_pairs,
    "completeness.find_measure_certificate": None,
    "completeness.check_termination": None,
    "completeness.check_local_confluence": None,
    "completeness.verify_complete": None,
    "property_r.check_p1_to_p6": _properties,
    "property_r.check_isomorphism_slice": None,
    "fileformat.parse_presentation": None,
    "fileformat.serialize_presentation": None,
    "cli.main": None,
}


class _State:
    """One thread's open spans, closed-span aggregates and counts."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_s]
        self.edges: dict[tuple[str | None, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


class Recorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_State] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _State:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _State()
            with self._lock:
                self._states.append(state)
            return state

    def _enter(self, name: str) -> tuple[_State, list]:
        state = self._state()
        frame = [name, 0.0, 0.0]
        state.stack.append(frame)
        frame[1] = perf_counter()
        return state, frame

    def _exit(self, state: _State, frame: list, extra_child_s: float = 0.0, nested: bool = True) -> None:
        """Close ``frame``; a nested span also counts as its parent's child."""
        total = perf_counter() - frame[1]
        stack = state.stack
        stack.pop()
        if nested:
            parent = stack[-1] if stack else None
            key = (parent[0] if parent else None, frame[0])
        else:
            parent, key = None, (PMAP, frame[0])
        edge = state.edges.get(key)
        if edge is None:
            edge = state.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += total
        edge[2] += total - frame[2] - extra_child_s
        if parent is not None:
            parent[2] += total

    def _timed(self, name: str, fn: Callable, on_result: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            state, frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(state, frame)
            if on_result is not None:
                on_result(result, state.counts)
            return result

        return wrapper

    def _pmap(self, fn: Callable) -> Callable:
        def pmap(mapped, items):
            intervals: list[tuple[float, float]] = []

            def item(x):
                # A child of pmap through `intervals`, not through the
                # stack, whichever thread runs it.
                state, frame = self._enter(PMAP_ITEM)
                try:
                    return mapped(x)
                finally:
                    intervals.append((frame[1], perf_counter()))
                    self._exit(state, frame, nested=False)

            state, frame = self._enter(PMAP)
            try:
                return fn(item, items)
            finally:
                self._exit(state, frame, _union(intervals))

        return pmap

    def _counted_words(self, fn: Callable) -> Callable:
        def words_over(*args, **kwargs):
            produced = 0
            try:
                for word in fn(*args, **kwargs):
                    produced += 1
                    yield word
            finally:
                _add(self._state().counts, WORDS, produced)

        return words_over

    def install(self) -> None:
        """Wrap every probed function in every frs module that holds it."""
        if self._patched:
            raise RuntimeError("the recorder is already installed")
        importlib.import_module("frs.cli")  # imports every frs module
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "frs" or name.startswith("frs.")
        ]
        # Keyed by id: module namespaces also hold unhashable values.
        wrappers: dict[int, Callable] = {}
        for probe, on_result in PROBES.items():
            module, func = probe.split(".")
            original = getattr(sys.modules[f"frs.{module}"], func)
            wrappers[id(original)] = self._timed(probe, original, on_result)
        pmap = sys.modules["frs.parallel"].pmap
        wrappers[id(pmap)] = self._pmap(pmap)
        words = sys.modules["frs.core"].words_over
        wrappers[id(words)] = self._counted_words(words)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self) -> dict:
        """Closed spans per (parent, name) edge and the counts, all threads."""
        edges: dict[tuple[str | None, str], list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, own) in state.edges.items():
                edge = edges.setdefault(key, [0, 0.0, 0.0])
                edge[0] += calls
                edge[1] += total
                edge[2] += own
            for key, value in state.counts.items():
                _add(counts, key, value)
        return {
            "edges": [[parent, name, *values] for (parent, name), values in sorted(edges.items(), key=str)],
            "counts": counts,
        }
