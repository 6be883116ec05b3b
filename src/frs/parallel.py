"""The map that the P4 and P6 sweeps run their chunks through."""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Order-preserving map over items, run serially."""
    return [fn(item) for item in items]
