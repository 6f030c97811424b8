"""Set and map values with decidable extensional equality.

A ``TrackedSet`` is an immutable membership set.  Two sets are equal, and
hash alike, exactly when their members agree, whatever inserts and removes
produced them.

An ``ExtensionalMap`` is a total mapping with a declared default and an
explicit domain (a ``TrackedSet`` of keys).  Maps are equal when their domains
are extensionally equal and the mappings agree on every key in the domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class TrackedSet:
    """``members`` is a ``frozenset``, stored as given."""

    members: frozenset = frozenset()

    @staticmethod
    def empty() -> "TrackedSet":
        return _EMPTY_SET

    def member(self, x) -> bool:
        return x in self.members

    def __contains__(self, x) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator:
        return iter(self.members)

    def insert(self, x) -> "TrackedSet":
        return TrackedSet(self.members | {x})

    def remove(self, x) -> "TrackedSet":
        return TrackedSet(self.members - {x})

    def union(self, other: "TrackedSet") -> "TrackedSet":
        return TrackedSet(self.members | other.members)

    def intersect(self, other: "TrackedSet") -> "TrackedSet":
        return TrackedSet(self.members & other.members)

    def diff(self, other: "TrackedSet") -> "TrackedSet":
        return TrackedSet(self.members - other.members)

    def filter(self, keep) -> "TrackedSet":
        """Drop members rejected by ``keep``."""
        return TrackedSet(frozenset(x for x in self.members if keep(x)))

    def elements(self) -> list:
        """Members in display order (ascending natural order)."""
        return sorted(self.members)

    def show(self) -> str:
        return show_set(self)


_EMPTY_SET = TrackedSet()


def element_str(x) -> str:
    """Display form of a set element; tuples render as ``(a, b)``."""
    if isinstance(x, tuple):
        return "(" + ", ".join(element_str(v) for v in x) + ")"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def show_set(s: TrackedSet) -> str:
    """Bit-exact display form: ``#[`` + comma-separated elements + ``]#``."""
    return "#[" + ", ".join(element_str(x) for x in s.elements()) + "]#"


@dataclass(frozen=True)
class ExtensionalMap:
    """``entries`` is a tuple of ``(key, value)`` pairs sorted by key, one per
    domain member, stored as given."""

    default: Any = field(compare=False, default=0)
    entries: tuple = ()

    @staticmethod
    def empty(default) -> "ExtensionalMap":
        return ExtensionalMap(default, ())

    def get(self, k):
        for key, value in self.entries:
            if key == k:
                return value
        return self.default

    def set(self, k, v) -> "ExtensionalMap":
        kept = tuple((key, value) for key, value in self.entries if key != k)
        if v == self.default:  # a map is exactly its non-default entries
            return ExtensionalMap(self.default, kept)
        return ExtensionalMap(self.default, tuple(sorted(kept + ((k, v),))))

    def domain(self) -> TrackedSet:
        return TrackedSet(frozenset(k for k, _ in self.entries))

    def keys(self) -> list:
        return [k for k, _ in self.entries]

    def items(self) -> tuple:
        return self.entries

    def show(self, value_str=element_str) -> str:
        body = ", ".join(f"{element_str(k)}: {value_str(v)}" for k, v in self.entries)
        return "{" + body + "}"
