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
from typing import Any


class TrackedSet(frozenset):
    """A ``frozenset`` with the set algebra spelled as methods that return
    ``TrackedSet``s; it equals, and hashes like, any frozenset of the same
    members."""

    __slots__ = ()

    @property
    def members(self) -> frozenset:
        return self

    @staticmethod
    def empty() -> "TrackedSet":
        return _EMPTY_SET

    def member(self, x) -> bool:
        return x in self

    def insert(self, x) -> "TrackedSet":
        return TrackedSet(self | {x})

    def remove(self, x) -> "TrackedSet":
        return TrackedSet(self - {x})

    def union(self, other: "TrackedSet") -> "TrackedSet":
        return TrackedSet(self | other)

    def intersect(self, other: "TrackedSet") -> "TrackedSet":
        return TrackedSet(self & other)

    def diff(self, other: "TrackedSet") -> "TrackedSet":
        return TrackedSet(self - other)

    def filter(self, keep) -> "TrackedSet":
        """Drop members rejected by ``keep``; ``self`` itself if none is."""
        kept = [x for x in self if keep(x)]
        return self if len(kept) == len(self) else TrackedSet(kept)

    def elements(self) -> list:
        """Members in display order (ascending natural order)."""
        return sorted(self)

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

    def _locate(self, k) -> tuple[int, bool]:
        """Index of ``k``'s entry, or where it would be inserted, and whether
        ``k`` is present."""
        for i, (key, _) in enumerate(self.entries):
            if key >= k:
                return i, key == k
        return len(self.entries), False

    def get(self, k):
        i, found = self._locate(k)
        return self.entries[i][1] if found else self.default

    def set(self, k, v) -> "ExtensionalMap":
        return self.update(k, lambda _: v)

    def update(self, k, f) -> "ExtensionalMap":
        """``set(k, f(get(k)))``, finding ``k`` once."""
        i, found = self._locate(k)
        head, tail = self.entries[:i], self.entries[i + found:]
        v = f(self.entries[i][1] if found else self.default)
        if v == self.default:  # a map is exactly its non-default entries
            return ExtensionalMap(self.default, head + tail)
        return ExtensionalMap(self.default, head + ((k, v),) + tail)

    def combine(self, other: "ExtensionalMap", f) -> "ExtensionalMap":
        """The map ``k -> f(self.get(k), other.get(k))``, in one pass over both
        sorted entry tuples; ``self``'s default is the result's."""
        d = self.default
        xs, ys = self.entries, other.entries
        i = j = 0
        out = []
        while i < len(xs) or j < len(ys):
            if j == len(ys) or (i < len(xs) and xs[i][0] < ys[j][0]):
                k, v = xs[i][0], f(xs[i][1], other.default)
                i += 1
            elif i == len(xs) or ys[j][0] < xs[i][0]:
                k, v = ys[j][0], f(d, ys[j][1])
                j += 1
            else:
                k, v = xs[i][0], f(xs[i][1], ys[j][1])
                i += 1
                j += 1
            if v != d:
                out.append((k, v))
        return ExtensionalMap(d, tuple(out))

    def domain(self) -> TrackedSet:
        return TrackedSet(k for k, _ in self.entries)

    def keys(self) -> list:
        return [k for k, _ in self.entries]

    def items(self) -> tuple:
        return self.entries

    def show(self, value_str=element_str) -> str:
        body = ", ".join(f"{element_str(k)}: {value_str(v)}" for k, v in self.entries)
        return "{" + body + "}"
