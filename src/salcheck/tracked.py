"""Set and map values with decidable extensional equality.

The catalog's states are plain ints, bools, tuples and ``frozenset``s, built
with the builtin operators; no catalog state is a map.  ``TrackedSet`` is the set
algebra over the same values, spelled as methods (``insert``, ``union``,
``filter``, ...), for user specs and the substrate laws: it is a
``frozenset`` subclass, so two sets are equal, and hash alike, exactly when
their members agree, whatever inserts and removes produced them, and a
``TrackedSet`` equals the plain ``frozenset`` of its members.

An ``ExtensionalMap``, for user specs and the substrate laws, is a total
mapping with a declared default and an explicit domain: the keys whose value
is not the default.  Maps are equal when the mappings agree on every key,
absent ones included: their defaults and their entries are equal.
"""

from __future__ import annotations

from operator import itemgetter


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


def show_set(s: frozenset) -> str:
    """Bit-exact display form: ``#[`` + comma-separated elements + ``]#``."""
    return "#[" + ", ".join(element_str(x) for x in sorted(s)) + "]#"


_new = tuple.__new__


def _second(old, new):
    return new


class ExtensionalMap(tuple):
    """The pair ``(default, entries)``: ``entries`` is a tuple of
    ``(key, value)`` pairs sorted by key, one per domain member.

    The tuple is only storage, which makes a map immutable by construction.
    Maps compare and hash by ``(default, entries)``, and a map never equals a
    value of another type, a plain ``(default, entries)`` tuple included.
    ``set``, ``update`` and ``combine`` leave out every entry whose value
    equals the default; a map built directly keeps its entries as given."""

    __slots__ = ()

    def __new__(cls, default=0, entries: tuple = ()) -> "ExtensionalMap":
        return _new(cls, (default, entries))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    default = property(itemgetter(0))
    entries = property(itemgetter(1))

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtensionalMap) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not (isinstance(other, ExtensionalMap) and tuple.__eq__(self, other))

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"ExtensionalMap(default={self[0]!r}, entries={self[1]!r})"

    @staticmethod
    def empty(default) -> "ExtensionalMap":
        return _new(ExtensionalMap, (default, ()))

    def get(self, k):
        for key, value in self[1]:
            if key == k:
                return value
        return self[0]

    def set(self, k, v) -> "ExtensionalMap":
        return self.update(k, _second, v)

    def update(self, k, f, x) -> "ExtensionalMap":
        """``set(k, f(get(k), x))``, finding ``k`` once."""
        d, entries = self
        i = 0
        for key, old in entries:
            if key >= k:
                break
            i += 1
        if i < len(entries) and key == k:
            v, j = f(old, x), i + 1
        else:
            v, j = f(d, x), i
        if v == d:  # a map is exactly its non-default entries
            return _new(ExtensionalMap, (d, entries[:i] + entries[j:]))
        return _new(ExtensionalMap, (d, entries[:i] + ((k, v),) + entries[j:]))

    def combine(self, other: "ExtensionalMap", f) -> "ExtensionalMap":
        """The map ``k -> f(self.get(k), other.get(k))``, in one pass over both
        sorted entry tuples; ``self``'s default is the result's."""
        d, xs = self
        od, ys = other
        nx, ny = len(xs), len(ys)
        i = j = 0
        out = []
        while i < nx or j < ny:
            if j == ny or (i < nx and xs[i][0] < ys[j][0]):
                k, v = xs[i][0], f(xs[i][1], od)
                i += 1
            elif i == nx or ys[j][0] < xs[i][0]:
                k, v = ys[j][0], f(d, ys[j][1])
                j += 1
            else:
                k, v = xs[i][0], f(xs[i][1], ys[j][1])
                i += 1
                j += 1
            if v != d:
                out.append((k, v))
        return _new(ExtensionalMap, (d, tuple(out)))

    def domain(self) -> TrackedSet:
        return TrackedSet(k for k, _ in self[1])

    def keys(self) -> list:
        return [k for k, _ in self[1]]

    def items(self) -> tuple:
        return self[1]

    def show(self, value_str=element_str) -> str:
        body = ", ".join(f"{element_str(k)}: {value_str(v)}" for k, v in self[1])
        return "{" + body + "}"
