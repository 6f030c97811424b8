"""Spans and counts recorded around salcheck's public calls, from outside ``src/``.

Only a traced run installs these wrappers (see :func:`installed`); an
untraced run imports and calls an unpatched ``salcheck``.  The wrappers sit
at module boundaries:

* ``history``: ``build``, ``execute``, ``enumerate_recipes`` and
  ``random_recipe`` as looked up in ``salcheck.checker``'s namespace;
* ``checker``: ``run_suite``, ``oracle_sweep``, ``linearization_oracle``,
  ``shrink`` and every entry of ``checker.EVALUATORS``;
* ``catalog``: a spec's ``apply``, ``merge3``/``merge2`` and ``replay_apply``,
  reached through a ``dataclasses.replace``-d ``CatalogEntry`` (see
  :meth:`Tracer.entry`).  These run for microseconds, so they are counted,
  never timed: a timing wrapper would cost more than the call it times.
  ``tracked`` sits beneath them and is covered by the same counts;
* ``report``: the render, parse and model-building functions.

Spans stay in memory as ``(name, start, end, parent)`` and are written out
once the run is over.  A span's self time is its duration minus the time its
child spans cover.

A ``Tracer(count=True)`` also counts the catalog calls and hashes every
checked state and merge input into sets of distinct values.  That
bookkeeping runs inside the spans, so a counting tracer's times are not the
program's: self times come from a plain ``Tracer()`` on a separate pass over
the same work, and the counts (deterministic per seed) from the counting one.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from salcheck import checker, report
from salcheck.model import is_crdt

CHECKER_NAMES = {
    "build": "history.build",
    "execute": "history.execute",
    "enumerate_recipes": "history.enumerate_recipes",
    "random_recipe": "history.random_recipe",
    "run_suite": "checker.run_suite",
    "oracle_sweep": "checker.oracle_sweep",
    "linearization_oracle": "checker.linearization_oracle",
    "shrink": "checker.shrink",
}
REPORT_NAMES = ("render_json", "parse_report", "model_from_report_dict",
                "model_from_execution", "model_from_suite",
                "render_text", "render_dot", "render_html")
ORACLE = "checker.linearization_oracle"


class Tracer:
    """Spans, self times, call counts and, with ``count``, distinct-input
    counts of one traced pass.  Also the hooks a workload round takes:
    ``entry`` and ``unit``."""

    def __init__(self, count: bool = False) -> None:
        self.count = count
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        # Histories per verdict unit: {label: {"sweep": n, "random": n}}.
        self.per_unit: dict[str, dict[str, int]] = {}
        # Open spans: [span index, name, start, child time].
        self._stack: list[list] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, call: bool = True) -> None:
        if call:
            self.calls[name] += 1
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def exit(self) -> None:
        end = time.perf_counter()
        index, name, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent[0] if parent else -1)
        self.self_s[name] += (end - start) - child
        if parent is not None:
            parent[3] += end - start

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Time each resumption of a generator; count calls and items."""
        def traced(*args, **kwargs):
            self.calls[name] += 1
            items = fn(*args, **kwargs)
            while True:
                self.enter(name, call=False)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[name + ".yielded"] += 1
                yield item
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def unit(self, label: str):
        """Attribute the sweep and random histories made inside to ``label``."""
        sweep = self.counts["history.enumerate_recipes.yielded"]
        drawn = self.calls["history.random_recipe"]
        try:
            yield
        finally:
            self.per_unit[label] = {
                "sweep": self.counts["history.enumerate_recipes.yielded"] - sweep,
                "random": self.calls["history.random_recipe"] - drawn,
            }

    # -- counts ------------------------------------------------------------

    def counting(self, name: str, fn, key=None):
        def counted(*args):
            self.counts[name] += 1
            result = fn(*args)
            if key is not None:
                self.distinct[name].add(key(args, result))
            return result
        counted.__wrapped__ = fn
        return counted

    def distinct_frac(self, name: str) -> float:
        calls = self.counts.get(name, 0)
        return len(self.distinct.get(name, ())) / calls if calls else 0.0

    def entry(self, entry):
        """A copy of a catalog entry whose spec callables are counted; the
        entry itself when this tracer does not count."""
        if not self.count:
            return entry
        spec = entry.spec
        tag = entry.id
        changes = {"apply": self.counting("catalog.apply", spec.apply,
                                          lambda args, out: (tag, out))}
        merge_field = "merge2" if is_crdt(spec) else "merge3"
        changes[merge_field] = self.counting("catalog.merge", getattr(spec, merge_field),
                                             lambda args, out: (tag, args))
        if spec.replay_apply is not None:
            changes["replay_apply"] = self.counting("catalog.replay_apply", spec.replay_apply)
        return dataclasses.replace(entry, spec=dataclasses.replace(spec, **changes))

    def _on_execute(self, ex) -> None:
        # Histories executed to be checked (not the oracle's re-execution of
        # the same graph): their node states and merge inputs show how much
        # work a sweep repeats.
        if self.parent_name() == ORACLE:
            return
        tag = ex.spec.name
        self.counts["history.states"] += len(ex.states)
        self.distinct["history.states"].update((tag, s) for s in ex.states)
        for info in ex.graph.nodes:
            if info[0] == "merge":
                _, left, right, lca = info
                self.counts["history.merge_triples"] += 1
                self.distinct["history.merge_triples"].add(
                    (tag, ex.states[lca], ex.states[left], ex.states[right]))

    def _on_oracle(self, result) -> None:
        self.counts["checker.oracle.orders_tried"] += result.orders_tried

    def _on_shrink(self, cx) -> None:
        self.counts["checker.shrink.steps"] += cx.shrink_steps

    # -- results -----------------------------------------------------------

    def builds_under(self, ancestor: str) -> int:
        """Number of ``history.build`` spans with an ``ancestor`` span above them."""
        spans = self.spans
        found = 0
        for name, _, _, parent in spans:
            if name != "history.build":
                continue
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    found += 1
                    break
                parent = spans[parent][3]
        return found

    def write_spans(self, path: Path) -> None:
        names: dict[str, int] = {}
        rows = [[names.setdefault(name, len(names)), start, end, parent]
                for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "names": list(names), "spans": rows}, out)


def _originals() -> dict:
    return {
        "checker": {name: getattr(checker, name) for name in CHECKER_NAMES},
        "evaluators": dict(checker.EVALUATORS),
        "report": {name: getattr(report, name) for name in REPORT_NAMES},
    }


@contextmanager
def installed(tracer: Tracer):
    """Route salcheck's module-level calls through ``tracer``; undo on exit."""
    saved = _originals()
    hooks = {"execute": tracer._on_execute,
             "linearization_oracle": tracer._on_oracle,
             "shrink": tracer._on_shrink} if tracer.count else {}
    try:
        for name, span in CHECKER_NAMES.items():
            fn = saved["checker"][name]
            if name == "enumerate_recipes":
                setattr(checker, name, tracer.wrap_generator(span, fn))
            else:
                setattr(checker, name, tracer.wrap(span, fn, hooks.get(name)))
        for prop, fn in saved["evaluators"].items():
            checker.EVALUATORS[prop] = tracer.wrap(f"checker.eval.{prop.value}", fn)
        for name, fn in saved["report"].items():
            setattr(report, name, tracer.wrap(f"report.{name}", fn))
        yield tracer
    finally:
        for name, fn in saved["checker"].items():
            setattr(checker, name, fn)
        checker.EVALUATORS.update(saved["evaluators"])
        for name, fn in saved["report"].items():
            setattr(report, name, fn)
