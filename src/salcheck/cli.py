"""Command-line frontend: ``salcheck list | check | render | oracle | demo``.

Exit codes: 0 all pass, 1 a genuine counterexample was found (replayed before
exiting), 2 usage or input error.  All randomness flows from ``--seed``; when
omitted, the ``SALCHECK_SEED`` environment variable is consulted, and failing
that a seed is picked and printed so the run stays reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

from .catalog import CATALOG, catalog_get
from .checker import (
    BoundError, CheckConfig, EVALUATORS, ORACLE_EVENT_CAP, OracleScopeError, PropertyId,
    bottom_up_instances, oracle_sweep, run_suite,
)
from .history import Recipe, ApplyOp, JoinOp, run_recipe
from .model import Add, Dec, Delete, Disable, Enable, Inc, Insert, MapSet, Rem, Write
from .report import (
    RenderModel, ReportFormatError, equation_panels, event_to_dict, graph_to_dict,
    model_from_execution, model_from_report_dict, parse_report, recipe_from_dict,
    render_dot, render_html, render_json, render_text, suite_report_to_dict,
)


class UsageError(Exception):
    pass


def _entry(rdt_id: str):
    try:
        return catalog_get(rdt_id)
    except KeyError:
        known = ", ".join(e.id for e in sorted(CATALOG, key=lambda e: e.id))
        raise UsageError(f"unknown rdt id {rdt_id!r}; known ids: {known}")


def _given_seed(value: int | None) -> int | None:
    """The seed from ``--seed``, else from ``SALCHECK_SEED``; ``None`` for neither."""
    if value is not None:
        return value
    env = os.environ.get("SALCHECK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"SALCHECK_SEED must be an integer, got {env!r}")
    return None


def _parse_props(raw: str | None) -> tuple[PropertyId, ...] | None:
    if raw is None:
        return None
    by_name = {p.value: p for p in PropertyId}
    props = []
    for name in raw.split(","):
        name = name.strip()
        if name not in by_name:
            valid = ", ".join(sorted(by_name))
            raise UsageError(f"unknown property {name!r}; valid: {valid}")
        if by_name[name] in props:
            raise UsageError(f"property {name} listed twice")
        props.append(by_name[name])
    if not props:
        raise UsageError("--props given but empty")
    return tuple(props)


# ---------------------------------------------------------------------------
# Commands.


def cmd_list(args) -> int:
    entries = sorted(CATALOG, key=lambda e: e.id)
    if args.json:
        doc = [{"id": e.id, "kind": e.kind, "known_buggy": e.known_buggy,
                "notes": e.notes} for e in entries]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for e in entries:
        marker = "  KNOWN-BUGGY" if e.known_buggy else ""
        print(f"{e.id:<18} {e.kind}{marker}")
    return 0


def cmd_check(args) -> int:
    entry = _entry(args.rdt)
    seed = _given_seed(args.seed)
    props = _parse_props(args.props)
    cfg = CheckConfig(
        tests_per_property=args.tests,
        seed=random.SystemRandom().randrange(2**32) if seed is None else seed,
        max_events=args.max_events,
        replica_count=args.replicas,
        exhaustive_below=min(5, args.max_events),
        shrink_budget=args.shrink_budget,
    )
    try:  # before run_suite, so that a spec's own ValueError keeps its text
        cfg.validate()
    except BoundError as exc:
        flags = {"tests_per_property": "--tests", "max_events": "--max-events",
                 "replica_count": "--replicas", "shrink_budget": "--shrink-budget",
                 "seed": "--seed" if args.seed is not None else "SALCHECK_SEED"}
        raise UsageError(f"{flags.get(exc.name, exc.name)} {exc.rule}, got {exc.value}") from None
    if seed is None:  # printed only for a run that goes ahead, so that it can be repeated
        print(f"picked seed: {cfg.seed}")
    report = run_suite(entry, cfg, properties=props)
    for v in report.verdicts:
        print(f"{v.property.value:<22} {v.status:<8} ({v.tests} tests)")
    # The written document is the one source of the replay and the view, so
    # exit 1 certifies the artifact on disk.
    doc = suite_report_to_dict(report)
    failing = doc["property"]
    out_path = args.out
    if out_path is None and failing is not None:
        out_path = f"{entry.id}-report.json"
    if out_path is not None:
        Path(out_path).write_text(render_json(doc) + "\n")
        print(f"report written to {out_path}")
    if failing is None:
        return 0
    recipe = recipe_from_dict(doc["counterexample"]["recipe"], "$.counterexample.recipe")
    if EVALUATORS[PropertyId(failing)](entry.spec, run_recipe(entry.spec, recipe)) is None:
        print("internal error: counterexample does not replay", file=sys.stderr)
        return 2
    print()
    print(render_text(model_from_report_dict(doc)), end="")
    return 1


def cmd_render(args) -> int:
    doc = parse_report(Path(args.report).read_text())
    model = model_from_report_dict(doc)
    rendered = {"text": render_text, "dot": render_dot, "html": render_html}[args.format](model)
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return 0


def cmd_oracle(args) -> int:
    entry = _entry(args.rdt)
    try:
        result = oracle_sweep(entry, args.max_events)
    except OracleScopeError:
        raise UsageError(f"--max-events must be <= {ORACLE_EVENT_CAP}") from None
    except BoundError as exc:  # --max-events is the one bound not at its default
        raise UsageError(f"--max-events {exc.rule}, got {args.max_events}") from None
    print(f"histories checked: {result.histories}")
    print(f"witnesses found: {result.witnesses}")
    if result.failure is not None:
        print()
        print("unlinearizable history:")
        print(render_text(model_from_execution(result.failure)), end="")
        return 1
    return 0


DEMO_RECIPES: dict[str, Recipe] = {
    # Fork, cross-merge, then a late disable: the shape that resurrects a
    # dead enable under the counter-based flag merge.
    "ew-flag-buggy": Recipe((ApplyOp(0, Enable()), ApplyOp(1, Enable()),
                             ApplyOp(1, Disable()), JoinOp(1, 0),
                             ApplyOp(0, Disable()))),
    "ew-flag-fixed": Recipe((ApplyOp(0, Enable()), ApplyOp(1, Enable()),
                             ApplyOp(1, Disable()), JoinOp(1, 0),
                             ApplyOp(0, Disable()))),
    # Concurrent add and remove of the same element: the add wins.
    "or-set-mrdt": Recipe((ApplyOp(1, Add(3)), ApplyOp(0, Rem(3)))),
    "or-set-eff-mrdt": Recipe((ApplyOp(1, Add(3)), ApplyOp(0, Rem(3)))),
    "or-set-crdt": Recipe((ApplyOp(1, Add(3)), ApplyOp(0, Rem(3)))),
    "rga-mrdt": Recipe((ApplyOp(1, Insert(3)), ApplyOp(0, Delete(3)))),
    "ctr-inc-mrdt": Recipe((ApplyOp(0, Inc()), ApplyOp(1, Inc()))),
    "ctr-inc-crdt": Recipe((ApplyOp(0, Inc()), ApplyOp(1, Inc()))),
    "pn-ctr-mrdt": Recipe((ApplyOp(0, Inc()), ApplyOp(1, Dec()))),
    "pn-ctr-crdt": Recipe((ApplyOp(0, Inc()), ApplyOp(1, Dec()))),
    "g-set-mrdt": Recipe((ApplyOp(0, Add(1)), ApplyOp(1, Add(2)))),
    "g-map-mrdt": Recipe((ApplyOp(0, MapSet(1, Add(1))), ApplyOp(1, MapSet(1, Add(2))))),
    "mv-reg-mrdt": Recipe((ApplyOp(0, Write(1)), ApplyOp(1, Write(2)))),
    "mv-reg-crdt": Recipe((ApplyOp(0, Write(1)), ApplyOp(1, Write(2)))),
}


def demo_model(entry, ex) -> RenderModel:
    base = model_from_execution(ex, f"{entry.id}: demo trace")
    if entry.id not in ("ew-flag-buggy", "ew-flag-fixed"):
        return base
    # Flags additionally exhibit the bottom-up peel at the final merge: the
    # buggy entry shows the two sides disagreeing.
    sink_insts = [i for i in bottom_up_instances(entry.spec, ex)
                  if i.merge_node == ex.graph.sink]
    if not sink_insts:
        return base
    inst = sink_insts[-1]
    panels = equation_panels(graph_to_dict(ex), inst.merge_node, event_to_dict(inst.event),
                             inst.lhs_str, inst.rhs_str)
    mismatch = not inst.holds
    title = base.title + (" (anomalous merge)" if mismatch else " (merge agrees)")
    return RenderModel(title, base.nodes, base.edges,
                       replace(base.panels[0], title="History"), panels, mismatch)


def cmd_demo(args) -> int:
    entry = _entry(args.rdt)
    recipe = DEMO_RECIPES.get(entry.id)
    if recipe is None:
        raise UsageError(f"no bundled demo for {entry.id}")
    ex = run_recipe(entry.spec, recipe)
    model = demo_model(entry, ex)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = render_text(model)
    html_path = out_dir / f"{entry.id}-demo.html"
    text_path = out_dir / f"{entry.id}-demo.txt"
    html_path.write_text(render_html(model))
    text_path.write_text(text)
    print(text, end="")
    print(f"wrote {html_path}")
    print(f"wrote {text_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser.


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="salcheck",
        description="Correctness workbench for replicated data types.")
    sub = p.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("list", help="list catalog entries")
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(func=cmd_list)

    cp = sub.add_parser("check", help="run the property suite on one entry")
    cp.add_argument("rdt")
    cp.add_argument("--tests", type=int, default=1000)
    cp.add_argument("--seed", type=int, default=None)
    cp.add_argument("--max-events", type=int, default=8)
    cp.add_argument("--replicas", type=int, default=2)
    cp.add_argument("--shrink-budget", type=int, default=500)
    cp.add_argument("--props", default=None,
                    help="comma-separated property names (default: all)")
    cp.add_argument("--out", default=None, help="write the JSON report here")
    cp.set_defaults(func=cmd_check)

    rp = sub.add_parser("render", help="render a JSON report")
    rp.add_argument("report")
    rp.add_argument("--format", choices=("text", "dot", "html"), default="text")
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_render)

    op = sub.add_parser("oracle", help="exhaustive linearizability sweep")
    op.add_argument("rdt")
    op.add_argument("--max-events", type=int, default=4)
    op.set_defaults(func=cmd_oracle)

    dp = sub.add_parser("demo", help="run a bundled demo recipe")
    dp.add_argument("rdt")
    dp.add_argument("--out-dir", default=".")
    dp.set_defaults(func=cmd_demo)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReportFormatError as exc:
        print(f"error: report does not match {json.dumps('salcheck/1')}: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
