"""Rendering of executions, suite reports, and counterexamples.

All renderers are pure string builders over a ``RenderModel`` that already
contains every display string (node states come from the execution's trace,
never recomputed here), so identical models give byte-identical text, DOT,
HTML, and JSON.  The JSON format is versioned as ``salcheck/2`` and round-trips
losslessly through :func:`parse_report`.  It stores each fact once: nothing
that ``build`` derives from a counterexample's recipe (node ids, labels,
edges, events) is written, only what the recipe cannot give: each node's
display state, and the peeled event's timestamp.

Every model that shows a version graph walks a ``VersionGraph``: an
execution's, or the one ``build`` makes of a report's recipe; so ``salcheck
check`` and ``salcheck render`` of the report it wrote agree.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, fields

from .catalog import catalog_get
from .checker import CheckConfig, CounterexampleReport, PropertyId, SuiteReport
from .history import ApplyOp, Execution, JoinOp, Recipe, RecipeError, VersionGraph, build
from .model import PAYLOAD_KINDS, Event, OpPayload, event_label


class ReportFormatError(ValueError):
    """A report document does not match the ``SCHEMA`` schema."""


SCHEMA = "salcheck/2"


# ---------------------------------------------------------------------------
# Render model.


@dataclass(frozen=True)
class RenderNode:
    label: str
    state: str


@dataclass(frozen=True)
class RenderEdge:
    src: str
    dst: str
    kind: str  # "apply", "merge-left", "merge-right" or "lca"
    op: str | None = None


@dataclass(frozen=True)
class RenderStep:
    pre: str | None
    op: str | None
    post: str

    def text(self) -> str:
        if self.pre is None:
            return self.post
        if self.op is None:
            return f"{self.pre} --> {self.post}"
        return f"{self.pre} --{self.op}--> {self.post}"


@dataclass(frozen=True)
class Panel:
    title: str
    steps: tuple[RenderStep, ...]
    final: str


@dataclass(frozen=True)
class RenderModel:
    title: str
    nodes: tuple[RenderNode, ...]
    edges: tuple[RenderEdge, ...]
    lca_panel: Panel | None
    panels: tuple[Panel, ...]
    mismatch: bool


# ---------------------------------------------------------------------------
# Text renderer.


def render_text(model: RenderModel) -> str:
    out = [model.title, "=" * len(model.title)]
    sections = ([] if model.lca_panel is None else [model.lca_panel]) + list(model.panels)
    for panel in sections:
        out.append("")
        out.append(f"{panel.title}:")
        for step in panel.steps:
            out.append(f"  {step.text()}")
    if model.mismatch and len(model.panels) == 2:
        a, b = model.panels
        out.append("")
        out.append(f"mismatch: {a.final} != {b.final}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# DOT renderer.


def _dot_quote(s: str) -> str:
    # Display strings never contain backslashes, so only quotes need escaping;
    # literal \n sequences pass through as DOT line breaks.
    return '"' + s.replace('"', "'") + '"'


def render_dot(model: RenderModel) -> str:
    lines = [
        "digraph salcheck {",
        "  rankdir=TB;",
        "  node [shape=box, style=filled, fillcolor=lightblue, fontname=\"monospace\"];",
    ]
    for node in model.nodes:
        label = _dot_quote(node.label + "\\n" + node.state)
        lines.append(f"  {_dot_quote(node.label)} [label={label}];")
    if model.nodes:
        lines.append(f"  {{ rank=min; {_dot_quote(model.nodes[0].label)}; }}")
    for i, edge in enumerate(model.edges):
        if edge.kind == "apply":
            op_id = f"op{i}"
            lines.append(f"  {_dot_quote(op_id)} [shape=box, fillcolor=yellow, "
                         f"label={_dot_quote(edge.op or '')}];")
            lines.append(f"  {_dot_quote(edge.src)} -> {_dot_quote(op_id)} [arrowhead=none];")
            lines.append(f"  {_dot_quote(op_id)} -> {_dot_quote(edge.dst)};")
        elif edge.kind == "lca":
            lines.append(f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)} "
                         f"[style=dashed, label=\"lca\"];")
        else:
            side = "L" if edge.kind == "merge-left" else "R"
            lines.append(f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)} "
                         f"[label=\"{side}\"];")
    if len(model.panels) == 2:
        for ci, panel in enumerate(model.panels):
            color = "mistyrose" if model.mismatch else "lightgrey"
            body = "\\n".join(step.text().replace('"', "'") for step in panel.steps)
            lines.append(f"  subgraph cluster_{ci} {{")
            lines.append(f"    label={_dot_quote(panel.title)};")
            lines.append(f"    {_dot_quote(panel.title + '_body')} "
                         f"[fillcolor={color}, label={_dot_quote(body)}];")
            lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# HTML renderer.


_CSS = """
body { font-family: monospace; background: #fafafa; margin: 1.5em; }
h1 { font-size: 1.2em; }
.trace { margin: 0.8em 0; }
.step { margin: 0.25em 0; }
.state { background: #cfe5ff; border: 1px solid #5b8bbf; padding: 2px 6px;
         border-radius: 3px; display: inline-block; }
.op { background: #fff3b0; border: 1px solid #c2a83a; padding: 2px 6px;
      border-radius: 3px; display: inline-block; margin: 0 0.4em; }
.arrow { color: #555; margin: 0 0.3em; }
.panels { display: flex; gap: 1.5em; align-items: flex-start; }
.panel { border: 1px solid #bbb; background: #fff; padding: 0.8em 1em; }
.panel h2 { font-size: 1em; margin: 0 0 0.6em 0; }
.final { margin-top: 0.6em; font-weight: bold; }
.bad { background: #ffd3d6; border: 1px solid #c04a52; padding: 2px 6px;
       border-radius: 3px; display: inline-block; }
.note { color: #a33; margin-top: 0.6em; }
""".strip()


def _esc(s: str) -> str:
    return _html.escape(s, quote=True)


def _html_step(step: RenderStep, bad_final: bool = False) -> str:
    post_cls = "bad" if bad_final else "state"
    if step.pre is None:
        return f'<div class="step"><span class="{post_cls}">{_esc(step.post)}</span></div>'
    parts = [f'<span class="state">{_esc(step.pre)}</span>']
    if step.op is not None:
        parts.append(f'<span class="op">{_esc(step.op)}</span>')
    parts.append('<span class="arrow">&rarr;</span>')
    parts.append(f'<span class="{post_cls}">{_esc(step.post)}</span>')
    return f'<div class="step">{"".join(parts)}</div>'


def render_html(model: RenderModel) -> str:
    out = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>{_esc(model.title)}</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        f"<h1>{_esc(model.title)}</h1>",
    ]
    if model.lca_panel is not None:
        out.append(f"<h2>{_esc(model.lca_panel.title)}</h2>")
        out.append('<div class="trace">')
        out.extend(_html_step(s) for s in model.lca_panel.steps)
        out.append("</div>")
    out.append('<div class="panels">')
    for panel in model.panels:
        out.append('<div class="panel">')
        out.append(f"<h2>{_esc(panel.title)}</h2>")
        last = len(panel.steps) - 1
        for i, step in enumerate(panel.steps):
            out.append(_html_step(step, bad_final=model.mismatch and i == last))
        cls = "bad" if model.mismatch else "state"
        out.append(f'<div class="final">final: <span class="{cls}">'
                   f"{_esc(panel.final)}</span></div>")
        out.append("</div>")
    out.append("</div>")
    if model.mismatch and len(model.panels) == 2:
        a, b = model.panels
        out.append(f'<div class="note">mismatch: {_esc(a.final)} &ne; {_esc(b.final)}</div>')
    out.append("</body></html>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON: payload/event/recipe/config serialization.


def payload_to_dict(op: OpPayload) -> dict:
    """``{"kind": ..., <field>: ...}``, fields in declaration order and a
    nested payload as its own dict."""
    d = {"kind": op.kind}
    for name, sub in op.layout:
        value = getattr(op, name)
        d[name] = value if sub is None else payload_to_dict(value)
    return d


def payload_from_dict(d: dict, path: str = "op") -> OpPayload:
    kind = _require(d, "kind", str, path)
    cls = PAYLOAD_KINDS.get(kind)
    if cls is None:
        raise ReportFormatError(f"{path}.kind: unknown payload kind {kind!r}")
    _refuse_unknown(d, ("kind", *(name for name, _ in cls.layout)), path)
    # A nested field accepts any kind; the spec's apply refuses what it cannot take.
    return cls(*(_require(d, name, int, path) if sub is None
                 else payload_from_dict(_require(d, name, dict, path), f"{path}.{name}")
                 for name, sub in cls.layout))


def recipe_to_dict(recipe: Recipe) -> dict:
    steps = []
    for s in recipe.steps:
        if isinstance(s, ApplyOp):
            steps.append({"type": "apply", "replica": s.replica,
                          "op": payload_to_dict(s.payload)})
        else:
            steps.append({"type": "join", "target": s.target, "source": s.source})
    return {"replicas": recipe.replicas, "steps": steps}


def recipe_from_dict(d: dict, path: str = "recipe") -> Recipe:
    replicas = _require(d, "replicas", int, path)
    _refuse_unknown(d, ("replicas", "steps"), path)
    raw = _require(d, "steps", list, path)
    steps: list = []
    for i, sd in enumerate(raw):
        spath = f"{path}.steps[{i}]"
        stype = _require(sd, "type", str, spath)
        if stype == "apply":
            _refuse_unknown(sd, ("type", "replica", "op"), spath)
            steps.append(ApplyOp(_require(sd, "replica", int, spath),
                                 payload_from_dict(_require(sd, "op", dict, spath),
                                                   f"{spath}.op")))
        elif stype == "join":
            _refuse_unknown(sd, ("type", "target", "source"), spath)
            steps.append(JoinOp(_require(sd, "target", int, spath),
                                _require(sd, "source", int, spath)))
        else:
            raise ReportFormatError(f"{spath}.type: unknown step type {stype!r}")
    return Recipe(tuple(steps), replicas)


# Each CheckConfig field is an int or, like the literal pool, a tuple of ints
# (a JSON list); its default says which.
_CONFIG_FIELDS = tuple((f.name, isinstance(f.default, tuple)) for f in fields(CheckConfig))
_CONFIG_KEYS = tuple(name for name, _ in _CONFIG_FIELDS)


def config_to_dict(cfg: CheckConfig) -> dict:
    return {name: list(getattr(cfg, name)) if is_list else getattr(cfg, name)
            for name, is_list in _CONFIG_FIELDS}


def config_from_dict(d: dict, path: str = "config") -> CheckConfig:
    values = {}
    for name, is_list in _CONFIG_FIELDS:
        if not is_list:
            values[name] = _require(d, name, int, path)
            continue
        items = _require(d, name, list, path)
        for i, item in enumerate(items):
            if not isinstance(item, int) or isinstance(item, bool):
                raise ReportFormatError(f"{path}.{name}[{i}]: expected int")
        values[name] = tuple(items)
    _refuse_unknown(d, _CONFIG_KEYS, path)
    return CheckConfig(**values)


def counterexample_to_dict(cr: CounterexampleReport) -> dict:
    v, ex = cr.violation, cr.shrunk
    out = {
        "recipe": recipe_to_dict(ex.graph.recipe),
        "states": [ex.spec.format_state(state) for state in ex.states],
        "lhs": v.lhs_str,
        "rhs": v.rhs_str,
        "shrink_steps": cr.shrink_steps,
        "minimal": cr.minimal,
    }
    if v.linearizations_tried is not None:
        out["linearizations_tried"] = v.linearizations_tried
    if v.node is not None:
        out["node"] = v.node
    if v.event is not None:
        out["event"] = v.event.ts
    return out


def suite_report_to_dict(sr: SuiteReport) -> dict:
    verdicts = []
    for v in sr.verdicts:
        vd = {"property": v.property.value, "status": v.status, "tests": v.tests}
        if v.counterexample is not None:
            vd["counterexample"] = counterexample_to_dict(v.counterexample)
        verdicts.append(vd)
    return {"schema": SCHEMA, "rdt": sr.rdt_id, "config": config_to_dict(sr.config),
            "verdicts": verdicts}


def render_json(report: SuiteReport | dict) -> str:
    if isinstance(report, SuiteReport):
        doc = suite_report_to_dict(report)
    else:
        validate_report(report)
        doc = report
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Parsing and validation with field-path errors.


def _require(d: dict, key: str, typ, path: str):
    if not isinstance(d, dict):
        raise ReportFormatError(f"{path}: expected object")
    if key not in d:
        raise ReportFormatError(f"{path}.{key}: missing")
    val = d[key]
    if not isinstance(val, typ) or typ is int and isinstance(val, bool):
        raise ReportFormatError(f"{path}.{key}: expected {typ.__name__}")
    return val


def _refuse_unknown(d: dict, known, path: str) -> None:
    """Refuse a key of ``d`` outside ``known``: a report states each fact once,
    under the one key this schema gives it."""
    for key in d:
        if key not in known:
            raise ReportFormatError(f"{path}.{key}: unknown key")


def _count(d: dict, key: str, path: str) -> int:
    if (val := _require(d, key, int, path)) < 0:
        raise ReportFormatError(f"{path}.{key}: must be non-negative")
    return val


_PROPERTY_NAMES = {p.value for p in PropertyId}
_STATUSES = {"pass", "fail", "vacuous"}
_REPORT_KEYS = ("schema", "rdt", "config", "verdicts")
_VERDICT_KEYS = ("property", "status", "tests", "counterexample")
_COUNTEREXAMPLE_KEYS = ("recipe", "states", "lhs", "rhs", "shrink_steps", "minimal",
                        "linearizations_tried", "node", "event")


def _validate_counterexample(d: dict, path: str, payload_types: tuple[type, ...] | None) -> None:
    """Refuse, among others, a recipe that cannot be replayed: a step ``build``
    refuses, or a payload outside ``payload_types`` (``None``: the rdt is not
    in the catalog, so its domain is unknown); and other than one state per
    node of the recipe's graph, so that the graph drawn is the history a
    replay checks."""
    rpath = f"{path}.recipe"
    _refuse_unknown(d, _COUNTEREXAMPLE_KEYS, path)
    recipe = recipe_from_dict(_require(d, "recipe", dict, path), rpath)
    try:
        g = build(recipe)
    except RecipeError as exc:
        where = rpath if exc.step is None else f"{rpath}.steps[{exc.step}]"
        raise ReportFormatError(f"{where}: {exc}") from None
    for i, step in enumerate(recipe.steps):
        if (payload_types is not None and isinstance(step, ApplyOp)
                and not isinstance(step.payload, payload_types)):
            raise ReportFormatError(
                f"{rpath}.steps[{i}].op.kind: {step.payload.kind!r} is outside the rdt's payloads")
    states = _require(d, "states", list, path)
    if len(states) != len(g.nodes):
        raise ReportFormatError(
            f"{path}.states: {len(states)} states, the recipe's graph has {len(g.nodes)} nodes")
    for i, state in enumerate(states):
        if not isinstance(state, str):
            raise ReportFormatError(f"{path}.states[{i}]: expected str")
    _require(d, "lhs", str, path)
    _require(d, "rhs", str, path)
    _count(d, "shrink_steps", path)
    _require(d, "minimal", bool, path)
    if "linearizations_tried" in d:
        _count(d, "linearizations_tried", path)
    if "node" in d and _require(d, "node", int, path) not in range(len(g.nodes)):
        raise ReportFormatError(f"{path}.node: not a node of the recipe's graph")
    if "event" in d:
        if _require(d, "event", int, path) not in range(1, len(g.events) + 1):
            raise ReportFormatError(f"{path}.event: not a timestamp of the recipe's events")
        if _peel(g, d.get("node"), g.events[d["event"] - 1]) is None:
            raise ReportFormatError(f"{path}.event: not applied into a side of merge node")


def validate_report(d) -> None:
    if not isinstance(d, dict):
        raise ReportFormatError("$: expected object")
    schema = _require(d, "schema", str, "$")
    if schema != SCHEMA:
        raise ReportFormatError(f"$.schema: expected {SCHEMA!r}, got {schema!r}")
    _refuse_unknown(d, _REPORT_KEYS, "$")
    rdt = _require(d, "rdt", str, "$")
    try:
        payload_types = catalog_get(rdt).spec.payload_types
    except KeyError:
        payload_types = None
    cfg = config_from_dict(_require(d, "config", dict, "$"), "$.config")
    try:
        cfg.validate()
    except ValueError as exc:
        raise ReportFormatError(f"$.config: {exc}") from None
    verdicts = _require(d, "verdicts", list, "$")
    for i, v in enumerate(verdicts):
        vpath = f"$.verdicts[{i}]"
        name = _require(v, "property", str, vpath)
        _refuse_unknown(v, _VERDICT_KEYS, vpath)
        if name not in _PROPERTY_NAMES:
            raise ReportFormatError(f"{vpath}.property: unknown property {name!r}")
        status = _require(v, "status", str, vpath)
        if status not in _STATUSES:
            raise ReportFormatError(f"{vpath}.status: expected one of {sorted(_STATUSES)}")
        _count(v, "tests", vpath)
        if ("counterexample" in v) != (status == "fail"):
            raise ReportFormatError(f"{vpath}.counterexample: " + (
                "missing" if status == "fail" else f"present in a {status!r} verdict"))
        if "counterexample" in v:
            _validate_counterexample(_require(v, "counterexample", dict, vpath),
                                     f"{vpath}.counterexample", payload_types)


def first_failing_verdict(d: dict) -> dict | None:
    """The verdict of report ``d`` that ``check`` replays and ``render`` draws:
    the first whose status is ``fail``, or ``None`` when none fails."""
    return next((v for v in d["verdicts"] if v["status"] == "fail"), None)


def parse_report(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"$: not valid JSON ({exc.msg} at line {exc.lineno})")
    validate_report(doc)
    return doc


# ---------------------------------------------------------------------------
# Render models, all read from a ``VersionGraph``.


def _read_graph(g: VersionGraph, states: list[str]) -> tuple[
        tuple[RenderNode, ...], tuple[RenderEdge, ...], tuple[RenderStep, ...], str]:
    """Nodes, edges, history steps and sink state of graph ``g`` whose node
    ``n`` shows ``states[n]``.

    Each node but the root gets one step, in node order: ``parent --op--> node``
    for an apply node, ``merge(left, right | lca=l) --> node`` for a merge.
    """
    label = [f"v{n}" for n in range(len(g.nodes))]
    tag = [f"{name} [{state}]" for name, state in zip(label, states)]
    edges: list[RenderEdge] = []
    steps: list[RenderStep] = []
    for n, info in enumerate(g.nodes):
        if info[0] == "apply":
            _, parent, ev = info
            op = event_label(ev)
            edges.append(RenderEdge(label[parent], label[n], "apply", op))
            steps.append(RenderStep(tag[parent], op, tag[n]))
        elif info[0] == "merge":
            _, left, right, lca = info
            edges += (RenderEdge(label[left], label[n], "merge-left"),
                      RenderEdge(label[right], label[n], "merge-right"),
                      RenderEdge(label[lca], label[n], "lca"))
            steps.append(RenderStep(f"merge({label[left]}, {label[right]} | lca={label[lca]})",
                                    None, tag[n]))
    return (tuple(map(RenderNode, label, states)), tuple(edges),
            tuple(steps) or (RenderStep(None, None, tag[0]),), states[g.sink])


def _peel(g: VersionGraph, node: int | None, event: Event) -> tuple[int, int, int, int] | None:
    """``(a', a, b, lca)`` when ``node`` merges ``a`` and ``b`` over ``lca`` and
    ``a`` applies ``event`` to ``a'``; ``None`` when no side of ``node`` does."""
    if node is None or g.nodes[node][0] != "merge":
        return None
    _, left, right, lca = g.nodes[node]
    for a, b in ((left, right), (right, left)):
        info = g.nodes[a]
        if info[0] == "apply" and info[2] == event:
            return info[1], a, b, lca
    return None


def equation_panels(g: VersionGraph, node: int | None, event: Event | None,
                    lhs: str, rhs: str) -> tuple[Panel, Panel]:
    """The LHS/RHS panels of a violation at ``node`` of graph ``g``.

    Given the peeled ``event`` (as for BottomUpStep), they show the two sides
    of the bottom-up equation at merge ``node``: the merge of the branch
    holding ``event`` with the other branch, against the merge without
    ``event`` with ``event`` applied on top.  Otherwise they show the computed
    and the expected state.
    """
    if event is None:
        where = f" at v{node}" if node is not None else ""
        return (Panel("LHS", (RenderStep(None, None, f"computed{where}: [{lhs}]"),), lhs),
                Panel("RHS", (RenderStep(None, None, f"expected{where}: [{rhs}]"),), rhs))
    a_prime, a, b, lca = (f"v{n}" for n in _peel(g, node, event))
    return (Panel("LHS", (RenderStep(f"merge({a}, {b} | lca={lca})", None,
                                     f"v{node} [{lhs}]"),), lhs),
            Panel("RHS", (RenderStep(f"merge({a_prime}, {b} | lca={lca})",
                                     event_label(event), f"[{rhs}]"),), rhs))


def model_from_execution(ex: Execution, title: str | None = None) -> RenderModel:
    states = [ex.spec.format_state(state) for state in ex.states]
    nodes, edges, steps, final = _read_graph(ex.graph, states)
    name = title if title is not None else f"{ex.spec.name}: execution trace"
    return RenderModel(name, nodes, edges, None, (Panel("Trace", steps, final),), False)


def model_from_suite(sr: SuiteReport) -> RenderModel:
    return model_from_report_dict(suite_report_to_dict(sr))


def model_from_report_dict(d: dict) -> RenderModel:
    """The render model of a report document: its verdict list when no verdict
    fails, else the first failing verdict's counterexample history with the
    LHS/RHS panels, or the unreplayable trace for LinearizationExists."""
    validate_report(d)
    failing = first_failing_verdict(d)
    if failing is None:
        steps = tuple(RenderStep(None, None,
                                 f"{v['property']}: {v['status']} ({v['tests']} tests)")
                      for v in d["verdicts"])
        return RenderModel(f"{d['rdt']}: suite passed (seed {d['config']['seed']})",
                           (), (), None, (Panel("Verdicts", steps, "suite passed"),), False)
    prop, cx = failing["property"], failing["counterexample"]
    g = build(recipe_from_dict(cx["recipe"]))
    nodes, edges, steps, final = _read_graph(g, cx["states"])
    title = (f"{d['rdt']}: {prop} violation "
             f"(shrunk to {len(g.events)} events in {cx['shrink_steps']} steps)")
    if prop == PropertyId.LINEARIZATION_EXISTS.value:
        tried = f" (tried {cx['linearizations_tried']})" if "linearizations_tried" in cx else ""
        note = RenderStep(None, None, f"!! no admissible order replays to [{cx['lhs']}]{tried}")
        return RenderModel(title, nodes, edges, None,
                           (Panel("Trace", steps + (note,), final),), True)
    event = g.events[cx["event"] - 1] if "event" in cx else None
    panels = equation_panels(g, cx.get("node"), event, cx["lhs"], cx["rhs"])
    return RenderModel(title, nodes, edges, Panel("History", steps, final), panels, True)


__all__ = [
    "ReportFormatError", "SCHEMA",
    "RenderNode", "RenderEdge", "RenderStep", "Panel", "RenderModel",
    "equation_panels", "model_from_execution", "model_from_suite", "model_from_report_dict",
    "render_text", "render_dot", "render_html", "render_json",
    "payload_to_dict", "payload_from_dict", "recipe_to_dict", "recipe_from_dict",
    "config_to_dict", "config_from_dict",
    "counterexample_to_dict", "suite_report_to_dict",
    "first_failing_verdict", "parse_report", "validate_report",
]
