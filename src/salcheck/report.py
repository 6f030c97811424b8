"""Rendering of executions, suite reports, and counterexamples.

All renderers are pure string builders over a ``RenderModel`` that already
contains every display string (node states come from the execution's trace,
never recomputed here), so identical models give byte-identical text, DOT,
HTML, and JSON.  The JSON format is versioned as ``salcheck/1`` and round-trips
losslessly through :func:`parse_report`.

Every model that shows a version graph is read from the document's
``{nodes, edges}`` form (:func:`graph_to_dict`), so ``salcheck check`` and
``salcheck render`` of the report it wrote show the same view.
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
    """A report document does not match the salcheck/1 schema."""


SCHEMA = "salcheck/1"
EDGE_KINDS = ("apply", "merge-left", "merge-right", "lca")


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
    kind: str  # one of EDGE_KINDS
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
    # A nested field accepts any kind; the spec's apply refuses what it cannot take.
    return cls(*(_require(d, name, int, path) if sub is None
                 else payload_from_dict(_require(d, name, dict, path), f"{path}.{name}")
                 for name, sub in cls.layout))


def event_to_dict(ev: Event) -> dict:
    return {"ts": ev.ts, "replica": ev.replica, "op": payload_to_dict(ev.op)}


def event_from_dict(d: dict, path: str = "event") -> Event:
    return Event(_require(d, "ts", int, path), _require(d, "replica", int, path),
                 payload_from_dict(_require(d, "op", dict, path), f"{path}.op"))


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
    raw = _require(d, "steps", list, path)
    steps: list = []
    for i, sd in enumerate(raw):
        spath = f"{path}.steps[{i}]"
        if not isinstance(sd, dict):
            raise ReportFormatError(f"{spath}: expected object")
        stype = _require(sd, "type", str, spath)
        if stype == "apply":
            steps.append(ApplyOp(_require(sd, "replica", int, spath),
                                 payload_from_dict(_require(sd, "op", dict, spath),
                                                   f"{spath}.op")))
        elif stype == "join":
            steps.append(JoinOp(_require(sd, "target", int, spath),
                                _require(sd, "source", int, spath)))
        else:
            raise ReportFormatError(f"{spath}.type: unknown step type {stype!r}")
    return Recipe(tuple(steps), replicas)


# Each CheckConfig field is an int or, like the literal pool, a tuple of ints
# (a JSON list); its default says which.
_CONFIG_FIELDS = tuple((f.name, isinstance(f.default, tuple)) for f in fields(CheckConfig))


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
    return CheckConfig(**values)


def _graph_edges(g: VersionGraph) -> list[dict]:
    """The ``edges`` list of a version graph's ``{nodes, edges}`` form."""
    edges = []
    for n, info in enumerate(g.nodes):
        if info[0] == "apply":
            _, parent, ev = info
            edges.append({"from": parent, "to": n, "kind": "apply",
                          "event": event_to_dict(ev)})
        elif info[0] == "merge":
            _, left, right, lca = info
            edges.append({"from": left, "to": n, "kind": "merge-left"})
            edges.append({"from": right, "to": n, "kind": "merge-right"})
            edges.append({"from": lca, "to": n, "kind": "lca"})
    return edges


def graph_to_dict(ex: Execution) -> dict:
    """The ``{nodes, edges}`` form of an execution's version graph, with each
    node's display state."""
    nodes = [{"id": n, "label": f"v{n}", "state": ex.spec.format_state(ex.states[n])}
             for n in range(len(ex.graph.nodes))]
    return {"nodes": nodes, "edges": _graph_edges(ex.graph)}


def counterexample_to_dict(cr: CounterexampleReport) -> dict:
    v = cr.violation
    out = {
        "recipe": recipe_to_dict(cr.shrunk.graph.recipe),
        **graph_to_dict(cr.shrunk),
        "lhs": v.lhs_str,
        "rhs": v.rhs_str,
        "shrink_steps": cr.shrink_steps,
    }
    if v.linearizations_tried is not None:
        out["linearizations_tried"] = v.linearizations_tried
    if v.node is not None:
        out["node"] = v.node
    if v.event is not None:
        out["event"] = event_to_dict(v.event)
    return out


def suite_report_to_dict(sr: SuiteReport) -> dict:
    verdicts = []
    for v in sr.verdicts:
        vd = {"property": v.property.value, "status": v.status, "tests": v.tests}
        if v.counterexample is not None:
            vd["counterexample"] = counterexample_to_dict(v.counterexample)
        verdicts.append(vd)
    failing = sr.first_failure()
    out = {
        "schema": SCHEMA,
        "rdt": sr.rdt_id,
        "property": failing.property.value if failing else None,
        "seed": sr.seed,
        "config": config_to_dict(sr.config),
        "verdicts": verdicts,
    }
    if failing is not None and failing.counterexample is not None:
        out["counterexample"] = counterexample_to_dict(failing.counterexample)
    return out


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
    if typ is int and isinstance(val, bool):
        raise ReportFormatError(f"{path}.{key}: expected {typ.__name__}")
    if not isinstance(val, typ):
        raise ReportFormatError(f"{path}.{key}: expected {typ.__name__}")
    return val


_PROPERTY_NAMES = {p.value for p in PropertyId}
_STATUSES = {"pass", "fail", "vacuous"}


def _validate_counterexample(d: dict, path: str, payload_types: tuple[type, ...] | None) -> None:
    """Refuse, among others, a recipe that cannot be replayed: a step ``build``
    refuses, or a payload outside ``payload_types`` (``None``: the rdt is not
    in the catalog, so its domain is unknown); and a graph other than the
    recipe's, so that the graph drawn is the history a replay checks."""
    rpath = f"{path}.recipe"
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
    nodes = _require(d, "nodes", list, path)
    ids = set()
    for i, nd in enumerate(nodes):
        npath = f"{path}.nodes[{i}]"
        ids.add(_require(nd, "id", int, npath))
        _require(nd, "label", str, npath)
        _require(nd, "state", str, npath)
    edges = _require(d, "edges", list, path)
    for i, edge in enumerate(edges):
        epath = f"{path}.edges[{i}]"
        src = _require(edge, "from", int, epath)
        dst = _require(edge, "to", int, epath)
        kind = _require(edge, "kind", str, epath)
        if kind not in EDGE_KINDS:
            raise ReportFormatError(f"{epath}.kind: expected one of {EDGE_KINDS}")
        if src not in ids or dst not in ids:
            raise ReportFormatError(f"{epath}: endpoint not among node ids")
        if kind == "apply":
            event_from_dict(_require(edge, "event", dict, epath), f"{epath}.event")
        elif "event" in edge:
            raise ReportFormatError(f"{epath}.event: only apply edges carry events")
    if [nd["id"] for nd in nodes] != list(range(len(g.nodes))):
        raise ReportFormatError(
            f"{path}.nodes: ids differ from the recipe's graph, 0 to {len(g.nodes) - 1}")
    want = _graph_edges(g)
    for i, (edge, w) in enumerate(zip(edges, want)):
        if edge != w:
            raise ReportFormatError(f"{path}.edges[{i}]: differs from the recipe's graph")
    if len(edges) != len(want):
        raise ReportFormatError(
            f"{path}.edges: {len(edges)} edges, the recipe's graph has {len(want)}")
    _require(d, "lhs", str, path)
    _require(d, "rhs", str, path)
    _require(d, "shrink_steps", int, path)
    if "linearizations_tried" in d and not isinstance(d["linearizations_tried"], int):
        raise ReportFormatError(f"{path}.linearizations_tried: expected int")
    if "node" in d and _require(d, "node", int, path) not in ids:
        raise ReportFormatError(f"{path}.node: not among node ids")
    if "event" in d:
        event_from_dict(_require(d, "event", dict, path), f"{path}.event")
        if _peel(d, d.get("node"), d["event"]) is None:
            raise ReportFormatError(
                f"{path}.event: not the event of an apply edge into a side of merge node")


def validate_report(d) -> None:
    if not isinstance(d, dict):
        raise ReportFormatError("$: expected object")
    schema = _require(d, "schema", str, "$")
    if schema != SCHEMA:
        raise ReportFormatError(f"$.schema: expected {SCHEMA!r}, got {schema!r}")
    rdt = _require(d, "rdt", str, "$")
    try:
        payload_types = catalog_get(rdt).spec.payload_types
    except KeyError:
        payload_types = None
    prop = d.get("property")
    if prop is not None and prop not in _PROPERTY_NAMES:
        raise ReportFormatError(f"$.property: unknown property {prop!r}")
    seed = _require(d, "seed", int, "$")
    if seed < 0:
        raise ReportFormatError("$.seed: must be non-negative")
    cfg = config_from_dict(_require(d, "config", dict, "$"), "$.config")
    try:
        cfg.validate()
    except ValueError as exc:
        raise ReportFormatError(f"$.config: {exc}") from None
    if seed != cfg.seed:
        raise ReportFormatError(f"$.seed: {seed} differs from $.config.seed {cfg.seed}")
    verdicts = _require(d, "verdicts", list, "$")
    for i, v in enumerate(verdicts):
        vpath = f"$.verdicts[{i}]"
        name = _require(v, "property", str, vpath)
        if name not in _PROPERTY_NAMES:
            raise ReportFormatError(f"{vpath}.property: unknown property {name!r}")
        status = _require(v, "status", str, vpath)
        if status not in _STATUSES:
            raise ReportFormatError(f"{vpath}.status: expected one of {sorted(_STATUSES)}")
        _require(v, "tests", int, vpath)
        if "counterexample" in v:
            _validate_counterexample(_require(v, "counterexample", dict, vpath),
                                     f"{vpath}.counterexample", payload_types)
    if "counterexample" in d:
        _validate_counterexample(_require(d, "counterexample", dict, "$"),
                                 "$.counterexample", payload_types)


def parse_report(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"$: not valid JSON ({exc.msg} at line {exc.lineno})")
    validate_report(doc)
    return doc


# ---------------------------------------------------------------------------
# Render models, all read from the document's ``{nodes, edges}`` graph form.


def _read_graph(gd: dict) -> tuple[tuple[RenderNode, ...], tuple[RenderEdge, ...],
                                   tuple[RenderStep, ...], str]:
    """Nodes, edges, history steps and sink state of a ``{nodes, edges}`` dict.

    Each node but the root gets one step, in node order: ``parent --op--> node``
    for an apply edge, ``merge(left, right | lca=l) --> node`` for a complete
    set of merge edges.  The sink is the last node with no outgoing edge.
    """
    by_id = {nd["id"]: nd for nd in gd["nodes"]}
    tag = {i: f"{nd['label']} [{nd['state']}]" for i, nd in by_id.items()}
    nodes = tuple(RenderNode(by_id[i]["label"], by_id[i]["state"]) for i in sorted(by_id))
    edges: list[RenderEdge] = []
    steps: dict[int, RenderStep] = {}  # by node id
    merges: dict[int, dict[str, str]] = {}  # merge node id -> edge kind -> source label
    for e in gd["edges"]:
        src, dst, kind = e["from"], e["to"], e["kind"]
        if kind == "apply":
            op = event_label(event_from_dict(e["event"]))
            steps[dst] = RenderStep(tag[src], op, tag[dst])
        else:
            op = None
            merges.setdefault(dst, {})[kind] = by_id[src]["label"]
        edges.append(RenderEdge(by_id[src]["label"], by_id[dst]["label"], kind, op))
    for dst, parts in merges.items():
        if len(parts) == 3:
            steps[dst] = RenderStep(f"merge({parts['merge-left']}, {parts['merge-right']} | "
                                    f"lca={parts['lca']})", None, tag[dst])
    ordered = tuple(steps[i] for i in sorted(steps))
    if not ordered and nodes:
        ordered = (RenderStep(None, None, tag[min(by_id)]),)
    froms = {e["from"] for e in gd["edges"]}
    sinks = [i for i in by_id if i not in froms]
    return nodes, tuple(edges), ordered, by_id[max(sinks)]["state"] if sinks else ""


def _peel(gd: dict, node: int | None, event: dict) -> tuple[int, int, int, int] | None:
    """``(a', a, b, lca)`` when ``node`` merges ``a`` and ``b`` over ``lca`` and
    ``a`` applies ``event`` to ``a'``; ``None`` when no side of ``node`` does."""
    into = {e["kind"]: e for e in gd["edges"] if e["to"] == node}
    if not {"merge-left", "merge-right", "lca"} <= set(into):
        return None
    left, right, lca = (into[k]["from"] for k in ("merge-left", "merge-right", "lca"))
    for a, b in ((left, right), (right, left)):
        apply = next((e for e in gd["edges"] if e["to"] == a and e["kind"] == "apply"), None)
        if apply is not None and apply["event"] == event:
            return apply["from"], a, b, lca
    return None


def equation_panels(gd: dict, node: int | None, event: dict | None,
                    lhs: str, rhs: str) -> tuple[Panel, Panel]:
    """The LHS/RHS panels of a violation at ``node`` of graph ``gd``.

    Given the peeled ``event`` (an event dict, as for BottomUpStep), they show
    the two sides of the bottom-up equation at merge ``node``: the merge of the
    branch holding ``event`` with the other branch, against the merge without
    ``event`` with ``event`` applied on top.  Otherwise they show the computed
    and the expected state.
    """
    label = {nd["id"]: nd["label"] for nd in gd["nodes"]}
    if event is None:
        where = f" at {label[node]}" if node is not None else ""
        return (Panel("LHS", (RenderStep(None, None, f"computed{where}: [{lhs}]"),), lhs),
                Panel("RHS", (RenderStep(None, None, f"expected{where}: [{rhs}]"),), rhs))
    a_prime, a, b, lca = (label[n] for n in _peel(gd, node, event))
    return (Panel("LHS", (RenderStep(f"merge({a}, {b} | lca={lca})", None,
                                     f"{label[node]} [{lhs}]"),), lhs),
            Panel("RHS", (RenderStep(f"merge({a_prime}, {b} | lca={lca})",
                                     event_label(event_from_dict(event)), f"[{rhs}]"),), rhs))


def model_from_execution(ex: Execution, title: str | None = None) -> RenderModel:
    nodes, edges, steps, final = _read_graph(graph_to_dict(ex))
    name = title if title is not None else f"{ex.spec.name}: execution trace"
    return RenderModel(name, nodes, edges, None, (Panel("Trace", steps, final),), False)


def model_from_suite(sr: SuiteReport) -> RenderModel:
    return model_from_report_dict(suite_report_to_dict(sr))


def model_from_report_dict(d: dict) -> RenderModel:
    """The render model of a report document: its verdict list when it has no
    counterexample, else the counterexample's history with the LHS/RHS panels,
    or the unreplayable trace for LinearizationExists."""
    validate_report(d)
    cx = d.get("counterexample")
    prop = d.get("property")
    if cx is None:
        steps = tuple(RenderStep(None, None,
                                 f"{v['property']}: {v['status']} ({v['tests']} tests)")
                      for v in d["verdicts"])
        status = "suite passed" if prop is None else f"{prop} failed"
        return RenderModel(f"{d['rdt']}: {status} (seed {d['seed']})",
                           (), (), None, (Panel("Verdicts", steps, status),), False)
    nodes, edges, steps, final = _read_graph(cx)
    events = sum(1 for s in cx["recipe"]["steps"] if s["type"] == "apply")
    title = (f"{d['rdt']}: {prop} violation "
             f"(shrunk to {events} events in {cx['shrink_steps']} steps)")
    if prop == PropertyId.LINEARIZATION_EXISTS.value:
        tried = f" (tried {cx['linearizations_tried']})" if "linearizations_tried" in cx else ""
        note = RenderStep(None, None, f"!! no admissible order replays to [{cx['lhs']}]{tried}")
        return RenderModel(title, nodes, edges, None,
                           (Panel("Trace", steps + (note,), final),), True)
    panels = equation_panels(cx, cx.get("node"), cx.get("event"), cx["lhs"], cx["rhs"])
    return RenderModel(title, nodes, edges, Panel("History", steps, final), panels, True)


__all__ = [
    "ReportFormatError", "SCHEMA", "EDGE_KINDS",
    "RenderNode", "RenderEdge", "RenderStep", "Panel", "RenderModel",
    "equation_panels", "model_from_execution", "model_from_suite", "model_from_report_dict",
    "render_text", "render_dot", "render_html", "render_json",
    "payload_to_dict", "payload_from_dict", "event_to_dict", "event_from_dict",
    "recipe_to_dict", "recipe_from_dict", "config_to_dict", "config_from_dict",
    "graph_to_dict", "counterexample_to_dict", "suite_report_to_dict",
    "parse_report", "validate_report",
]
