"""Differential tests: render models built from the version graph against the
dict-reading builders they replaced.

``previous_read_graph``, ``previous_peel`` and ``previous_equation_panels``
are the builders that read a history back from its ``{nodes, edges}`` dict
form, kept verbatim, with ``previous_graph_to_dict`` that wrote that form.
The current builders walk the ``VersionGraph`` itself; both must give equal
``RenderModel``s and panels on every history of the 4-event sweep of every
catalog entry.
"""

import pytest

from salcheck.catalog import CATALOG, payload_pool
from salcheck.checker import bottom_up_instances
from salcheck.history import Execution, VersionGraph
from salcheck.model import Event, event_label
from salcheck.report import (
    Panel, RenderEdge, RenderModel, RenderNode, RenderStep, equation_panels,
    model_from_execution, payload_from_dict, payload_to_dict,
)
from walkers import enumerate_executions


def event_to_dict(ev: Event) -> dict:
    """An event as the edges of a ``salcheck/1`` document wrote it."""
    return {"ts": ev.ts, "replica": ev.replica, "op": payload_to_dict(ev.op)}


def event_from_dict(d: dict) -> Event:
    return Event(d["ts"], d["replica"], payload_from_dict(d["op"]))


def previous_graph_edges(g: VersionGraph) -> list[dict]:
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


def previous_graph_to_dict(ex: Execution) -> dict:
    nodes = [{"id": n, "label": f"v{n}", "state": ex.spec.format_state(ex.states[n])}
             for n in range(len(ex.graph.nodes))]
    return {"nodes": nodes, "edges": previous_graph_edges(ex.graph)}


def previous_read_graph(gd: dict):
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


def previous_peel(gd: dict, node, event: dict):
    into = {e["kind"]: e for e in gd["edges"] if e["to"] == node}
    if not {"merge-left", "merge-right", "lca"} <= set(into):
        return None
    left, right, lca = (into[k]["from"] for k in ("merge-left", "merge-right", "lca"))
    for a, b in ((left, right), (right, left)):
        apply = next((e for e in gd["edges"] if e["to"] == a and e["kind"] == "apply"), None)
        if apply is not None and apply["event"] == event:
            return apply["from"], a, b, lca
    return None


def previous_equation_panels(gd: dict, node, event, lhs: str, rhs: str):
    label = {nd["id"]: nd["label"] for nd in gd["nodes"]}
    if event is None:
        where = f" at {label[node]}" if node is not None else ""
        return (Panel("LHS", (RenderStep(None, None, f"computed{where}: [{lhs}]"),), lhs),
                Panel("RHS", (RenderStep(None, None, f"expected{where}: [{rhs}]"),), rhs))
    a_prime, a, b, lca = (label[n] for n in previous_peel(gd, node, event))
    return (Panel("LHS", (RenderStep(f"merge({a}, {b} | lca={lca})", None,
                                     f"{label[node]} [{lhs}]"),), lhs),
            Panel("RHS", (RenderStep(f"merge({a_prime}, {b} | lca={lca})",
                                     event_label(event_from_dict(event)), f"[{rhs}]"),), rhs))


def previous_model_from_execution(ex: Execution, gd: dict) -> RenderModel:
    nodes, edges, steps, final = previous_read_graph(gd)
    return RenderModel(f"{ex.spec.name}: execution trace", nodes, edges, None,
                       (Panel("Trace", steps, final),), False)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.id)
def test_models_and_panels_agree_on_four_event_sweep(entry):
    spec = entry.spec
    histories = 0
    for ex in enumerate_executions(spec, payload_pool(spec), 4):
        gd = previous_graph_to_dict(ex)
        assert model_from_execution(ex) == previous_model_from_execution(ex, gd)
        histories += 1
        for inst in bottom_up_instances(spec, ex):
            m = inst.merge_node
            for event in (inst.event, None):
                assert (equation_panels(ex.graph, m, event, inst.lhs_str, inst.rhs_str)
                        == previous_equation_panels(gd, m, event and event_to_dict(event),
                                                    inst.lhs_str, inst.rhs_str))
    assert histories > 0
