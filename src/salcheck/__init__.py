"""salcheck: a correctness workbench for replicated data types.

Catalogued merge-based data types (three-way and converged two-way merges)
are checked against replication-aware linearizability: merge laws, the
bottom-up peel condition, conflict-policy compliance, and an exhaustive
linearization oracle over generated fork/merge histories, with shrinking,
JSON reports, and text/DOT/HTML trace rendering.
"""

from .model import (
    Add, CrdtSpec, Dec, Delete, Disable, Enable, Event, Inc, Insert, MapSet,
    MrdtSpec, OpPayload, RcOrder, RdtSpec, Rem, SpecMismatchError, Write,
    conflicting, event_label, is_crdt, rc_empty, rc_order,
)
from .tracked import ExtensionalMap, TrackedSet, element_str, show_set
from .catalog import CATALOG, CatalogEntry, catalog_get, catalog_ids, payload_pool
from .history import (
    ApplyOp, Execution, JoinOp, Recipe, RecipeError, VersionGraph, build,
    diamond, enumerate_recipes, execute, merge_with_lca, random_recipe,
    run_recipe,
)
from .checker import (
    CheckConfig, CounterexampleReport, OracleScopeError, PropertyId,
    SuiteReport, SweepResult, Verdict, bottom_up_instances,
    linearization_oracle, oracle_sweep, run_suite, shrink,
)
from .report import (
    RenderModel, ReportFormatError, model_from_execution, model_from_report_dict,
    model_from_suite, parse_report, render_dot, render_html, render_json,
    render_text, validate_report,
)

__version__ = "0.1.0"
