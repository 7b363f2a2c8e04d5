"""EXPLAIN ANALYZE: per-operator actuals over a physical plan.

An *instrumented* execution runs a cloned plan whose nodes count loops,
output rows, and inclusive wall time; afterwards each node is annotated
with those actuals plus the cost model's estimate and the resulting
q-error (``max(est/actual, actual/est)``, both floored at one row — the
standard cardinality-quality measure).

The cached/shared plan is never touched: :func:`clone_plan` makes
shallow per-node copies (rewiring the ``child``/``left``/``right``
links) and the counting wrappers are installed as *instance* attributes
on the clones only.  The normal execution path therefore keeps its
generators bare — this module adds zero cost when analyze mode is off.

Engine imports stay inside function bodies: the engine itself imports
:mod:`repro.observe.trace`, and keeping this module lazily bound
prevents a partially-initialized-package cycle.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from .trace import TRACER, Span

#: Attributes under which plan nodes store their inputs.
_CHILD_ATTRS = ("child", "left", "right")


@dataclass
class NodeStats:
    """Actuals for one plan node across one execution."""

    label: str
    loops: int = 0
    rows: int = 0
    batches: int = 0  # column batches emitted (vectorized mode only)
    seconds: float = 0.0  # inclusive of children, like EXPLAIN ANALYZE
    est_rows: float | None = None
    #: True while the node's batches() wrapper is live, so a batches
    #: implementation that falls back through the node's own rows()
    #: (the default re-batch, or an explicit tuple-path delegation)
    #: does not double-count loops/rows/time.
    suspended: bool = False

    @property
    def q_error(self) -> float | None:
        """max(est/actual, actual/est) per loop, floored at one row."""
        if self.est_rows is None or self.loops == 0:
            return None
        actual = max(self.rows / self.loops, 1.0)
        estimated = max(self.est_rows, 1.0)
        return max(actual / estimated, estimated / actual)


@dataclass
class PlanAnalysis:
    """Per-node actuals for one instrumented plan, keyed by node id."""

    wall_seconds: float = 0.0
    _stats: dict[int, NodeStats] = field(default_factory=dict)

    def register(self, node: Any) -> NodeStats:
        stats = NodeStats(label=node.label())
        self._stats[id(node)] = stats
        return stats

    def for_node(self, node: Any) -> NodeStats | None:
        return self._stats.get(id(node))

    def annotate(self, node: Any) -> str:
        """The EXPLAIN suffix for *node*: actuals, estimate, q-error."""
        stats = self.for_node(node)
        if stats is None:
            return ""
        if stats.loops == 0:
            return "  [never executed]"
        parts = [
            f"actual rows={stats.rows}",
            f"loops={stats.loops}",
            f"time={stats.seconds * 1000:.3f} ms",
        ]
        if stats.batches:
            parts.append(f"batches={stats.batches}")
        if stats.est_rows is not None:
            parts.append(f"est rows={stats.est_rows:.0f}")
            parts.append(f"q-error={stats.q_error:.2f}")
        return "  [" + " ".join(parts) + "]"

    def max_q_error(self) -> float | None:
        """The worst per-node q-error of this execution, or None.

        The per-query cardinality-quality headline: 1.0 means every
        estimate matched its actual; the adaptive loop drives this
        down across repeated analyzed runs.
        """
        errors = [
            stats.q_error
            for stats in self._stats.values()
            if stats.q_error is not None
        ]
        return max(errors) if errors else None

    def attach_estimates(
        self, plan: Any, database: Any, model: Any | None = None
    ) -> None:
        """Fill ``est_rows`` from the cost model, node by node.

        *model* (any object with ``estimate(node)``) selects the
        estimator; default is the heuristic
        :class:`~repro.engine.cost.CostModel` — statistics-driven runs
        pass the estimator their plan was actually costed with, so the
        reported q-error measures the model that made the decisions.
        """
        if model is None:
            from ..engine.cost import CostModel

            model = CostModel(database)
        for node in _walk(plan):
            stats = self.for_node(node)
            if stats is None:
                continue
            try:
                stats.est_rows = float(model.estimate(node).rows)
            except Exception:
                stats.est_rows = None  # estimation must never break EXPLAIN

    def to_dict(self, plan: Any) -> dict[str, Any]:
        """The annotated plan as a nested JSON-ready tree."""
        stats = self.for_node(plan)
        payload: dict[str, Any] = {"operator": plan.label()}
        if stats is not None:
            payload.update(
                actual_rows=stats.rows,
                loops=stats.loops,
                time_ms=stats.seconds * 1000,
            )
            if stats.batches:
                payload["batches"] = stats.batches
            if stats.est_rows is not None:
                payload["est_rows"] = stats.est_rows
                payload["q_error"] = stats.q_error
        children = [self.to_dict(child) for child in plan.children()]
        if children:
            payload["children"] = children
        return payload

    def to_spans(self, plan: Any) -> Span:
        """Synthesize a finished span subtree mirroring the plan.

        Operator generators interleave across the plan, so live spans
        cannot nest around them; instead the recorded actuals become a
        span tree after the fact, attachable to the global tracer.
        """
        stats = self.for_node(plan)
        span = Span(f"operator.{plan.label()}")
        if stats is not None:
            span.ended = stats.seconds  # started stays 0.0: elapsed = seconds
            span.attributes = {"rows": stats.rows, "loops": stats.loops}
        for child in plan.children():
            span.children.append(self.to_spans(child))
        return span


def _walk(node: Any):
    yield node
    for child in node.children():
        yield from _walk(child)


def clone_plan(node: Any) -> Any:
    """Shallow per-node copy of a plan tree.

    Shared, immutable parts (schemas, expressions, key lists) stay
    shared; only the tree structure is duplicated, so instrumentation
    never leaks into plans held by the plan cache.
    """
    clone = copy.copy(node)
    for attr in _CHILD_ATTRS:
        child = getattr(clone, attr, None)
        if child is not None and hasattr(child, "rows") and hasattr(child, "label"):
            setattr(clone, attr, clone_plan(child))
    return clone


def instrument_plan(plan: Any) -> tuple[Any, PlanAnalysis]:
    """A cloned plan whose nodes record actuals into a fresh analysis."""
    analysis = PlanAnalysis()
    clone = clone_plan(plan)
    for node in _walk(clone):
        _instrument_node(node, analysis)
    return clone, analysis


def _instrument_node(node: Any, analysis: PlanAnalysis) -> None:
    stats = analysis.register(node)
    original = type(node).rows  # the plain function, not a bound method
    original_batches = type(node).batches

    def counting_rows(ctx, outer=None, _node=node, _orig=original, _stats=stats):
        if _stats.suspended:
            # This node's batches() wrapper is already accounting; the
            # inner rows() call is its tuple-path fallback, not a loop.
            yield from _orig(_node, ctx, outer)
            return
        _stats.loops += 1
        start = perf_counter()
        try:
            for row in _orig(_node, ctx, outer):
                _stats.seconds += perf_counter() - start
                _stats.rows += 1
                yield row
                start = perf_counter()
            _stats.seconds += perf_counter() - start
        except BaseException:
            _stats.seconds += perf_counter() - start
            raise

    def counting_batches(
        ctx, outer=None, _node=node, _orig=original_batches, _stats=stats
    ):
        _stats.loops += 1
        _stats.suspended = True
        start = perf_counter()
        try:
            for batch in _orig(_node, ctx, outer):
                _stats.seconds += perf_counter() - start
                _stats.rows += batch.length
                _stats.batches += 1
                yield batch
                start = perf_counter()
            _stats.seconds += perf_counter() - start
        except BaseException:
            _stats.seconds += perf_counter() - start
            raise
        finally:
            _stats.suspended = False

    # Instance attributes shadow the class methods for this clone only.
    node.rows = counting_rows
    node.batches = counting_batches


@dataclass
class AnalyzedExecution:
    """Everything one EXPLAIN ANALYZE execution produced."""

    result: Any
    plan: Any
    analysis: PlanAnalysis
    stats: Any
    #: subsystem → degradation-ladder tier when the execution ran under
    #: a health tracker (see :mod:`repro.resilience.health`), else None.
    health: dict[str, str] | None = None

    def explain(self) -> str:
        """The plan tree annotated with actuals (and estimates)."""
        return self.plan.explain(analysis=self.analysis)

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "wall_ms": self.analysis.wall_seconds * 1000,
            "plan": self.analysis.to_dict(self.plan),
            "stats": {
                name: value
                for name, value in self.stats.as_dict().items()
                if value
            },
        }
        max_q_error = self.analysis.max_q_error()
        if max_q_error is not None:
            payload["max_q_error"] = max_q_error
        if self.health is not None:
            payload["health"] = dict(self.health)
        return payload


def execute_analyzed(
    query: Any,
    database: Any,
    params: dict | None = None,
    stats: Any | None = None,
    options: Any | None = None,
    guard: Any | None = None,
    engine_mode: str | None = None,
    batch_rows: int | None = None,
) -> AnalyzedExecution:
    """Plan *query*, execute an instrumented clone, return the actuals.

    Plans fresh (never from the plan cache — instrumented nodes must not
    be shared) and records per-node loops/rows/time plus the cost
    model's estimates.  Under a vectorized *engine_mode* each node also
    reports the column batches it emitted.  When tracing is enabled the
    per-operator actuals are additionally attached to the global tracer
    as a span subtree.
    """
    from ..engine.planner import Planner, PlannerOptions, execute_plan
    from ..engine.stats import Stats
    from ..sql.parser import parse_query

    if isinstance(query, str):
        query = parse_query(query)
    planner_options = options or PlannerOptions()
    stats = stats if stats is not None else Stats()
    planner = Planner(
        database.catalog, planner_options, database=database, stats=stats
    )
    plan = planner.plan(query)
    instrumented, analysis = instrument_plan(plan)
    with TRACER.span("analyze.execute", stats=stats) as span:
        start = perf_counter()
        result = execute_plan(
            instrumented,
            database,
            params=params,
            stats=stats,
            guard=guard,
            engine_mode=engine_mode,
            batch_rows=batch_rows,
        )
        analysis.wall_seconds = perf_counter() - start
        if span:
            span.attributes["rows"] = len(result)
        from ..stats.estimator import estimator_for

        model = estimator_for(database, planner_options, stats=stats)
        analysis.attach_estimates(instrumented, database, model=model)
        if TRACER.enabled:
            # While the span is still open the synthesized per-operator
            # subtree nests under it instead of becoming its own root.
            TRACER.attach(analysis.to_spans(instrumented))
    return AnalyzedExecution(
        result=result, plan=instrumented, analysis=analysis, stats=stats
    )


def explain_analyze(
    query: Any,
    database: Any,
    params: dict | None = None,
    options: Any | None = None,
) -> str:
    """One-shot convenience: execute and return the annotated plan."""
    return execute_analyzed(
        query, database, params=params, options=options
    ).explain()
