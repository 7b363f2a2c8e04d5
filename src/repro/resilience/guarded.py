"""Safe mode: verified execution of uniqueness-based rewrites.

:func:`repro.api.run_with_options` optimizes a read, executes the
winning form, and folds the result into a :class:`GuardedOutcome`.
When ``safe_mode`` is on and a rewrite fired, it hands the outcome to
:func:`cross_check`, which cross-checks the rewritten result against
the unrewritten plan on sampled executions.

Safe-mode semantics: when the rewritten and reference executions
disagree on the result multiset (≐ row identity, the engine's own
comparison), the implicated rewrite rules are **quarantined**
process-wide (see :func:`repro.core.rewrite.engine.quarantine_rule`),
every cache entry keyed on the involved query texts is **evicted** (a
poisoned Algorithm 1 verdict, plan, or strategy choice cannot be served
again), and the *reference* result — the verified answer — is returned.

The cross-check is sound because the physical planner never consults the
uniqueness analysis: an unsound verdict can only enter through the
rewrite layer, which the reference execution bypasses entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache import evict_by_text
from ..core.rewrite.engine import OptimizeResult, quarantine_rule
from ..engine.database import Database
from ..engine.plan_cache import PlanCache
from ..engine.planner import PlannerOptions, PreparedQuery, execute_planned
from ..engine.result import Result
from ..engine.stats import Stats
from ..observe.audit import AuditTrail
from ..observe.trace import NULL_SPAN, TRACER
from ..sql.ast import Query
from ..sql.printer import to_sql
from ..types.values import SqlValue
from .budgets import ResourceBudget

#: Per-query-text execution counters driving safe-mode sampling.
_sample_counters: dict[str, int] = {}


def reset_safe_mode_sampling() -> None:
    """Forget the sampling counters (tests and fresh sessions)."""
    _sample_counters.clear()


def _take_sample(text: str, every: int) -> bool:
    """Deterministic sampling: the first execution of a text is always
    checked, then every *every*-th one after it."""
    count = _sample_counters.get(text, 0)
    _sample_counters[text] = count + 1
    return every <= 1 or count % every == 0


@dataclass
class GuardedOutcome:
    """Everything one guarded execution produced.

    Attributes:
        result: the rows handed to the caller.  After a safe-mode
            mismatch this is the *reference* (unrewritten) result — the
            verified answer — not the rewritten one.
        sql: the SQL text the returned result came from.
        rewritten: whether any rewrite rule fired.
        rules: names of the rules that fired, in application order.
        stats: execution counters for the primary (rewritten) execution.
        verified: whether the safe-mode cross-check ran.
        mismatch: whether the cross-check caught a result change.
        quarantined: rule names quarantined by this execution.
        evicted: cache entries evicted after a mismatch.
        audit: the optimizer's audit trail — every theorem decision
            (fired or rejected, with witness) behind the rewrite.
        query: the parsed form of :attr:`sql` (None for writes and
            transaction control).
        analysis: the EXPLAIN ANALYZE
            :class:`~repro.observe.analyze.AnalyzedExecution` when the
            execution ran with ``analyze`` requested (see
            :func:`repro.api.run_with_options`), else None.
        rowcount: rows affected by a DML statement, or -1 for reads
            (DB-API convention; the facade reports ``len(result)`` for
            reads instead).
    """

    result: Result
    sql: str
    rewritten: bool
    rules: list[str]
    stats: Stats
    verified: bool = False
    mismatch: bool = False
    quarantined: list[str] = field(default_factory=list)
    evicted: int = 0
    audit: AuditTrail = field(default_factory=AuditTrail)
    query: Query | None = None
    analysis: object | None = None
    rowcount: int = -1

    def describe(self) -> str:
        """One line: rewrite trail, verification status, row count."""
        parts = []
        parts.append(
            "rewritten via " + ", ".join(self.rules) if self.rules
            else "not rewritten"
        )
        if self.mismatch:
            parts.append(
                f"MISMATCH: quarantined {', '.join(self.quarantined)}; "
                f"served the reference result"
            )
        elif self.verified:
            parts.append("verified against the unrewritten plan")
        parts.append(f"{len(self.result)} rows")
        return "; ".join(parts)


def cross_check(
    outcome: GuardedOutcome,
    optimized: OptimizeResult,
    source: PreparedQuery,
    database: Database,
    *,
    sample_every: int,
    params: dict[str, SqlValue] | None = None,
    budget: ResourceBudget | None = None,
    planner_options: PlannerOptions | None = None,
    plan_cache: PlanCache | None = None,
) -> None:
    """The safe-mode stage: verify the rewritten *outcome* in place.

    *optimized* is the rewrite of *source* (the statement as written,
    whose ``sql`` is the text it was parsed from) that produced
    *outcome*.  Sampling keys on that text, *sql_text*: its first
    execution is checked, then every *sample_every*-th.  A sampled
    check re-executes the unrewritten *source* and compares multisets.
    On a mismatch it quarantines the rules, evicts every cache entry
    keyed on an involved text (*sql_text*, the served SQL, each rewrite
    step's before and after), and serves the reference result under
    *sql_text*.

    The reference run gets a fresh guard from *budget* (the same
    allowance as the primary run) and is pinned to the serial tuple
    interpreter: a diverse pair of executions is a stronger
    cross-check than two identical ones.
    """
    sql_text = source.sql
    if not _take_sample(sql_text, sample_every):
        return
    outcome.verified = True
    cross_cm = (
        TRACER.span("guarded.cross_check", sql=sql_text)
        if TRACER.enabled
        else NULL_SPAN
    )
    with cross_cm:
        reference = execute_planned(
            source,
            database,
            params=params,
            stats=Stats(),
            options=planner_options,
            plan_cache=plan_cache,
            guard=budget.guard() if budget is not None else None,
            engine_mode="tuple",
        )
    if reference.same_rows(outcome.result):
        return

    # The rewrite changed the result multiset.  Quarantine the rules,
    # purge every cache entry keyed on an involved query text (the
    # poisoned verdict/plan/strategy entries all key on text), and
    # serve the verified reference result.
    texts = {sql_text, outcome.sql}
    for step in optimized.steps:
        texts.add(to_sql(step.before))
        texts.add(to_sql(step.after))
    for text in texts:
        outcome.evicted += evict_by_text(text)
    for rule in outcome.rules:
        quarantine_rule(rule, f"safe-mode mismatch on {sql_text!r}")
    outcome.mismatch = True
    outcome.quarantined = list(outcome.rules)
    outcome.result = reference
    outcome.sql = sql_text
    outcome.query = source.query
