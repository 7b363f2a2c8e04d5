"""The statement cache: parse and rewrite each statement text once.

Algorithm 1 and Theorems 1–3 decide a rewrite from the schema (keys,
constraints) and the query text alone; host variables are constants to
them.  So one parse and one rewrite decision hold for every binding of
a text until DDL changes the schema.  :data:`STATEMENT_CACHE` keeps
them, keyed on

    (catalog fingerprint, statement text, quarantine generation)

* **Catalog, not data.**  The rewrite depends only on the schema; the
  plan cache (:mod:`repro.engine.plan_cache`) already scopes plans to
  table data versions.  Keying on data versions here would evict every
  read of a table on each commit to it.
* **Quarantine generation.**  Safe mode quarantines a rule that changed
  a result; :func:`~repro.core.rewrite.engine.quarantine_generation`
  moves on every change to the quarantine set, so no entry rewritten
  under an older set is served.
* **Entries.**  A :class:`CachedStatement` holds the parsed statement.
  For queries it also holds the text as written with its tables
  (:attr:`CachedStatement.source`) and, after the first optimized run,
  the :class:`Rewrite`: the ``OptimizeResult``, the optimized query
  printed, its tables and the fired rules.  DML and transaction
  control cache only the parse.

Fail-closed, like the plan cache: when the catalog fingerprint cannot
be computed the text is parsed afresh and nothing is stored; parse
errors propagate and are never cached.  The cache is registered with
:mod:`repro.cache`, so ``cache_stats()["statements"]``,
``clear_all_caches``, ``set_caches_enabled`` and ``evict_by_text``
cover it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Hashable

from .cache import MISSING, LRUCache, safe_fingerprint
from .core.rewrite.engine import OptimizeResult, Optimizer, quarantine_generation
from .engine.planner import PreparedQuery
from .errors import ParseError
from .sql.ast import SelectQuery, SetOperation, Statement
from .sql.parser import parse

#: Process-wide statement cache shared by every connection and service.
STATEMENT_CACHE = LRUCache("statements", maxsize=256)


@dataclass(frozen=True)
class Rewrite:
    """A query's optimized form, ready to execute.

    Attributes:
        result: the optimizer's result (steps and audit trail).
        prepared: the query to execute, printed, with its tables.
        rules: names of the fired rules, in first-application order.
    """

    result: OptimizeResult
    prepared: PreparedQuery
    rules: tuple[str, ...]

    @classmethod
    def of(cls, result: OptimizeResult) -> "Rewrite":
        """*result* with its query printed and its rules listed."""
        return cls(
            result,
            PreparedQuery.of(result.query),
            tuple(dict.fromkeys(step.rule for step in result.steps)),
        )


@dataclass(frozen=True)
class CachedStatement:
    """One parsed statement and what its warm executions reuse.

    Attributes:
        text: the SQL text the statement was parsed from (None for a
            parsed DML statement handed over without its text).
        statement: the parsed statement.
        source: for queries, the statement as written with *text* as its
            plan-cache text; None for other statements.
        key: the cache key, or None when the entry is not cached.
        rewrite: the optimized form once computed (see :meth:`rewritten`).
    """

    text: str | None
    statement: Statement
    source: PreparedQuery | None = None
    key: Hashable | None = None
    rewrite: Rewrite | None = None

    @classmethod
    def of(
        cls, statement: Statement, text: str | None, key: Hashable | None = None
    ) -> "CachedStatement":
        """An entry for *statement*, parsed from *text*, under *key*."""
        source = (
            PreparedQuery.of(statement, text)
            if isinstance(statement, (SelectQuery, SetOperation))
            else None
        )
        return cls(text, statement, source, key)

    def rewritten(self, catalog: Any) -> Rewrite:
        """The relational-profile rewrite, computed and stored on first use.

        Racing callers may both optimize; either result is the same
        decision, and whichever is stored last stays.
        """
        if self.rewrite is not None:
            return self.rewrite
        rewrite = Rewrite.of(
            Optimizer.for_relational(catalog).optimize(self.statement)
        )
        if self.key is not None:
            STATEMENT_CACHE.put(self.key, replace(self, rewrite=rewrite))
        return rewrite


def lookup(text: str, catalog: Any) -> CachedStatement:
    """The cache entry for *text* under *catalog*, parsed on a miss."""
    fingerprint = safe_fingerprint(catalog)
    if fingerprint is None:
        return CachedStatement.of(parse(text), text)
    key = (fingerprint, text, quarantine_generation())
    entry = STATEMENT_CACHE.get(key)
    if entry is MISSING:
        entry = CachedStatement.of(parse(text), text, key)
        STATEMENT_CACHE.put(key, entry)
    return entry


def prepared_query(text: str, catalog: Any) -> PreparedQuery:
    """*text* parsed through the cache; a :class:`ParseError` unless it
    is a query."""
    source = lookup(text, catalog).source
    if source is None:
        raise ParseError("expected a query")
    return source


__all__ = [
    "STATEMENT_CACHE",
    "CachedStatement",
    "Rewrite",
    "lookup",
    "prepared_query",
]
