"""The statement cache: one parse and one rewrite per text and schema.

:mod:`repro.statements` keys each entry on the catalog fingerprint, the
statement text and the quarantine generation.  These tests pin what
moves the key (DDL, quarantine changes), what never enters the cache
(parse errors, an uncomputable fingerprint, rewrites switched off or
demoted), and that the cache serves concurrent service workers.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro
from repro import QueryService, cache_stats, clear_all_caches, set_caches_enabled
from repro.api import run_with_options
from repro.core.rewrite import quarantine_rule, unquarantine_all
from repro.core.rewrite.engine import Optimizer
from repro.errors import ParseError
from repro.resilience import FAULTS, SITE_FINGERPRINT
from repro.resilience.health import SUBSYSTEM_OPTIMIZER, HealthPolicy, HealthTracker
from repro.sql import parser, printer
from repro.statements import STATEMENT_CACHE

#: Theorem 1 strips the DISTINCT: SNO is SUPPLIER's key.
REWRITTEN_SQL = "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N"
PLAIN_SQL = "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.SNO = :N"


@pytest.fixture(autouse=True)
def fresh_state():
    clear_all_caches()
    unquarantine_all()
    yield
    FAULTS.reset()
    unquarantine_all()
    clear_all_caches()


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace *original* at every ``repro`` module name bound to it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture()
def calls(monkeypatch):
    """Counts of ``parser.parse``, ``Optimizer.optimize`` and ``to_sql``."""
    counts: Counter = Counter()
    original_parse = parser.parse
    original_optimize = Optimizer.optimize
    original_print = printer.to_sql

    def counted_parse(text):
        counts["parse"] += 1
        return original_parse(text)

    def counted_optimize(self, query):
        counts["optimize"] += 1
        return original_optimize(self, query)

    def counted_print(node):
        counts["to_sql"] += 1
        return original_print(node)

    _patch_everywhere(monkeypatch, original_parse, counted_parse)
    _patch_everywhere(monkeypatch, original_print, counted_print)
    monkeypatch.setattr(Optimizer, "optimize", counted_optimize)
    return counts


def _run(conn, sql=REWRITTEN_SQL, n=2, **kwargs):
    cursor = conn.execute(sql, {"N": n}, **kwargs)
    return cursor.fetchall(), cursor.executed


def test_warm_text_parses_and_optimizes_once(tiny_db, calls):
    with repro.connect(tiny_db) as conn:
        first = _run(conn)
        for n in (1, 2, 3):
            rows, executed = _run(conn, n=n)
            assert rows == [(n, ("Acme", "Baker", "Acme")[n - 1])]
    assert (calls["parse"], calls["optimize"]) == (1, 1)
    assert first[1].rewritten and first[1].rules == ["distinct-elimination"]
    assert executed.sql == first[1].sql
    assert cache_stats()["statements"]["entries"] == 1


def test_ddl_moves_the_key(tiny_db, calls):
    with repro.connect(tiny_db) as conn:
        rows, executed = _run(conn)
        tiny_db.run_script("CREATE TABLE EXTRA (X INT NOT NULL, PRIMARY KEY (X))")
        after_rows, after = _run(conn)
        _run(conn)
    assert after_rows == rows and after.sql == executed.sql
    assert (calls["parse"], calls["optimize"]) == (2, 2)


@pytest.mark.parametrize("lift", [False, True], ids=["quarantine", "unquarantine"])
def test_quarantine_changes_move_the_key(tiny_db, calls, lift):
    with repro.connect(tiny_db) as conn:
        rows, executed = _run(conn)
        assert executed.rules == ["distinct-elimination"]
        quarantine_rule("distinct-elimination", "test")
        quarantined_rows, quarantined = _run(conn)
        assert not quarantined.rewritten and quarantined_rows == rows
        if lift:
            unquarantine_all()
            lifted_rows, lifted = _run(conn)
            assert lifted.rules == ["distinct-elimination"]
            assert lifted_rows == rows
    assert calls["optimize"] == (3 if lift else 2)


def test_fingerprint_fault_fails_closed(tiny_db, calls):
    with repro.connect(tiny_db) as conn:
        expected = _run(conn)
        before = STATEMENT_CACHE.stats()
        with FAULTS.inject(SITE_FINGERPRINT):
            rows, executed = _run(conn)
            again = _run(conn)
        after = STATEMENT_CACHE.stats()
    assert (rows, executed.sql, executed.rules) == (
        expected[0], expected[1].sql, expected[1].rules
    )
    assert again[0] == expected[0]
    # Neither served nor stored: every faulted run parses and optimizes.
    assert (after["hits"], after["misses"]) == (before["hits"], before["misses"])
    assert (calls["parse"], calls["optimize"]) == (3, 3)


def test_disabled_caches_run_every_stage(tiny_db, calls):
    with repro.connect(tiny_db) as conn:
        expected = _run(conn)
        previous = set_caches_enabled(False)
        try:
            for _ in range(2):
                rows, executed = _run(conn)
                assert rows == expected[0]
                assert executed.rules == expected[1].rules
                assert executed.sql == expected[1].sql
        finally:
            set_caches_enabled(previous)
    assert (calls["parse"], calls["optimize"]) == (3, 3)


def test_parse_errors_are_not_cached(tiny_db, calls):
    with repro.connect(tiny_db) as conn:
        for _ in range(2):
            with pytest.raises(ParseError):
                conn.execute("SELECT FROM WHERE")
    assert calls["parse"] == 2
    assert len(STATEMENT_CACHE) == 0


def test_non_query_text_is_still_a_parse_error(tiny_db):
    from repro.engine import execute_planned

    for _ in range(2):
        with pytest.raises(ParseError, match="expected a query"):
            execute_planned("CREATE TABLE T (A INT)", tiny_db)


def test_optimize_false_bypasses_the_rewrite(tiny_db, calls):
    with repro.connect(tiny_db) as conn:
        rewritten = _run(conn)
        rows, executed = _run(conn, optimize=False)
    assert rows == rewritten[0]
    assert not executed.rewritten and "DISTINCT" in executed.sql
    assert (calls["parse"], calls["optimize"]) == (1, 1)


def test_health_demoted_optimizer_bypasses_the_rewrite(tiny_db, calls):
    expected = run_with_options(REWRITTEN_SQL, tiny_db, params={"N": 2})
    assert expected.rewritten
    tracker = HealthTracker(HealthPolicy(budget=1))
    tracker.record(SUBSYSTEM_OPTIMIZER, faults=1)
    assert tracker.tier(SUBSYSTEM_OPTIMIZER) == "off"
    demoted = run_with_options(
        REWRITTEN_SQL, tiny_db, params={"N": 2}, health=tracker
    )
    assert demoted.result.rows == expected.result.rows
    assert not demoted.rewritten and len(demoted.audit) == 0
    assert (calls["parse"], calls["optimize"]) == (1, 1)
    # The healthy path still finds its rewrite warm.
    assert run_with_options(REWRITTEN_SQL, tiny_db, params={"N": 2}).rewritten
    assert (calls["parse"], calls["optimize"]) == (1, 1)


def test_warm_execute_planned_text_parses_and_prints_nothing(tiny_db, calls):
    from repro.engine import execute_planned

    execute_planned(PLAIN_SQL, tiny_db, params={"N": 1})
    calls.clear()
    for n in (1, 2, 3):
        execute_planned(PLAIN_SQL, tiny_db, params={"N": n})
    assert calls == {}


@pytest.mark.parametrize("safe_mode", [False, True])
def test_warm_connection_read_parses_optimizes_and_prints_nothing(
    tiny_db, calls, safe_mode
):
    with repro.connect(tiny_db) as conn:
        _run(conn, safe_mode=safe_mode)
        calls.clear()
        _, executed = _run(conn, n=3, safe_mode=safe_mode)
    assert executed.rewritten and executed.outcome.verified is safe_mode
    assert calls == {}


def test_service_workers_share_the_cache(tiny_db, calls):
    texts = [REWRITTEN_SQL, PLAIN_SQL]
    expected = {
        (sql, n): run_with_options(sql, tiny_db, params={"N": n}).result.rows
        for sql in texts
        for n in (1, 2, 3, 4)
    }
    clear_all_caches()
    calls.clear()
    counts = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: races show
    try:
        with QueryService(workers=4) as service:
            session = service.session(tiny_db)
            for _ in range(2):
                tickets = [
                    ((sql, n), service.submit(session, sql, {"N": n}))
                    for _ in range(10)
                    for (sql, n) in expected
                ]
                for key, ticket in tickets:
                    assert ticket.result(30).result.rows == expected[key]
                counts.append(dict(calls))
    finally:
        sys.setswitchinterval(interval)
    cold, warm = counts
    # Workers may race to fill a cold entry, never beyond one per worker;
    # once warm, no worker parses or optimizes again.
    assert len(texts) <= cold["parse"] <= 4 * len(texts)
    assert warm == cold
    assert cache_stats()["statements"]["entries"] == len(texts)
