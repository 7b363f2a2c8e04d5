"""The degradation ladder end to end through the query service: a
storm of vectorized-kernel faults demotes the subsystem to the tuple
tier (results stay correct), queries during the demotion never touch
the sick path, and once the storm passes probation re-promotes."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro import Connection, QueryService
from repro.options import ExecutionOptions
from repro.resilience import FAULTS, SITE_VECTORIZED_EVAL
from repro.resilience.health import (
    STATE_HEALTHY,
    SUBSYSTEM_VECTORIZED,
    HealthPolicy,
)
from repro.types.values import row_sort_key
from repro.workloads import SupplierScale, build_database, generate

SQL = "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.COLOR = 'RED'"

#: Tight budget and a short probation so the full demote → probe →
#: promote cycle fits in a fast test.
POLICY = HealthPolicy(
    budget=2,
    window=30.0,
    probation_delay=0.05,
    max_probation_delay=0.2,
    probe_every=1,
    promote_after=2,
)

VECTORIZED = ExecutionOptions.create(engine_mode="vectorized", batch_rows=8)


@pytest.fixture(scope="module")
def db():
    return build_database(
        generate(SupplierScale(suppliers=12, parts_per_supplier=4))
    )


def run_one(service, session):
    return service.submit(session, SQL, options=VECTORIZED).result(30)


def test_fault_storm_demotes_then_probation_repromotes(db):
    with Connection.local(
        db, options=ExecutionOptions.create(engine_mode="tuple")
    ) as conn:
        expected = Counter(
            row_sort_key(row) for row in conn.execute(SQL).fetchall()
        )
    with QueryService(workers=1, health_policy=POLICY) as service:
        session = service.session(db)

        # Storm: every batch kernel blows up; each query falls back to
        # the interpreter (correct answers) and burns error budget.
        with FAULTS.inject(SITE_VECTORIZED_EVAL, times=1000):
            for _ in range(POLICY.budget + 1):
                outcome = run_one(service, session)
                assert outcome.result.multiset() == expected
            assert service.health.tier(SUBSYSTEM_VECTORIZED) == "tuple"

            # Still demoted and still inside the storm: queries take the
            # tuple tier, so the armed fault never even fires.
            outcome = run_one(service, session)
            assert outcome.result.multiset() == expected
            assert outcome.stats.vectorized_batches == 0
            assert outcome.stats.vectorized_fallbacks == 0

        # Storm over: wait out probation, then clean probes re-promote.
        deadline = time.monotonic() + 10.0
        while (
            service.health.state(SUBSYSTEM_VECTORIZED) != STATE_HEALTHY
            and time.monotonic() < deadline
        ):
            run_one(service, session)
            time.sleep(0.02)
        assert service.health.state(SUBSYSTEM_VECTORIZED) == STATE_HEALTHY
        assert service.health.tier(SUBSYSTEM_VECTORIZED) == "vectorized"

        # Healthy again: the fast path actually runs.
        outcome = run_one(service, session)
        assert outcome.stats.vectorized_batches > 0
        assert outcome.result.multiset() == expected

    # The whole episode is on the metrics ledger.
    assert service.metrics.value(
        "health_demotions_total", subsystem=SUBSYSTEM_VECTORIZED
    ) >= 1
    assert service.metrics.value(
        "health_promotions_total", subsystem=SUBSYSTEM_VECTORIZED
    ) >= 1
    assert service.metrics.value(
        "health_degraded", subsystem=SUBSYSTEM_VECTORIZED
    ) == 0.0


def test_tuple_only_traffic_never_exercises_the_ladder(db):
    """Queries that cannot touch the vectorized engine must not feed
    its budget or its probation counters."""
    with QueryService(workers=1, health_policy=POLICY) as service:
        session = service.session(db)
        with FAULTS.inject(SITE_VECTORIZED_EVAL, times=1000):
            for _ in range(POLICY.budget * 3):
                service.submit(
                    session,
                    SQL,
                    options=ExecutionOptions.create(engine_mode="tuple"),
                ).result(30)
        snapshot = service.health.snapshot()[SUBSYSTEM_VECTORIZED]
        assert snapshot["state"] == STATE_HEALTHY
        assert snapshot["faults_in_window"] == 0
        assert snapshot["probes"] == 0


def test_analyze_reports_the_current_tiers(db):
    with QueryService(workers=1, health_policy=POLICY) as service:
        session = service.session(db)
        outcome = service.submit(
            session,
            SQL,
            options=ExecutionOptions.create(analyze=True),
        ).result(30)
        assert outcome.analysis is not None
        assert outcome.analysis.health is not None
        assert outcome.analysis.health[SUBSYSTEM_VECTORIZED] in (
            "vectorized",
            "tuple",
        )
        assert "health" in outcome.analysis.to_dict()


def test_healthy_ladder_is_consulted_only_on_a_fault_signal(db, monkeypatch):
    """An all-healthy ladder grants every tier, so a clean read neither
    asks it for a decision nor reports to it; a read with a fault signal
    reports a grant of exactly the subsystems it could exercise."""
    from repro.api import run_with_options
    from repro.engine.stats import Stats
    from repro.resilience.health import (
        SUBSYSTEM_PARALLEL,
        SUBSYSTEM_PLAN_CACHE,
        HealthTracker,
    )

    tracker = HealthTracker(POLICY)
    calls = []
    monkeypatch.setattr(
        tracker, "decide", lambda relevant: calls.append(("decide", relevant))
    )
    observe = tracker.observe
    monkeypatch.setattr(
        tracker,
        "observe",
        lambda decision, **kw: (
            calls.append(("observe", decision)), observe(decision, **kw)
        ),
    )

    def read():
        return run_with_options(
            SQL, db, options=VECTORIZED, stats=Stats(), health=tracker
        )

    read()
    assert calls == []
    with FAULTS.inject(SITE_VECTORIZED_EVAL, times=1):
        outcome = read()
    assert outcome.stats.vectorized_fallbacks == 1
    [(kind, decision)] = calls
    assert kind == "observe" and decision.probes == {}
    assert decision.granted(SUBSYSTEM_VECTORIZED)
    assert decision.granted(SUBSYSTEM_PLAN_CACHE)
    assert not decision.granted(SUBSYSTEM_PARALLEL)
    assert tracker.snapshot()[SUBSYSTEM_VECTORIZED]["faults_in_window"] == 1


def test_plan_cache_bypass_tier_leaves_the_cache_registry_alone(db):
    """The bypass tier plans every read into a throwaway cache; those
    must not pile up in the process-wide registry."""
    from repro.api import run_with_options
    from repro.cache import cache_stats, iter_caches
    from repro.engine.stats import Stats
    from repro.resilience.health import SUBSYSTEM_PLAN_CACHE, HealthTracker

    tracker = HealthTracker(POLICY)
    tracker.record(SUBSYSTEM_PLAN_CACHE, faults=POLICY.budget)
    assert tracker.tier(SUBSYSTEM_PLAN_CACHE) == "bypass"
    before = len(list(iter_caches()))
    plans = cache_stats()["plans"]
    for _ in range(20):
        run_with_options(SQL, db, stats=Stats(), health=tracker)
    assert len(list(iter_caches())) == before
    assert cache_stats()["plans"] == plans
