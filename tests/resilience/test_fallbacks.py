"""Every fast path degrades to its slow twin with identical results."""

import pytest

from repro import Stats
from repro.engine import execute_planned
from repro.errors import InjectedFaultError
from repro.resilience import (
    FAULTS,
    SITE_COMPILE,
    SITE_INDEX_BUILD,
    SITE_OPERATOR,
    SITE_PLAN_CACHE,
)

FILTER_SQL = (
    "SELECT P.PNO, P.PNAME FROM PARTS P "
    "WHERE P.COLOR = 'RED' AND P.PNO > 9"
)
KEYED_SQL = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = 2"
#: PARTS.SNO is a foreign key, not a key: its probe uses a lazy hash
#: index (a full key probe reads the key index and builds nothing).
FK_SQL = "SELECT P.PNO, P.PNAME FROM PARTS P WHERE P.SNO = 1"


def _clean(sql, db, **kwargs):
    stats = Stats()
    return execute_planned(sql, db, stats=stats, **kwargs), stats


def test_compile_fault_falls_back_to_interpreter(tiny_db):
    # Pinned to the vectorized engine: under "auto" an armed fault runs
    # the tuple path, which never compiles a kernel.
    expected, clean = _clean(FILTER_SQL, tiny_db, engine_mode="vectorized")
    assert clean.compiled_evals > 0  # the fast path is normally taken

    stats = Stats()
    with FAULTS.inject(SITE_COMPILE) as spec:
        result = execute_planned(
            FILTER_SQL, tiny_db, stats=stats, engine_mode="vectorized"
        )

    assert spec.triggered > 0
    assert result.rows == expected.rows
    assert stats.vectorized_fallbacks >= 1
    assert stats.compiled_evals == 0  # nothing ever compiled
    assert stats.predicate_evals == clean.predicate_evals


def test_index_build_fault_falls_back_to_scan(tiny_db):
    # Fault first, while the lazy index is still cold — a prior clean
    # run would build it and the build site would never trigger.
    stats = Stats()
    with FAULTS.inject(SITE_INDEX_BUILD):
        result = execute_planned(FK_SQL, tiny_db, stats=stats)
    assert stats.index_fallbacks >= 1  # the probe failed and degraded

    expected, clean = _clean(FK_SQL, tiny_db)
    assert clean.index_probes > 0 and clean.index_fallbacks == 0
    assert result.same_rows(expected)
    assert len(expected.rows) == 2


def test_plan_cache_fault_replans(tiny_db):
    expected, _ = _clean(KEYED_SQL, tiny_db)

    stats = Stats()
    with FAULTS.inject(SITE_PLAN_CACHE):
        result = execute_planned(KEYED_SQL, tiny_db, stats=stats)

    assert result.same_rows(expected)
    assert stats.cache_skips >= 1
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits == 0


def test_operator_fault_is_typed_not_a_wrong_answer(tiny_db):
    # Tuple-pinned: the after=3 trigger schedule counts per-row ticks.
    with FAULTS.inject(SITE_OPERATOR, after=3):
        with pytest.raises(InjectedFaultError) as info:
            execute_planned(FILTER_SQL, tiny_db, engine_mode="tuple")
    assert info.value.site == "operator_next"


def test_fallbacks_preserve_warm_cache_correctness(tiny_db):
    """A faulted run must not leave anything poisoned behind."""
    expected, _ = _clean(FILTER_SQL, tiny_db)
    with FAULTS.inject(SITE_COMPILE):
        execute_planned(FILTER_SQL, tiny_db, engine_mode="vectorized")
    # Fault disarmed: the same text must take the fast path again, warm.
    stats = Stats()
    result = execute_planned(FILTER_SQL, tiny_db, stats=stats)
    assert result.same_rows(expected)
    assert stats.compiled_evals > 0
    assert stats.vectorized_fallbacks == 0
