"""Turning rewrites off skips the optimizer altogether.

With ``optimize=False`` — or with the health ladder's optimizer rung
demoted to ``off`` — the query runs exactly as written: Algorithm 1 is
never consulted, so a fault armed at the uniqueness site cannot fire
and the audit trail stays empty.
"""

import pytest

import repro
from repro.api import run_with_options
from repro.engine import Database
from repro.errors import InjectedFaultError
from repro.resilience import FAULTS, SITE_UNIQUENESS
from repro.resilience.health import (
    SUBSYSTEM_OPTIMIZER,
    HealthPolicy,
    HealthTracker,
)

SCRIPT = """
CREATE TABLE SUPPLIER (
  SNO INT, SNAME VARCHAR(30), SCITY VARCHAR(20),
  PRIMARY KEY (SNO));
INSERT INTO SUPPLIER VALUES
  (1, 'Smith', 'Toronto'),
  (2, 'Smith', 'Chicago'),
  (3, 'Blake', 'Toronto');
"""

SQL = "SELECT DISTINCT S.SNAME FROM SUPPLIER S"
ROWS = [("Blake",), ("Smith",)]


@pytest.fixture()
def db():
    return Database.from_script(SCRIPT)


def test_optimize_false_never_runs_algorithm_1(db):
    with FAULTS.inject(SITE_UNIQUENESS), repro.connect(db) as conn:
        with pytest.raises(InjectedFaultError):
            conn.execute(SQL)  # rewrites on: the armed fault fires
        cursor = conn.execute(SQL, optimize=False)
    assert sorted(cursor.fetchall()) == ROWS
    assert not cursor.executed.rewritten
    assert len(cursor.outcome.audit) == 0


def test_ladder_optimizer_off_tier_never_runs_algorithm_1(db):
    tracker = HealthTracker(HealthPolicy(budget=1))
    tracker.record(SUBSYSTEM_OPTIMIZER, faults=1)
    assert tracker.tier(SUBSYSTEM_OPTIMIZER) == "off"
    with FAULTS.inject(SITE_UNIQUENESS):
        outcome = run_with_options(SQL, db, health=tracker)
    assert sorted(outcome.result.rows) == ROWS
    assert not outcome.rewritten
    assert len(outcome.audit) == 0
