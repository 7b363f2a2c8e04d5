"""Autocommit writes cost O(write), not O(table).

Each test counts :meth:`Snapshot.sees` calls — one per row version a
write looks at — for the same statement against a 1k-row and a 32k-row
table and requires the two counts to be equal.  Uniqueness checks, the
FOREIGN KEY check and key-bound UPDATE/DELETE all resolve through the
version-aware candidate-key index, so the count depends on the write,
never on the table.  Under the engine's old full-visibility scans the
32k count was 32 times the 1k one.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine.database import Database
from repro.engine.txn import Snapshot
from repro.types.values import row_sort_key

SMALL, LARGE = 1_000, 32_000

DDL = """
CREATE TABLE P (K INT NOT NULL, PRIMARY KEY (K));
CREATE TABLE T (K INT NOT NULL, U INT, F INT, V INT, PRIMARY KEY (K),
  UNIQUE (U), FOREIGN KEY (F) REFERENCES P);
"""


def _db(rows: int) -> Database:
    db = Database.from_script(DDL)
    db.table("P").extend((k,) for k in range(rows))
    db.table("T").extend((k, k, k, 0) for k in range(rows))
    return db


@pytest.fixture()
def sees_calls(monkeypatch):
    """A one-element list counting ``Snapshot.sees`` calls."""
    count = [0]
    original = Snapshot.sees

    def counted(self, version):
        count[0] += 1
        return original(self, version)

    monkeypatch.setattr(Snapshot, "sees", counted)
    return count


def _cost(rows: int, sees_calls, run) -> int:
    db = _db(rows)
    with repro.connect(db) as conn:
        before = sees_calls[0]
        run(conn)
        return sees_calls[0] - before


WRITES = {
    "insert": lambda conn: conn.execute(
        "INSERT INTO T VALUES (:K, :U, :F, 1)", {"K": -1, "U": -1, "F": 7}
    ),
    "update": lambda conn: conn.execute(
        "UPDATE T SET V = :V WHERE K = :K", {"K": 7, "V": 1}
    ),
    "update_unique_key": lambda conn: conn.execute(
        "UPDATE T SET V = 5 WHERE U = 9 AND V = 0"
    ),
    "delete": lambda conn: conn.execute("DELETE FROM T WHERE T.K = 11"),
}


@pytest.mark.parametrize("name", sorted(WRITES))
def test_autocommit_write_cost_is_independent_of_table_size(name, sees_calls):
    run = WRITES[name]

    def checked(conn):
        assert run(conn).rowcount == 1

    small = _cost(SMALL, sees_calls, checked)
    large = _cost(LARGE, sees_calls, checked)
    assert small == large
    assert small <= 8


def test_foreign_key_check_in_a_transaction_probes_the_parent(sees_calls):
    def insert_in_txn(conn):
        conn.execute("BEGIN")
        conn.execute("INSERT INTO T VALUES (:K, :K, 3, 0)", {"K": -1})
        conn.execute("COMMIT")

    small = _cost(SMALL, sees_calls, insert_in_txn)
    large = _cost(LARGE, sees_calls, insert_in_txn)
    assert small == large


def test_hot_key_updates_keep_versions_flat():
    """Reclaim at commit: 2000 UPDATEs of one row leave a bounded
    number of versions, and the row still reads back correctly."""
    db = Database.from_script(
        "CREATE TABLE H (K INT NOT NULL, V INT, PRIMARY KEY (K));"
        "INSERT INTO H VALUES (1, 0);"
    )
    with repro.connect(db) as conn:
        for value in range(1, 2001):
            conn.execute("UPDATE H SET V = :V WHERE K = 1", {"V": value})
        assert conn.execute("SELECT V FROM H").fetchall() == [(2000,)]
    data = db.table("H")
    assert len(data.versions) <= 32
    assert data.key_versions(0, row_sort_key((1,))) == [data.versions[-1]]
