"""MVCC snapshot isolation: visibility, conflicts, and invalidation.

The contract under test: readers pinned to their begin snapshot never
block and never see uncommitted or later-committed writes; the first
committer of two conflicting writers wins and the loser gets a typed
:class:`~repro.errors.WriteConflictError`; a commit bumps the data
version of exactly the tables it touched, which is what the scoped
plan-cache / statistics / correction keys build on.
"""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.engine.dml import execute_dml
from repro.errors import (
    TransactionError,
    UniquenessViolationError,
    WriteConflictError,
)
from repro.observe.metrics import PROCESS_METRICS
from repro.sql.parser import parse


def fresh_db() -> Database:
    return Database.from_script(
        """
CREATE TABLE T (A INT NOT NULL, B INT, PRIMARY KEY (A));
CREATE TABLE OTHER (X INT NOT NULL, PRIMARY KEY (X));
INSERT INTO T VALUES (1, 10), (2, 20);
INSERT INTO OTHER VALUES (7);
"""
    )


def rows(db: Database, table: str = "T"):
    return sorted(tuple(r) for r in db.table(table).rows)


def txn_rows(txn, table: str = "T"):
    view = txn.view()
    return sorted(tuple(r) for r in view.table(table).rows)


class TestSnapshotVisibility:
    def test_uncommitted_insert_invisible_to_others(self):
        db = fresh_db()
        writer = db.begin()
        writer.insert_row("T", (3, 30))
        reader = db.begin()
        assert txn_rows(reader) == [(1, 10), (2, 20)]
        assert txn_rows(writer) == [(1, 10), (2, 20), (3, 30)]
        writer.commit()
        # The reader stays pinned to its begin snapshot even after the
        # writer commits.
        assert txn_rows(reader) == [(1, 10), (2, 20)]
        reader.rollback()
        assert rows(db) == [(1, 10), (2, 20), (3, 30)]

    def test_reader_pinned_across_delete(self):
        db = fresh_db()
        reader = db.begin()
        writer = db.begin()
        (version,) = [
            v for v in writer.visible_versions("T") if v.row[0] == 1
        ]
        writer.delete_version("T", version)
        writer.commit()
        assert txn_rows(reader) == [(1, 10), (2, 20)]
        reader.rollback()
        assert rows(db) == [(2, 20)]

    def test_transaction_started_after_commit_sees_it(self):
        db = fresh_db()
        writer = db.begin()
        writer.insert_row("T", (3, 30))
        writer.commit()
        late = db.begin()
        assert txn_rows(late) == [(1, 10), (2, 20), (3, 30)]
        late.rollback()

    def test_rollback_discards_everything(self):
        db = fresh_db()
        txn = db.begin()
        txn.insert_row("T", (3, 30))
        (version,) = [v for v in txn.visible_versions("T") if v.row[0] == 2]
        txn.delete_version("T", version)
        txn.rollback()
        assert rows(db) == [(1, 10), (2, 20)]

    def test_commit_after_rollback_rejected(self):
        db = fresh_db()
        txn = db.begin()
        txn.rollback()
        with pytest.raises(TransactionError):
            txn.commit()


class TestConflicts:
    def test_first_committer_wins(self):
        db = fresh_db()
        one, two = db.begin(), db.begin()
        for txn in (one, two):
            (version,) = [
                v for v in txn.visible_versions("T") if v.row[0] == 1
            ]
            txn.delete_version("T", version)
            txn.insert_row("T", (1, 99 if txn is one else 77))
        one.commit()
        with pytest.raises(WriteConflictError):
            two.commit()
        # The loser aborted: its writes are gone, the winner's stand.
        assert rows(db) == [(1, 99), (2, 20)]

    def test_loser_rollback_is_safe_noop(self):
        db = fresh_db()
        one, two = db.begin(), db.begin()
        for txn in (one, two):
            (version,) = [
                v for v in txn.visible_versions("T") if v.row[0] == 2
            ]
            txn.delete_version("T", version)
        one.commit()
        with pytest.raises(WriteConflictError):
            two.commit()
        two.rollback()  # must not raise

    def test_disjoint_writers_both_commit(self):
        db = fresh_db()
        one, two = db.begin(), db.begin()
        one.insert_row("T", (3, 30))
        two.insert_row("T", (4, 40))
        one.commit()
        two.commit()
        assert rows(db) == [(1, 10), (2, 20), (3, 30), (4, 40)]


class TestUniqueness:
    def test_online_duplicate_detected_at_buffer_time(self):
        db = fresh_db()
        txn = db.begin()
        with pytest.raises(UniquenessViolationError):
            txn.insert_row("T", (1, 0))
        txn.rollback()

    def test_duplicate_within_transaction(self):
        db = fresh_db()
        txn = db.begin()
        txn.insert_row("T", (3, 30))
        with pytest.raises(UniquenessViolationError):
            txn.insert_row("T", (3, 31))
        txn.rollback()

    def test_delete_frees_key_for_reinsert(self):
        db = fresh_db()
        txn = db.begin()
        (version,) = [v for v in txn.visible_versions("T") if v.row[0] == 1]
        txn.delete_version("T", version)
        txn.insert_row("T", (1, 11))  # key freed by the buffered delete
        txn.commit()
        assert rows(db) == [(1, 11), (2, 20)]

    def test_concurrent_committed_duplicate_caught_at_commit(self):
        db = fresh_db()
        one, two = db.begin(), db.begin()
        one.insert_row("T", (5, 1))
        two.insert_row("T", (5, 2))  # not visible to each other yet
        one.commit()
        with pytest.raises(UniquenessViolationError):
            two.commit()
        assert rows(db) == [(1, 10), (2, 20), (5, 1)]


class TestScopedInvalidation:
    def test_commit_bumps_only_touched_tables(self):
        db = fresh_db()
        before_t = db.table("T").version
        before_other = db.table("OTHER").version
        txn = db.begin()
        txn.insert_row("T", (3, 30))
        txn.commit()
        assert db.table("T").version == before_t + 1
        assert db.table("OTHER").version == before_other

    def test_invalidation_counters_prove_precision(self):
        db = fresh_db()
        scoped = PROCESS_METRICS.value("invalidation_scoped_total")
        total = PROCESS_METRICS.value("invalidation_total")
        txn = db.begin()
        txn.insert_row("T", (3, 30))
        txn.commit()
        # One commit touching one of two tables: scoped moves by 1,
        # total by 2 — the gap is the savings scoping buys.
        assert PROCESS_METRICS.value("invalidation_scoped_total") == scoped + 1
        assert PROCESS_METRICS.value("invalidation_total") == total + 2

    def test_commit_and_rollback_counters(self):
        db = fresh_db()
        commits = PROCESS_METRICS.value("txn_commits_total")
        rollbacks = PROCESS_METRICS.value("txn_rollbacks_total")
        txn = db.begin()
        txn.insert_row("T", (3, 30))
        txn.commit()
        other = db.begin()
        other.insert_row("T", (4, 40))
        other.rollback()
        assert PROCESS_METRICS.value("txn_commits_total") == commits + 1
        assert PROCESS_METRICS.value("txn_rollbacks_total") == rollbacks + 1


class TestSavepoints:
    def test_restore_rewinds_partial_statement(self):
        db = fresh_db()
        txn = db.begin()
        txn.insert_row("T", (3, 30))
        state = txn.savepoint()
        txn.insert_row("T", (4, 40))
        txn.restore(state)
        txn.commit()
        assert rows(db) == [(1, 10), (2, 20), (3, 30)]

    def test_failed_statement_leaves_the_transaction_exactly_as_before(self):
        db = fresh_db()
        txn = db.begin()
        for key in (3, 4, 5):
            txn.insert_row("T", (key, key * 10))
        (first,) = [v for v in txn.visible_versions("T") if v.row[0] == 1]
        txn.delete_version("T", first)
        pending, visible = list(txn.pending_inserts("T")), txn_rows(txn)
        count = txn.change_count
        # Deletes the committed row 2 and the three pending rows, inserts
        # (9, 20), then fails on (9, 30): every kind of buffered write
        # is undone, newest first.
        with pytest.raises(UniquenessViolationError):
            execute_dml(parse("UPDATE T SET A = 9"), txn)
        assert txn.pending_inserts("T") == pending
        assert txn_rows(txn) == visible
        assert txn.change_count > count
        with pytest.raises(UniquenessViolationError):
            txn.insert_row("T", (4, 0))  # still pending
        txn.insert_row("T", (9, 0))  # the failed statement's key is free
        txn.insert_row("T", (1, 0))  # still deleted
        txn.commit()
        assert rows(db) == [(1, 0), (2, 20), (3, 30), (4, 40), (5, 50), (9, 0)]
