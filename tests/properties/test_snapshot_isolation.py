"""Property tests: snapshot isolation under random interleaved schedules.

Hypothesis drives an arbitrary interleaving of several writer
transactions (inserts, deletes, commits, rollbacks) over one table and
checks the two load-bearing guarantees directly against an
independently maintained serial model:

* **Reader pinning** — a reader that begins at any point of the
  schedule observes exactly the committed state at its begin instant,
  no matter what commits afterwards.
* **Serial equivalence of commits** — the final committed state equals
  the serial application of the successfully committed transactions in
  commit order, and committed candidate keys are always unique.

The model never peeks at MVCC internals: it folds a transaction's
buffered effects in only when ``commit()`` returns, so a divergence
means the engine published something it should not have (or lost
something it should have kept).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.database import Database
from repro.errors import UniquenessViolationError, WriteConflictError
from repro.types.values import row_sort_key

WRITERS = 3
KEYS = st.integers(min_value=0, max_value=5)

OP = st.one_of(
    st.tuples(st.just("put"), KEYS, st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("del"), KEYS),
    st.tuples(st.just("commit")),
    st.tuples(st.just("rollback")),
)

SCHEDULE = st.lists(
    st.tuples(st.integers(min_value=0, max_value=WRITERS - 1), OP),
    min_size=1,
    max_size=30,
)


def _fresh() -> Database:
    return Database.from_script(
        """
CREATE TABLE T (K INT NOT NULL, V INT, PRIMARY KEY (K));
INSERT INTO T VALUES (0, 1000), (1, 1001);
"""
    )


def _committed(db: Database) -> dict[int, int]:
    state = {}
    for row in db.table("T").rows:
        assert row[0] not in state, "committed candidate key duplicated"
        state[row[0]] = row[1]
    return state


def _apply(db, txn, deleted, op):
    kind = op[0]
    if kind == "put":
        _, key, value = op
        try:
            txn.insert_row("T", (key, value))
        except UniquenessViolationError:
            pass  # key visible to this transaction: correctly rejected
    elif kind == "del":
        _, key = op
        for version in [
            v for v in txn.visible_versions("T") if v.row[0] == key
        ]:
            if txn.delete_version("T", version):
                deleted.append(tuple(version.row))
        for row in [r for r in txn.pending_inserts("T") if r[0] == key]:
            txn.delete_pending_insert("T", row)


def _commit(txn, deleted, model):
    """Try to commit; fold the effects into *model* only on success."""
    pending = [tuple(row) for row in txn.pending_inserts("T")]
    try:
        txn.commit()
    except (WriteConflictError, UniquenessViolationError):
        return  # loser of a race: publishes nothing
    for row in deleted:
        # No conflict was raised, so every deleted version was still
        # current — the model must agree it was there.
        assert model.get(row[0]) == row[1]
        del model[row[0]]
    for key, value in pending:
        assert key not in model, "commit published a duplicate key"
        model[key] = value


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=SCHEDULE, reader_at=st.integers(min_value=0, max_value=30))
def test_random_interleavings_are_snapshot_isolated(schedule, reader_at):
    db = _fresh()
    model = _committed(db)
    open_txns: dict[int, object] = {}
    deleted: dict[int, list] = {}
    reader = None
    reader_expected = None

    for step, (writer, op) in enumerate(schedule):
        if reader is None and step >= reader_at:
            reader = db.begin()
            reader_expected = dict(model)
        txn = open_txns.get(writer)
        if op[0] in ("commit", "rollback"):
            if txn is None:
                continue
            if op[0] == "commit":
                _commit(txn, deleted[writer], model)
            else:
                txn.rollback()
            del open_txns[writer]
            continue
        if txn is None:
            txn = open_txns[writer] = db.begin()
            deleted[writer] = []
        _apply(db, txn, deleted[writer], op)
        # Uncommitted work never leaks into the committed state.
        assert _committed(db) == model

    if reader is None:
        reader = db.begin()
        reader_expected = dict(model)
    for writer, txn in list(open_txns.items()):
        _commit(txn, deleted[writer], model)

    # Serial equivalence: the committed table is exactly the serial
    # fold of the transactions in the order their commits succeeded.
    assert _committed(db) == model

    # Reader pinning: everything committed after the reader began is
    # invisible to it; everything before remains visible.
    view = reader.view()
    observed = {row[0]: row[1] for row in view.table("T").rows}
    assert observed == reader_expected
    reader.rollback()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    keys=st.lists(KEYS, min_size=2, max_size=8),
)
def test_concurrent_inserters_never_publish_duplicates(keys):
    """Every pair of racing inserters of one key resolves to exactly
    one committed row — the other gets the typed violation at commit."""
    db = _fresh()
    txns = [db.begin() for _ in keys]
    buffered = []
    for txn, key in zip(txns, keys):
        try:
            txn.insert_row("T", (key, 7))
            buffered.append(txn)
        except UniquenessViolationError:
            txn.rollback()  # seed row already owns the key
    for txn in buffered:
        try:
            txn.commit()
        except UniquenessViolationError:
            pass
    _committed(db)  # asserts key uniqueness internally


# ---------------------------------------------------------------------------
# reclaim interleavings
#
# Every commit reclaims the deleted versions below the manager's horizon
# (the oldest xid still active in, or after, any open snapshot).  These
# schedules pin readers at random points while writers churn a few hot
# keys, and check after every step that each pinned reader still finds
# exactly its begin-time state — through the key index (live slot plus
# side map) and through its full view — so reclaim never drops a
# version some open snapshot can see.

RECLAIM_OP = st.one_of(
    OP,
    st.tuples(st.just("upd"), KEYS, st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("pin")),
    st.tuples(st.just("unpin")),
)
RECLAIM_SCHEDULE = st.lists(
    st.tuples(st.integers(min_value=0, max_value=WRITERS - 1), RECLAIM_OP),
    min_size=1,
    max_size=40,
)


def _key_state(txn, data) -> dict[int, int]:
    """What *txn* sees of every key, read through the key index."""
    state = {}
    for key in range(6):
        versions = txn.visible_key_versions(data, 0, row_sort_key((key,)))
        assert len(versions) <= 1, "a snapshot sees one version per key"
        if versions:
            state[key] = versions[0].row[1]
    return state


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(schedule=RECLAIM_SCHEDULE)
def test_reclaim_never_drops_a_version_a_pinned_snapshot_sees(schedule):
    db = _fresh()
    data = db.table("T")
    model = _committed(db)
    open_txns: dict[int, object] = {}
    deleted: dict[int, list] = {}
    readers: list[tuple[object, dict]] = []

    for writer, op in schedule:
        txn = open_txns.get(writer)
        if op[0] == "pin":
            readers.append((db.begin(), dict(model)))
        elif op[0] == "unpin":
            if readers:
                reader, expected = readers.pop(0)
                observed = {r[0]: r[1] for r in reader.view().table("T").rows}
                assert observed == expected
                reader.rollback()
        elif op[0] in ("commit", "rollback"):
            if txn is not None:
                if op[0] == "commit":
                    _commit(txn, deleted[writer], model)
                else:
                    txn.rollback()
                del open_txns[writer]
        else:
            if txn is None:
                txn = open_txns[writer] = db.begin()
                deleted[writer] = []
            if op[0] == "upd":  # UPDATE: delete then re-insert the key
                _apply(db, txn, deleted[writer], ("del", op[1]))
                _apply(db, txn, deleted[writer], ("put", op[1], op[2]))
            else:
                _apply(db, txn, deleted[writer], op)
        for reader, expected in readers:
            assert _key_state(reader, data) == expected

    for writer, txn in list(open_txns.items()):
        _commit(txn, deleted[writer], model)
    for reader, expected in readers:
        observed = {r[0]: r[1] for r in reader.view().table("T").rows}
        assert observed == expected
        reader.rollback()
    assert _committed(db) == model

    # With no snapshot open, the next commit reclaims every dead
    # version: each key's index entry is its live version alone.
    closer = db.begin()
    closer.insert_row("T", (99, 0))
    closer.commit()
    for key in range(6):
        found = data.key_versions(0, row_sort_key((key,)))
        assert [v.row[1] for v in found] == (
            [model[key]] if key in model else []
        )
        assert all(v.xmax is None for v in found)


def test_reclaim_spares_the_pinned_reader_then_drops_the_rest():
    db = _fresh()
    data = db.table("T")
    reader = db.begin()
    for value in range(100):
        writer = db.begin()
        (version,) = writer.visible_key_versions(data, 0, row_sort_key((0,)))
        writer.delete_version("T", version)
        writer.insert_row("T", (0, value))
        writer.commit()
    # The reader's version of key 0 survived 100 commits' reclaim.
    assert _key_state(reader, data) == {0: 1000, 1: 1001}
    assert sorted(reader.view().table("T").rows) == [(0, 1000), (1, 1001)]
    reader.rollback()
    closer = db.begin()
    closer.insert_row("T", (5, 5))
    closer.commit()
    assert [v.row for v in data.key_versions(0, row_sort_key((0,)))] == [(0, 99)]
    assert len(data.versions) <= len(data.rows) + 32


def test_reclaim_waits_for_snapshots_that_saw_the_deleter_active():
    """A reader that began while the deleter was active never sees the
    delete, even though the deleter's xid is below the reader's own."""
    db = _fresh()
    data = db.table("T")
    deleter = db.begin()
    reader = db.begin()
    (old,) = deleter.visible_key_versions(data, 0, row_sort_key((0,)))
    deleter.delete_version("T", old)
    deleter.commit()
    assert _key_state(reader, data) == {0: 1000, 1: 1001}
    assert old in data.versions
    reader.rollback()


def test_conflicts_are_still_raised_over_reclaimed_state():
    db = _fresh()
    data = db.table("T")
    pinned = db.begin()
    updater = db.begin()
    (old,) = updater.visible_key_versions(data, 0, row_sort_key((0,)))
    updater.delete_version("T", old)
    updater.insert_row("T", (0, 7))
    updater.commit()
    # The pinned transaction still sees the old version of key 0 (kept
    # in the side map), so re-inserting the key is a violation at once,
    # and deleting the old version loses to the committed update.
    with pytest.raises(UniquenessViolationError):
        pinned.insert_row("T", (0, 8))
    (seen,) = pinned.visible_key_versions(data, 0, row_sort_key((0,)))
    assert seen is old
    pinned.delete_version("T", seen)
    with pytest.raises(WriteConflictError):
        pinned.commit()

    first, second = db.begin(), db.begin()
    first.insert_row("T", (9, 1))
    first.commit()
    second.insert_row("T", (9, 2))  # invisible to second's snapshot
    with pytest.raises(UniquenessViolationError):
        second.commit()
    assert sorted(db.table("T").rows) == [(0, 7), (1, 1001), (9, 1)]
