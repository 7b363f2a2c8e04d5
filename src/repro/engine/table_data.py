"""Stored base tables with constraint enforcement.

Inserts validate, in order: column count and NOT NULL, CHECK constraints
(true-interpretation: a check passes when its condition is true *or
unknown*), and key uniqueness under the ≐ semantics the paper adopts
from SQL2 — a UNIQUE candidate key treats NULL as a single special
value, so at most one row may carry any given (possibly NULL) key.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence

from ..catalog.table import TableSchema
from ..errors import ConstraintViolation, UniquenessViolationError
from ..resilience.faults import FAULTS, SITE_INDEX_BUILD
from ..types.values import NULL, SqlValue, format_value, is_null, row_sort_key
from .columnar import ColumnBatch
from .schema import RelSchema, Scope
from .txn import RowVersion

if TYPE_CHECKING:  # pragma: no cover
    from .evaluator import Evaluator


class TableData:
    """Row storage for one base table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self.rows: list[tuple] = []
        #: MVCC row versions: appended and xmax-stamped under the
        #: transaction manager's commit lock, with reclaimed dead
        #: versions compacted away (see :meth:`reclaim`).  ``rows`` is
        #: always the materialization of the live versions (``xmax is
        #: None``), so the read fast path never pays a visibility check.
        self.versions: list[RowVersion] = []
        # One uniqueness index per declared key: canonical key-tuple ->
        # the live version carrying it.  Candidate keys make each entry
        # a single slot (the paper's Theorem 1).
        self._key_indexes: list[dict[tuple, RowVersion]] = [
            {} for _ in schema.candidate_keys
        ]
        # Deleted versions some open snapshot may still see, per key:
        # canonical key-tuple -> versions (immutable tuples, replaced
        # whole, so a concurrent probe never sees one half-edited).
        self._dead_keys: list[dict[tuple, tuple[RowVersion, ...]]] = [
            {} for _ in schema.candidate_keys
        ]
        # The same deleted versions in commit order, for reclaim.
        self._dead: deque[RowVersion] = deque()
        # Reclaimed versions still listed in ``versions`` (see reclaim).
        self._reclaimed = 0
        # General hash indexes, built lazily per column tuple and then
        # maintained incrementally: canonical key -> rows in insertion
        # order (non-unique columns map to multi-row buckets).
        self._hash_indexes: dict[tuple[str, ...], dict[tuple, list[tuple]]] = {}
        # Single-flight build coordination: the lock guards the index
        # and in-flight dictionaries (bookkeeping only — the O(n) build
        # itself runs outside it), and one Event per in-flight column
        # tuple parks the waiters.  Leaf lock: nothing else is acquired
        # while it is held.
        self._index_lock = threading.Lock()
        self._builds_in_flight: dict[tuple[str, ...], threading.Event] = {}
        # Probe column tuples a key index answers: columns -> (key
        # position, probe-value order in the key's column order), or
        # None when the columns are not exactly one key's columns.
        self._key_probes: dict[
            tuple[str, ...], tuple[int, tuple[int, ...]] | None
        ] = {}
        # Key positions whose index holds one row of an unenforced
        # duplicate (``insert(enforce=False)``): probes scan a hash index.
        self._inexact_keys: set[int] = set()
        #: O(n) hash-index builds actually performed (the concurrency
        #: stress test asserts N racing sessions cause exactly one).
        self.index_builds = 0
        #: Times a session parked on another session's in-flight build.
        self.single_flight_waits = 0
        #: Monotonic data version; bumped by every mutation so cached
        #: artifacts keyed on a database fingerprint go stale correctly.
        self.version = 0
        # Columnar projections, cached per batch size alongside the hash
        # indexes: batch_rows -> (version stamp, batches).  Entries are
        # validated against ``version`` on every read, so any mutation
        # invalidates them without extra bookkeeping in the write paths.
        self._columnar: dict[int, tuple[int, list[ColumnBatch]]] = {}
        #: Columnar materializations actually performed (cache efficacy).
        self.columnar_builds = 0

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # hash indexes (equality access paths)

    def indexable_columns(self) -> set[str]:
        """Columns the engine auto-indexes: key and FOREIGN KEY columns.

        These are the probe targets the paper's workloads hit — key
        lookups from ``col = const`` predicates and FK correlation
        probes from ``EXISTS`` / ``IN`` subqueries.
        """
        columns: set[str] = set()
        for key in self.schema.candidate_keys:
            columns.update(key.columns)
        for fk in self.schema.foreign_keys:
            columns.update(fk.columns)
        return columns

    def hash_index(self, columns: tuple[str, ...]) -> dict[tuple, list[tuple]]:
        """The hash index over *columns*, built on first use.

        The build is a single O(n) pass; afterwards the index is
        maintained incrementally by insert/remove/clear, so repeated
        probes (a correlated subquery per outer row, a templated query
        per batch item) amortize it away.

        Builds are *single-flight*: when N sessions race to probe the
        same cold index, exactly one performs the O(n) pass while the
        others park on an event and reuse the result.  If the builder
        fails (e.g. an injected ``index_build`` fault), one parked
        waiter is promoted to builder and retries, so a transient build
        failure never wedges the other sessions — and a persistent one
        surfaces in every session exactly as it would serially.
        """
        index = self._hash_indexes.get(columns)
        if index is not None:
            return index
        while True:
            with self._index_lock:
                index = self._hash_indexes.get(columns)
                if index is not None:
                    return index
                event = self._builds_in_flight.get(columns)
                if event is None:
                    event = threading.Event()
                    self._builds_in_flight[columns] = event
                    building = True
                else:
                    self.single_flight_waits += 1
                    building = False
            if not building:
                event.wait()
                continue  # re-check: the builder stored it, or failed
            try:
                if FAULTS.armed:
                    FAULTS.check(SITE_INDEX_BUILD)
                positions = [
                    self.schema.column_index(name) for name in columns
                ]
                index = {}
                for row in self.rows:
                    key = row_sort_key(tuple(row[p] for p in positions))
                    index.setdefault(key, []).append(row)
                with self._index_lock:
                    self._hash_indexes[columns] = index
                    self.index_builds += 1
                return index
            finally:
                with self._index_lock:
                    self._builds_in_flight.pop(columns, None)
                event.set()

    def index_lookup(
        self, columns: tuple[str, ...], values: tuple
    ) -> list[tuple]:
        """Rows whose *columns* equal *values*, via an index.

        When *columns* are a candidate key's columns (in any order) the
        key index answers: a full key probe has at most one row
        (Theorem 1), the live version carrying it.  Other columns go to
        the lazy hash index.  NULL probe values return no rows: a
        WHERE-clause equality with NULL is never TRUE (callers relying
        on ≐ must test separately).
        """
        if any(is_null(value) for value in values):
            return []
        probe = self._key_probes.get(columns, False)
        if probe is False:
            probe = self._key_probe(columns)
        if probe is not None and probe[0] not in self._inexact_keys:
            position, order = probe
            version = self._key_indexes[position].get(
                row_sort_key(tuple(values[i] for i in order))
            )
            return [] if version is None else [version.row]
        return self.hash_index(columns).get(row_sort_key(values), [])

    def _key_probe(
        self, columns: tuple[str, ...]
    ) -> tuple[int, tuple[int, ...]] | None:
        """Which key index answers a probe on *columns* (memoized)."""
        probe = None
        positions = [self.schema.column_index(name) for name in columns]
        for number, key in enumerate(self.schema.candidate_keys):
            key_positions = [self.schema.column_index(n) for n in key.columns]
            if len(positions) == len(key_positions) and set(positions) == set(
                key_positions
            ):
                order = tuple(positions.index(p) for p in key_positions)
                probe = (number, order)
                break
        self._key_probes[columns] = probe
        return probe

    def has_hash_index(self, columns: tuple[str, ...]) -> bool:
        """Whether an index over *columns* has been materialized."""
        return columns in self._hash_indexes

    # ------------------------------------------------------------------
    # columnar projections (vectorized scans)

    def column_batches(self, batch_rows: int) -> list[ColumnBatch]:
        """The table transposed into morsel-sized column batches.

        Materialized lazily on the first vectorized scan and cached per
        batch size; the cache entry carries the data version it was
        built from and is discarded when any mutation has bumped
        ``version`` since.  Racing builders may transpose concurrently
        (the result is identical either way); only the cache dictionary
        itself is touched under the leaf ``_index_lock``.
        """
        with self._index_lock:
            cached = self._columnar.get(batch_rows)
            if cached is not None and cached[0] == self.version:
                return cached[1]
        version = self.version
        rows = self.rows
        width = len(self.schema.columns)
        batches = [
            ColumnBatch.from_rows(rows[start:start + batch_rows], width)
            for start in range(0, len(rows), batch_rows)
        ]
        with self._index_lock:
            if version == self.version:
                self._columnar[batch_rows] = (version, batches)
                self.columnar_builds += 1
        return batches

    # ------------------------------------------------------------------
    # loading

    def insert(
        self,
        values: Sequence[SqlValue],
        evaluator: "Evaluator | None" = None,
        enforce: bool = True,
    ) -> tuple:
        """Insert one row given positionally, validating constraints.

        Pass ``enforce=False`` to bypass validation (used by tests that
        deliberately construct invalid instances).
        """
        row = tuple(values)
        if len(row) != len(self.schema.columns):
            raise ConstraintViolation(
                self.schema.name,
                f"expected {len(self.schema.columns)} values, got {len(row)}",
            )
        if enforce:
            self._check_not_null(row)
            self._check_conditions(row, evaluator)
            self._check_keys(row)
        version = RowVersion(row)
        self.rows.append(row)
        self.versions.append(version)
        self._index_row(version)
        return row

    def insert_mapping(
        self,
        values: dict[str, SqlValue],
        evaluator: "Evaluator | None" = None,
        enforce: bool = True,
    ) -> tuple:
        """Insert one row given as a column->value mapping.

        Missing columns receive NULL.
        """
        row = tuple(
            values.get(column.name, NULL) for column in self.schema.columns
        )
        unknown = set(values) - {column.name for column in self.schema.columns}
        if unknown:
            raise ConstraintViolation(
                self.schema.name, f"unknown columns: {sorted(unknown)}"
            )
        return self.insert(row, evaluator, enforce)

    def extend(
        self,
        rows: Iterable[Sequence[SqlValue]],
        evaluator: "Evaluator | None" = None,
        enforce: bool = True,
    ) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row, evaluator, enforce)
            count += 1
        return count

    def clear(self) -> None:
        """Delete every row (and reset the key and hash indexes)."""
        self.rows.clear()
        self.versions.clear()
        for index in self._key_indexes + self._dead_keys:
            index.clear()
        self._inexact_keys.clear()
        self._dead.clear()
        self._reclaimed = 0
        with self._index_lock:
            for hash_index in self._hash_indexes.values():
                hash_index.clear()
            self._columnar.clear()
        self.version += 1

    def has_key_value(
        self, columns: tuple[str, ...], values: tuple
    ) -> bool | None:
        """Index-accelerated lookup: does a row carry *values* in *columns*?

        Returns None when *columns* is not a declared candidate key (the
        caller must fall back to a scan).
        """
        for key, index in zip(self.schema.candidate_keys, self._key_indexes):
            if key.columns == tuple(columns):
                return row_sort_key(values) in index
        return None

    def key_versions(self, position: int, key: tuple) -> list[RowVersion]:
        """Stored versions carrying *key* in candidate key *position*.

        The deleted versions some snapshot may still see come first,
        then the live one, so the list follows ``versions`` order.  The
        live slot is read before the side map: a commit moving a version
        across adds it to the side map before clearing the slot, so a
        concurrent probe finds it in one place or both, never neither.
        """
        live = self._key_indexes[position].get(key)
        found = list(self._dead_keys[position].get(key, ()))
        if live is not None and not any(v is live for v in found):
            found.append(live)
        return found

    def remove_last(self) -> tuple:
        """Undo the most recent insert (row and all index entries)."""
        row = self.rows.pop()
        if self.versions and self.versions[-1].row is row:
            self.versions.pop()
        for key, index in zip(self.schema.candidate_keys, self._key_indexes):
            kt = self._key_tuple(key.columns, row)
            live = index.get(kt)
            if live is not None and live.row is row:
                del index[kt]
        with self._index_lock:
            for columns, hash_index in self._hash_indexes.items():
                key = self._key_tuple(columns, row)
                bucket = hash_index.get(key)
                if bucket:
                    bucket.pop()
                    if not bucket:
                        del hash_index[key]
        self.version += 1
        return row

    # ------------------------------------------------------------------
    # MVCC commit apply

    def apply_writes(
        self,
        deletes: Sequence["RowVersion"],
        inserts: Sequence[tuple],
        xid: int,
    ) -> None:
        """Publish one transaction's writes to this table as a batch.

        Runs under the transaction manager's commit lock.  Deleted
        versions get their ``xmax`` stamp and move from the key index
        to its side map (older snapshots may still see them), inserted
        rows become live versions stamped ``xmin=xid``, and the
        committed row list is copied, edited and swapped in one
        reference assignment — a concurrent reader sees the whole
        commit or none of it.  Nothing walks ``versions``.  Key and hash
        indexes are maintained as one deferred batch (never touched at
        statement time), and the data version bumps exactly once, which
        is what keeps invalidation scoped to touched tables.
        """
        for version in deletes:
            version.xmax = xid
        fresh = [RowVersion(tuple(row), xmin=xid) for row in inserts]
        for key, index, dead in zip(
            self.schema.candidate_keys, self._key_indexes, self._dead_keys
        ):
            for version in deletes:
                kt = self._key_tuple(key.columns, version.row)
                dead[kt] = dead.get(kt, ()) + (version,)
                if index.get(kt) is version:
                    del index[kt]
            for version in fresh:
                index[self._key_tuple(key.columns, version.row)] = version
        self._dead.extend(deletes)
        # A few deletes: one C-level search each; many: one identity pass.
        if len(deletes) > 8:
            gone = {id(version.row) for version in deletes}
            new_rows = [row for row in self.rows if id(row) not in gone]
        else:
            new_rows = self.rows.copy()
            for version in deletes:
                new_rows.remove(version.row)
        new_rows.extend(version.row for version in fresh)
        self.versions.extend(fresh)
        self.rows = new_rows
        with self._index_lock:
            for columns, hash_index in self._hash_indexes.items():
                for version in deletes:
                    key = self._key_tuple(columns, version.row)
                    bucket = hash_index.get(key)
                    if bucket:
                        try:
                            bucket.remove(version.row)
                        except ValueError:  # pragma: no cover - defensive
                            pass
                        if not bucket:
                            del hash_index[key]
                for version in fresh:
                    hash_index.setdefault(
                        self._key_tuple(columns, version.row), []
                    ).append(version.row)
        self.version += 1

    def reclaim(self, horizon: int) -> None:
        """Drop the deleted versions no open snapshot can see.

        Runs under the commit lock.  A version deleted by a transaction
        below *horizon* (the manager's oldest xid still active in, or
        after, any open snapshot) is invisible to every open and future
        snapshot.  Reclaimed versions leave the key side map at once and
        ``versions`` in amortized batches; the compacted list is swapped
        in by one reference assignment, so a concurrent
        :meth:`~repro.engine.txn.Transaction.visible_versions` walk keeps
        the list it started on.
        """
        dead = self._dead
        while dead and dead[0].xmax < horizon:
            version = dead.popleft()
            for key, side in zip(self.schema.candidate_keys, self._dead_keys):
                kt = self._key_tuple(key.columns, version.row)
                kept = tuple(v for v in side.get(kt, ()) if v is not version)
                if kept:
                    side[kt] = kept
                else:
                    side.pop(kt, None)
            self._reclaimed += 1
        # Compact once reclaimed versions pass 1/16 of the list (plus
        # slack for small tables): amortized O(1) per reclaimed version.
        if self._reclaimed > 16 + len(self.versions) // 16:
            self.versions = [
                v for v in self.versions if v.xmax is None or v.xmax >= horizon
            ]
            self._reclaimed = 0

    # ------------------------------------------------------------------
    # validation

    def validate_row(
        self, row: tuple, evaluator: "Evaluator | None" = None
    ) -> None:
        """Row-local validation (count, NOT NULL, CHECK) without any
        uniqueness check — transactions check keys against their own
        view instead of the shared indexes."""
        if len(row) != len(self.schema.columns):
            raise ConstraintViolation(
                self.schema.name,
                f"expected {len(self.schema.columns)} values, got {len(row)}",
            )
        self._check_not_null(row)
        self._check_conditions(row, evaluator)

    def _check_not_null(self, row: tuple) -> None:
        for column, value in zip(self.schema.columns, row):
            if not column.nullable and is_null(value):
                raise ConstraintViolation(
                    self.schema.name, f"column {column.name} is NOT NULL"
                )

    def _check_conditions(self, row: tuple, evaluator: "Evaluator | None") -> None:
        if not self.schema.checks:
            return
        if evaluator is None:
            from .evaluator import Evaluator  # local import breaks the cycle

            evaluator = Evaluator()
        schema = RelSchema.for_table(self.schema.name, self.schema.column_names)
        scope = Scope(schema, row)
        for check in self.schema.checks:
            verdict = evaluator.predicate(check.condition, scope)
            # SQL2: a CHECK is violated only when definitely false.
            if not verdict.true_interpreted():
                raise ConstraintViolation(
                    self.schema.name,
                    f"{check.describe()} fails for row "
                    f"({', '.join(format_value(v) for v in row)})",
                )

    def _check_keys(self, row: tuple) -> None:
        for key, index in zip(self.schema.candidate_keys, self._key_indexes):
            key_value = self._key_tuple(key.columns, row)
            if key_value in index:
                raise UniquenessViolationError(self.schema.name, key.describe())

    def _index_row(self, version: RowVersion) -> None:
        row = version.row
        for number, (key, index) in enumerate(
            zip(self.schema.candidate_keys, self._key_indexes)
        ):
            key_value = self._key_tuple(key.columns, row)
            if key_value in index:  # only an unenforced insert gets here
                self._inexact_keys.add(number)
            index[key_value] = version
        with self._index_lock:
            for columns, hash_index in self._hash_indexes.items():
                hash_index.setdefault(
                    self._key_tuple(columns, row), []
                ).append(row)
        self.version += 1

    def _key_tuple(self, columns: tuple[str, ...], row: tuple) -> tuple:
        values = tuple(row[self.schema.column_index(name)] for name in columns)
        # row_sort_key canonicalizes NULL so NULL keys collide, matching
        # SQL2's treatment of NULL as a single special key value.
        return row_sort_key(values)
