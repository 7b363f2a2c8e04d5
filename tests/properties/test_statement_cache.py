"""Property: the statement cache is invisible in every answer.

Hypothesis draws random sequences of reads (the paper's Examples 1–11
plus key lookups, with and without safe mode), autocommit DML, DDL and
quarantine changes.  Two identical databases run the same sequence: one
through the cached pipeline, one with every cache disabled.  Each read
must agree on its rows (in order), ``rewritten``, ``rules``, the
executed SQL and the audit records; each write on its row count or
error type.  After every DDL or quarantine change both arms re-read
every text, so an entry that outlives what it was keyed on shows.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import Catalog, clear_all_caches, set_caches_enabled
from repro.core.rewrite import quarantine_rule, unquarantine_all
from repro.errors import ReproError
from repro.sql import parse
from repro.workloads import PAPER_QUERIES, SupplierScale, build_database, generate

SCALE = SupplierScale(suppliers=4, parts_per_supplier=3, agents_per_supplier=1)
DATA = generate(SCALE)

#: DDL re-creates HOT with and without its key, so a rewrite decided
#: under one schema is wrong under the other.
HOT = {
    True: "CREATE TABLE HOT (X INT NOT NULL, Y INT, PRIMARY KEY (X))",
    False: "CREATE TABLE HOT (X INT NOT NULL, Y INT)",
}
HOT_ROWS = [(1, 5), (2, 5)]

READS = [(query.sql, query.params) for query in PAPER_QUERIES] + [
    ("SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N", None),
    ("SELECT S.SNAME FROM SUPPLIER S WHERE S.SNO = :N", None),
    ("SELECT DISTINCT S.SCITY FROM SUPPLIER S", None),
    ("SELECT DISTINCT H.X, H.Y FROM HOT H", None),
    ("SELECT DISTINCT H.X FROM HOT H WHERE H.Y = 5", None),
]
WRITES = [
    "INSERT INTO SUPPLIER VALUES (:N, 'Zed', 'Toronto', 5, 'Active')",
    "DELETE FROM SUPPLIER WHERE SNO = :N",
    "UPDATE SUPPLIER SET SCITY = 'Toronto' WHERE SNO = :N",
]
RULES = ["distinct-elimination", "subquery-to-join", "intersect-to-exists"]

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("read"),
            st.integers(0, len(READS) - 1),
            st.integers(1, 6),
            st.booleans(),
        ),
        st.tuples(st.just("write"), st.integers(0, len(WRITES) - 1), st.integers(1, 6)),
        st.just(("ddl",)),
        st.tuples(st.just("quarantine"), st.sampled_from(RULES)),
        st.just(("unquarantine",)),
    ),
    min_size=1,
    max_size=25,
)


def _read(conn, index, n, safe_mode):
    sql, params = READS[index]
    executed = conn.execute(
        sql, params if params is not None else {"N": n}, safe_mode=safe_mode
    ).executed
    return (
        executed.rows,
        executed.rewritten,
        executed.rules,
        executed.sql,
        executed.outcome.audit.to_dicts(),
    )


def _write(conn, index, n):
    try:
        return conn.execute(WRITES[index], {"N": n}).rowcount
    except ReproError as error:
        return type(error).__name__


def _create_hot(db, keyed):
    """(Re-)create HOT, keyed on X or keyless, with the same rows."""
    db.create_table(Catalog().execute_ddl(parse(HOT[keyed])))
    for row in HOT_ROWS:
        db.insert("HOT", row)


def _uncached(call, *args):
    previous = set_caches_enabled(False)
    try:
        return call(*args)
    finally:
        set_caches_enabled(previous)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(OPS)
def test_cached_pipeline_matches_uncached(ops):
    clear_all_caches()
    unquarantine_all()
    cached_db, uncached_db = build_database(DATA), build_database(DATA)
    keyed = True
    for db in (cached_db, uncached_db):
        _create_hot(db, keyed)
    cached, uncached = repro.connect(cached_db), repro.connect(uncached_db)

    def same_read(index, n, safe_mode):
        assert _read(cached, index, n, safe_mode) == _uncached(
            _read, uncached, index, n, safe_mode
        )

    try:
        for op in ops:
            kind = op[0]
            if kind == "read":
                same_read(*op[1:])
                continue
            if kind == "write":
                assert _write(cached, *op[1:]) == _uncached(
                    _write, uncached, *op[1:]
                )
                continue
            if kind == "ddl":
                keyed = not keyed
                for db in (cached_db, uncached_db):
                    _create_hot(db, keyed)
            elif kind == "quarantine":
                quarantine_rule(op[1], "property test")
            else:
                unquarantine_all()
            for index in range(len(READS)):
                same_read(index, 2, False)
    finally:
        unquarantine_all()
        clear_all_caches()
