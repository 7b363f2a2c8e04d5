"""Examples 1-11 over HTTP must be byte-identical to direct execution.

The wire adds a JSON codec and a worker handoff between the caller and
the engine; neither may perturb results.  Every paper query runs twice
— through a local :class:`~repro.api.Connection` and through a
:class:`~repro.net.server.QueryServer` — and must produce the same
columns and the same row multiset (≐ semantics, NULLs included), plus
the same rewrite trail, both plain and streamed."""

from __future__ import annotations

import pytest

import repro
from repro.net.server import QueryServer
from repro.workloads import (
    PAPER_QUERIES,
    SupplierScale,
    build_database,
    generate,
)

SCALE = SupplierScale(suppliers=15, parts_per_supplier=4, agents_per_supplier=2)


@pytest.fixture(scope="module")
def db():
    return build_database(generate(SCALE))


@pytest.fixture(scope="module")
def served(db):
    with QueryServer(db, workers=2, stream_chunk_rows=7) as server:
        yield server


@pytest.mark.parametrize(
    "query", PAPER_QUERIES, ids=lambda q: f"E{q.example}"
)
def test_examples_identical_over_http(query, db, served):
    with repro.connect(db) as local_conn:
        local = local_conn.execute(query.sql, query.params or None)
        local_rows = local.fetchall()
        local_executed = local.executed
    with repro.connect(served.url) as remote_conn:
        remote = remote_conn.execute(query.sql, query.params or None)
        remote_rows = remote.fetchall()
        remote_executed = remote.executed

    assert remote.columns == local.columns
    assert sorted(map(repr, remote_rows)) == sorted(map(repr, local_rows))
    assert remote_executed.rewritten == local_executed.rewritten
    assert remote_executed.rules == local_executed.rules
    assert remote_executed.sql == local_executed.sql


@pytest.mark.parametrize(
    "query", PAPER_QUERIES, ids=lambda q: f"E{q.example}"
)
def test_examples_identical_streamed(query, db, served):
    with repro.connect(db) as local_conn:
        local_rows = local_conn.execute(
            query.sql, query.params or None
        ).fetchall()
    with repro.connect(served.url, stream=True) as remote_conn:
        remote_rows = remote_conn.execute(
            query.sql, query.params or None
        ).fetchall()
    assert sorted(map(repr, remote_rows)) == sorted(map(repr, local_rows))
