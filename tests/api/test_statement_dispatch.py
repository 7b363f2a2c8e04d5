"""The one statement dispatch: each statement text is parsed exactly once.

``Connection.execute`` and ``QueryService.submit`` both enter
:func:`repro.api.run_statement`, which takes the parsed statement from
the statement cache (parsing the text on a miss) and hands it, with its
source text, to every stage below; a warm text is not parsed at all.
The
counter here replaces ``repro.sql.parser.parse`` at *every* module name
bound to it (``from ..sql.parser import parse`` copies the function into
the importer), so a stage that re-parses through its own binding is
counted too; ``parse_query`` reaches the counter through the parser
module's own binding.
"""

from __future__ import annotations

import sys

import pytest

import repro
from repro import QueryService, clear_all_caches
from repro.api import run_with_options
from repro.errors import ParseError, ProtocolError
from repro.sql import parser

READ_SQL = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = 2"
#: Theorem 1 strips the DISTINCT, so safe mode runs its cross-check.
REWRITTEN_SQL = "SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 2"
INSERT_SQL = (
    "INSERT INTO SUPPLIER VALUES (9, 'Ezra', 'Chicago', 10, 'Active')"
)


@pytest.fixture()
def parse_calls(monkeypatch):
    """A list that grows by one text per call of ``parser.parse``.

    The registered caches start empty, so the lists do not depend on
    which texts earlier tests left in the process-wide statement cache.
    """
    clear_all_caches()
    calls: list[str] = []
    original = parser.parse

    def counted(text):
        calls.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


class TestParsedOnce:
    @pytest.mark.parametrize("safe_mode", [False, True])
    def test_connection_read(self, tiny_db, parse_calls, safe_mode):
        with repro.connect(tiny_db) as conn:
            cursor = conn.execute(REWRITTEN_SQL, safe_mode=safe_mode)
            assert cursor.fetchall() == [(2,)]
        assert cursor.executed.rewritten
        assert cursor.outcome.verified is safe_mode
        assert parse_calls == [REWRITTEN_SQL]

    def test_autocommit_insert(self, tiny_db, parse_calls):
        with repro.connect(tiny_db) as conn:
            assert conn.execute(INSERT_SQL).rowcount == 1
        assert parse_calls == [INSERT_SQL]

    def test_transaction_block(self, tiny_db, parse_calls):
        with repro.connect(tiny_db) as conn:
            conn.execute("BEGIN")
            assert conn.in_transaction
            assert conn.execute(READ_SQL).fetchall() == [(2, "Baker")]
            conn.execute("COMMIT")
            assert not conn.in_transaction
        assert parse_calls == ["BEGIN", READ_SQL, "COMMIT"]

    def test_executemany_parses_once_per_batch(self, tiny_db, parse_calls):
        sql = "INSERT INTO SUPPLIER VALUES (:SNO, 'Ezra', 'Chicago', 10, 'Active')"
        with repro.connect(tiny_db) as conn:
            cursor = conn.cursor().executemany(
                sql, [{"SNO": sno} for sno in (9, 10, 11)]
            )
            assert cursor.rowcount == 3
            assert conn.cursor().executemany(READ_SQL, []).rowcount == 0
            assert conn.execute(READ_SQL).fetchall() == [(2, "Baker")]
        assert parse_calls == [sql, READ_SQL]

    def test_service_read(self, tiny_db, parse_calls):
        with QueryService(workers=1) as service:
            session = service.session(tiny_db)
            outcome = service.submit(session, READ_SQL).result(30)
        assert outcome.result.rows == [(2, "Baker")]
        assert parse_calls == [READ_SQL]


class TestWarmStatements:
    def test_second_execute_parses_nothing(self, tiny_db, parse_calls):
        with repro.connect(tiny_db) as conn:
            conn.execute(READ_SQL)
            assert conn.execute(READ_SQL).fetchall() == [(2, "Baker")]
            assert conn.execute(INSERT_SQL).rowcount == 1
            conn.execute(INSERT_SQL.replace("9,", "10,"))
        assert parse_calls == [READ_SQL, INSERT_SQL, INSERT_SQL.replace("9,", "10,")]

    def test_ddl_makes_the_next_execute_parse_once(self, tiny_db, parse_calls):
        with repro.connect(tiny_db) as conn:
            conn.execute(READ_SQL)
            tiny_db.run_script("CREATE TABLE EXTRA (X INT NOT NULL, PRIMARY KEY (X))")
            assert conn.execute(READ_SQL).fetchall() == [(2, "Baker")]
            conn.execute(READ_SQL)
        assert parse_calls == [READ_SQL, READ_SQL]

    def test_commits_keep_the_statement_warm(self, tiny_db, parse_calls):
        """The key is the catalog, not table data: writes move nothing."""
        sql = "INSERT INTO SUPPLIER VALUES (:SNO, 'Ezra', 'Chicago', 10, 'Active')"
        with repro.connect(tiny_db) as conn:
            for sno in (9, 10):
                conn.execute(sql, {"SNO": sno})
                assert conn.execute(READ_SQL).fetchall() == [(2, "Baker")]
        assert parse_calls == [sql, READ_SQL]


class TestServiceParseFailure:
    def test_malformed_sql_fails_its_ticket_only(self, tiny_db):
        with QueryService(workers=1) as service:
            session = service.session(tiny_db)
            ticket = service.submit(session, "SELECT FROM WHERE")
            with pytest.raises(ParseError):
                ticket.result(30)
            assert service.metrics.value(
                "service_failed_total", session=session.name, error="ParseError"
            ) == 1
            assert session.snapshot()["failed"] == 1
            outcome = service.submit(session, READ_SQL).result(30)
        assert outcome.result.rows == [(2, "Baker")]
        assert session.snapshot()["completed"] == 1


class TestRunWithOptions:
    @pytest.mark.parametrize("sql", ["BEGIN", "COMMIT", "ROLLBACK"])
    def test_transaction_control_needs_a_host(self, tiny_db, sql):
        with pytest.raises(ProtocolError):
            run_with_options(sql, tiny_db)

    def test_non_query_statement_is_a_parse_error(self, tiny_db):
        with pytest.raises(ParseError, match="expected a query"):
            run_with_options("CREATE TABLE T (A INT)", tiny_db)

    def test_autocommit_dml(self, tiny_db):
        assert run_with_options(INSERT_SQL, tiny_db).rowcount == 1
        assert len(tiny_db.table("SUPPLIER")) == 5
