"""Property: key-bound DELETE/UPDATE through the key index equals the scan.

When the WHERE clause's ``column = constant`` conjuncts cover a
candidate key, :class:`~repro.engine.dml.DmlNode` probes the
version-aware key index instead of scanning every visible version, then
evaluates the full WHERE on what the probe returns plus the
transaction's own pending inserts.  Hypothesis builds random keyed
tables (a composite primary key and a nullable UNIQUE key, so NULL keys
occur), concurrent commits that leave deleted versions only an older
snapshot still sees, pending inserts, and WHERE shapes mixing key
equalities (literals, NULL, qualified columns, bound and unbound host
variables) with residual conjuncts and disjunctions.  The same
scenario then runs with the probe disabled, and the two runs must agree
on every affected-row count, every error type, the transaction's view,
the commit outcome and the final committed table — in both engines.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.dml import DmlNode, execute_dml
from repro.errors import ReproError
from repro.sql.parser import parse

DDL = (
    "CREATE TABLE T (A INT NOT NULL, B INT NOT NULL, U INT, C INT, "
    "PRIMARY KEY (A, B), UNIQUE (U));"
)
#: Key values come from a tiny domain, so constants often hit a row.
KEY = st.integers(min_value=0, max_value=1)
SMALL = st.integers(min_value=0, max_value=3)
ROW = st.tuples(KEY, KEY, st.none() | st.integers(0, 2), SMALL)

CONST = st.one_of(
    KEY.map(str),
    st.sampled_from([":X", ":Y"]),
    st.sampled_from(["NULL", ":MISSING"]),
)


def _equality(column: str):
    """``column = constant`` in either order, optionally qualified."""
    return st.builds(
        lambda qualified, const, flipped: (
            f"{const} = {'T.' if qualified else ''}{column}"
            if flipped
            else f"{'T.' if qualified else ''}{column} = {const}"
        ),
        st.booleans(),
        CONST,
        st.booleans(),
    )


KEY_EQ = st.sampled_from(["A", "B", "U"]).flatmap(_equality)
#: Equalities on every column of one candidate key: the probe's shape.
COVER = st.sampled_from([("A", "B"), ("U",)]).flatmap(
    lambda columns: st.tuples(*map(_equality, columns)).map(list)
)
RESIDUAL = st.builds(
    lambda op, value: f"C {op} {value}",
    st.sampled_from(["=", "<>", ">", "<="]),
    SMALL,
)
CONJUNCTS = st.one_of(
    st.lists(KEY_EQ | RESIDUAL, min_size=1, max_size=4),
    st.tuples(COVER, st.lists(KEY_EQ | RESIDUAL, max_size=2))
    .map(lambda parts: parts[0] + parts[1])
    .flatmap(st.permutations),
)
WHERE = st.one_of(
    CONJUNCTS.map(" AND ".join),
    st.tuples(CONJUNCTS, CONJUNCTS).map(
        lambda pair: f"({' AND '.join(pair[0])}) OR ({' AND '.join(pair[1])})"
    ),
)
STATEMENT = st.builds(
    lambda kind, where, target: (
        f"DELETE FROM T WHERE {where}"
        if kind == "delete"
        else f"UPDATE T SET {target} WHERE {where}"
    ),
    st.sampled_from(["delete", "update"]),
    WHERE,
    st.sampled_from(["C = 9", "U = 4", "B = :Y", "U = NULL"]),
)
#: Writes another transaction commits after the one under test began:
#: their deleted versions stay visible to it, in the key index's side map.
CONCURRENT = st.builds(
    lambda kind, a, b: (
        f"DELETE FROM T WHERE A = {a} AND B = {b}"
        if kind == "delete"
        else f"UPDATE T SET C = 9 WHERE A = {a} AND B = {b}"
    ),
    st.sampled_from(["delete", "update"]),
    KEY,
    KEY,
)
PARAMS = st.fixed_dictionaries({"X": st.none() | KEY, "Y": KEY})


def _unique(rows):
    """Rows with distinct (A, B) and distinct U (NULL counts once)."""
    kept, keys, uniques = [], set(), set()
    for row in rows:
        if row[:2] in keys or row[2] in uniques:
            continue
        keys.add(row[:2])
        uniques.add(row[2])
        kept.append(row)
    return kept


def _outcome(call):
    try:
        return ("ok", call())
    except ReproError as error:
        return ("error", type(error).__name__)


def _scenario(rows, concurrent, pending, statements, params, engine_mode):
    """Everything observable about one run, as plain data."""
    db = Database.from_script(DDL)
    db.table("T").extend(rows)
    txn = db.begin()
    other = db.begin()
    seen = []
    for sql in concurrent:
        seen.append(_outcome(lambda: execute_dml(parse(sql), other)))
    seen.append(_outcome(other.commit))
    for row in pending:
        seen.append(_outcome(lambda: bool(txn.insert_row("T", row))))
    for sql in statements:
        seen.append(
            _outcome(
                lambda: execute_dml(
                    parse(sql), txn, params=params, engine_mode=engine_mode
                )
            )
        )
        seen.append(sorted(txn.view().table("T").rows, key=repr))
    seen.append(_outcome(lambda: bool(txn.commit())))
    seen.append(sorted(db.table("T").rows, key=repr))
    return seen


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=st.lists(ROW, min_size=2, max_size=10).map(_unique),
    concurrent=st.lists(CONCURRENT, max_size=2),
    pending=st.lists(ROW, max_size=3),
    statements=st.lists(STATEMENT, min_size=1, max_size=3),
    params=PARAMS,
    engine_mode=st.sampled_from(["tuple", "vectorized"]),
)
def test_key_probe_matches_the_full_scan(
    rows, concurrent, pending, statements, params, engine_mode
):
    args = (rows, concurrent, pending, statements, params, engine_mode)
    probed = _scenario(*args)
    with mock.patch.object(DmlNode, "_key_probe", lambda *_: None):
        scanned = _scenario(*args)
    assert probed == scanned
