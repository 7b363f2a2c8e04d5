"""Safe mode: verified fallback for the rewrite layer itself.

The attack staged here is the worst case for a uniqueness-driven
optimizer: Algorithm 1 is made to return an *unsound* YES (via a corrupt
fault), ``distinct-elimination`` fires on a query whose projection is
NOT duplicate-free, and the poisoned verdict lands in the analysis
cache.  Safe mode must catch the changed multiset, quarantine the rule,
evict the poisoned entries, and serve the reference answer.
"""

import pytest

from repro import Stats, UniquenessResult
from repro.api import run_with_options
from repro.cli import main
from repro.core.rewrite import quarantined_rules
from repro.engine import Database
from repro.options import ExecutionOptions
from repro.resilience import FAULTS, SITE_UNIQUENESS

SCRIPT = """
CREATE TABLE SUPPLIER (
  SNO INT, SNAME VARCHAR(30), SCITY VARCHAR(20),
  PRIMARY KEY (SNO));
INSERT INTO SUPPLIER VALUES
  (1, 'Smith', 'Toronto'),
  (2, 'Smith', 'Chicago'),
  (3, 'Blake', 'Toronto');
"""

#: SNAME is not a key: DISTINCT is required and normally survives.
DUPLICATE_SQL = "SELECT DISTINCT S.SNAME FROM SUPPLIER S"
CORRECT_ROWS = [("Blake",), ("Smith",)]

#: SNO is the key: DISTINCT elimination here is legitimately sound.
SOUND_SQL = "SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S"

PLAIN = ExecutionOptions()
SAFE = ExecutionOptions(safe_mode=True)


def _unsound_yes(result):
    return UniquenessResult(True, "corrupted verdict")


@pytest.fixture()
def db():
    return Database.from_script(SCRIPT)


def _inject_unsound_verdict():
    return FAULTS.inject(
        SITE_UNIQUENESS, kind="corrupt", corruptor=_unsound_yes
    )


def test_corrupt_verdict_without_safe_mode_leaks_duplicates(db):
    """Establish the hazard: unguarded, the bad rewrite changes rows."""
    with _inject_unsound_verdict():
        outcome = run_with_options(DUPLICATE_SQL, db, options=PLAIN)
    assert outcome.rewritten and "distinct-elimination" in outcome.rules
    assert sorted(outcome.result.rows) == [("Blake",), ("Smith",), ("Smith",)]

    # Worse: the unsound YES was cached.  Even with the fault disarmed,
    # the same text replays the poisoned verdict.
    replay = run_with_options(DUPLICATE_SQL, db, options=PLAIN)
    assert replay.rewritten  # served from the poisoned cache


def test_safe_mode_detects_quarantines_and_serves_reference(db):
    with _inject_unsound_verdict():
        outcome = run_with_options(DUPLICATE_SQL, db, options=SAFE)

    assert outcome.verified and outcome.mismatch
    assert outcome.quarantined == ["distinct-elimination"]
    assert outcome.evicted >= 1
    assert outcome.sql == DUPLICATE_SQL  # the reference text
    assert sorted(outcome.result.rows) == CORRECT_ROWS
    assert "distinct-elimination" in quarantined_rules()
    assert "MISMATCH" in outcome.describe()

    # The quarantine holds process-wide: the rule no longer fires, so
    # later executions are correct even without safe mode.
    later = run_with_options(DUPLICATE_SQL, db, options=PLAIN)
    assert not later.rewritten
    assert sorted(later.result.rows) == CORRECT_ROWS


def test_eviction_purges_the_poisoned_verdict(db):
    """After quarantine + eviction, lifting the quarantine is safe: the
    poisoned cache entry is gone, so Algorithm 1 re-runs and says NO."""
    from repro.core.rewrite import unquarantine_all

    with _inject_unsound_verdict():
        run_with_options(DUPLICATE_SQL, db, options=SAFE)
    unquarantine_all()

    clean = run_with_options(DUPLICATE_SQL, db, options=PLAIN)
    assert not clean.rewritten  # fresh verdict: SNAME is not a key
    assert sorted(clean.result.rows) == CORRECT_ROWS


def test_cli_mismatch_serves_the_reference_and_exits_8(db, tmp_path, capsys):
    script = tmp_path / "supplier.sql"
    script.write_text(SCRIPT)
    with _inject_unsound_verdict():
        code = main(
            ["run", "--script", str(script), "--safe-mode", DUPLICATE_SQL]
        )
    assert code == 8
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.err
    assert "-- 2 row(s)" in captured.out
    assert "distinct-elimination" in quarantined_rules()


def test_sound_rewrites_verify_clean(db):
    outcome = run_with_options(SOUND_SQL, db, options=SAFE)
    assert outcome.rewritten and outcome.verified and not outcome.mismatch
    assert sorted(outcome.result.rows) == [
        (1, "Smith"), (2, "Smith"), (3, "Blake"),
    ]
    assert "verified" in outcome.describe()
    assert quarantined_rules() == {}


def test_sampling_checks_first_then_every_nth(db):
    verified = []
    for _ in range(7):
        outcome = run_with_options(SOUND_SQL, db, options=SAFE, sample_every=3)
        verified.append(outcome.verified)
    assert verified == [True, False, False, True, False, False, True]

    with pytest.raises(ValueError):
        run_with_options(SOUND_SQL, db, options=SAFE, sample_every=0)


def test_unchanged_queries_skip_the_cross_check(db):
    outcome = run_with_options(
        "SELECT S.SNAME FROM SUPPLIER S", db, options=SAFE
    )
    assert not outcome.rewritten and not outcome.verified
    assert "not rewritten" in outcome.describe()


def test_run_with_options_accepts_stats_sink(db):
    stats = Stats()
    outcome = run_with_options(SOUND_SQL, db, options=PLAIN, stats=stats)
    assert outcome.stats is stats
    assert stats.rows_scanned > 0


#: DUPLICATE_SQL as a user might type it: printing the parsed form back
#: to SQL would not reproduce this text.
RAW_DUPLICATE_SQL = "select distinct S.SNAME  from SUPPLIER S"


def test_connection_mismatch_serves_the_original_text(db):
    import repro

    with _inject_unsound_verdict(), repro.connect(db) as conn:
        cursor = conn.execute(RAW_DUPLICATE_SQL, safe_mode=True)
    assert cursor.executed.mismatch
    assert cursor.executed.sql == RAW_DUPLICATE_SQL
    assert cursor.outcome.evicted >= 1
    assert sorted(cursor.fetchall()) == CORRECT_ROWS


def test_sampling_keys_on_the_source_text(db):
    """A parsed query handed down with its text shares the sampling
    counter of that text, however it arrives."""
    from repro.sql import parse_query

    raw = "select distinct S.SNO, S.SNAME  from SUPPLIER S"
    parsed = parse_query(raw)
    verified = [
        run_with_options(
            raw if i % 2 else parsed, db, sql_text=raw, options=SAFE,
            sample_every=3,
        ).verified
        for i in range(4)
    ]
    assert verified == [True, False, False, True]
