"""E12 — hot-path acceleration: caches and indexes.

Two mechanisms attack the engine's interpretive overheads:

* analysis/plan caches keyed on catalog/database fingerprints (the E10
  batch audit re-analyzes identical template text every round),
* hash-index probes replacing full inner-table re-scans in correlated
  subqueries and ``key = constant`` scans.

Compiled predicates are the columnar engine's business: E17a gates the
batch-kernel selection path against the interpreter.

E12d gates the statement cache: a warm point lookup through
``repro.connect(db)`` runs no parser, optimizer or printer, so it costs
at most 2x ``execute_planned`` on the pre-parsed query (which prints
the query for its plan-cache key on every call).

Every table in this module lands in ``BENCH_hotpath.json``.
"""

import statistics

import repro
from repro import Stats, clear_all_caches, set_caches_enabled, test_uniqueness
from repro.bench import ExperimentReport, paired_times, quartiles, speedup, timed
from repro.engine import PlanCache, execute_planned
from repro.engine.planner import PreparedQuery
from repro.sql import parse_query
from repro.workloads import SupplierScale, build_database, generate

# The E10 CASE-tool audit templates (5 provably redundant, 5 required).
AUDIT_TEMPLATES = [
    "SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO AND P.COLOR = :C",
    "SELECT DISTINCT S.SNO, SNAME, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE P.SNO = :N AND S.SNO = P.SNO",
    "SELECT DISTINCT SNO, SNAME, SCITY FROM SUPPLIER",
    "SELECT DISTINCT A.ANO, A.ANAME, S.SNO FROM AGENTS A, SUPPLIER S "
    "WHERE A.SNO = S.SNO",
    "SELECT DISTINCT P.OEM-PNO, P.PNAME FROM PARTS P WHERE P.SNO = :N",
    "SELECT DISTINCT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO",
    "SELECT DISTINCT SCITY FROM SUPPLIER",
    "SELECT DISTINCT P.COLOR, S.SCITY FROM SUPPLIER S, PARTS P "
    "WHERE S.SNO = P.SNO",
    "SELECT DISTINCT A.ACITY FROM AGENTS A WHERE A.SNO = :N",
    "SELECT DISTINCT P.PNAME FROM PARTS P WHERE P.COLOR = :C",
]

CORRELATED_QUERY = (
    "SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S "
    "WHERE EXISTS "
    "(SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)"
)
CORRELATED_PARAMS = {"PART-NO": 3}

AUDIT_ROUNDS = 20


def _run_audit(catalog):
    return sum(
        1 for sql in AUDIT_TEMPLATES if test_uniqueness(sql, catalog).unique
    )


def test_e12_batch_audit_warm_cache_speedup(benchmark, bench_db):
    """The headline claim: the E10 audit runs >=5x faster warm."""
    catalog = bench_db.catalog

    previous = set_caches_enabled(False)
    try:
        cold_counts, t_cold = timed(
            lambda: [_run_audit(catalog) for _ in range(AUDIT_ROUNDS)]
        )
    finally:
        set_caches_enabled(previous)

    set_caches_enabled(True)
    clear_all_caches()
    prime = _run_audit(catalog)
    warm_counts, t_warm = timed(
        lambda: [_run_audit(catalog) for _ in range(AUDIT_ROUNDS)]
    )

    report = ExperimentReport(
        experiment="E12a: batch audit, cold vs warm analysis caches",
        claim="fingerprint-keyed caches amortize Algorithm 1 across a "
        "templated workload",
        columns=["mode", "rounds", "detected/round", "t(s)", "speedup"],
        slug="hotpath",
    )
    ratio = speedup(t_cold, t_warm)
    report.add_row("cold (caches off)", AUDIT_ROUNDS, cold_counts[0], t_cold, 1.0)
    report.add_row("warm (caches on)", AUDIT_ROUNDS, warm_counts[0], t_warm, ratio)
    report.note(
        f"{len(AUDIT_TEMPLATES)} templates/round; warm hits skip parse, "
        "CNF/DNF, and closure work"
    )
    report.show()

    assert cold_counts == warm_counts and prime == cold_counts[0] == 5
    assert ratio >= 5.0, f"warm audit only {ratio:.1f}x faster"

    detected = benchmark(lambda: _run_audit(catalog))
    assert detected == 5


def test_e12_correlated_subquery_index_probes(benchmark):
    """EXISTS re-executions become O(1) index probes, same results."""
    db = build_database(
        generate(SupplierScale(suppliers=100, parts_per_supplier=20))
    )

    scan_stats, probe_stats = Stats(), Stats()
    scanned, t_scan = timed(
        lambda: execute_planned(
            CORRELATED_QUERY,
            db,
            params=CORRELATED_PARAMS,
            stats=scan_stats,
            use_indexes=False,
        )
    )
    # First indexed run pays the one-off O(n) index build; time the
    # steady state the batch workloads actually see.
    execute_planned(
        CORRELATED_QUERY, db, params=CORRELATED_PARAMS, use_indexes=True
    )
    probed, t_probe = timed(
        lambda: execute_planned(
            CORRELATED_QUERY,
            db,
            params=CORRELATED_PARAMS,
            stats=probe_stats,
            use_indexes=True,
        )
    )

    report = ExperimentReport(
        experiment="E12b: correlated EXISTS, inner scan vs index probe",
        claim="each subquery re-execution probes the FK hash index "
        "instead of re-scanning the inner table",
        columns=[
            "mode", "subq_execs", "index_probes", "inner_rows_examined",
            "t(s)", "speedup",
        ],
        slug="hotpath",
    )
    report.add_row(
        "seq rescan",
        scan_stats.subquery_executions,
        scan_stats.index_probes,
        scan_stats.rows_joined,
        t_scan,
        1.0,
    )
    report.add_row(
        "index probe",
        probe_stats.subquery_executions,
        probe_stats.index_probes,
        probe_stats.index_rows,
        t_probe,
        speedup(t_scan, t_probe),
    )
    report.show()

    assert scanned.same_rows(probed)
    # Same naive strategy (one execution per outer row) ...
    assert probe_stats.subquery_executions == scan_stats.subquery_executions
    # ... but each execution touches a bucket, not the table.
    assert scan_stats.index_probes == 0
    assert probe_stats.index_probes >= probe_stats.subquery_executions
    assert probe_stats.index_rows < scan_stats.rows_joined / 10
    assert probe_stats.predicate_evals < scan_stats.predicate_evals / 10

    result = benchmark(
        lambda: execute_planned(
            CORRELATED_QUERY, db, params=CORRELATED_PARAMS, use_indexes=True
        )
    )
    assert result.columns == ["SNO", "SNAME"]


def test_e12_keyed_lookup_plan_cache(benchmark, bench_db):
    """A templated key lookup: IndexScan + plan cache across the batch."""
    template = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N"
    cache = PlanCache()
    batch = list(range(1, 51))

    def run_batch():
        stats = Stats()
        rows = sum(
            len(
                execute_planned(
                    template,
                    bench_db,
                    params={"N": n},
                    stats=stats,
                    plan_cache=cache,
                ).rows
            )
            for n in batch
        )
        return rows, stats

    (rows, stats), elapsed = timed(run_batch)

    report = ExperimentReport(
        experiment="E12c: templated key lookups",
        claim="one plan + one index probe per statement; the table is "
        "never scanned",
        columns=[
            "statements", "rows", "plan_hits", "plan_misses",
            "index_probes", "rows_scanned", "t(s)",
        ],
        slug="hotpath",
    )
    report.add_row(
        len(batch),
        rows,
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.index_probes,
        stats.rows_scanned,
        elapsed,
    )
    report.show()

    assert rows == len(batch)  # SNO is the primary key
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits == len(batch) - 1
    assert stats.index_probes == len(batch)
    assert stats.rows_scanned == len(batch)  # one row per probe, no scans

    result = benchmark(
        lambda: execute_planned(
            template, bench_db, params={"N": 7}, plan_cache=cache
        )
    )
    assert len(result.rows) == 1


POINT_SQL = "SELECT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNO = :N"
POINT_BATCH = 200
POINT_PAIRS = 15
MAX_FACADE_RATIO = 2.0


def test_e12_connection_point_lookup_within_2x_execute_planned(bench_db):
    """A warm ``Connection`` point lookup costs at most 2x
    ``execute_planned`` on the pre-parsed query.

    Both arms run the same 200 key lookups, warm: the facade arm through
    ``repro.connect(db).execute(...).fetchall()`` (statement cache, read
    pipeline, cursor), the baseline through ``execute_planned`` on the
    parsed query, which still prints it with ``to_sql`` on every call to
    key the plan cache.  The arms alternate batch by batch and the gate
    is the median per-pair ratio, so host drift hits both alike.  A
    third, ungated row shows ``execute_planned`` on a pre-printed
    ``PreparedQuery`` (no ``to_sql`` either): execution alone.  The
    note reports the facade's ratio to that row; it is not gated.
    """
    clear_all_caches()
    conn = repro.connect(bench_db)
    parsed = parse_query(POINT_SQL)
    prepared = PreparedQuery.of(parsed)
    keys = [1 + i % 300 for i in range(POINT_BATCH)]

    def facade():
        return sum(
            len(conn.execute(POINT_SQL, {"N": n}).fetchall()) for n in keys
        )

    def planned(query=parsed):
        return sum(
            len(execute_planned(query, bench_db, params={"N": n}).rows)
            for n in keys
        )

    assert facade() == planned() == planned(prepared) == POINT_BATCH
    facade_times, planned_times = paired_times(facade, planned, POINT_PAIRS)
    prepared_times = [
        timed(lambda: planned(prepared))[1] for _ in range(POINT_PAIRS)
    ]
    q1, ratio, q3 = quartiles(
        [f / p for f, p in zip(facade_times, planned_times)]
    )

    def per_statement_us(times):
        return statistics.median(times) / POINT_BATCH * 1e6

    report = ExperimentReport(
        experiment="E12d: warm point lookup, Connection vs execute_planned",
        claim="the statement cache leaves a warm Connection lookup within "
        "2x execute_planned on the pre-parsed query",
        columns=["path", "us/statement", "ratio"],
        slug="hotpath",
    )
    report.add_row(
        "execute_planned(PreparedQuery)",
        per_statement_us(prepared_times),
        statistics.median(prepared_times) / statistics.median(planned_times),
    )
    report.add_row(
        "execute_planned(parsed query)", per_statement_us(planned_times), 1.0
    )
    report.add_row(
        "repro.connect(db).execute + fetchall",
        per_statement_us(facade_times),
        ratio,
    )
    report.note(
        f"{POINT_BATCH} key lookups per batch, {POINT_PAIRS} adjacent "
        "pairs, order alternating; ratio = median per-pair ratio against "
        f"execute_planned(parsed query), quartiles {q1:.3f} / {q3:.3f}; "
        "against execute_planned(PreparedQuery) the facade reads "
        f"{statistics.median(facade_times) / statistics.median(prepared_times):.2f}x"
        " (ungated)"
    )
    report.show()

    assert ratio <= MAX_FACADE_RATIO, (
        f"a warm Connection point lookup costs {ratio:.2f}x "
        "execute_planned"
    )
