"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Sampler  # noqa: E402

#: Per-layer metrics that are counts, or ratios of counts, taken over the
#: fixed statement window: they must repeat exactly for a seed.
COUNT_METRICS = (
    "sql.parse_calls_per_stmt",
    "core.rewrite_ratio",
    "core.uniqueness_cache_hit_ratio",
    "plan.cache_hit_ratio",
    "engine.rows_scanned_per_row",
    "engine.index_probes_per_stmt",
    "engine.hash_probes_per_stmt",
    "engine.index_builds",
    "txn.versions_per_live_row",
    "txn.aborts",
    "net.connects_per_req",
    "service.rejected_total",
    "service.shed_total",
)


def test_corrupted_row_is_caught_and_counted():
    ins = workloads.make_inputs("point", seed=5, seconds=1)
    env = workloads.LocalEnv(ins, traced=False, spans_path=None)
    victim = next(op for op in ins.ops if op.template == "supplier_by_sno")
    sno = victim.params["SNO"]
    # Corrupt one row of the program's database through its own API.
    env.conns[0].execute("UPDATE SUPPLIER SET SNAME = 'corrupted' WHERE SNO = :SNO",
                         {"SNO": sno})
    ops = ins.ops[:200] + [victim]
    hits = sum(1 for op in ops
               if op.template in ("supplier_by_sno", "distinct_supplier")
               and op.params["SNO"] == sno)
    ins.ops, ins.cycle = ops, False
    phase = workloads.Phase("point", traced=False, sampler=Sampler().start())
    workloads.closed_loop(phase, env, ins, seconds=60, tracer=None)
    phase.sampler.stop()
    env.close()
    assert phase.attempted == len(ops)
    assert phase.failed == hits >= 1
    assert workloads.end_to_end(phase)["error_rate"] == hits / len(ops)


def test_digest_is_a_multiset_digest():
    rows = [(1, "a"), (2, "b"), (2, "b")]
    assert inputs.digest(rows) == inputs.digest(list(reversed(rows)))
    assert inputs.digest(rows) != inputs.digest(rows[:2])
    assert inputs.digest([(1, "a")]) != inputs.digest([(1, "b")])


def test_write_model_keeps_live_row_count_steady():
    data = inputs.supplier_data(3, inputs.WRITE_SCALE)
    ops = inputs.write_ops(data, 3, 2000)
    model = inputs.WriteModel.initial(data)
    start = len(model.rows)
    for op in ops:
        if op.is_write:
            model.apply(op)
        assert start <= len(model.rows) <= start + inputs.MAX_PENDING
    assert {"insert", "update", "delete", "read_key", "read_oem"} <= {op.kind for op in ops}


def _traced_counts(workload: str, seed: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {name: metrics[name] for name in COUNT_METRICS}, metrics


def test_count_metrics_repeat_exactly_for_a_seed():
    for workload in run.WORKLOAD_NAMES:
        first, metrics = _traced_counts(workload, 7)
        second, _ = _traced_counts(workload, 7)
        assert first == second, workload
        if workload in ("point", "http_point"):
            assert metrics["sql.parse_calls_per_stmt"] > 0
        if workload == "http_point":
            assert metrics["net.connects_per_req"] > 0


def test_http_server_child_is_waited_for():
    ins = workloads.make_inputs("http_point", seed=5, seconds=1)
    env = workloads.HttpEnv(ins, traced=False, spans_path=None)
    report = env.close()
    assert env.proc.returncode == 0
    assert report["peak_rss_mb"] > 0
