"""Set-up, timed loops and metrics for the four workloads.

All load comes from this process: one closed-loop client in-process
(``point``, ``analytic``, ``write_mix``) or two open-loop HTTP client
threads (``http_point``).  Latency is timed around ``Connection.execute``
plus ``fetchall``; answers are checked right after, outside that timer.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import random
import re
import resource
import select
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field

import repro
from repro.workloads import build_database

import inputs
from inputs import Op, digest
from hostspeed import Sampler
from tracing import Summary, Tracer, install_client_net_layers, install_engine_layers

#: ``http_point`` arrival rate: under half of one connection's capacity
#: for this statement mix on the seed (about 350 req/s on a 2-core
#: machine), so outside load on the host does not tip it into queueing.
HTTP_RATE = 100.0
#: The client threads' GIL switch interval.  At the default 5 ms a thread
#: due to send waits behind the other thread's decoding, and the
#: generator runs late; the program under test runs in the child process.
CLIENT_SWITCH_INTERVAL = 0.0005
HTTP_CLIENTS = 2
#: Statements whose counters the traced run reports; every run reaches
#: this many, so count metrics repeat exactly for a seed.
COUNT_WINDOW = {"point": 500, "analytic": 40, "write_mix": 300, "http_point": 300}
#: Analytic statements re-run through the AST interpreter after timing.
INTERPRETER_SAMPLE = 6
TABLES = ("SUPPLIER", "PARTS", "AGENTS")

perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Inputs:
    """Everything generated from the seed before timing starts."""

    workload: str
    seed: int
    data: object
    ops: list[Op]
    warmup: list[Op]
    cycle: bool


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    if workload == "write_mix":
        data = inputs.supplier_data(seed, inputs.WRITE_SCALE)
        ops = inputs.write_ops(data, seed, int(seconds * 3000) + COUNT_WINDOW[workload])
        return Inputs(workload, seed, data, ops, inputs.write_warmup(data), False)
    if workload == "analytic":
        data = inputs.supplier_data(seed, inputs.ANALYTIC_SCALE)
        ops = inputs.analytic_ops(data, seed, int(seconds * 300) + COUNT_WINDOW[workload])
        return Inputs(workload, seed, data, ops, inputs.analytic_warmup(data), False)
    data = inputs.supplier_data(seed, inputs.READ_SCALE)
    warmup = inputs.point_warmup(data)
    if workload == "point":
        return Inputs(workload, seed, data, inputs.point_ops(data, seed, 20000), warmup, True)
    count = max(int(seconds * HTTP_RATE), COUNT_WINDOW[workload])
    return Inputs(workload, seed, data, inputs.point_ops(data, seed, count), warmup, False)


def check(op: Op, cursor) -> bool:
    """Whether the program's answer matches the oracle's."""
    if op.is_write:
        return cursor.rowcount == op.expected
    return digest(cursor.fetchall()) == op.expected


# ----------------------------------------------------------------------
# environments


class LocalEnv:
    """An in-process database behind ``repro.connect(db)``."""

    def __init__(self, ins: Inputs, traced: bool, spans_path: str | None) -> None:
        scale = {"write_mix": inputs.WRITE_SCALE,
                 "analytic": inputs.ANALYTIC_SCALE}.get(ins.workload, inputs.READ_SCALE)
        started = perf()
        self.db = build_database(inputs.supplier_data(ins.seed, scale))
        self.conns = [repro.connect(self.db)]
        self.warm_failed = warm_up(self.conns[0], ins.warmup)
        self.setup_s = perf() - started

    def counters(self) -> dict:
        parts = self.db.table("PARTS")
        return {
            "caches": repro.cache_stats(),
            "index_builds": sum(self.db.table(name).index_builds for name in TABLES),
            "versions_per_live_row": len(parts.versions) / max(1, len(parts)),
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> dict:
        for conn in self.conns:
            conn.close()
        return {}


class HttpEnv:
    """A ``QueryServer`` in a child process, behind ``repro.connect(url)``."""

    def __init__(self, ins: Inputs, traced: bool, spans_path: str | None) -> None:
        started = perf()
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        command = [sys.executable, os.path.join(HERE, "server_proc.py"),
                   src, str(ins.seed), str(int(traced))] + ([spans_path] if spans_path else [])
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.report: dict = {}
        self.conns: list = []
        try:
            self.url = self._recv(120)
            self.conns = [repro.connect(self.url) for _ in range(HTTP_CLIENTS)]
            self.warm_failed = warm_up(self.conns[0], ins.warmup)
        except BaseException:
            self._stop()
            raise
        self.setup_s = perf() - started

    def _send(self, message) -> None:
        pickle.dump(message, self.proc.stdin)
        self.proc.stdin.flush()

    def _recv(self, timeout: float):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"server process sent nothing for {timeout:g} s")
        return pickle.load(self.proc.stdout)

    def counters(self) -> dict:
        self._send("snapshot")
        snap = self._recv(60)
        snap["metrics"] = scrape(self.url)
        return snap

    def close(self, first_span: int = 0) -> dict:
        try:
            self._close_conns()
            self._send(("stop", first_span))
            self.report = self._recv(60)
        finally:
            self._stop()
        return self.report

    def peak_rss_mb(self) -> float:
        return self.report.get("peak_rss_mb", 0.0)

    def _close_conns(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []

    def _stop(self) -> None:
        """Close the connections and pipes, then wait for the child to end."""
        self._close_conns()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def warm_up(conn, ops: list[Op]) -> int:
    """Run each warm-up statement once; returns how many were wrong."""
    failed = 0
    for op in ops:
        try:
            ok = check(op, conn.execute(op.sql, op.params))
        except Exception:  # noqa: BLE001 -- a wrong or failed answer alike
            ok = False
        failed += not ok
    return failed


_SERIES = re.compile(r'^(\w+)(?:\{(.*)\})?\s+(\S+)$')


def scrape(url: str) -> dict:
    """Sum the ``/metrics`` series this benchmark reads."""
    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    sums = {"requests": 0.0, "seconds": 0.0, "rejected": 0.0, "shed": 0.0}
    for line in text.splitlines():
        match = _SERIES.match(line)
        if not match:
            continue
        name, labels, value = match.group(1), match.group(2) or "", float(match.group(3))
        query_route = 'route="query"' in labels
        if name == "repro_http_requests_total" and query_route:
            sums["requests"] += value
        elif name == "repro_http_request_seconds_total" and query_route:
            sums["seconds"] += value
        elif name == "repro_service_rejected_total":
            sums["rejected"] += value
        elif name == "repro_service_shed_total":
            sums["shed"] += value
    return sums


# ----------------------------------------------------------------------
# timed phases


@dataclass
class Phase:
    """What one timed phase measured."""

    workload: str
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    #: Each set-up scaled to the reference host speed (see ``hostspeed``).
    setup_scaled_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    started: float = 0.0
    elapsed: float = 0.0
    read_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    #: When each read and write started (for the open loop: was due).
    read_at: list[float] = field(default_factory=list)
    write_at: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    rtt_s: list[float] = field(default_factory=list)
    window_stats: list[dict] = field(default_factory=list)
    digests: dict[int, tuple] = field(default_factory=dict)
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    sampler: Sampler | None = None
    peak_rss_mb: float = 0.0
    interpreter_checked: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def make_env(ins: Inputs, traced: bool = False, spans_path: str | None = None):
    """Set up the workload's environment (timed as ``env.setup_s``)."""
    env_class = HttpEnv if ins.workload == "http_point" else LocalEnv
    return env_class(ins, traced, spans_path)


def timed_setup(phase: Phase, ins: Inputs, traced: bool, spans_path: str | None = None):
    """``make_env``, its time recorded raw and, when sampled, scaled."""
    started = perf()
    env = make_env(ins, traced, spans_path)
    phase.setup_s.append(env.setup_s)
    if phase.sampler is not None:
        scale = phase.sampler.mean_scale(started, perf())
        phase.setup_scaled_s.append(env.setup_s * scale)
    return env


def run_phase(ins: Inputs, seconds: float, *, traced: bool,
              spans_dir: str | None = None) -> Phase:
    """Set up, time, verify and tear down one phase."""
    phase = Phase(ins.workload, traced)
    tag = f"{ins.workload}-seed{ins.seed}"
    server_spans = (os.path.join(spans_dir, f"spans-{tag}-server.jsonl")
                    if traced and spans_dir else None)
    tracer = None
    if traced:
        tracer = phase.tracer = Tracer()
        if ins.workload == "http_point":
            install_client_net_layers(tracer)
        install_engine_layers(tracer)  # over HTTP the client parses too
    # The untraced phase samples the host's speed from before set-up on.
    sampler = phase.sampler = None if traced else Sampler().start()
    try:
        env = timed_setup(phase, ins, traced, server_spans)
        phase.attempted += len(ins.warmup)
        phase.failed += env.warm_failed
        try:
            if ins.workload == "http_point":
                phase.before = env.counters()
                open_loop(phase, env, ins.ops, seconds, tracer)
                phase.after = env.counters()
            else:
                closed_loop(phase, env, ins, seconds, tracer)
            if not traced:
                verify_after(phase, env, ins)
        finally:
            # The server summarizes only spans from after its warm-up.
            phase.report = (env.close(phase.before.get("span_count", 0))
                            if ins.workload == "http_point" else env.close())
        phase.peak_rss_mb = env.peak_rss_mb()
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.restore()
    if tracer is not None and spans_dir:
        tracer.write(os.path.join(spans_dir, f"spans-{tag}.jsonl"))
    return phase


def closed_loop(phase: Phase, env, ins: Inputs, seconds: float, tracer) -> None:
    """One client; the next statement goes out when the last returns."""
    conn = env.conns[0]
    ops, count = ins.ops, len(ins.ops)
    window = COUNT_WINDOW[ins.workload] if tracer else 0
    keep_digests = ins.workload == "analytic"
    i = 0
    started = phase.started = perf()
    deadline = started + seconds
    while i < window or perf() < deadline:
        if i >= count and not ins.cycle:
            break  # inputs exhausted: the program outran the generator's budget
        if i == 0 and tracer:
            phase.before = env.counters()
        op = ops[i % count]
        span = tracer.begin("stmt", i) if tracer else None
        t0 = perf()
        try:
            cursor = conn.execute(op.sql, op.params)
            rows = None if op.is_write else cursor.fetchall()
            t1 = perf()
        except Exception as error:  # noqa: BLE001 -- counted, the loop goes on
            t1 = perf()
            cursor = None
            phase.fail(f"{op.kind}: {error!r}")
        finally:
            if span is not None:
                tracer.end(span)
        (phase.write_s if op.is_write else phase.read_s).append(t1 - t0)
        (phase.write_at if op.is_write else phase.read_at).append(t0)
        if cursor is not None:
            if op.is_write:
                ok = cursor.rowcount == op.expected
            else:
                got = digest(rows)
                ok = got == op.expected
                if keep_digests:
                    phase.digests[i] = got
            if not ok:
                phase.fail(f"{op.kind}: wrong answer for {op.sql} {op.params}")
            if i < window:
                phase.window_stats.append(cursor.executed.stats)
        i += 1
        if i == window and tracer:
            phase.after = env.counters()
    phase.elapsed = perf() - started
    phase.attempted += i


def open_loop(phase: Phase, env, ops: list[Op], seconds: float, tracer) -> None:
    """Fixed arrival rate; latency counts from each request's due time."""
    count = len(ops)
    window = COUNT_WINDOW["http_point"] if tracer else 0
    results: list = [None] * count
    ticket = itertools.count()
    first_due = perf() + 0.05

    def client(conn) -> None:
        while True:
            i = next(ticket)
            if i >= count:
                return
            due = first_due + i / HTTP_RATE
            delay = due - perf()
            if delay > 0:
                time.sleep(delay)
            op = ops[i]
            span = tracer.begin("stmt", i) if tracer else None
            sent = perf()
            try:
                cursor = conn.execute(op.sql, op.params)
                ok = check(op, cursor)
                error = None if ok else f"wrong answer for {op.sql} {op.params}"
                stats = cursor.executed.stats if i < window else None
            except Exception as exc:  # noqa: BLE001 -- counted, the loop goes on
                ok, error, stats = False, repr(exc), None
            done = perf()
            if span is not None:
                tracer.end(span)
            results[i] = (ok, done - due, sent - due, done - sent, stats, error)

    threads = [threading.Thread(target=client, args=(conn,)) for conn in env.conns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(CLIENT_SWITCH_INTERVAL)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    phase.started = first_due
    phase.elapsed = perf() - first_due
    for i, result in enumerate(results):
        if result is None:
            phase.fail(f"request {i} never completed")
            continue
        ok, latency, late, rtt, stats, error = result
        phase.read_s.append(latency)
        phase.read_at.append(first_due + i / HTTP_RATE)
        phase.late_s.append(late)
        phase.rtt_s.append(rtt)
        if stats is not None:
            phase.window_stats.append(stats)
        if not ok:
            phase.fail(error)
    phase.attempted += count


def verify_after(phase: Phase, env, ins: Inputs) -> None:
    """Oracle checks that run after the timed phase."""
    if ins.workload == "write_mix":
        done = phase.attempted - len(ins.warmup)
        expected = inputs.final_parts_digest(ins.data, ins.ops[:done])
        got = digest(env.conns[0].execute(inputs.FULL_PARTS).fetchall())
        if got != expected:
            phase.fail("final PARTS state differs from the dict model")
    elif ins.workload == "analytic":
        from repro.engine.executor import execute as interpret

        candidates = sorted(i for i in phase.digests
                            if ins.ops[i].template in inputs.INTERPRETER_TEMPLATES)
        sample = random.Random(ins.seed * 31 + 7).sample(
            candidates, min(INTERPRETER_SAMPLE, len(candidates)))
        for i in sample:
            reference = interpret(ins.ops[i].sql, env.db)
            phase.interpreter_checked += 1
            if digest(reference.rows) != phase.digests[i]:
                phase.fail(f"engine and AST interpreter disagree on {ins.ops[i].sql}")


# ----------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    low = math.floor(k)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (k - low)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def end_to_end(phase: Phase) -> dict[str, float]:
    """Every end-to-end figure of one untraced phase.

    Timings are scaled to the reference host speed (``hostspeed``); the
    ``raw.`` figures are the same timings unscaled.  The open loop's
    ``ops_per_s`` is its arrival rate, so it is not scaled.
    """
    scale_at = phase.sampler.scaler()
    reads = [s * scale_at(t) for s, t in zip(phase.read_s, phase.read_at)]
    writes = [s * scale_at(t) for s, t in zip(phase.write_s, phase.write_at)]
    statements = len(phase.read_s) + len(phase.write_s)
    raw_ops = statements / phase.elapsed
    open_loop = bool(phase.late_s)
    mean_scale = phase.sampler.mean_scale(phase.started, phase.started + phase.elapsed)
    return {
        "setup_s": median(phase.setup_scaled_s),
        "ops_per_s": raw_ops if open_loop else raw_ops / mean_scale,
        "read_p50_ms": percentile(reads, 0.50) * 1e3,
        "read_p95_ms": percentile(reads, 0.95) * 1e3,
        "read_p99_ms": percentile(reads, 0.99) * 1e3,
        "write_p50_ms": percentile(writes, 0.50) * 1e3,
        "write_p99_ms": percentile(writes, 0.99) * 1e3,
        "error_rate": phase.failed / max(1, phase.attempted),
        "peak_rss_mb": phase.peak_rss_mb,
        "raw.setup_s": median(phase.setup_s),
        "raw.ops_per_s": raw_ops,
        "raw.read_p50_ms": percentile(phase.read_s, 0.50) * 1e3,
        "host.reference_ms": median(phase.sampler.costs) * 1e3,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: Phase) -> dict[str, float]:
    """Per-layer figures of the traced phase (window counts are exact)."""
    workload = traced.workload
    window = COUNT_WINDOW[workload]
    statements = len(traced.read_s) + len(traced.write_s)
    timed = Summary(traced.tracer.spans, statements)
    counted = Summary(traced.tracer.spans, window)
    server = traced.report.get("summary")
    # Server-side spans (http_point) have no statement id; the server saw
    # the warm-up before its span mark, so it divides by the timed count.
    server_calls = (server or {}).get("calls", {})
    server_self = (server or {}).get("self_s", {})
    server_total = (server or {}).get("total_s", {})
    server_notes = (server or {}).get("notes", {})

    def calls(name: str) -> float:
        return _ratio(counted.calls.get(name, 0), window) + _ratio(
            server_calls.get(name, 0), statements)

    def self_ms(name: str) -> float:
        return (timed.self_s.get(name, 0.0) + server_self.get(name, 0.0)) / statements * 1e3

    stats = {}
    for entry in traced.window_stats:
        for key, value in entry.items():
            stats[key] = stats.get(key, 0) + value
    before, after = traced.before, traced.after
    caches_before = before.get("caches", {}).get("uniqueness", {})
    caches_after = after.get("caches", {}).get("uniqueness", {})
    u_hits = caches_after.get("hits", 0) - caches_before.get("hits", 0)
    u_misses = caches_after.get("misses", 0) - caches_before.get("misses", 0)
    rewrites = counted.notes.get("core.optimize", []) + server_notes.get("core.optimize", [])
    plan_calls = counted.calls.get("plan.plan", 0) + server_calls.get("plan.plan", 0)
    plan_s = counted.total_s.get("plan.plan", 0.0) + server_total.get("plan.plan", 0.0)
    commit_calls = timed.calls.get("txn.commit", 0) + server_calls.get("txn.commit", 0)
    commit_s = timed.total_s.get("txn.commit", 0.0) + server_total.get("txn.commit", 0.0)
    writes = timed.calls.get("txn.write_stmt", 0)
    aborts = counted.notes.get("txn.commit", []).count("error")
    metrics_before = before.get("metrics", {})
    metrics_after = after.get("metrics", {})
    server_requests = metrics_after.get("requests", 0) - metrics_before.get("requests", 0)
    server_ms = _ratio(metrics_after.get("seconds", 0) - metrics_before.get("seconds", 0),
                       server_requests) * 1e3
    codec_ms = self_ms("net.codec") if workload == "http_point" else 0.0
    rtt_ms = _ratio(sum(traced.rtt_s), len(traced.rtt_s)) * 1e3
    return {
        "sql.parse_calls_per_stmt": calls("sql.parse"),
        "sql.parse_ms_per_stmt": self_ms("sql.parse"),
        "core.optimize_ms_per_stmt": self_ms("core.optimize"),
        "core.rewrite_ratio": _ratio(sum(1 for r in rewrites if r is True), len(rewrites)),
        "core.uniqueness_cache_hit_ratio": _ratio(u_hits, u_hits + u_misses),
        "plan.cache_hit_ratio": _ratio(stats.get("plan_cache_hits", 0),
                                       stats.get("plan_cache_hits", 0)
                                       + stats.get("plan_cache_misses", 0)),
        "plan.ms_per_miss": _ratio(plan_s, plan_calls) * 1e3,
        "engine.execute_ms_per_stmt": self_ms("engine.execute_planned"),
        "engine.rows_scanned_per_row": _ratio(stats.get("rows_scanned", 0),
                                              stats.get("rows_output", 0)),
        "engine.index_probes_per_stmt": _ratio(stats.get("index_probes", 0), len(traced.window_stats)),
        "engine.hash_probes_per_stmt": _ratio(stats.get("hash_probes", 0), len(traced.window_stats)),
        "engine.index_builds": after.get("index_builds", 0) - before.get("index_builds", 0),
        # Over HTTP the statement span's self time is the network wait.
        "api.self_ms_per_stmt": self_ms("stmt") if server is None else 0.0,
        "txn.commit_ms": _ratio(commit_s, commit_calls) * 1e3,
        "txn.write_stmt_ms": _ratio(timed.total_s.get("txn.write_stmt", 0.0), writes) * 1e3,
        "txn.versions_per_live_row": after.get("versions_per_live_row", 0.0),
        "txn.aborts": aborts,
        "net.connects_per_req": _ratio(counted.calls.get("net.connect", 0), window)
        if workload == "http_point" else 0.0,
        "net.client_codec_ms_per_req": codec_ms,
        "net.server_ms_per_req": server_ms,
        "net.wire_ms_per_req": max(0.0, rtt_ms - server_ms - codec_ms) if server_requests else 0.0,
        "service.rejected_total": metrics_after.get("rejected", 0) - metrics_before.get("rejected", 0),
        "service.shed_total": metrics_after.get("shed", 0) - metrics_before.get("shed", 0),
        "trace.traced_ops_per_s": statements / traced.elapsed,
    }
