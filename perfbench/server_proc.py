"""The ``http_point`` server: a ``QueryServer`` in a child process.

Started by ``workloads.HttpEnv`` as
``python3 server_proc.py <src dir> <seed> <traced 0|1> [<spans path>]``.
The child builds the database from the seed, serves it with two workers,
sends its URL and then answers pickled commands read from stdin, with
pickled replies on stdout:

* ``"snapshot"`` -> cache, index and version counters of this process;
* ``("stop", first_span)`` -> drain the server, reply with peak RSS (and,
  when traced, the summary of the spans recorded from ``first_span`` on,
  which excludes the warm-up), then exit.

The child starts no process of its own, and exits when stdin closes, so
it never outlives the benchmark for long.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time


def _snapshot(db, tracer) -> dict:
    import repro

    tables = ("SUPPLIER", "PARTS", "AGENTS")
    parts = db.table("PARTS")
    return {
        "caches": repro.cache_stats(),
        "index_builds": sum(db.table(name).index_builds for name in tables),
        "versions_per_live_row": len(parts.versions) / max(1, len(parts)),
        "span_count": len(tracer.spans) if tracer is not None else 0,
    }


def serve(commands, replies, seed: int, traced: bool, spans_path: str | None) -> None:
    os.environ.pop("REPRO_ENGINE_MODE", None)
    from inputs import READ_SCALE, supplier_data
    from tracing import Summary, Tracer, install_engine_layers
    from repro.net.server import QueryServer
    from repro.workloads import build_database

    def send(message) -> None:
        pickle.dump(message, replies)
        replies.flush()

    tracer = None
    if traced:
        tracer = Tracer()
        install_engine_layers(tracer)
    db = build_database(supplier_data(seed, READ_SCALE))
    server = QueryServer(db, workers=2)
    first_span = 0
    try:
        send(server.url)
        while True:
            command = pickle.load(commands)
            if command == "snapshot":
                send(_snapshot(db, tracer))
            elif command[0] == "stop":
                first_span = command[1]
                break
    except (EOFError, BrokenPipeError):  # the benchmark went away: drain and exit
        return
    finally:
        server.drain()
    report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.restore()
        report["summary"] = Summary(tracer.spans[first_span:]).as_dict()
        if spans_path:
            started = time.perf_counter()
            tracer.write(spans_path)
            report["write_s"] = time.perf_counter() - started
    send(report)


def main(argv: list[str]) -> int:
    src, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, src)
    # The reply channel is stdout; anything the program prints goes to stderr.
    replies = sys.stdout.buffer
    sys.stdout = sys.stderr
    serve(sys.stdin.buffer, replies, seed, traced, spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
