"""The repository benchmark: four workloads against ``repro.connect``.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced phase and then a traced phase in a fresh process (so neither
inherits the other's process-wide caches), and reports the per-layer
metrics plus the tracing overhead (traced against untraced
``ops_per_s``).  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own fresh process, because
the plan cache, ``repro.cache`` memos and fault registry are
process-wide.  See ``perfbench/WORKLOADS.md`` for what each workload
measures and why.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOAD_NAMES = ("point", "analytic", "write_mix", "http_point")
SETUPS = 3
#: Where traced runs write their spans, relative to the checkout root.
SPANS_DIR = ".perfbench_out"

#: End-to-end figures printed for every workload.  Timings are scaled to
#: the reference host speed (``hostspeed``); ``raw.`` figures are unscaled
#: and ``host.reference_ms`` is the reference task's median cost.  Not all
#: are gated in BENCHMARK.json: ``error_rate`` and the write latencies are
#: 0 on the read-only workloads, and a gated metric must never be 0 (the
#: JSON line carries the error rate as ``failed``/``attempted``); the tail
#: percentiles are too few samples, or follow the host's noise too
#: closely, to gate (see WORKLOADS.md).
E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "read_p50_ms": "ms", "read_p95_ms": "ms",
    "read_p99_ms": "ms", "write_p50_ms": "ms", "write_p99_ms": "ms",
    "error_rate": "ratio", "peak_rss_mb": "MB",
    "raw.setup_s": "s", "raw.ops_per_s": "1/s", "raw.read_p50_ms": "ms",
    "host.reference_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-phase", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_benchmark_json() -> dict:
    """BENCHMARK.json: which metrics go into the JSON line, with units."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    root = os.getcwd()
    package = os.path.join(root, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"perfbench: no program source at {package}; run from a checkout root")
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    # Measure the program's defaults: no engine-mode override.
    os.environ.pop("REPRO_ENGINE_MODE", None)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != os.path.join(root, "src"):
        sys.exit("perfbench: repro was imported from outside this checkout")


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args, spec: dict) -> dict:
    import workloads
    from hostspeed import Sampler
    from repro.engine.columnar import default_engine_mode

    # A set-up needs only the warm-up statements, not a whole run's inputs.
    ins = workloads.make_inputs(args.workload, args.seed,
                                0 if args.setup_only else args.seconds)
    # The generated inputs live for the whole run; keep the collector from
    # rescanning them, so collections cost what the program's objects cost.
    gc.collect()
    gc.freeze()
    if args.setup_only:
        phase = workloads.Phase(args.workload, traced=False, sampler=Sampler().start())
        try:
            env = workloads.timed_setup(phase, ins, traced=False)
        finally:
            phase.sampler.stop()
        env.close()
        return {"setup_s": phase.setup_s[0], "setup_scaled_s": phase.setup_scaled_s[0],
                "attempted": len(ins.warmup), "failed": env.warm_failed}
    if args.traced_phase:
        spans_dir = os.path.abspath(SPANS_DIR)
        os.makedirs(spans_dir, exist_ok=True)
        traced = workloads.run_phase(ins, args.seconds, traced=True, spans_dir=spans_dir)
        return {"layers": workloads.per_layer(traced), "attempted": traced.attempted,
                "failed": traced.failed, "errors": traced.errors}
    untraced = workloads.run_phase(ins, args.seconds, traced=False)
    attempted, failed, errors = untraced.attempted, untraced.failed, list(untraced.errors)
    if not args.trace:
        # setup_s is the median of SETUPS set-ups, each in a fresh process
        # like the measured one: repeating it here would keep the earlier
        # databases' garbage and warm caches in the timed process.
        for _ in range(SETUPS - 1):
            extra = run_child(args, ["--setup-only"], timeout=60)
            untraced.setup_s.append(extra["setup_s"])
            untraced.setup_scaled_s.append(extra["setup_scaled_s"])
            attempted += extra["attempted"]
            failed += extra["failed"]
    e2e = workloads.end_to_end(untraced)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"engine_mode={default_engine_mode()} trace={args.trace}")
    print(f"# statements: reads={len(untraced.read_s)} writes={len(untraced.write_s)} "
          f"setups={len(untraced.setup_s)} interpreter_checked={untraced.interpreter_checked}")
    if untraced.late_s:
        print(f"# open loop: rate={workloads.HTTP_RATE:g}/s clients={workloads.HTTP_CLIENTS} "
              f"gen.late_p99_ms={fmt(workloads.percentile(untraced.late_s, 0.99) * 1e3)}")
    for name, unit in E2E_UNITS.items():
        print(f"{name:<32} {fmt(e2e[name]):>14} {unit}")
    if args.trace:
        traced = run_child(args, ["--traced-phase"], timeout=150)
        attempted += traced["attempted"]
        failed += traced["failed"]
        errors += [f"(traced) {error}" for error in traced["errors"]]
        layers = traced["layers"]
        layers["gen.late_p99_ms"] = workloads.percentile(untraced.late_s, 0.99) * 1e3
        layers["trace.untraced_ops_per_s"] = e2e["raw.ops_per_s"]
        layers["trace.ops_ratio"] = layers["trace.traced_ops_per_s"] / e2e["raw.ops_per_s"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("# per-layer (traced phase)")
        for name, value in layers.items():
            print(f"{name:<32} {fmt(value):>14} {units.get(name, '')}")
        chosen = spec["per_layer"]
        source = layers
    else:
        chosen = spec["end_to_end"]
        source = e2e
    for error in errors:
        print(f"# error: {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen},
    }


def run_child(args, extra: list[str], workload: str | None = None, timeout: float = 600) -> dict:
    """Run this script in a fresh process; echo its lines, return its JSON."""
    workload = workload or args.workload
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)] + extra
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except BaseException:
        stop_child(child)
        raise
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} {' '.join(extra)} failed (exit {child.returncode})")
    return json.loads(lines[-1])


def stop_child(child: subprocess.Popen) -> None:
    """Ask a child to stop (so it stops its own child), then wait for it."""
    child.terminate()
    try:
        child.wait(30)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()


def on_sigterm(signum, frame) -> None:
    """Unwind on SIGTERM, so every ``finally`` stops and waits for its child."""
    sys.exit(f"perfbench: stopped by signal {signum}")


def run_all(args) -> dict:
    """Each workload in a fresh process; their JSON lines merged."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        result = run_child(args, [], name)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, on_sigterm)
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    spec = load_benchmark_json()
    use_checkout_source()
    result = run_all(args) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
