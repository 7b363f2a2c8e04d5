"""Partition-parallel execution: morsels, the worker pool, and gating.

The paper's rewrites shrink the work *one* query performs; this module
adds the orthogonal axis — splitting a single operator's input into
row-range **morsels** executed on a shared thread pool.  Chen &
Schneider's SPJU intermediate-size bounds (see PAPERS.md) motivate the
granularity: partition-level cardinality is what decides whether a
scan or a hash-join build is worth splitting at all, so the gate here
is a row-count threshold, not a per-operator heuristic.

Three invariants keep the parallel paths invisible to correctness:

* **Ordered merge** — morsel results are collected in submission
  order, so the output row *sequence* (not just the multiset) is
  byte-identical to the serial operator's.  Partitioning a hash-join
  build preserves per-key bucket order for the same reason: slices are
  merged left-to-right, so each bucket lists build rows in the exact
  insertion order a serial build would produce.
* **Pure workers** — worker tasks touch only immutable inputs (row
  lists, column batches, compiled mask kernels); every ``Stats``
  counter and guard tick is accounted by the coordinating thread as
  each morsel is collected.  Workers never see the evaluator, the guard, or the
  tracer.
* **Conservative gating** — :meth:`ParallelExecution.eligible` says no
  whenever faults are armed (per-row trigger opportunities must be
  preserved), the operator is correlated (``outer`` scope present), or
  the input is below ``min_parallel_rows``.  Ineligible paths run the
  unchanged serial code.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .operators.base import ExecContext


@dataclass(frozen=True)
class ParallelOptions:
    """Knobs for partition-parallel operator execution.

    Attributes:
        workers: morsel worker threads (1 disables parallelism).
        morsel_size: rows per morsel.  2048 balances task-dispatch
            overhead (~tens of microseconds per future) against load
            balancing; see DESIGN.md §3e for the measurement.
        min_parallel_rows: inputs smaller than this stay serial — the
            cost gate.  Splitting a small input buys nothing and pays
            pool dispatch; the default keeps every input that fits in
            two morsels on the fast serial path.
    """

    workers: int = 2
    morsel_size: int = 2048
    min_parallel_rows: int = 4096

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.morsel_size < 1:
            raise ValueError("morsel_size must be at least 1")
        if self.min_parallel_rows < 0:
            raise ValueError("min_parallel_rows must be non-negative")


class MorselPool:
    """A shared thread pool executing morsel tasks in submission order."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-morsel"
        )

    def run_ordered(
        self,
        task: Callable[[Any], Any],
        items: Sequence[Any],
        collect: Callable[[Any], None] | None = None,
    ) -> list[Any]:
        """Run *task* over *items*; return results in item order.

        *collect* (when given) is called with each result from the
        calling thread, in order, as results are gathered — the hook
        the operators use for guard ticks and stats accounting.  Any
        task exception propagates after the remaining futures are
        drained (so no worker is left writing into a discarded list).
        """
        futures = [self._executor.submit(task, item) for item in items]
        results: list[Any] = []
        error: BaseException | None = None
        for future in futures:
            if error is not None:
                future.cancel()
                continue
            try:
                result = future.result()
            except BaseException as exc:  # drain, then re-raise
                error = exc
                continue
            if collect is not None:
                collect(result)
            results.append(result)
        if error is not None:
            raise error
        return results

    def shutdown(self) -> None:
        """Stop the workers (idempotent)."""
        self._executor.shutdown(wait=True)


_shared_pools: dict[int, MorselPool] = {}
_shared_pools_lock = threading.Lock()


def shared_pool(workers: int) -> MorselPool:
    """The process-wide morsel pool for *workers* threads.

    Pools are created on first use and kept for the process lifetime,
    so per-query executions do not pay thread spawn costs.
    """
    with _shared_pools_lock:
        pool = _shared_pools.get(workers)
        if pool is None:
            pool = _shared_pools[workers] = MorselPool(workers)
        return pool


class ParallelExecution:
    """Options plus a live pool, attached to an :class:`ExecContext`.

    Construct via :func:`parallel_execution` (which normalizes options
    to a shared pool) or directly with a pool you own — the service
    does the latter so every session shares one pool.
    """

    __slots__ = ("options", "pool")

    def __init__(self, options: ParallelOptions, pool: MorselPool) -> None:
        self.options = options
        self.pool = pool

    def eligible(self, ctx: "ExecContext", nrows: int, outer: Any) -> bool:
        """Whether an operator over *nrows* input rows may go parallel.

        Requires: >1 worker, an input past the cost threshold, no
        correlation scope, and ``ctx.batch_ticks`` (faults disarmed —
        armed faults need their exact per-row trigger opportunities,
        which only the serial loops provide).
        """
        return (
            self.options.workers > 1
            and nrows >= max(self.options.min_parallel_rows, 1)
            and outer is None
            and ctx.batch_ticks
        )

    def morsels(self, nrows: int) -> list[tuple[int, int]]:
        """Row-range [start, stop) pairs covering ``range(nrows)``."""
        size = self.options.morsel_size
        return [(lo, min(lo + size, nrows)) for lo in range(0, nrows, size)]


def parallel_execution(
    parallel: "ParallelOptions | ParallelExecution | None",
) -> ParallelExecution | None:
    """Normalize a ``parallel=`` argument to a live execution handle."""
    if parallel is None:
        return None
    if isinstance(parallel, ParallelExecution):
        return parallel
    if parallel.workers <= 1:
        return None
    return ParallelExecution(parallel, shared_pool(parallel.workers))
