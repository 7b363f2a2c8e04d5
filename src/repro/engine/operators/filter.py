"""Selection (filter) operator."""

from __future__ import annotations

from typing import Iterator

from itertools import chain

from ...errors import ResourceError
from ...sql.expressions import Expr
from ...sql.printer import to_sql
from ..columnar import batches_from_rows, compile_batch_filter
from ..schema import Scope
from .base import ExecContext, PlanNode


class Filter(PlanNode):
    """Keeps rows whose predicate is definitely TRUE (⌊P⌋ semantics).

    The row path evaluates the predicate through the shared evaluator,
    which re-executes correlated subqueries per input row through the
    reference interpreter, counting each invocation.  It is the verified
    semantics the vectorized path falls back to.

    The vectorized path compiles the predicate once per execution into
    a mask kernel.  With a parallel execution context, a Filter directly
    over a :class:`~repro.engine.operators.scan.SeqScan` of a large
    enough table becomes a **parallel scan**: the table's column batches
    are evaluated on the worker pool and the surviving batches are
    concatenated in morsel order — the exact sequence the serial loop
    would emit.  Any worker failure discards the parallel attempt and
    re-runs the whole filter serially (nothing has been yielded yet, so
    the fallback is clean).
    """

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def rows(self, ctx: ExecContext, outer: Scope | None = None) -> Iterator[tuple]:
        qualifies = ctx.evaluator.qualifies
        for row in self.child.rows(ctx, outer):
            if qualifies(self.predicate, Scope(self.schema, row, outer=outer)):
                yield row

    # ------------------------------------------------------------------
    # vectorized path

    def batches(self, ctx: ExecContext, outer: Scope | None = None):
        """Selection as a boolean mask over a batch-compiled predicate.

        Anything the batch compiler rejects (subqueries, outer
        references) re-batches the tuple path, which is the verified
        semantics.  A kernel that dies mid-stream demotes this batch and
        every remaining one to the interpreter.
        """
        kernel = None
        if outer is None:
            try:
                kernel = compile_batch_filter(
                    self.predicate, self.schema, ctx.evaluator.params
                )
            except ResourceError:
                raise
            except Exception:
                # Batch compilation itself blew up (e.g. a ``compile``
                # fault): the re-batched tuple path below owns the
                # fallback accounting.
                ctx.stats.vectorized_fallbacks += 1
        if kernel is None:
            yield from PlanNode.batches(self, ctx, outer)
            return
        stats = ctx.stats
        stats.predicates_compiled += 1
        parallel_result = self._parallel_batches(ctx, outer, kernel)
        if parallel_result is not None:
            yield from parallel_result
            return
        source = self.child.batches(ctx, outer)
        for batch in source:
            try:
                mask = kernel(batch)
            except ResourceError:
                raise
            except Exception:
                # Vectorized→interpreter demotion mid-stream: nothing
                # from this batch has been emitted, so it and the rest
                # of the stream run through the evaluator.
                stats.vectorized_fallbacks += 1
                yield from self._demoted_batches(ctx, outer, batch, source)
                return
            stats.predicate_evals += batch.length
            stats.compiled_evals += batch.length
            stats.vectorized_batches += 1
            stats.vectorized_rows += batch.length
            selected = batch.select(mask)
            if selected.length:
                yield selected

    def _demoted_batches(self, ctx: ExecContext, outer, failed, source):
        """Finish interpretively: the failed batch, then the rest."""
        evaluator = ctx.evaluator

        def kept_rows():
            for batch in chain((failed,), source):
                for row in batch.iter_rows():
                    scope = Scope(self.schema, row, outer=outer)
                    if evaluator.qualifies(self.predicate, scope):
                        yield row

        yield from batches_from_rows(
            kept_rows(), len(self.schema), ctx.batch_rows
        )

    def _parallel_batches(self, ctx: ExecContext, outer, kernel):
        """Column batches through the morsel pool, or None to stay serial.

        The pool is fed the table's cached column batches (morsel-sized)
        instead of row ranges; each worker applies the mask kernel and
        the selected batches are concatenated in submission order — the
        exact sequence the serial vectorized loop emits.
        """
        from .scan import SeqScan  # deferred: scan imports base too

        par = ctx.parallel
        if par is None or not isinstance(self.child, SeqScan):
            return None
        data = ctx.database.table(self.child.table_name)
        nrows = len(data.rows)
        if not par.eligible(ctx, nrows, outer):
            return None
        batches = data.column_batches(par.options.morsel_size)

        def task(batch):
            return batch.select(kernel(batch))

        try:
            results = par.pool.run_ordered(task, batches)
        except ResourceError:
            raise
        except Exception:
            return None  # the serial loop accounts its own demotion
        stats = ctx.stats
        for batch in batches:
            ctx.tick(batch.length)
        stats.rows_scanned += nrows
        stats.predicate_evals += nrows
        stats.compiled_evals += nrows
        stats.parallel_scans += 1
        stats.parallel_morsels += len(batches)
        stats.vectorized_batches += len(batches)
        stats.vectorized_rows += nrows
        return [batch for batch in results if batch.length]

    def label(self) -> str:
        return f"Filter({to_sql(self.predicate)})"
