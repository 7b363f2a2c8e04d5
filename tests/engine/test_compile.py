"""Batch-kernel compilation must agree with the interpretive Evaluator.

The batch compiler's contract is "identical by construction": anything
it cannot reproduce exactly (subqueries, outer references, unbound host
variables, ambiguous names) aborts compilation, constant subtrees fold
at compile time, and everything it does compile returns the same
three-valued verdict as :meth:`Evaluator.predicate`.  These cases run
the kernels on one-row batches — the shape a key-bound IndexScan feeds
a vectorized parent — where every lane is also the whole batch.  The
whole-grid batches live in ``test_columnar.py``.
"""

import itertools

import pytest

from repro.engine import ColumnBatch, compile_batch_filter, compile_batch_predicate
from repro.engine.evaluator import Evaluator
from repro.engine.schema import RelSchema, Scope
from repro.sql import parse_condition
from repro.types import NULL, FALSE, TRUE, UNKNOWN

SCHEMA = RelSchema.for_table("T", ["A", "B", "C"])

# Every combination of NULL/low/high over two numeric columns and a
# string column: 27 rows exercising all three truth values.
ROWS = [
    (a, b, c)
    for a, b, c in itertools.product(
        (NULL, 1, 2), (NULL, 1, 2), (NULL, "X", "Y")
    )
]

CONDITIONS = [
    "A = B",
    "A < B",
    "A <> B",
    "A = 1 AND B = 2",
    "A = 1 OR B IS NULL",
    "NOT A = B",
    "A BETWEEN 0 AND B",
    "A NOT BETWEEN B AND 2",
    "A IN (1, 2, B)",
    "B NOT IN (A, 2)",
    "C = 'X' OR C IS NOT NULL",
    "(A = 1 OR B = 2) AND NOT C = 'Y'",
    "A IS NULL AND B IS NULL AND C IS NULL",
    "A = :P AND C <> :Q",
    "A = 1 AND 1 = 1",
    "A = 1 OR 1 = 0",
]

PARAMS = {"P": 1, "Q": "X"}


def _verdict(masks: tuple[int, int]):
    """The tristate of a one-lane ``(true, unknown)`` mask pair."""
    true_mask, unknown_mask = masks
    return TRUE if true_mask else UNKNOWN if unknown_mask else FALSE


@pytest.mark.parametrize("text", CONDITIONS)
def test_compiled_verdicts_match_interpreter_on_null_heavy_rows(text):
    expr = parse_condition(text)
    evaluator = Evaluator(params=PARAMS)
    predicate = compile_batch_predicate(expr, SCHEMA, PARAMS)
    row_test = compile_batch_filter(expr, SCHEMA, PARAMS)
    assert predicate is not None and row_test is not None
    for row in ROWS:
        batch = ColumnBatch.from_rows([row], 3)
        scope = Scope(SCHEMA, row)
        expected = evaluator.predicate(expr, scope)
        assert _verdict(predicate(batch)) is expected, f"{text} on {row}"
        # compile_batch_filter applies the false-interpretation ⌊P⌋.
        assert bool(row_test(batch)) == evaluator.qualifies(expr, scope)


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("5 = 5", TRUE),
        ("1 = 0", FALSE),
        ("NULL = NULL", UNKNOWN),
        ("1 = 0 AND A = 1", FALSE),  # absorbing FALSE folds the AND
        ("1 = 1 OR A = 1", TRUE),  # absorbing TRUE folds the OR
        (":P = 1", TRUE),  # host variables fold to constants
        ("2 BETWEEN 1 AND 3", TRUE),
        ("'X' IN ('Y', 'Z')", FALSE),
        ("NULL IS NULL", TRUE),
    ],
)
def test_constant_subtrees_fold_at_compile_time(text, verdict):
    predicate = compile_batch_predicate(parse_condition(text), SCHEMA, PARAMS)
    assert predicate is not None
    # A folded kernel never reads a column: a zero-width batch would
    # raise IndexError on any surviving column access.
    assert _verdict(predicate(ColumnBatch.from_rows([()], 0))) is verdict


@pytest.mark.parametrize(
    "text",
    [
        "EXISTS (SELECT * FROM T)",  # subqueries need the interpreter
        "A IN (SELECT A FROM T)",
        "X.A = 1",  # outer (unknown-qualifier) reference
        "D = 1",  # unknown column
        ":MISSING = A",  # unbound host variable
    ],
)
def test_uncompilable_expressions_fall_back(text):
    expr = parse_condition(text)
    assert compile_batch_predicate(expr, SCHEMA, PARAMS) is None
    assert compile_batch_filter(expr, SCHEMA, PARAMS) is None


def test_ambiguous_unqualified_column_falls_back():
    # Both inputs expose an A; the interpreter raises on resolution, so
    # the compiler must decline rather than guess.
    joined = RelSchema.for_table("R", ["A"]).concat(
        RelSchema.for_table("S", ["A"])
    )
    assert compile_batch_predicate(parse_condition("A = 1"), joined) is None
    # A qualified reference stays compilable.
    qualified = compile_batch_predicate(parse_condition("R.A = 1"), joined)
    assert qualified is not None
    assert _verdict(qualified(ColumnBatch.from_rows([(1, 2)], 2))) is TRUE


def test_compile_filter_none_expr_means_no_test():
    assert compile_batch_filter(None, SCHEMA) is None
