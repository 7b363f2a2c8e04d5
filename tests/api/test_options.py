"""ExecutionOptions: the one frozen value shared by the facade, the
service, and the HTTP schema — construction, layering, and the wire
round trip."""

from __future__ import annotations

import pytest

from repro.engine.parallel import ParallelOptions
from repro.errors import ProtocolError
from repro.options import DEFAULT_OPTIONS, ExecutionOptions
from repro.resilience import ResourceBudget


class TestConstruction:
    def test_defaults(self):
        options = ExecutionOptions()
        assert options.timeout is None
        assert options.row_budget is None
        assert not options.safe_mode
        assert not options.analyze
        assert options.optimize
        assert options.parallel is None
        assert options.budget() is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionOptions().safe_mode = True

    def test_create_from_budget(self):
        budget = ResourceBudget(timeout=2.0, row_budget=100)
        options = ExecutionOptions.create(budget=budget, safe_mode=True)
        assert options.timeout == 2.0
        assert options.row_budget == 100
        assert options.safe_mode
        derived = options.budget()
        assert derived.timeout == 2.0 and derived.row_budget == 100
        # A field given beside the budget wins over the budget's.
        options = ExecutionOptions.create(budget=budget, row_budget=7)
        assert (options.timeout, options.row_budget) == (2.0, 7)

    def test_create_int_parallel(self):
        options = ExecutionOptions.create(parallel=4)
        assert isinstance(options.parallel, ParallelOptions)
        assert options.parallel.workers == 4
        assert ExecutionOptions.create(parallel=1).parallel is None

    @pytest.mark.parametrize("name", ["deadline", "parallel"])
    def test_bool_shorthands_rejected(self, name):
        with pytest.raises(TypeError):
            ExecutionOptions.create(**{name: True})

    def test_deadline_field_must_be_a_deadline(self):
        with pytest.raises(TypeError):
            ExecutionOptions(deadline=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(timeout=0)
        with pytest.raises(ValueError):
            ExecutionOptions(row_budget=-1)


class TestMerging:
    def test_override_wins_on_non_defaults(self):
        base = ExecutionOptions(timeout=5.0, safe_mode=True)
        merged = base.merged(ExecutionOptions(row_budget=10))
        assert merged.timeout == 5.0
        assert merged.row_budget == 10
        assert merged.safe_mode

    def test_none_override_is_identity(self):
        base = ExecutionOptions(timeout=5.0)
        assert base.merged(None) is base

    def test_optimize_false_survives_merge(self):
        merged = DEFAULT_OPTIONS.merged(ExecutionOptions(optimize=False))
        assert not merged.optimize


class TestWire:
    def test_round_trip(self):
        options = ExecutionOptions(
            timeout=1.5,
            row_budget=42,
            safe_mode=True,
            analyze=True,
            optimize=False,
            parallel=ParallelOptions(workers=3),
        )
        assert ExecutionOptions.from_wire(options.to_wire()) == options

    def test_defaults_encode_empty(self):
        assert ExecutionOptions().to_wire() == {}
        assert ExecutionOptions.from_wire(None) == ExecutionOptions()
        assert ExecutionOptions.from_wire({}) == ExecutionOptions()

    def test_unknown_key_rejected(self):
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_wire({"bogus": 1})

    def test_bad_types_rejected(self):
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_wire({"timeout": "fast"})
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_wire({"safe_mode": 1})
        with pytest.raises(ProtocolError):
            ExecutionOptions.from_wire({"parallel": "two"})
