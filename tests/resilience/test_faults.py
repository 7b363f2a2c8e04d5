"""The fault injector itself: counting, determinism, arming discipline."""

import pytest

from repro.errors import InjectedFaultError, TransientImsError
from repro.resilience import FAULTS, FaultInjector, FaultSpec
from repro.resilience.faults import ALL_SITES, iter_sites


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("compile", kind="meltdown")

    def test_after_skips_opportunities(self):
        injector = FaultInjector()
        spec = injector.arm(FaultSpec("compile", after=2))
        injector.check("compile")
        injector.check("compile")
        with pytest.raises(InjectedFaultError):
            injector.check("compile")
        assert spec.triggered == 3 and spec.fired == 1

    def test_times_bounds_firings(self):
        injector = FaultInjector()
        spec = injector.arm(FaultSpec("compile", times=2))
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                injector.check("compile")
        injector.check("compile")  # exhausted: no longer fires
        assert spec.fired == 2 and spec.triggered == 3

    def test_probability_is_seed_deterministic(self):
        def firing_pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.arm(FaultSpec("compile", probability=0.5))
            pattern = []
            for _ in range(20):
                try:
                    injector.check("compile")
                    pattern.append(False)
                except InjectedFaultError:
                    pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert any(firing_pattern(7)) and not all(firing_pattern(7))


class TestFaultInjector:
    def test_unarmed_is_a_noop(self):
        injector = FaultInjector()
        assert not injector.armed
        injector.check("compile")  # no spec: nothing raised
        assert injector.corrupt("uniqueness", 42) == 42

    def test_sites_are_independent(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("compile"))
        injector.check("plan_cache")  # different site: untouched
        with pytest.raises(InjectedFaultError) as info:
            injector.check("compile")
        assert info.value.site == "compile"

    def test_transient_kind_raises_typed_ims_error(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("dli_call", kind="transient", status="GL"))
        with pytest.raises(TransientImsError) as info:
            injector.check("dli_call")
        assert info.value.status == "GL"

    def test_custom_error_factory(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("compile", error=lambda: KeyError("boom")))
        with pytest.raises(KeyError):
            injector.check("compile")

    def test_corrupt_routes_values_and_check_ignores_it(self):
        injector = FaultInjector()
        injector.arm(
            FaultSpec("uniqueness", kind="corrupt", corruptor=lambda v: -v)
        )
        injector.check("uniqueness")  # corrupt faults never raise here
        assert injector.corrupt("uniqueness", 5) == -5

    def test_corrupt_without_corruptor_is_an_arming_error(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("uniqueness", kind="corrupt"))
        with pytest.raises(ValueError):
            injector.corrupt("uniqueness", 5)

    def test_inject_context_manager_disarms(self):
        injector = FaultInjector()
        with injector.inject("compile") as spec:
            assert injector.armed and injector.specs("compile") == [spec]
            with pytest.raises(InjectedFaultError):
                injector.check("compile")
        assert not injector.armed
        injector.check("compile")

    def test_disarm_restores_armed_flag_with_other_specs(self):
        injector = FaultInjector()
        first = injector.arm(FaultSpec("compile"))
        injector.arm(FaultSpec("plan_cache"))
        injector.disarm(first)
        assert injector.armed
        injector.reset()
        assert not injector.armed and injector.specs() == []

    def test_wrap_callable_passthrough_when_site_unarmed(self):
        injector = FaultInjector()
        fn = lambda row: True  # noqa: E731
        assert injector.wrap_callable("vectorized_eval", fn) is fn

    def test_wrap_callable_fires_per_call(self):
        injector = FaultInjector()
        injector.arm(FaultSpec("vectorized_eval", after=1, times=1))
        wrapped = injector.wrap_callable("vectorized_eval", lambda x: x + 1)
        assert wrapped is not None and wrapped(1) == 2
        with pytest.raises(InjectedFaultError):
            wrapped(1)
        assert wrapped(1) == 2  # exhausted

    def test_global_injector_and_site_constants(self):
        assert isinstance(FAULTS, FaultInjector)
        assert tuple(iter_sites()) == ALL_SITES
        assert len(set(ALL_SITES)) == len(ALL_SITES)
