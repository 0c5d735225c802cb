"""Sim-engine profiling: attribution is deterministic, wall time is not."""

from repro.obs.profiler import SimProfiler, callback_site
from repro.sim.engine import Simulator


def _free_function() -> None:
    pass


class _Thing:
    def method(self) -> None:
        pass

    def __call__(self) -> None:
        pass


class TestCallbackSite:
    def test_free_function(self):
        assert callback_site(_free_function) == \
            f"{__name__}._free_function"

    def test_bound_method(self):
        assert callback_site(_Thing().method) == \
            f"{__name__}._Thing.method"

    def test_lambda_carries_enclosing_scope(self):
        def outer():
            return lambda: None
        assert callback_site(outer()) == \
            f"{__name__}.TestCallbackSite.test_lambda_carries_" \
            f"enclosing_scope.<locals>.outer.<locals>.<lambda>"

    def test_callable_object_falls_back_to_type(self):
        assert callback_site(_Thing()) == f"{__name__}._Thing"


class TestSimProfiler:
    def test_run_attributes_events_and_wall_time(self):
        prof = SimProfiler()
        for _ in range(3):
            prof.run(_free_function)
        prof.run(_Thing().method)
        assert prof.events_total == 4
        by_site = {p.site: p.events for p in prof.report()}
        assert by_site[f"{__name__}._free_function"] == 3
        assert by_site[f"{__name__}._Thing.method"] == 1
        assert all(p.wall_ns >= 0 for p in prof.report())

    def test_exception_still_attributed(self):
        prof = SimProfiler()

        def boom() -> None:
            raise RuntimeError("x")

        try:
            prof.run(boom)
        except RuntimeError:
            pass
        assert prof.events_total == 1

    def test_deterministic_snapshot_strips_wall_time(self):
        prof = SimProfiler()
        prof.run(_free_function)
        snap = prof.deterministic_snapshot()
        assert snap == {f"{__name__}._free_function": 1}
        assert all(isinstance(v, int) for v in snap.values())

    def test_render_mentions_totals(self):
        prof = SimProfiler()
        prof.run(_free_function)
        text = prof.render()
        assert "1 events" in text
        assert "_free_function" in text
        assert "(no events profiled)" in SimProfiler().render()


class TestEngineIntegration:
    def test_profiler_sees_every_popped_event(self):
        sim = Simulator(seed=1)
        prof = SimProfiler()
        sim.set_profiler(prof)
        fired = []
        for at in (10, 20, 30):
            sim.call_at(at, lambda: fired.append(sim.now))
        sim.run_all()
        assert fired == [10, 20, 30]
        assert prof.events_total == sim.events_processed == 3
        assert sum(prof.deterministic_snapshot().values()) == 3

    def test_event_attribution_identical_across_runs(self):
        def drive() -> SimProfiler:
            sim = Simulator(seed=5)
            prof = SimProfiler()
            sim.set_profiler(prof)
            sim.every(7, lambda: None)
            sim.call_later(11, _free_function)
            sim.run_until(100)
            return prof

        assert drive().deterministic_snapshot() == \
            drive().deterministic_snapshot()

    def test_periodic_firing_billed_to_its_callback(self):
        sim = Simulator(seed=2)
        prof = SimProfiler()
        sim.set_profiler(prof)
        sim.every(10, _Thing().method)
        sim.run_until(35)
        snap = prof.deterministic_snapshot()
        assert snap == {f"{__name__}._Thing.method": 3}
        assert not any("PeriodicTask._fire" in site for site in snap)
