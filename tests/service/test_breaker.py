"""Circuit breaker: unit state machine + service-level fail-fast."""

import asyncio

import pytest

from repro.errors import CircuitOpenError, ExplorationError, QueueFullError
from repro.service import CircuitBreaker, JobRequest, SimulationService


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBreakerStateMachine:
    def test_closed_by_default(self):
        breaker = CircuitBreaker(clock=FakeClock())
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=5.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everything else waits on it

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_full_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert breaker.retry_after() == pytest.approx(5.0)

    def test_retry_after_counts_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(4.0)
        assert breaker.retry_after() == pytest.approx(6.0)

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0}, {"cooldown": 0.0}, {"cooldown": -1.0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(clock=FakeClock(), **kwargs)


def _request(seed=0, priority="batch"):
    return JobRequest(core="cv32e40p", config="SLT",
                      workload="yield_pingpong", iterations=1, seed=seed,
                      priority=priority)


class TestServiceFailFast:
    def test_open_circuit_rejects_new_work_structured(self, monkeypatch):
        def doomed_batch(points, jobs=1, retries=1, timeout=None,
                         health=None, pool=None):
            raise ExplorationError("worker tier is down")
        monkeypatch.setattr("repro.service.server.run_batch", doomed_batch)

        async def go():
            service = SimulationService(
                breaker=CircuitBreaker(threshold=1, cooldown=30.0))
            async with service:
                first = await service.submit_and_wait(_request(seed=1))
                assert first.status == "error"
                assert first.error["type"] == "ExplorationError"
                with pytest.raises(CircuitOpenError) as exc_info:
                    await service.submit(_request(seed=2))
                assert exc_info.value.retry_after > 0
                assert isinstance(exc_info.value, QueueFullError)
                assert service.stats.circuit_open == 1
                assert service.breaker.state == "open"
        asyncio.run(go())

    def test_probe_recovers_service(self, monkeypatch):
        calls = {"n": 0}

        def flaky_batch(points, jobs=1, retries=1, timeout=None,
                        health=None, pool=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ExplorationError("transient infra death")
            return [{"status": "done", "run": {"fake": True}}
                    for _ in points]
        monkeypatch.setattr("repro.service.server.run_batch", flaky_batch)

        clock_state = {"now": 0.0}

        def clock():
            return clock_state["now"]

        async def go():
            service = SimulationService(
                clock=clock,
                breaker=CircuitBreaker(threshold=1, cooldown=0.05,
                                       clock=clock))
            async with service:
                first = await service.submit_and_wait(_request(seed=1))
                assert first.status == "error"
                clock_state["now"] += 0.06  # past cooldown: probe admitted
                second = await service.submit_and_wait(_request(seed=2))
                assert second.status == "done"
                assert service.breaker.state == "closed"
        asyncio.run(go())
