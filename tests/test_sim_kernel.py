"""Unit tests for the discrete-event kernel (events, time, determinism)."""

import pytest

from repro.sim import DeadlockError, Event, Simulator
from repro.sim.errors import SimulationError


def test_new_simulator_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed(42)
    sim.run()
    assert seen == [42]


def test_event_fail_carries_exception():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert ev.processed and not ev.ok
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_untriggered_event_has_no_ok_or_value():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.ok
    with pytest.raises(SimulationError):
        _ = ev.value


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    late = []
    ev.add_callback(lambda e: late.append(e.value))
    assert late == ["x"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        ev = sim.event()
        ev.add_callback(lambda e, i=i: order.append(i))
        ev.succeed(None, delay=1.0)
    sim.run()
    assert order == list(range(10))


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
        ev = sim.event()
        ev.add_callback(lambda e, d=delay: order.append(d))
        ev.succeed(None, delay=delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_until_stops_the_clock():
    sim = Simulator()
    fired = []
    for delay in (1.0, 2.0, 3.0):
        ev = sim.event()
        ev.add_callback(lambda e, d=delay: fired.append(d))
        ev.succeed(None, delay=delay)
    sim.run(until=2.5)
    assert fired == [1.0, 2.0]
    assert sim.now == 2.5
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_step_processes_exactly_one_event():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.step()
    assert sim.now == 1.0
    assert sim.processed_events == 1


def test_deadlock_detection():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered

    sim.spawn(stuck(sim))
    with pytest.raises(DeadlockError):
        sim.run()


def test_schedule_into_past_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(ValueError):
        sim._schedule(ev, delay=-0.1)


def test_determinism_two_identical_runs():
    def build_and_run():
        sim = Simulator()
        log = []

        def proc(sim, name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((name, sim.now))

        sim.spawn(proc(sim, "a", 1.0))
        sim.spawn(proc(sim, "b", 1.0))
        sim.spawn(proc(sim, "c", 0.5))
        sim.run()
        return log

    assert build_and_run() == build_and_run()


def test_at_fires_at_exactly_the_absolute_time():
    sim = Simulator()
    sim.timeout(0.177)
    sim.run()
    when = 0.761  # a relative timeout would land on 0.7610000000000001
    assert sim.now + (when - sim.now) != when
    fired = []
    sim.at(when, "v").add_callback(lambda ev: fired.append((sim.now, ev.value)))
    sim.run()
    assert fired == [(when, "v")]
    with pytest.raises(ValueError):
        sim.at(0.5)


def test_cancelled_event_neither_runs_nor_moves_the_clock():
    sim = Simulator()
    fired = []
    sim.timeout(1.0)
    late = sim.at(5.0)
    late.add_callback(lambda ev: fired.append(sim.now))
    late.cancel()
    sim.run()
    assert fired == [] and sim.now == 1.0
    assert sim.processed_events == 1
    done = sim.timeout(0.0)
    sim.run()
    with pytest.raises(SimulationError):
        done.cancel()
