"""Unit tests for mailboxes, resources, barriers, latches and poll ticks."""

import pytest

from repro.sim import Barrier, Latch, Mailbox, PollTicks, Resource, Simulator
from repro.sim.errors import SimulationError


# ----------------------------------------------------------------------
# Mailbox
# ----------------------------------------------------------------------
def test_mailbox_fifo_order():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def consumer(sim, box):
        for _ in range(3):
            msg = yield box.get()
            got.append(msg)

    sim.spawn(consumer(sim, box))
    for i in range(3):
        box.put(i)
    sim.run()
    assert got == [0, 1, 2]


def test_mailbox_blocking_get_waits_for_put():
    sim = Simulator()
    box = Mailbox(sim)

    def consumer(sim, box):
        msg = yield box.get()
        return (msg, sim.now)

    def producer(sim, box):
        yield sim.timeout(5.0)
        box.put("late")

    c = sim.spawn(consumer(sim, box))
    sim.spawn(producer(sim, box))
    sim.run()
    assert c.value == ("late", 5.0)


def test_mailbox_multiple_getters_fifo():
    sim = Simulator()
    box = Mailbox(sim)
    results = []

    def consumer(sim, box, name):
        msg = yield box.get()
        results.append((name, msg))

    sim.spawn(consumer(sim, box, "first"))
    sim.spawn(consumer(sim, box, "second"))

    def producer(sim, box):
        yield sim.timeout(1.0)
        box.put("a")
        box.put("b")

    sim.spawn(producer(sim, box))
    sim.run()
    assert results == [("first", "a"), ("second", "b")]


def test_mailbox_drain_and_len():
    sim = Simulator()
    box = Mailbox(sim)
    box.put(1)
    box.put(2)
    assert len(box) == 2
    assert box.drain() == [1, 2]
    assert len(box) == 0
    assert box.total_put == 2


# ----------------------------------------------------------------------
# Resource
# ----------------------------------------------------------------------
def test_resource_serializes_users_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def user(sim, res, i):
        yield from res.use(1.0)
        done.append((i, sim.now))

    for i in range(3):
        sim.spawn(user(sim, res, i))
    sim.run()
    assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]
    assert res.busy_time == pytest.approx(3.0)


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def user(sim, res, i):
        yield from res.use(1.0)
        done.append((i, sim.now))

    for i in range(4):
        sim.spawn(user(sim, res, i))
    sim.run()
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_resource_release_of_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_negative_duration_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield from res.use(-1.0)

    sim.spawn(user(sim, res))
    with pytest.raises(ValueError):
        sim.run()


def test_resource_queue_length_and_in_use():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        yield from res.use(10.0)

    def waiter(sim, res):
        yield from res.use(1.0)

    sim.spawn(holder(sim, res))
    sim.spawn(waiter(sim, res))
    sim.run(until=5.0)
    assert res.in_use == 1
    assert res.queue_length == 1


def test_resource_handoff_keeps_in_use_stable():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield from res.use(1.0)

    for _ in range(3):
        sim.spawn(user(sim, res))
    sim.run(until=1.5)
    assert res.in_use == 1  # handed directly to the next waiter


# ----------------------------------------------------------------------
# Barrier / Latch
# ----------------------------------------------------------------------
def test_barrier_releases_all_parties_together():
    sim = Simulator()
    bar = Barrier(sim, parties=3)
    times = []

    def party(sim, bar, delay):
        yield sim.timeout(delay)
        yield bar.wait()
        times.append(sim.now)

    for d in (1.0, 2.0, 3.0):
        sim.spawn(party(sim, bar, d))
    sim.run()
    assert times == [3.0, 3.0, 3.0]


def test_barrier_is_reusable():
    sim = Simulator()
    bar = Barrier(sim, parties=2)
    laps = []

    def party(sim, bar, name):
        for lap in range(2):
            yield sim.timeout(1.0)
            yield bar.wait()
            laps.append((name, lap, sim.now))

    sim.spawn(party(sim, bar, "a"))
    sim.spawn(party(sim, bar, "b"))
    sim.run()
    assert [t for (_, _, t) in laps] == [1.0, 1.0, 2.0, 2.0]


def test_barrier_invalid_parties():
    with pytest.raises(ValueError):
        Barrier(Simulator(), parties=0)


def test_latch_opens_at_zero():
    sim = Simulator()
    latch = Latch(sim, count=2)
    result = []

    def waiter(sim, latch):
        yield latch.wait()
        result.append(sim.now)

    def worker(sim, latch):
        yield sim.timeout(1.0)
        latch.count_down()
        yield sim.timeout(1.0)
        latch.count_down()

    sim.spawn(waiter(sim, latch))
    sim.spawn(worker(sim, latch))
    sim.run()
    assert result == [2.0]
    assert latch.count == 0


def test_latch_zero_count_is_open():
    sim = Simulator()
    latch = Latch(sim, count=0)

    def waiter(sim, latch):
        yield latch.wait()
        return "through"

    p = sim.spawn(waiter(sim, latch))
    sim.run()
    assert p.value == "through"


def test_latch_overcounting_raises():
    sim = Simulator()
    latch = Latch(sim, count=1)
    latch.count_down()
    with pytest.raises(SimulationError):
        latch.count_down()
    with pytest.raises(ValueError):
        Latch(sim, count=-1)


# ----------------------------------------------------------------------
# PollTicks
# ----------------------------------------------------------------------
def _grid(start, interval, n):
    """Reference grid: the first ``n`` points of ``t += interval``."""
    t, out = start, []
    for _ in range(n):
        t += interval
        out.append(t)
    return out


def _first_grid_point(start, interval, ok):
    t = start + interval
    while not ok(t):
        t += interval
    return t


def test_poll_ticks_fire_on_the_reference_grid_bit_for_bit():
    interval = 0.010 * 0.02
    n = 100_000
    sim = Simulator()
    box = Mailbox(sim)
    times = []

    def owner():
        yield sim.timeout(0.37)
        ticks = PollTicks(sim, box, interval, lambda t: True, "tick")
        while len(times) < n:
            yield box.get()
            times.append(sim.now)
        ticks.stop()
        yield box.get()  # the final tick

    sim.spawn(owner())
    sim.run()
    assert times == _grid(0.37, interval, n)


def test_dormant_poll_ticks_wake_at_the_next_grid_point_after_a_put():
    interval = 0.3
    sim = Simulator()
    box = Mailbox(sim)
    state = {"work": False}
    ticks_at = []

    def owner():
        ticks = PollTicks(sim, box, interval,
                          lambda t: True if state["work"] else None, "tick")
        while not ticks_at:
            msg = yield box.get()
            if msg == "work":
                state["work"] = True
            elif msg == "tick":
                ticks_at.append(sim.now)
        ticks.stop()

    def producer():
        yield sim.timeout(100.0)
        box.put("work")

    sim.spawn(owner())
    sim.spawn(producer())
    sim.run()
    assert ticks_at == [_first_grid_point(0.0, interval, lambda t: t >= 100.0)]
    # Dormant for ~333 grid points, yet only a handful of events ran.
    assert sim.processed_events < 20


def test_poll_ticks_deadline_wake_lands_on_the_first_due_grid_point():
    interval = 0.013
    sim = Simulator()
    box = Mailbox(sim)
    ticks_at = []

    def due(t):
        return t - 0.05 >= 1.0  # silent since 0.05 for a whole second

    def owner():
        ticks = PollTicks(sim, box, interval, due, "tick")
        yield box.get()
        ticks_at.append(sim.now)
        ticks.stop()

    sim.spawn(owner())
    sim.run()
    assert ticks_at == [_first_grid_point(0.0, interval, due)]
    assert sim.processed_events < 10


def test_stopped_poll_ticks_fire_exactly_one_final_tick():
    interval = 0.3
    sim = Simulator()
    box = Mailbox(sim)
    ticks_at = []

    def owner():
        ticks = PollTicks(sim, box, interval, lambda t: None, "tick")
        # Busy: ticks queue whatever the predicate says.
        yield sim.timeout(1.0)
        while len(box):
            yield box.get()
            ticks_at.append(sim.now)
        assert ticks_at == [1.0, 1.0, 1.0]
        # Blocked with nothing due: no tick until stop().
        sim.spawn(stopper(ticks))
        yield box.get()
        ticks_at.append(sim.now)

    def stopper(ticks):
        yield sim.timeout(1.5)
        ticks.stop()
        ticks.stop()  # idempotent

    sim.spawn(owner())
    sim.run()
    final = _first_grid_point(0.0, interval, lambda t: t >= 2.5)
    assert ticks_at == [1.0, 1.0, 1.0, final]
    assert len(box) == 0 and sim.now == final


def test_poll_ticks_final_tick_queues_after_the_owner_left():
    sim = Simulator()
    box = Mailbox(sim)

    def owner():
        ticks = PollTicks(sim, box, 0.25, lambda t: True, "tick")
        yield box.get()
        ticks.stop()

    sim.spawn(owner())
    sim.run()
    assert list(box.drain()) == ["tick"] and sim.now == 0.5


def _polling_loop(sim, box, interval, stop):
    """Reference: a process that puts a tick on every grid step."""
    while not stop:
        yield sim.timeout(interval)
        box.put("tick")


@pytest.mark.parametrize("delays", [(0.5,), (0.3, 0.2)])
def test_poll_ticks_order_a_put_on_a_grid_point_like_a_polling_loop(delays):
    """A put lands exactly on grid point 0.5, which the dormant source
    never visited.  A polling loop scheduled that tick at 0.25, so a put
    scheduled before 0.25 goes first and one scheduled after goes second."""

    def scenario(reference):
        sim = Simulator()
        box = Mailbox(sim)
        got = []
        stop = []

        def owner():
            if reference:
                sim.spawn(_polling_loop(sim, box, 0.25, stop))
            else:
                ticks = PollTicks(sim, box, 0.25, lambda t: None, "tick")
            while len(got) < 2:
                item = yield box.get()
                if sim.now >= 0.5:  # earlier ticks change nothing
                    got.append(item)
            stop.append(True)
            if not reference:
                ticks.stop()

        def producer():
            for d in delays:
                yield sim.timeout(d)
            box.put("work")

        sim.spawn(owner())
        sim.spawn(producer())
        sim.run()
        return got

    expected = ["work", "tick"] if delays == (0.5,) else ["tick", "work"]
    assert scenario(reference=True) == scenario(reference=False) == expected


def test_poll_ticks_reject_a_nonpositive_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        PollTicks(sim, Mailbox(sim), 0.0, lambda t: None, "tick")
