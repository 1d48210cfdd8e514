"""Unit tests for Store / Resource / Barrier and RandomStreams."""

import numpy as np
import pytest

from repro.sim import Barrier, RandomStreams, Resource, Simulator, Store


# --------------------------------------------------------------------- Store


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def producer():
        yield store.put("a")
        yield store.put("b")

    def consumer():
        x = yield store.get()
        y = yield store.get()
        return [x, y]

    sim.spawn(producer())
    assert sim.run_process(consumer()) == ["a", "b"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (sim.now, item)

    def producer():
        yield sim.timeout(3.0)
        yield store.put("late")

    sim.spawn(producer())
    assert sim.run_process(consumer()) == (3.0, "late")


def test_store_fifo_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(i):
        item = yield store.get()
        got.append((i, item))

    for i in range(3):
        sim.spawn(consumer(i))

    def producer():
        yield sim.timeout(1.0)
        for item in "abc":
            yield store.put(item)

    sim.spawn(producer())
    sim.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_store_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put(1)
        log.append(("put1", sim.now))
        yield store.put(2)
        log.append(("put2", sim.now))

    def consumer():
        yield sim.timeout(5.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert ("put1", 0.0) in log
    assert ("put2", 5.0) in log  # blocked until consumer freed a slot


def test_store_try_put_try_get():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert store.try_get() == (True, 1)
    assert store.try_get() == (True, 2)
    assert store.try_get() == (False, None)


def test_store_try_put_runs_the_notify_and_schedules_nothing():
    # A put nobody waits on: the item queues, the one-shot notify runs once
    # (the parked fetch server's wake), and no acceptance event is queued.
    sim = Simulator()
    store, woken = Store(sim), []
    store.notify = lambda: woken.append(sim.now)
    assert store.try_put("a") and store.try_put("b")
    assert woken == [0.0] and store.notify is None and len(store) == 2
    sim.run()
    assert sim.events_processed == 0


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.try_put("x")
    assert len(store) == 1


# ------------------------------------------------------------------ Resource


def test_resource_serializes_exclusive_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(i):
        yield res.acquire()
        start = sim.now
        yield sim.timeout(1.0)
        res.release()
        spans.append((i, start, sim.now))

    for i in range(3):
        sim.spawn(worker(i))
    sim.run()
    assert spans == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(i):
        yield res.acquire()
        yield sim.timeout(1.0)
        res.release()
        done.append((i, sim.now))

    for i in range(4):
        sim.spawn(worker(i))
    sim.run()
    assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_available():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    res.acquire()
    assert res.available == 2


# ------------------------------------------------------------------- Barrier


def test_barrier_releases_all_at_once():
    sim = Simulator()
    bar = Barrier(sim, parties=3)
    released = []

    def party(i, arrive_at):
        yield sim.timeout(arrive_at)
        yield bar.wait()
        released.append((i, sim.now))

    sim.spawn(party(0, 1.0))
    sim.spawn(party(1, 2.0))
    sim.spawn(party(2, 5.0))
    sim.run()
    assert released == [(0, 5.0), (1, 5.0), (2, 5.0)]


def test_barrier_is_reusable_with_generations():
    sim = Simulator()
    bar = Barrier(sim, parties=2)
    gens = []

    def party():
        g0 = yield bar.wait()
        g1 = yield bar.wait()
        gens.append((g0, g1))

    sim.spawn(party())
    sim.spawn(party())
    sim.run()
    assert gens == [(0, 1), (0, 1)]


def test_barrier_single_party_is_noop():
    sim = Simulator()
    bar = Barrier(sim, parties=1)

    def party():
        yield bar.wait()
        return sim.now

    assert sim.run_process(party()) == 0.0


def test_barrier_invalid_parties():
    sim = Simulator()
    with pytest.raises(ValueError):
        Barrier(sim, parties=0)


# ------------------------------------------------------------- RandomStreams


def test_random_streams_reproducible_across_instances():
    a = RandomStreams(seed=7).stream("link:0").random(5)
    b = RandomStreams(seed=7).stream("link:0").random(5)
    assert np.array_equal(a, b)


def test_random_streams_independent_by_name():
    rs = RandomStreams(seed=7)
    a = rs.stream("link:0").random(5)
    b = rs.stream("link:1").random(5)
    assert not np.array_equal(a, b)


def test_random_streams_cached():
    rs = RandomStreams(seed=7)
    assert rs.stream("x") is rs.stream("x")


def test_random_streams_seed_changes_draws():
    a = RandomStreams(seed=1).stream("s").random(5)
    b = RandomStreams(seed=2).stream("s").random(5)
    assert not np.array_equal(a, b)


def test_random_streams_fork_independent():
    rs = RandomStreams(seed=3)
    f1 = rs.fork(1).stream("s").random(4)
    f2 = rs.fork(2).stream("s").random(4)
    assert not np.array_equal(f1, f2)
