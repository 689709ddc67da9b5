"""AdmissionQueue unit tests: bound, fairness, FIFO, close semantics."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.queue import AdmissionQueue


def test_depth_validation():
    with pytest.raises(ValueError):
        AdmissionQueue(0)


def test_put_get_fifo_within_tenant():
    q = AdmissionQueue(8)
    for i in range(5):
        assert q.put(i, "t") is True
    assert [q.get(timeout=0) for _ in range(5)] == [0, 1, 2, 3, 4]


def test_put_refuses_when_full_without_blocking():
    q = AdmissionQueue(2)
    assert q.put("a", "t") and q.put("b", "t")
    assert q.put("c", "t") is False  # returns immediately, never blocks
    assert len(q) == 2
    q.get(timeout=0)
    assert q.put("c", "t") is True  # space freed -> admitted again


def test_round_robin_across_tenants():
    q = AdmissionQueue(16)
    # Tenant "a" floods first; "b" and "c" each add one afterwards.
    for i in range(4):
        q.put(f"a{i}", "a")
    q.put("b0", "b")
    q.put("c0", "c")
    order = [q.get(timeout=0) for _ in range(6)]
    # One item per tenant per rotation: b0/c0 are NOT stuck behind a1..a3.
    assert order.index("b0") < 3
    assert order.index("c0") < 4
    assert [x for x in order if x.startswith("a")] == ["a0", "a1", "a2", "a3"]


def test_get_times_out_empty():
    q = AdmissionQueue(2)
    assert q.get(timeout=0.01) is None


def test_get_wakes_on_put():
    q = AdmissionQueue(2)
    got = []
    t = threading.Thread(target=lambda: got.append(q.get(timeout=5)))
    t.start()
    q.put("x", "t")
    t.join(timeout=5)
    assert got == ["x"]


def test_close_refuses_puts_and_wakes_getters():
    q = AdmissionQueue(4)
    q.put("x", "t")
    results = []
    t = threading.Thread(target=lambda: results.append(q.get(timeout=30)))
    t.start()
    t.join(timeout=5)
    assert results == ["x"]  # drained before close
    q.close()
    assert q.closed
    assert q.put("y", "t") is False
    assert q.get(timeout=30) is None  # returns immediately, no 30s hang


def test_drain_continues_after_close():
    q = AdmissionQueue(4)
    q.put("x", "t")
    q.put("y", "u")
    q.close()
    assert {q.get(timeout=0), q.get(timeout=0)} == {"x", "y"}


def test_tenants_listing():
    q = AdmissionQueue(8)
    q.put(1, "a")
    q.put(2, "b")
    assert q.tenants() == ["a", "b"]
    q.get(timeout=0)  # pops a's only item
    assert q.tenants() == ["b"]


def test_get_timeout_is_not_restarted_by_a_stolen_wakeup():
    """Two consumers: one is woken by a put, but the other takes the
    item first.  The woken one must wait for what is left of its
    timeout, not for all of it again."""
    q = AdmissionQueue(4)
    timeout = 0.4
    waited = []

    def _waiter():
        start = time.monotonic()
        item = q.get(timeout=timeout)
        waited.append((item, time.monotonic() - start))

    t = threading.Thread(target=_waiter)
    t.start()
    stolen = []
    for _ in range(2):
        time.sleep(0.25)
        # Under the queue's (re-entrant) lock the put's wake-up and the
        # second consumer's get are one step: the waiter wakes to nothing.
        with q._cond:
            q.put("x", "t")
            stolen.append(q.get(timeout=0))
    t.join(timeout=5)
    assert not t.is_alive()
    assert stolen == ["x", "x"]
    (item, elapsed), = waited
    assert item is None
    # Restarted timeouts would end at 0.5 + 0.4 s.
    assert timeout <= elapsed < 0.7


def test_slot_getter_takes_hand_offs_first_and_items_only_with_a_slot():
    q = AdmissionQueue(1, slots=1)
    assert q.put("x", "t")
    assert q.hand_off("task") and q.hand_off("later")
    assert q.put("y", "t") is False  # hand-offs take no queue place
    assert q.get(timeout=0, slot=True) == "task"
    assert q.get(timeout=0, slot=True) == "later"
    assert q.get(timeout=0, slot=True) == "x"  # takes the only slot
    assert q.put("y", "t")
    assert q.get(timeout=0, slot=True) is None  # no slot left
    assert q.get(timeout=0) == "y"  # a drain needs none
    q.release()
    assert q.claim() and not q.claim()
    q.release()


def test_claim_leaves_the_slots_queued_items_are_owed():
    q = AdmissionQueue(4, slots=2)
    q.put("x", "t")
    assert q.claim()  # two free, one owed
    assert not q.claim()  # one free, one owed
    assert q.get(timeout=0, slot=True) == "x"
    q.close()
    assert not q.claim() and q.hand_off("task") is False


def test_release_wakes_a_slot_getter_and_close_waits_for_items():
    q = AdmissionQueue(4, slots=1)
    assert q.claim()
    q.put("x", "t")
    q.close()
    got = []
    t = threading.Thread(target=lambda: got.append(q.get(slot=True)))
    t.start()
    t.join(timeout=0.2)
    assert t.is_alive()  # closed, but an item is left and no slot free
    q.release()
    t.join(timeout=5)
    assert not t.is_alive() and got == ["x"]
    assert q.get(slot=True) is None  # closed and empty: no wait
