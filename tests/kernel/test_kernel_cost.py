"""Counted cost of the kernel hot path per step, round and RTOS call.

Each probe runs one fixed, uninstrumented shape (tracing swapped to the
no-op, no profiler, no schedule oracle, no observability attached)
under ``sys.setprofile`` and counts Python-level ``call`` events (no
``c_call``, so the count is the same on CPython 3.10, 3.11 and 3.12)
in the named package. The counts are exact and repeatable, so each
bound is a budget, not a timing: one extra helper call per kernel step
breaks every kernel budget below.

The shapes mirror ``benchmarks/run_bench.py``:

* ``timer_heavy`` — 64 processes re-arming ``WaitFor(500)`` for the
  same instant, 100 times each; calls into ``repro.kernel`` per step.
* Notify/Wait ping-pong — 8 pairs, 250 rounds; calls per round.
* wait-any — 8 groups blocking on 4 events, 200 rounds; calls per round.
* RTOS ``time_wait`` — 4 aperiodic tasks, 500 calls each; calls into
  any ``repro`` package per ``time_wait``.
"""

import sys

from repro.kernel import Event, Notify, Par, Simulator, Wait, WaitFor
from repro.kernel.trace import _noop
from repro.rtos import APERIODIC, RTOSModel

#: calls into repro.kernel per kernel step of ``timer_heavy``.
#: Measured: 7.07. Budget ~10 % over.
TIMER_HEAVY_CALLS_PER_STEP = 7.8
#: calls into repro.kernel per Notify/Wait ping-pong round (4 steps).
#: Measured: 22.0.
PINGPONG_CALLS_PER_ROUND = 24.2
#: calls into repro.kernel per 4-event wait-any round (4 steps).
#: Measured: 28.0.
WAIT_ANY_CALLS_PER_ROUND = 30.8
#: calls into repro per RTOS ``time_wait`` (about one kernel step each,
#: so the headroom stays below one call). Measured: 16.1.
TIME_WAIT_CALLS_PER_CALL = 16.9


def _bare_simulator():
    sim = Simulator()
    sim.trace.enabled = False
    return sim


def _assert_uninstrumented(sim, os_=None):
    """The budgets hold for the bare hot path only."""
    assert sim.trace.record is _noop and sim.trace.segment is _noop
    assert sim.profiler is None
    assert sim.oracle is None
    if os_ is not None:
        services = (os_._dispatcher, os_._tasks, os_._events, os_._time)
        assert all(s.obs is None for s in services)
        assert os_.faults is None and os_.monitor is None
        assert os_.mc is None
        assert os_._tasks.spans is None and os_._events.spans is None


def _count_calls(fn, prefix):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith(prefix):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def _timer_heavy(n_tasks=64, steps=100):
    sim = _bare_simulator()

    def worker():
        for _ in range(steps):
            yield WaitFor(500)

    def top():
        yield Par(*(worker() for _ in range(n_tasks)))

    sim.spawn(top(), name="top")
    return sim


def _pingpong(pairs=8, rounds=250):
    sim = _bare_simulator()

    def ping(evt_a, evt_b):
        for _ in range(rounds):
            yield Notify(evt_a)
            yield Wait(evt_b)

    def pong(evt_a, evt_b):
        for _ in range(rounds):
            yield Wait(evt_a)
            yield Notify(evt_b)

    for i in range(pairs):
        a, b = Event(f"a{i}"), Event(f"b{i}")
        sim.spawn(ping(a, b), name=f"ping{i}")
        sim.spawn(pong(a, b), name=f"pong{i}")
    return sim, pairs * rounds


def _wait_any(groups=8, rounds=200):
    sim = _bare_simulator()

    def waiter(events, done):
        for _ in range(rounds):
            yield Wait(*events)
            yield Notify(done)

    def notifier(events, done):
        for i in range(rounds):
            yield Notify(events[i % len(events)])
            yield Wait(done)

    for g in range(groups):
        events = tuple(Event(f"g{g}e{j}") for j in range(4))
        done = Event(f"g{g}done")
        sim.spawn(waiter(events, done), name=f"waiter{g}")
        sim.spawn(notifier(events, done), name=f"notifier{g}")
    return sim, groups * rounds


def _time_wait(n_tasks=4, steps=500):
    sim = _bare_simulator()
    os_ = RTOSModel(sim, sched="priority")

    def body():
        for _ in range(steps):
            yield from os_.time_wait(1_000)

    for i in range(n_tasks):
        task = os_.task_create(f"t{i}", APERIODIC, 0, 0, priority=i)
        sim.spawn(os_.task_body(task, body()), name=task.name)

    def boot():
        yield WaitFor(0)
        os_.start()

    sim.spawn(boot(), name="boot")
    return sim, os_, n_tasks * steps


def test_waitfor_calls_per_step_within_budget():
    sim = _timer_heavy()
    _assert_uninstrumented(sim)
    calls = _count_calls(sim.run, "repro.kernel")
    steps = sim.stats["steps"]
    assert steps == 64 * 101 + 2
    per_step = calls / steps
    assert per_step <= TIMER_HEAVY_CALLS_PER_STEP, (
        f"{calls} kernel calls over {steps} steps = {per_step:.2f}/step "
        f"(budget {TIMER_HEAVY_CALLS_PER_STEP})"
    )


def test_notify_wait_calls_per_round_within_budget():
    sim, rounds = _pingpong()
    _assert_uninstrumented(sim)
    calls = _count_calls(sim.run, "repro.kernel")
    per_round = calls / rounds
    assert per_round <= PINGPONG_CALLS_PER_ROUND, (
        f"{calls} kernel calls over {rounds} rounds = {per_round:.2f}/round "
        f"(budget {PINGPONG_CALLS_PER_ROUND})"
    )


def test_wait_any_calls_per_round_within_budget():
    sim, rounds = _wait_any()
    _assert_uninstrumented(sim)
    calls = _count_calls(sim.run, "repro.kernel")
    per_round = calls / rounds
    assert per_round <= WAIT_ANY_CALLS_PER_ROUND, (
        f"{calls} kernel calls over {rounds} rounds = {per_round:.2f}/round "
        f"(budget {WAIT_ANY_CALLS_PER_ROUND})"
    )


def test_rtos_time_wait_calls_per_call_within_budget():
    sim, os_, waits = _time_wait()
    _assert_uninstrumented(sim, os_)
    calls = _count_calls(sim.run, "repro.")
    per_call = calls / waits
    assert per_call <= TIME_WAIT_CALLS_PER_CALL, (
        f"{calls} repro calls over {waits} time_wait calls = "
        f"{per_call:.2f}/call (budget {TIME_WAIT_CALLS_PER_CALL})"
    )


def test_counts_repeat_exactly():
    counts = set()
    for _ in range(2):
        sim, _ = _pingpong(pairs=2, rounds=20)
        counts.add(_count_calls(sim.run, "repro.kernel"))
    assert len(counts) == 1


if __name__ == "__main__":
    # print the measured figures the budgets above are set from
    sim = _timer_heavy()
    calls = _count_calls(sim.run, "repro.kernel")
    print(f"timer_heavy: {calls / sim.stats['steps']:.3f} calls/step")
    for name, build in (("notify/wait", _pingpong), ("wait-any", _wait_any)):
        sim, rounds = build()
        calls = _count_calls(sim.run, "repro.kernel")
        print(f"{name}: {calls / rounds:.3f} calls/round")
    sim, _, waits = _time_wait()
    calls = _count_calls(sim.run, "repro.")
    print(f"time_wait: {calls / waits:.3f} calls/call "
          f"({sim.stats['steps'] / waits:.2f} kernel steps/call)")
