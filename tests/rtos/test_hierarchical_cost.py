"""Counted cost of the hierarchical server scheduler per context switch.

A scheduling point of the two-level scheduler must cost O(components)
integer compares, not a settle-and-charge pass per component. This
probe runs one fixed two-component system under ``sys.setprofile`` and
counts Python-level ``call`` events (no ``c_call``, so the count is the
same on CPython 3.11 and 3.12) in ``repro.rtos.sched.*``. The count is
exact and repeatable, so the bound is a budget, not a timing.
"""

import sys

from repro.kernel.simulator import Simulator
from repro.rtos import PERIODIC, Component, HierarchicalScheduler, RTOSModel

#: calls into repro.rtos.sched per context switch. Measured: 35.9; a
#: settle-and-charge pass per component at every peek costs 208.6 here.
#: The budget leaves ~10 % headroom.
SCHED_CALLS_PER_SWITCH = 39.5


def _build():
    sim = Simulator()
    sim.trace.enabled = False
    comp_a = Component("A", budget=600, period=1000, priority=0)
    comp_b = Component("B", budget=300, period=500, priority=1, policy="priority")
    sched = HierarchicalScheduler([comp_a, comp_b], top="priority")
    os_ = RTOSModel(sim, sched=sched, preemption="immediate", name="pe.os")
    for name, comp, period, wcet in (
        ("hog", comp_a, 1000, 700),
        ("a1", comp_a, 2000, 100),
        ("b0", comp_b, 500, 120),
        ("b1", comp_b, 1000, 150),
    ):
        task = os_.task_create(name, PERIODIC, period, wcet,
                               priority=len(comp.tasks))
        sched.assign(task, comp)

        def body(wcet=wcet):
            while True:
                for _ in range(4):
                    yield from os_.time_wait(wcet // 4)
                yield from os_.task_endcycle()

        sim.spawn(os_.task_body(task, body()), name=name)
    os_.start()
    return sim, os_


def _count_sched_calls(fn):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith("repro.rtos.sched"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_sched_calls_per_context_switch_within_budget():
    sim, os_ = _build()
    calls = _count_sched_calls(lambda: sim.run(until=100_000))
    switches = os_.metrics.context_switches
    assert switches > 200
    per_switch = calls / switches
    assert per_switch <= SCHED_CALLS_PER_SWITCH, (
        f"{calls} scheduler calls over {switches} switches = "
        f"{per_switch:.1f}/switch (budget {SCHED_CALLS_PER_SWITCH})"
    )


def test_count_repeats_exactly():
    counts = set()
    for _ in range(2):
        sim, _ = _build()
        counts.add(_count_sched_calls(lambda: sim.run(until=10_000)))
    assert len(counts) == 1
