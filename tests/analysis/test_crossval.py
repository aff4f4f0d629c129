"""Cross-validation harness: simulator vs analytic checker.

Small hand-built specs exercise both directions of the contract fast;
the generated matrix is sampled (the full 20-config sweep runs in CI via
``python -m repro.analysis.crossval``).
"""

import json

import pytest

from repro.analysis.crossval import (
    build_architecture,
    cross_validate,
    generate_matrix,
    main,
    run_matrix,
    simulate,
)
from repro.analysis.schedulability import (
    ComponentSpec,
    PESpec,
    SystemSpec,
    TaskSpec,
    check_system,
)


def _schedulable_spec():
    # 100 of work per 1000 through a 50/100 server: sbf(1000)=450
    return SystemSpec("ok", pes=(
        PESpec("pe0", top="priority", components=(
            ComponentSpec("A", budget=50, period=100, policy="edf",
                          priority=0, tasks=(
                              TaskSpec("t0", period=1000, wcet=100),
                          )),
        )),
    ))


def _overloaded_spec():
    # 500 of work per 1000 through a 20/100 server (supply 200/1000)
    return SystemSpec("over", pes=(
        PESpec("pe0", top="priority", components=(
            ComponentSpec("A", budget=20, period=100, policy="edf",
                          priority=0, tasks=(
                              TaskSpec("t0", period=1000, wcet=500),
                          )),
        )),
    ))


def test_build_architecture_mirrors_spec():
    spec = SystemSpec("sys", pes=(
        PESpec("pe0", top="edf", speed=2.0, components=(
            ComponentSpec("A", budget=50, period=100, priority=0, tasks=(
                TaskSpec("t0", period=1000, wcet=100),
                TaskSpec("t1", period=2000, wcet=100),
            )),
        )),
    ))
    arch = build_architecture(spec)
    pe = arch.pes["pe0"]
    comp = pe.component("A")
    assert comp.budget == 50 and comp.period == 100
    names = {task.name for task in pe.tasks}
    assert names == {"t0", "t1"}
    # the runtime scales WCETs by PE speed like the analysis does
    t0 = next(task for task in pe.tasks if task.name == "t0")
    assert t0.wcet == 50
    # tracing is disabled for throughput on generated sweeps
    assert not arch.sim.trace.enabled


def test_simulate_schedulable_spec_has_zero_misses():
    results = simulate(_schedulable_spec())
    row = results["t0"]
    assert row["misses"] == 0
    assert row["cycles"] > 0
    assert row["worst_response"] <= 1000
    comp = results["__components__"]["pe0.A"]
    assert comp["max_window_consumption"] <= comp["budget"]


def test_simulate_overloaded_spec_misses():
    results = simulate(_overloaded_spec())
    assert results["t0"]["misses"] > 0
    # budget enforcement held even under overload
    comp = results["__components__"]["pe0.A"]
    assert comp["max_window_consumption"] <= comp["budget"]
    assert comp["throttles"] > 0


def test_cross_validate_schedulable_direction():
    report = cross_validate(_schedulable_spec())
    assert report["analysis_schedulable"]
    assert report["guaranteed_tasks"] == ["t0"]
    assert report["simulated_misses"]["t0"] == 0
    assert report["missed_tasks"] == []
    assert report["consistent"]
    assert report["violations"] == []


def test_cross_validate_unschedulable_witness():
    verdict = check_system(_overloaded_spec())
    assert not verdict.schedulable
    report = cross_validate(_overloaded_spec())
    assert not report["analysis_schedulable"]
    # the miss is real but not a contract violation: the task was never
    # guaranteed
    assert report["missed_tasks"] == ["t0"]
    assert report["consistent"]


def test_generate_matrix_is_deterministic():
    a = generate_matrix(count=6, seed=11)
    b = generate_matrix(count=6, seed=11)
    assert a == b
    assert len(a) == 6
    assert generate_matrix(count=6, seed=12) != a
    # every generated spec analyzes without raising
    for spec in a:
        check_system(spec)


def test_run_matrix_contract_holds_on_sample():
    summary = run_matrix(count=6, seed=7)
    assert summary["count"] == 6
    assert summary["consistent"]
    assert summary["violations"] == []
    assert summary["schedulable"] + summary["unschedulable"] == 6
    assert len(summary["reports"]) == 6


def test_cli_reports_and_exits_clean(tmp_path, capsys):
    out = tmp_path / "report.json"
    status = main(["--count", "4", "--seed", "3", "--json", str(out)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "4 configs" in captured
    assert "contract holds" in captured
    payload = json.loads(out.read_text())
    assert payload["count"] == 4
    assert payload["consistent"] is True


# generated systems reuse task names on every PE; keyed by bare name, a
# certified task on one PE took the blame for a same-named task's
# misses on another (these configs reported false violations)
NAME_COLLISION_CONFIGS = ((2003, 196), (2003, 206), (1009, 23), (1009, 41),
                          (1009, 130))


@pytest.mark.parametrize("seed,index", NAME_COLLISION_CONFIGS)
def test_contract_is_decided_per_pe_and_task(seed, index):
    spec = generate_matrix(index + 1, seed)[index]
    report = cross_validate(spec)
    assert report["violations"] == []
    assert report["consistent"] is True
    # the misses are real, on the PE whose same-named task is not certified
    assert report["missed_tasks"]
    certified = set(check_system(spec).guaranteed_pairs)
    missed_names = set(report["missed_tasks"])
    assert any(
        (pe.name, task.name) not in certified
        for pe in spec.pes for comp in pe.components for task in comp.tasks
        if task.name in missed_names
    )
