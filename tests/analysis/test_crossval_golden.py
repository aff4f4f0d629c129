"""Golden pins for the hierarchical server on generated systems.

The first 40 configurations of ``generate_matrix(1000, 2003)`` (the
stream the end-to-end benchmark's ``crossval_hier`` workload runs) are
pinned through :func:`cross_validate` — verdicts, miss counts,
throttles and ``max_window_consumption`` — and :func:`simulate`
(worst-case response times, releases, cycles). The first five are also
pinned by a digest of every component's whole per-window ledger,
including the partial charge of a run the horizon cuts short. Any
semantic drift in the budget bookkeeping fails here.

To regenerate after an *intentional* semantic change, run::

    PYTHONPATH=src python tests/analysis/test_crossval_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.crossval import (
    _horizon_for,
    build_architecture,
    cross_validate,
    generate_matrix,
    simulate,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "crossval_2003_first40.json"
COUNT = 40
LEDGERS = 5


def _plain(value):
    return json.loads(json.dumps(value, sort_keys=True))


def _ledger_digests(spec):
    arch = build_architecture(spec)
    arch.run(until=_horizon_for(spec))
    digests = {}
    for pe_spec in spec.pes:
        pe = arch.pes[pe_spec.name]
        for comp_spec in pe_spec.components:
            ledger = pe.component(comp_spec.name).stats.window_consumption
            digests[f"{pe_spec.name}.{comp_spec.name}"] = hashlib.sha256(
                json.dumps(sorted(ledger.items())).encode()).hexdigest()
    return digests


def _specs():
    return generate_matrix(1000, 2003)[:COUNT]


def _capture():
    specs = _specs()
    return {
        "configs": [
            {"cross_validate": _plain(cross_validate(spec)),
             "simulate": _plain(simulate(spec))}
            for spec in specs
        ],
        "ledgers": {spec.name: _ledger_digests(spec)
                    for spec in specs[:LEDGERS]},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(COUNT))
def test_config_matches_golden(golden, index):
    spec = _specs()[index]
    pinned = golden["configs"][index]
    assert _plain(cross_validate(spec)) == pinned["cross_validate"]
    assert _plain(simulate(spec)) == pinned["simulate"]


@pytest.mark.parametrize("index", range(LEDGERS))
def test_window_ledger_matches_golden(golden, index):
    spec = _specs()[index]
    assert _ledger_digests(spec) == golden["ledgers"][spec.name]


def _regenerate():
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_capture(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
