"""Self-test of the benchmark on shrunken workloads.

Run from the repository root with ``PYTHONPATH=src pytest perfbench``.
The workloads are built small through the Python API, so the whole file
takes well under a minute.
"""
from __future__ import annotations

import argparse
import json
import math

import pytest

from perfbench import ROOT
from perfbench.__main__ import cmd_measure
from perfbench.compare import verdict
from perfbench.measure import declared_metrics, measure, outputs, run_rep, seed_key
from perfbench.workloads import AllCold, AllWarm, Fig6Cold, Fig12bTypes, default_workloads

SEED = 3


def tiny_workloads():
    return {
        "fig6-cold": Fig6Cold(scale=0.02, workloads=("GOL", "BFS-vE"),
                              techniques=("cuda", "typepointer")),
        "fig12b-types": Fig12bTypes(num_objects=2048, type_counts=(2, 8),
                                    techniques=("cuda", "coal")),
        "all-cold": AllCold(experiments=("fig6", "table1"), workloads=("GOL",)),
        "all-warm": AllWarm(experiments=("fig6", "table1"), workloads=("GOL",)),
    }


@pytest.fixture(scope="module")
def results():
    """``(workload, trace) -> result`` of one zero-window run, on demand."""
    cache = {}
    workloads = tiny_workloads()

    def get(name, trace):
        if (name, trace) not in cache:
            cache[name, trace] = measure(workloads[name], SEED, 0, trace, expected={})
        return cache[name, trace]

    return get


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in default_workloads().values()]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(tiny_workloads()))
def test_emits_exactly_the_declared_metrics(results, name, trace):
    result = results(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    assert result["metrics"].keys() == declared.keys()
    for metric, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), metric
        assert m["unit"] == declared[metric], metric
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["fig6-cold", "fig12b-types"])
def test_traced_partition_attributes_the_wall_time(results, name):
    assert results(name, True)["metrics"]["bench.unattributed_frac"]["value"] <= 0.05


def test_each_workload_bypasses_its_layer(results):
    layer = {name: results(name, True)["metrics"] for name in ("all-warm", "fig12b-types")}
    assert layer["all-warm"]["gpu.machine.memo_hit_rate"]["value"] == 1.0
    assert layer["all-warm"]["gpu.replay.replay_s"]["value"] == 0.0
    assert layer["fig12b-types"]["gpu.machine.memo_lookups"]["value"] == 0


def _measure_cli(workloads, expected, capsys):
    args = argparse.Namespace(workload="all-cold", seed=SEED, seconds=0, trace=0)
    code = cmd_measure(args, workloads=workloads, expected=expected)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tampered_pin_fails_the_run(capsys):
    workloads = tiny_workloads()
    wl = workloads["all-cold"]
    pinned = outputs(run_rep(wl, SEED, traced=False, timeout=120))
    expected = {"workloads": {wl.name: {"spec": wl.spec(),
                                        "seeds": {seed_key(wl, SEED): pinned}}}}
    code, result = _measure_cli(workloads, expected, capsys)
    assert code == 0 and result["failed"] == 0

    pinned["render:fig6"] = "0" * 16
    code, result = _measure_cli(workloads, expected, capsys)
    assert code != 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert verdict(base, base, 0.05, True)["verdict"] == "unchanged"
    assert verdict(base, [v * 0.8 for v in base], 0.05, True)["verdict"] == "better"
    assert verdict(base, [v * 1.2 for v in base], 0.05, True)["verdict"] == "worse"
    assert verdict(base, [v * 1.2 for v in base], 0.05, False)["verdict"] == "better"
    noisy = [1.0, 1.3, 0.7, 1.2, 0.8]
    assert verdict(noisy, [v * 1.1 for v in noisy], 0.05, True)["verdict"] == "unresolved"
    # a noisy parent does not hide a change that is slower on every run
    assert verdict(noisy, [v + 1.0 for v in noisy], 0.05, True)["verdict"] == "worse"
    assert verdict(noisy, [v - 0.65 for v in noisy], 0.05, False)["verdict"] == "worse"
