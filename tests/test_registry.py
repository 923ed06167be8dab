"""The experiment registry: uniform signatures over every table/figure."""
from __future__ import annotations

import inspect

import pytest

from repro.harness.registry import (
    EXPERIMENT_REGISTRY,
    SMOKE_PARAMS,
    Experiment,
    ExperimentOptions,
    experiment_names,
    get_experiment,
    register,
    render_experiment,
    run_experiment,
    smoke_options,
)

#: every paper artifact the suite reproduces, in presentation order,
#: plus the user-kernel cross-check experiment
PAPER_ARTIFACTS = ("fig1", "table1", "table2", "fig6", "fig7", "fig8",
                   "fig9", "fig10", "fig11", "fig12a", "fig12b", "init",
                   "kernel")

#: options that finish the whole registry in seconds
QUICK = smoke_options(scale=0.04, workloads=("TRAF",))


def test_registry_is_complete_and_ordered():
    assert experiment_names() == PAPER_ARTIFACTS


def test_every_entry_is_an_experiment_with_uniform_signature():
    for name in experiment_names():
        exp = get_experiment(name)
        assert isinstance(exp, Experiment)
        assert exp.name == name
        assert exp.description
        # run takes exactly one options argument; render one result
        # (extra defaulted params are closure bindings, not API surface)
        def required(fn):
            return [p for p in inspect.signature(fn).parameters.values()
                    if p.default is inspect.Parameter.empty]

        assert len(required(exp.run)) == 1
        assert len(required(exp.render)) == 1


def test_get_unknown_experiment_raises_with_known_names():
    with pytest.raises(KeyError, match="fig6"):
        get_experiment("figZZZ")


def test_duplicate_registration_rejected():
    exp = get_experiment("fig6")
    with pytest.raises(ValueError):
        register(exp)


def test_cells_declared_for_sweep_experiments():
    # sweep-backed experiments declare their cells; self-sized ones don't
    sweep = {"fig1", "table2", "fig6", "fig7", "fig8", "fig9", "fig11"}
    for name in experiment_names():
        exp = get_experiment(name)
        if name in sweep:
            cells = exp.cells(QUICK)
            assert cells and all(len(c) == 2 for c in cells)
            # restricted options restrict the cells
            assert {wl for wl, _ in cells} == {"TRAF"}
        else:
            assert exp.cells is None


def test_options_params_are_per_experiment():
    o = ExperimentOptions(params={"fig10": {"chunk_sizes": (64,)}})
    assert o.params_for("fig10") == {"chunk_sizes": (64,)}
    assert o.params_for("fig12a") == {}


def test_options_default_workloads_is_full_registry():
    from repro.workloads import workload_names

    assert ExperimentOptions().workload_list() == workload_names()
    assert ExperimentOptions(workloads=("GOL",)).workload_list() == ["GOL"]


def test_smoke_params_cover_the_self_sized_experiments():
    self_sized = {n for n in experiment_names()
                  if get_experiment(n).cells is None}
    assert self_sized <= set(SMOKE_PARAMS)


@pytest.mark.parametrize("name", PAPER_ARTIFACTS)
def test_run_and_render_smoke(name):
    """Every experiment runs and renders under one shared options value."""
    result = run_experiment(name, QUICK)
    text = render_experiment(name, result)
    assert isinstance(text, str) and text.strip()


def test_run_experiment_defaults_options():
    # init is cheap enough to run at default options
    result = run_experiment("init", ExperimentOptions(
        params={"init": {"num_objects": 1500}}))
    assert "speedup" in render_experiment("init", result)


def test_sweep_experiments_follow_the_seed():
    """The options' workload seed reaches the sweep cells a figure reads."""
    def render(seed):
        options = ExperimentOptions(scale=0.02, seed=seed,
                                    workloads=("GOL", "TRAF"))
        return render_experiment("fig6", run_experiment("fig6", options))

    assert render(7) != render(11)
