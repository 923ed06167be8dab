"""Uniform experiment registry: every paper table/figure, one signature.

Each reproduced table, figure and ablation registers an
:class:`Experiment` -- ``name``, ``run(options) -> Result`` and
``render(result) -> str`` -- so the CLI (``python -m repro list/all``),
the parallel :mod:`~repro.harness.service` and the tests enumerate one
registry instead of hard-coding per-module harness functions.

Options are one shared :class:`ExperimentOptions` value.  Experiment-
specific knobs (chunk sweeps, object counts, ...) travel in
``options.params``, a mapping keyed by experiment name, so one options
value can drive a whole suite; :data:`SMOKE_PARAMS` holds a ready-made
set that shrinks every experiment to seconds (the CLI exposes it as
``--quick``, CI and the test suite run on it).

Experiments whose work is a slice of the shared (workload x technique)
sweep additionally declare ``cells(options)`` -- the
(workload, technique) pairs they need -- which is what lets the
service shard the sweep across worker processes and then run the
figure harnesses against the warmed in-process cache, bit-identically
to a serial run.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..gpu.config import GPUConfig
from ..techniques import figure_techniques
from ..workloads import workload_names
from .runner import DEFAULT_SCALE


@dataclass(frozen=True)
class ExperimentOptions:
    """One options value shared by every experiment of a run."""

    scale: float = DEFAULT_SCALE
    config: Optional[GPUConfig] = None
    seed: int = 7
    #: restrict sweep-based experiments to these workloads (None = all)
    workloads: Optional[Tuple[str, ...]] = None
    #: experiment-specific keyword overrides, keyed by experiment name
    params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def params_for(self, name: str) -> Dict[str, Any]:
        return dict(self.params.get(name, {}))

    def workload_list(self):
        return (list(self.workloads) if self.workloads is not None
                else workload_names())


@dataclass(frozen=True)
class Experiment:
    """One registered table/figure: uniform run/render signature."""

    name: str
    description: str
    run: Callable[[ExperimentOptions], Any]
    render: Callable[[Any], str]
    #: (workload, technique) sweep cells this experiment reads, or None
    #: when it builds its own machines (micro/allocator studies)
    cells: Optional[
        Callable[[ExperimentOptions], Tuple[Tuple[str, str], ...]]
    ] = None


#: name -> Experiment, in the paper's presentation order.
EXPERIMENT_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.name in EXPERIMENT_REGISTRY:
        raise ValueError(f"duplicate experiment {experiment.name!r}")
    EXPERIMENT_REGISTRY[experiment.name] = experiment
    return experiment


def experiment_names() -> Tuple[str, ...]:
    return tuple(EXPERIMENT_REGISTRY)


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENT_REGISTRY)}"
        ) from None


def run_experiment(name: str,
                   options: Optional[ExperimentOptions] = None) -> Any:
    """Run one registered experiment; returns its Result."""
    return get_experiment(name).run(options or ExperimentOptions())


def render_experiment(name: str, result: Any) -> str:
    return get_experiment(name).render(result)


# ----------------------------------------------------------------------
# registrations
# ----------------------------------------------------------------------
def _sweep_cells(techniques: Sequence[str]):
    def cells(options: ExperimentOptions) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (wl, tech)
            for wl in options.workload_list()
            for tech in techniques
        )
    return cells


def _table_render(result) -> str:
    return result.table


def _register_all() -> None:
    from . import allocator_study, figures, scalability, tables

    def sweep_exp(name, description, fn, techniques):
        register(Experiment(
            name=name,
            description=description,
            run=lambda o, _fn=fn, _n=name: _fn(
                workloads=o.workloads, scale=o.scale, config=o.config,
                seed=o.seed, **o.params_for(_n),
            ),
            render=_table_render,
            cells=_sweep_cells(techniques),
        ))

    sweep_exp("fig1", "Figure 1b: direct-cost breakdown of a CUDA "
              "virtual call", figures.fig1_breakdown, ("cuda",))

    register(Experiment(
        name="table1",
        description="Table 1 (measured): operation-A access scaling",
        run=lambda o: tables.table1_access_model(
            config=o.config, **o.params_for("table1")
        ),
        render=_table_render,
    ))

    register(Experiment(
        name="table2",
        description="Table 2: workload characteristics vs published",
        run=lambda o: tables.table2_workloads(
            scale=o.scale, config=o.config, workloads=o.workloads,
            seed=o.seed, **o.params_for("table2")
        ),
        render=_table_render,
        cells=_sweep_cells(("cuda",)),
    ))

    sweep_exp("fig6", "Figure 6: performance normalized to SharedOA",
              figures.fig6_performance, figure_techniques())
    sweep_exp("fig7", "Figure 7: warp instruction mix vs SharedOA",
              figures.fig7_instruction_mix, figure_techniques())
    sweep_exp("fig8", "Figure 8: global load transactions vs SharedOA",
              figures.fig8_load_transactions, figure_techniques())
    sweep_exp("fig9", "Figure 9: L1 hit rate per technique",
              figures.fig9_l1_hit_rate, figure_techniques())

    register(Experiment(
        name="fig10",
        description="Figure 10a/b: chunk-size sweep (perf, fragmentation)",
        run=lambda o: allocator_study.fig10_chunk_sweep(
            workloads=o.workloads, scale=o.scale, config=o.config,
            seed=o.seed, **o.params_for("fig10")
        ),
        render=lambda r: r[0].table + "\n\n" + r[1].table,
    ))

    sweep_exp("fig11", "Figure 11: TypePointer on the CUDA allocator",
              figures.fig11_tp_on_cuda, ("cuda", "tp_on_cuda"))

    register(Experiment(
        name="fig12a",
        description="Figure 12a: scalability vs object count",
        run=lambda o: scalability.fig12a_object_scaling(
            config=o.config, **o.params_for("fig12a")
        ),
        render=_table_render,
    ))
    register(Experiment(
        name="fig12b",
        description="Figure 12b: scalability vs types per warp",
        run=lambda o: scalability.fig12b_type_scaling(
            config=o.config, **o.params_for("fig12b")
        ),
        render=_table_render,
    ))
    register(Experiment(
        name="init",
        description="Init-phase speedup: SharedOA vs device-side new",
        run=lambda o: allocator_study.init_performance(
            config=o.config, **o.params_for("init")
        ),
        render=lambda r: (
            f"Init-phase speedup over {r.objects} objects: "
            f"{r.speedup:.1f}x (paper: ~80x)"
        ),
    ))

    from ..frontend.program import kernel_experiment_run

    register(Experiment(
        name="kernel",
        description="User kernel program (@repro.kernel front-end) "
                    "cross-checked across techniques",
        run=kernel_experiment_run,
        render=lambda r: r.table,
    ))


_register_all()


#: Per-experiment overrides that shrink every experiment to smoke-test
#: size (the CLI's ``--quick``; pair with a small ``--scale``).  The
#: sweep-based experiments scale through ``options.scale`` alone, so
#: only the self-sized studies need entries here.
SMOKE_PARAMS: Dict[str, Dict[str, Any]] = {
    "table1": {"object_counts": (256, 512), "num_types": 2},
    "fig10": {"chunk_sizes": (64, 256)},
    "fig12a": {"object_counts": (2048, 4096), "num_types": 2},
    "fig12b": {"type_counts": (1, 2), "num_objects": 2048},
    "init": {"num_objects": 2000},
    "kernel": {"techniques": ("cuda", "typepointer"), "config": "small"},
}


def smoke_options(scale: float = 0.05,
                  config: Optional[GPUConfig] = None,
                  workloads: Optional[Tuple[str, ...]] = None,
                  seed: int = 7) -> ExperimentOptions:
    """Options that run the full registry in seconds (CI smoke)."""
    return ExperimentOptions(
        scale=scale, config=config, seed=seed, workloads=workloads,
        params=SMOKE_PARAMS,
    )
