"""The parallel experiment service: scheduling, robustness, bit-identity."""
from __future__ import annotations

import copy
import multiprocessing
import os
import select
import threading
import time

import pytest

from repro.harness import runner
from repro.harness.registry import (
    experiment_names,
    get_experiment,
    smoke_options,
)
from repro.harness.service import (
    MANIFEST_SCHEMA,
    ExperimentService,
    ShardReport,
    default_num_workers,
    run_shards,
    validate_manifest,
)

#: options that run the whole registry in seconds
QUICK = smoke_options(scale=0.04, workloads=("TRAF",))


@pytest.fixture(autouse=True)
def _fresh_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


# ----------------------------------------------------------------------
# shard scheduler robustness (fault-injecting workers)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def test_run_shards_basic_parallel():
    values, reports = run_shards([1, 2, 3, 4, 5], _square, num_workers=2)
    assert values == [1, 4, 9, 16, 25]
    assert [r.outcome for r in reports] == ["ok"] * 5
    assert all(r.attempts == 1 for r in reports)
    assert all(isinstance(r, ShardReport) for r in reports)


def test_run_shards_serial_when_one_worker():
    values, reports = run_shards([2, 3], _square, num_workers=1)
    assert values == [4, 9]
    assert [r.outcome for r in reports] == ["ok", "ok"]


_marker_dir = [None]


def _crash_once(x):
    """Die hard on the first attempt per item; succeed on the retry."""
    marker = os.path.join(_marker_dir[0], f"seen-{x}")
    if _in_worker() and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(3)  # silent death: no result ever reaches the pipe
    return x + 100


def test_run_shards_retries_once_on_worker_death(tmp_path):
    _marker_dir[0] = str(tmp_path)
    values, reports = run_shards([1, 2, 3], _crash_once, num_workers=2)
    assert values == [101, 102, 103]
    assert [r.outcome for r in reports] == ["retried"] * 3
    assert all(r.attempts == 2 for r in reports)


def _raise_once(x):
    marker = os.path.join(_marker_dir[0], f"raised-{x}")
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError(f"injected failure for {x}")
    return x


def test_run_shards_retries_once_on_worker_exception(tmp_path):
    _marker_dir[0] = str(tmp_path)
    values, reports = run_shards([7], _raise_once, num_workers=2)
    assert values == [7]
    assert reports[0].outcome == "retried"
    assert reports[0].attempts == 2


def _always_raise(x):
    if _in_worker():
        raise RuntimeError("never works in a worker")
    return x * 10


def test_run_shards_falls_back_serial_after_two_failures():
    values, reports = run_shards([4], _always_raise, num_workers=2)
    assert values == [40]
    assert reports[0].outcome == "fallback"
    assert reports[0].attempts == 3        # two worker tries + serial
    assert "never works" in reports[0].error


def _sleep_in_worker(x):
    if _in_worker():
        time.sleep(30)
    return x - 1


def test_run_shards_timeout_recomputes_serially():
    t0 = time.perf_counter()
    values, reports = run_shards(
        [5], _sleep_in_worker, num_workers=2, timeout_s=0.4,
    )
    assert values == [4]
    assert reports[0].outcome == "timeout"
    assert reports[0].attempts == 3
    assert "exceeded" in reports[0].error
    # both worker attempts were cut off at the deadline, not joined
    assert time.perf_counter() - t0 < 20


def test_run_shards_degrades_when_multiprocessing_unavailable(monkeypatch):
    from repro.harness import service

    def broken():
        raise OSError("no forking here")

    monkeypatch.setattr(service, "_mp_context", broken)
    values, reports = run_shards([1, 2], _square, num_workers=4)
    assert values == [1, 4]
    assert [r.outcome for r in reports] == ["fallback", "fallback"]
    assert "multiprocessing unavailable" in reports[0].error


# ----------------------------------------------------------------------
# the service: bit-identity, manifest, store integration
# ----------------------------------------------------------------------
def _render_all(service: ExperimentService, **kwargs):
    run = service.run(options=QUICK, **kwargs)
    return {n: run.render(n) for n in experiment_names()}, run


def test_parallel_output_bit_identical_to_serial():
    """The acceptance bar: every registry experiment renders the same
    text whether the sweep ran in-process or on a worker pool."""
    serial = {
        n: get_experiment(n).render(get_experiment(n).run(QUICK))
        for n in experiment_names()
    }
    runner.clear_cache()
    parallel, run = _render_all(
        ExperimentService(2, use_store=False), manifest_path=None,
    )
    assert parallel == serial
    assert run.manifest["mode"] == "parallel"
    bad = [r for r in run.reports if r.outcome not in ("ok", "retried")]
    assert not bad, [r.shard for r in bad]


def test_manifest_records_every_shard(tmp_path):
    manifest_path = tmp_path / "m.json"
    _, run = _render_all(
        ExperimentService(2, use_store=False),
        manifest_path=str(manifest_path),
    )
    m = run.manifest
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["num_workers"] == 2
    assert m["options"]["workloads"] == ["TRAF"]
    assert m["experiments"] == list(experiment_names())
    assert m["totals"]["shards"] == len(m["shards"]) == len(run.reports)
    for shard in m["shards"]:
        assert shard["kind"] in ("cell", "experiment")
        assert shard["outcome"] in ("ok", "retried", "timeout", "fallback")
        assert shard["wall_s"] >= 0
    # the manifest landed on disk as JSON
    import json

    assert json.loads(manifest_path.read_text())["schema"] == MANIFEST_SCHEMA


def test_warm_store_run_hits_the_memo(tmp_path):
    sdir = str(tmp_path / "store")
    cold, cold_run = _render_all(
        ExperimentService(2, store_dir=sdir), manifest_path=None)
    assert not cold_run.manifest["store"]["warm_start"]
    runner.clear_cache()
    warm, warm_run = _render_all(
        ExperimentService(2, store_dir=sdir), manifest_path=None)
    assert warm_run.manifest["store"]["warm_start"]
    assert warm_run.manifest["totals"]["memo_hits"] > 0
    assert warm_run.manifest["totals"]["memo_hit_rate"] > 0.9
    assert warm == cold


def test_service_runs_subset_of_registry():
    service = ExperimentService(1, use_store=False)
    run = service.run(["init", "fig12b"], QUICK)
    assert set(run.results) == {"init", "fig12b"}
    assert run.manifest["mode"] == "serial"
    assert "speedup" in run.render("init")


def test_warm_cells_seeds_the_runner_cache():
    service = ExperimentService(2, use_store=False)
    reports = service.warm_cells(["fig6"], QUICK)
    assert reports  # something was computed
    # every fig6 cell is now a cache hit: no new shards needed
    assert service._missing_cells([get_experiment("fig6")], QUICK) == []
    # and rerunning warm_cells finds nothing to do
    assert service.warm_cells(["fig6"], QUICK) == []


def test_install_store_memo_persists_inprocess_runs(tmp_path):
    sdir = str(tmp_path / "store")
    service = ExperimentService(1, store_dir=sdir)
    restore = service.install_store_memo()
    try:
        runner.run_one("TRAF", "cuda", scale=0.04, use_cache=False)
    finally:
        restore()
    assert service.store.is_warm()
    # a fresh install over the warm store replays the identical run
    service2 = ExperimentService(1, store_dir=sdir)
    restore2 = service2.install_store_memo()
    try:
        runner.run_one("TRAF", "cuda", scale=0.04, use_cache=False)
        assert runner.REPLAY_MEMO.hits > 0
        assert runner.REPLAY_MEMO.misses == 0
    finally:
        restore2()


def test_install_store_memo_noop_without_store():
    service = ExperimentService(1, use_store=False)
    before = runner.REPLAY_MEMO
    restore = service.install_store_memo()
    assert runner.REPLAY_MEMO is before
    restore()


def test_default_num_workers_bounded():
    n = default_num_workers()
    assert 1 <= n <= 8


# ----------------------------------------------------------------------
# interrupt robustness: no orphaned shard processes
# ----------------------------------------------------------------------
def _report_pid_and_hang(x):
    """Worker that records its pid, then blocks until terminated.

    Uses ``select`` (not ``time.sleep``) so the parent's patched
    ``time.sleep`` never leaks into the forked child.
    """
    if not _in_worker():
        return x
    with open(os.path.join(_marker_dir[0], "worker.pid"), "w") as f:
        f.write(str(os.getpid()))
    while True:
        select.select([], [], [], 1.0)


def test_run_shards_interrupt_terminates_children(tmp_path, monkeypatch):
    """Ctrl-C in the parent must not orphan live shard processes (they
    hold replay-store locks)."""
    from repro.harness import service

    _marker_dir[0] = str(tmp_path)
    pid_file = tmp_path / "worker.pid"
    real_sleep = time.sleep

    def interrupting_sleep(seconds):
        if pid_file.exists():
            raise KeyboardInterrupt
        real_sleep(seconds)

    monkeypatch.setattr(service.time, "sleep", interrupting_sleep)
    with pytest.raises(KeyboardInterrupt):
        run_shards([1], _report_pid_and_hang, num_workers=2, timeout_s=None)
    monkeypatch.undo()

    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break                     # terminated and fully reaped
        time.sleep(0.05)
    else:
        os.kill(pid, 9)
        pytest.fail(f"shard process {pid} survived the interrupt")


# ----------------------------------------------------------------------
# manifest validation + re-entrant (threaded) service use
# ----------------------------------------------------------------------
def test_validate_manifest_accepts_real_run():
    service = ExperimentService(1, use_store=False)
    run = service.run(["init"], QUICK)
    validate_manifest(run.manifest)     # must not raise


def test_validate_manifest_rejects_corruption():
    service = ExperimentService(1, use_store=False)
    manifest = service.run(["init"], QUICK).manifest

    with pytest.raises(ValueError, match="not a"):
        validate_manifest({"schema": "something-else/1"})
    with pytest.raises(ValueError, match="mode"):
        validate_manifest({**manifest, "mode": "warp-speed"})

    bad = copy.deepcopy(manifest)
    bad["totals"]["shards"] += 1
    with pytest.raises(ValueError, match="totals.shards"):
        validate_manifest(bad)

    bad = copy.deepcopy(manifest)
    bad["shards"][0]["outcome"] = "vanished"
    with pytest.raises(ValueError, match="outcome"):
        validate_manifest(bad)

    bad = copy.deepcopy(manifest)
    bad["shards"][0]["memo_hits"] += 5     # totals now disagree
    with pytest.raises(ValueError, match="memo"):
        validate_manifest(bad)

    bad = copy.deepcopy(manifest)
    bad["totals"]["memo_hit_rate"] = 1.5
    with pytest.raises(ValueError, match="memo_hit_rate"):
        validate_manifest(bad)


def test_write_manifest_schema_checks_first(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ValueError):
        ExperimentService.write_manifest(str(path), {"schema": "nope"})
    assert not path.exists()


def test_service_run_is_thread_safe():
    """Two threads driving one service concurrently (the serving
    daemon's usage pattern) serialize on the internal lock and both
    produce correct, renderable results."""
    service = ExperimentService(1, use_store=False)
    results = {}
    errors = []

    def go(name):
        try:
            results[name] = service.run([name], QUICK)
        except Exception as exc:       # pragma: no cover - failure path
            errors.append((name, exc))

    threads = [threading.Thread(target=go, args=(n,))
               for n in ("init", "fig12b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors
    assert set(results) == {"init", "fig12b"}
    assert "speedup" in results["init"].render("init")
    validate_manifest(results["init"].manifest)
    validate_manifest(results["fig12b"].manifest)


def test_service_at_another_seed_does_no_cell_work_in_the_parent(
        monkeypatch):
    """Figures read the cells the workers ran at the options' seed, so
    the parent computes none itself."""
    parent_runs = []
    make_workload = runner.make_workload

    def spy(name, *args, **kwargs):
        if not _in_worker():
            parent_runs.append(name)
        return make_workload(name, *args, **kwargs)

    monkeypatch.setattr(runner, "make_workload", spy)
    options = smoke_options(scale=0.04, workloads=("TRAF",), seed=11)
    sweeps = [n for n in experiment_names()
              if get_experiment(n).cells is not None]
    run = ExperimentService(2, use_store=False).run(sweeps, options)
    assert run.manifest["mode"] == "parallel"
    assert parent_runs == []
