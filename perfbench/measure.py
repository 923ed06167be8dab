"""One benchmark run: repeat a workload's rep for a time window.

Every rep runs in a fresh interpreter that imports all of ``repro``
before anything is timed, so reps start from the state a new ``python -m
repro`` process reaches after its imports, and nothing learned by one rep
(caches, memos, interned names) leaks into the next.  Each rep also gets
its own hash seed and address-space layout; those shift a process's
speed by a few percent, so a run's median averages over several of them
instead of inheriting one.  End-to-end metrics are medians over the
untraced reps.  With tracing on, reps alternate
untraced and traced; the traced ones give the per-layer metrics and the
tracing overhead.

Every rep's outputs are checked: against the workload's own
seed-independent invariants, against the first rep (a traced rep must
simulate exactly what an untraced one does), and against the pinned
results in ``expected.json`` when the workload's spec and seed are
pinned there.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import multiprocessing
import os
import pkgutil
import platform
import resource
import signal
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs

from . import OUT, ROOT, tracing
from .workloads import same

#: reps per run even when the time window is already over (a traced
#: run needs two untraced and two traced reps)
MIN_REPS = 3
MIN_TRACED_RUN_REPS = 4
#: a run must end within this many seconds, reps included
RUN_BUDGET_S = 170.0

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    ``BENCHMARK.json``: the only metrics a run may emit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def load_expected() -> Dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def seed_key(workload, seed: int) -> str:
    return str(seed) if workload.seeded else "any"


def pinned_ops(expected: Dict, workload, seed: int) -> Optional[Dict]:
    """The pinned outputs for this workload and seed, if its spec matches."""
    entry = expected.get("workloads", {}).get(workload.name)
    if not entry or entry["spec"] != json.loads(json.dumps(workload.spec())):
        return None
    return entry["seeds"].get(seed_key(workload, seed))


# ----------------------------------------------------------------------
# one rep
# ----------------------------------------------------------------------
def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Accumulates a rep's set-up wall time and its timed wall and CPU
    time (this process plus its waited-for children, e.g. shard
    workers)."""

    def __init__(self):
        self.setup_s = self.wall_s = self.cpu_s = 0.0

    @contextlib.contextmanager
    def setup(self):
        t0 = time.perf_counter()
        try:
            with tracing.measured():
                yield
        finally:
            self.setup_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def timed(self):
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            with tracing.measured():
                yield
        finally:
            self.wall_s += time.perf_counter() - t0
            self.cpu_s += _cpu_s() - c0


def _rep_body(workload, seed: int, scratch: Path, filled, traced: bool) -> Dict:
    """Runs in the rep process."""
    if traced:
        tracing.install()
    reg = obs.Registry()
    obs.set_registry(reg)
    clock = Clock()
    out = workload.execute(clock, seed, scratch, filled)
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    payload = reg.to_dict()
    if not traced:
        obs.validate_payload(payload)
    counters = payload["counters"]
    sim = {"launches": counters.get("machine.launches", 0),
           "waves": counters.get("machine.waves", 0), **out["sim"]}
    rep = {
        "traced": traced,
        "setup_s": clock.setup_s,
        "wall_s": clock.wall_s,
        "cpu_s": clock.cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024,
        "ops": out["ops"],
        "sim": sim,
    }
    if traced:
        rep["layers"] = tracing.layer_metrics(payload, {**out, **rep})
        rep["spans"] = payload
    return rep


def import_simulator() -> None:
    """Import every ``repro`` module, so no rep pays for one while timed."""
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(mod.name)


def _child_main(fn, args, conn) -> None:
    # own process group, so a rep that overruns is stopped together
    # with any shard workers it forked
    os.setpgid(0, 0)
    try:
        import_simulator()
        t0 = time.perf_counter()
        value = fn(*args)
        conn.send(("ok", value, time.perf_counter() - t0))
    except Exception:
        conn.send(("err", traceback.format_exc(), 0.0))
    finally:
        conn.close()


def _stop_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def in_child(fn, *args, timeout: float):
    """``fn(*args)`` in a fresh interpreter; returns its value and the
    seconds it took (imports excluded).  Raises RuntimeError with the
    child's traceback when it fails or overruns ``timeout``."""
    ctx = multiprocessing.get_context("spawn")
    recv_end, send_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(fn, args, send_end))
    proc.start()
    send_end.close()
    try:
        if not recv_end.poll(max(timeout, 0.0)):
            raise RuntimeError(f"rep exceeded its {timeout:.0f}s budget")
        status, value, seconds = recv_end.recv()
    except EOFError:
        status, value = "err", "rep process died before reporting"
    finally:
        recv_end.close()
        proc.join(timeout=10.0)
        # also reaps any shard worker the rep left behind
        _stop_group(proc.pid)
        proc.join()
    if status != "ok":
        raise RuntimeError(value)
    return value, seconds


def run_rep(workload, seed: int, traced: bool, timeout: float) -> Dict:
    """One rep in its own scratch directory: the fill step (if any) in
    one process, then set-up and timed part in another."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + timeout
    with tempfile.TemporaryDirectory(dir=OUT / "tmp") as tmp:
        scratch = Path(tmp)
        filled, fill_s = None, 0.0
        fill = getattr(workload, "fill", None)
        if fill is not None:
            filled, fill_s = in_child(fill, seed, scratch, timeout=timeout)
        rep, _ = in_child(_rep_body, workload, seed, scratch, filled, traced,
                          timeout=deadline - time.monotonic())
    rep["setup_s"] += fill_s
    rep["filled"] = filled
    return rep


# ----------------------------------------------------------------------
# a run
# ----------------------------------------------------------------------
def outputs(rep: Dict) -> Dict:
    """Everything a rep's checks compare: its operations' outputs plus
    the simulated-work totals (under the label ``sim``)."""
    return {**rep["ops"], "sim": rep["sim"]}


def failed_ops(workload, rep: Dict, reference: Optional[Dict],
               pinned: Optional[Dict]) -> set:
    """Labels of the rep's outputs that fail a check."""
    ops = outputs(rep)
    bad = set(workload.check(rep["ops"], rep["filled"]))
    if reference is not None:
        bad |= {label for label in ops
                if label not in reference or not same(ops[label], reference[label])}
    if pinned is not None:
        bad |= {label for label, want in pinned.items()
                if label not in ops or not same(ops[label], want)}
    return bad


def _median(reps: List[Dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def measure(workload, seed: int, seconds: float, trace: bool,
            expected: Optional[Dict] = None, log=None) -> Dict:
    """Run ``workload`` for ``seconds`` and return the result object
    (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    pinned = pinned_ops(expected or {}, workload, seed)
    start = time.monotonic()
    min_reps = MIN_TRACED_RUN_REPS if trace else MIN_REPS
    reps: List[Dict] = []
    attempted = failed = 0
    reference = None
    longest = 0.0
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        left = RUN_BUDGET_S - (time.monotonic() - start)
        if reps and left < 1.5 * longest:
            break
        t0 = time.monotonic()
        try:
            rep = run_rep(workload, seed, trace and len(reps) % 2 == 1, left)
        except RuntimeError as exc:
            if log:
                log(f"{workload.name}: rep {len(reps)} failed:\n{exc}")
            attempted += 1
            failed += 1
            break
        longest = max(longest, time.monotonic() - t0)
        bad = failed_ops(workload, rep, reference, pinned)
        reference = reference or outputs(rep)
        attempted += len(outputs(rep))
        failed += len(bad)
        reps.append(rep)
        if log:
            log(f"{workload.name} rep {len(reps)}{' traced' if rep['traced'] else ''}: "
                f"setup {rep['setup_s']:.3f}s wall {rep['wall_s']:.3f}s "
                f"cpu {rep['cpu_s']:.3f}s rss {rep['peak_rss_mb']:.1f}MB"
                + (f" failed {sorted(bad)[:5]}" if bad else ""))

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics: Dict[str, float] = {}
    if plain and not trace:
        metrics = {key: _median(plain, key)
                   for key in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    elif plain and traced:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        untraced_wall = _median(plain, "wall_s")
        metrics["bench.trace_overhead"] = _median(traced, "wall_s") / untraced_wall - 1
        metrics["sim.kinstr_per_host_s"] = (
            metrics["sim.warp_instrs"] / 1e3 / untraced_wall)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{workload.name}.trace.json").write_text(json.dumps(
            {"workload": workload.name, "seed": seed, "layers": metrics,
             "telemetry": traced[-1]["spans"]}, indent=1))
    if metrics and set(metrics) != set(declared):
        raise ValueError(f"emitted metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")
    return {
        "correct": bool(metrics) and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if metrics else max(failed, 1),
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _git(*args) -> Optional[str]:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint() -> Dict:
    """Host and source provenance stamped into every results file."""
    import numpy

    cpu_model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }
