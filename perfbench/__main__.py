"""Command line of the benchmark; run from the repository root.

::

    python -m perfbench measure --workload fig6-cold --seed 7 --seconds 15 --trace 0
    python -m perfbench run --seed 7 --output R.json [--trace]
    python -m perfbench compare --parent A1.json ... --change B1.json ...
    python -m perfbench expect --seed 7
    python -m perfbench baseline R1.json ... --output perfbench/baseline.json

``measure`` is one run of one workload: its last stdout line is the
result object.  ``run`` measures every workload once, each in a fresh
subprocess, and prints ``<workload> <metric> <value> <unit>`` rows.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path

from . import OUT, ROOT, SRC

#: settings that would make a run measure something other than the
#: shipped defaults (replay engine, telemetry, store and result-DB paths)
SCRUBBED_ENV = ("REPRO_REPLAY_ENGINE", "REPRO_OBS", "REPRO_STORE_DIR", "REPRO_RESULTDB")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _bootstrap() -> None:
    """Import the checkout's own simulator, with shipped defaults."""
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    # numpy asks for transparent huge pages on large arrays (each
    # Machine's heap); whether a 4 MB heap lands 2 MB-aligned depends on
    # address-space randomization, which made a run's peak RSS jump by
    # ~8 MB between otherwise identical runs
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the simulator from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}, "
                         f"not from {SRC}")
    # keep every temporary file inside the checkout
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(OUT / "tmp")


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cmd_measure(args, workloads=None, expected=None) -> int:
    """One run of one workload; ``workloads``/``expected`` default to the
    declared sizes and ``expected.json`` (tests pass their own)."""
    from .measure import load_expected, measure
    from .workloads import default_workloads

    workloads = workloads or default_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads)}")
    result = measure(workloads[args.workload], args.seed, args.seconds,
                     bool(args.trace),
                     expected=load_expected() if expected is None else expected,
                     log=_log)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def cmd_run(args) -> int:
    from .measure import fingerprint
    from .workloads import default_workloads

    seconds = _benchmark_spec()["run_seconds"]
    results, ok = {}, True
    for name in default_workloads():
        cmd = [sys.executable, "-m", "perfbench", "measure", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", "1" if args.trace else "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ok = ok and proc.returncode == 0 and res["correct"]
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}", flush=True)
        print(f"{name} fail_frac {res['failed'] / res['attempted']:.6g} ratio", flush=True)
        results[name] = res
    if args.output:
        Path(args.output).write_text(json.dumps({
            "schema": "perfbench-results/1", "fingerprint": fingerprint(),
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "workloads": results}, indent=1) + "\n")
    return 0 if ok else 1


def cmd_expect(args) -> int:
    """Re-pin the simulated results of one seed (for changes that alter
    them on purpose)."""
    from .measure import (EXPECTED_PATH, RUN_BUDGET_S, failed_ops, load_expected, outputs,
                          run_rep, seed_key)
    from .workloads import default_workloads

    expected = load_expected() or {"schema": "perfbench-expected/1", "workloads": {}}
    for name, wl in default_workloads().items():
        rep = run_rep(wl, args.seed, traced=False, timeout=RUN_BUDGET_S)
        bad = failed_ops(wl, rep, None, None)
        if bad:
            _log(f"{name}: outputs fail their own checks, not pinned: {sorted(bad)}")
            return 1
        spec = json.loads(json.dumps(wl.spec()))
        entry = expected["workloads"].get(name)
        if not entry or entry["spec"] != spec:
            entry = expected["workloads"][name] = {"spec": spec, "seeds": {}}
        entry["seeds"][seed_key(wl, args.seed)] = outputs(rep)
        _log(f"{name}: pinned {len(outputs(rep))} outputs for seed {args.seed}")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def cmd_compare(args) -> int:
    from .compare import compare, format_rows, load_results

    rows = compare(load_results(args.parent), load_results(args.change),
                   _benchmark_spec()["end_to_end"])
    print(format_rows(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def cmd_baseline(args) -> int:
    from .compare import load_results, summarize

    results = load_results(args.results)
    plain = [r for r in results if not r["trace"]]
    traced = [r for r in results if r["trace"]]
    if not plain:
        raise SystemExit("perfbench: baseline needs at least one untraced results file")
    Path(args.output).write_text(json.dumps({
        "schema": "perfbench-baseline/1",
        "fingerprint": plain[0]["fingerprint"],
        "run_seconds": plain[0]["seconds"],
        "seeds": [r["seed"] for r in plain],
        "end_to_end": summarize(plain),
        "per_layer": summarize(traced),
    }, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one run of one workload (last line: result JSON)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)

    p = sub.add_parser("run", help="every workload once, each in a fresh subprocess")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace", action="store_true", help="report per-layer metrics")
    p.add_argument("--output", default=None, help="results JSON path")

    p = sub.add_parser("compare", help="parent vs change verdict per workload x metric")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)

    p = sub.add_parser("expect", help="re-pin simulated results for one seed")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("baseline", help="summarize results files into a baseline")
    p.add_argument("results", nargs="+")
    p.add_argument("--output", required=True)

    args = parser.parse_args(argv)
    if args.command in ("compare", "baseline"):
        return {"compare": cmd_compare, "baseline": cmd_baseline}[args.command](args)
    _bootstrap()
    try:
        return {"measure": cmd_measure, "run": cmd_run, "expect": cmd_expect}[args.command](args)
    finally:
        # the helper process that spawning reps started; stopping it
        # waits for it to exit, so the benchmark leaves no process behind
        resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
