"""The cross-run replay memo: exact hits, drain-on-miss, attach rules."""
from __future__ import annotations

import numpy as np
import pytest

from repro.errors import LaunchError
from repro.gpu.config import small_config
from repro.gpu.machine import Machine
from repro.harness.runner import ReplayMemo


def _fresh_machine() -> Machine:
    m = Machine("cuda", config=small_config())
    return m


def _make_kernels(m: Machine):
    """Two kernels over the same device array: a strided load pass and
    a gather pass with a different (cache-hostile) access pattern."""
    arr = m.array_from(np.arange(256, dtype=np.uint64), "u64")

    def k_stream(ctx):
        v = arr.ld(ctx, ctx.tid)
        arr.st(ctx, ctx.tid, v + np.uint64(1))

    def k_scatter(ctx):
        idx = (ctx.tid * np.uint64(37)) % np.uint64(256)
        arr.st(ctx, idx, arr.ld(ctx, idx) * np.uint64(2))

    return k_stream, k_scatter


def _run_sequence(m: Machine, kernels):
    for k in kernels:
        m.launch(k, 256)
    return m.run_stats


def test_memo_hit_reproduces_stats_exactly():
    memo = ReplayMemo()

    m1 = _fresh_machine()
    m1.set_replay_memo(memo)
    base = _run_sequence(m1, _make_kernels(m1))
    assert memo.hits == 0
    assert memo.misses > 0
    first_misses = memo.misses

    m2 = _fresh_machine()
    m2.set_replay_memo(memo)
    replayed = _run_sequence(m2, _make_kernels(m2))
    # identical launch sequence -> every wave comes out of the memo
    assert memo.hits == first_misses
    assert memo.misses == first_misses
    assert replayed == base


def test_memo_matches_memoless_run():
    memo = ReplayMemo()
    m1 = _fresh_machine()
    m1.set_replay_memo(memo)
    _run_sequence(m1, _make_kernels(m1))

    m2 = _fresh_machine()
    m2.set_replay_memo(memo)
    memod = _run_sequence(m2, _make_kernels(m2))

    m3 = _fresh_machine()
    plain = _run_sequence(m3, _make_kernels(m3))
    assert memod == plain


def test_drain_on_miss_rebuilds_cache_state():
    # machine B hits on kernel 1 (engine state update deferred), then
    # diverges on kernel 2; the pending traces must be drained so the
    # live replay of kernel 2 sees the cache state kernel 1 left behind
    memo = ReplayMemo()
    mA = _fresh_machine()
    mA.set_replay_memo(memo)
    kA1, kA2 = _make_kernels(mA)
    mA.launch(kA1, 256)

    mB = _fresh_machine()
    mB.set_replay_memo(memo)
    kB1, kB2 = _make_kernels(mB)
    mB.launch(kB1, 256)       # memo hit
    hits_after_k1 = memo.hits
    assert hits_after_k1 > 0
    mB.launch(kB2, 256)       # divergence from what the memo has seen

    # ground truth: the same two launches with no memo at all
    mC = _fresh_machine()
    kC1, kC2 = _make_kernels(mC)
    mC.launch(kC1, 256)
    mC.launch(kC2, 256)
    assert mB.run_stats == mC.run_stats


def test_memo_keys_include_engine_and_geometry():
    from dataclasses import replace

    memo = ReplayMemo()
    m1 = Machine("cuda", config=small_config())
    m1.set_replay_memo(memo)
    _run_sequence(m1, _make_kernels(m1))
    misses = memo.misses

    # same launches under the other engine must not share keys
    m2 = Machine("cuda",
                 config=replace(small_config(), replay_engine="reference"))
    m2.set_replay_memo(memo)
    _run_sequence(m2, _make_kernels(m2))
    assert memo.hits == 0
    assert memo.misses == 2 * misses


def test_attach_after_launch_rejected():
    m = _fresh_machine()
    (k1, _) = _make_kernels(m)
    m.launch(k1, 256)
    with pytest.raises(LaunchError):
        m.set_replay_memo(ReplayMemo())


def _gol(memo=None):
    """GOL under TypePointer: multi-wave launches, objects retyped
    between them."""
    from repro.workloads import make_workload

    m = Machine("typepointer", config=small_config())
    if memo is not None:
        m.set_replay_memo(memo)
    return m, make_workload("GOL", m, scale=0.3, seed=7)


@pytest.mark.parametrize("warm_iterations", [6, 3], ids=["warm", "part-warm"])
@pytest.mark.parametrize("budget", [0, 1 << 18])
def test_pending_waves_stay_within_budget(monkeypatch, budget,
                                          warm_iterations):
    # memo hits defer their waves; a long warm run drains them once they
    # pass the budget and still lands on the counters of a memoless run
    _, wl = _gol()
    base = wl.run(6), wl.checksum()
    memo = ReplayMemo()
    _gol(memo)[1].run(warm_iterations)

    monkeypatch.setattr(Machine, "MAX_PENDING_BYTES", budget)
    m, wl = _gol(memo)
    hit_bytes, pending = [0], []
    inner_wave, inner_launch = m.replay_wave, m.launch

    def replay_wave(traces, stats):
        hits = memo.hits
        inner_wave(traces, stats)
        if memo.hits > hits:
            hit_bytes[0] += sum(t.nbytes for t in traces)

    def launch(*args, **kwargs):
        out = inner_launch(*args, **kwargs)
        pending.append(m._pending_bytes)
        return out

    m.replay_wave, m.launch = replay_wave, launch
    assert (wl.run(6), wl.checksum()) == base
    assert len(pending) == m.launches
    # the hit waves outgrew the budget, yet no launch ended above it
    assert hit_bytes[0] > budget
    assert max(pending) <= budget
