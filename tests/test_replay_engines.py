"""Cross-validation of the replay engines.

The ReferenceEngine is the executable specification (the dict-based
SectoredCache hierarchy); the VectorEngine must be *bit-identical* on
every counter, across dispatch strategies, workloads and random access
streams, and must leave every cache set holding the same lines in the
same LRU order.  The differential matrix below runs every registered
technique against every Figure-6 workload under both engines and
compares whole KernelStats records, not checksums.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LaunchError, UnknownEngineError
from repro.gpu.cache import MemoryHierarchy
from repro.gpu.config import CacheGeometry, GPUConfig, small_config
from repro.gpu.machine import Machine
from repro.gpu.replay import (
    ENGINE_ENV_VAR,
    ENGINES,
    ReferenceEngine,
    VectorEngine,
    make_engine,
    resolve_engine_name,
)
from repro.gpu.stats import KernelStats
from repro.gpu.trace import MemoryTrace, role_id
from repro.techniques import available as all_techniques
from repro.workloads import make_workload, workload_names

FIG6_TECHNIQUES = ("cuda", "concord", "sharedoa", "coal", "typepointer")


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
def test_default_engine_is_vector():
    assert GPUConfig().replay_engine == "vector"


def test_engines_registry_names():
    assert ENGINES == ("reference", "vector")


def test_resolve_engine_prefers_env(monkeypatch):
    cfg = replace(small_config(), replay_engine="vector")
    monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
    assert resolve_engine_name(cfg) == "reference"
    monkeypatch.delenv(ENGINE_ENV_VAR)
    assert resolve_engine_name(cfg) == "vector"


def test_resolve_engine_rejects_unknown(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "warp-drive")
    with pytest.raises(LaunchError):
        resolve_engine_name(small_config())


def test_resolve_engine_unknown_carries_hints(monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, "refrence")
    with pytest.raises(UnknownEngineError) as excinfo:
        resolve_engine_name(small_config())
    err = excinfo.value
    assert err.engine == "refrence"
    assert err.known == ENGINES
    assert "reference" in err.hints
    assert "did you mean" in str(err)


def test_make_engine_constructs_named_engines():
    cfg = small_config()
    hier = MemoryHierarchy(cfg)
    assert isinstance(make_engine("reference", cfg, hier), ReferenceEngine)
    assert isinstance(make_engine("vector", cfg, hier), VectorEngine)
    with pytest.raises(UnknownEngineError) as excinfo:
        make_engine("vectr", cfg, hier)
    assert "vector" in excinfo.value.hints
    # UnknownEngineError subclasses LaunchError: existing callers that
    # catch the broad class keep working
    assert isinstance(excinfo.value, LaunchError)


def test_machine_respects_config_engine():
    for name in ENGINES:
        m = Machine("cuda", config=replace(small_config(),
                                           replay_engine=name))
        assert m.engine.name == name


# ----------------------------------------------------------------------
# differential matrix: every technique x every Figure-6 workload x both
# engines, whole-KernelStats equality
# ----------------------------------------------------------------------
def _run(workload: str, technique: str, engine: str):
    cfg = replace(small_config(), replay_engine=engine)
    m = Machine(technique, config=cfg)
    wl = make_workload(workload, m, scale=0.1, seed=3)
    return wl.run(1), wl.checksum()


@pytest.mark.parametrize("technique", all_techniques())
@pytest.mark.parametrize("workload", workload_names())
def test_engines_bit_identical_on_workloads(workload, technique):
    ref_stats, ref_ck = _run(workload, technique, "reference")
    vec_stats, vec_ck = _run(workload, technique, "vector")
    # KernelStats is a dataclass: == covers every counter, including the
    # per-role dicts and the timing-model outputs derived from them
    assert vec_stats == ref_stats
    assert vec_ck == ref_ck


@pytest.mark.parametrize("engine", ["vector"])
def test_engines_bit_identical_under_object_churn(engine):
    # GOL retypes objects between launches: allocator reuse stresses
    # cache-state carry-over across waves and launches
    ref_stats, _ = _run("GOL", "typepointer", "reference")
    eng_stats, _ = _run("GOL", "typepointer", engine)
    assert eng_stats == ref_stats


def _assert_same_state(ref: ReferenceEngine, vec: VectorEngine) -> None:
    """Every L1 set of every SM and every L2 set holds the same lines,
    in LRU order, with equal sector masks; DRAM row state agrees."""
    hier = ref.hierarchy

    def lru_order(lines):
        return [(tag, line.sector_mask) for tag, line in
                sorted(lines.items(), key=lambda kv: kv[1].lru)]

    nsets = hier.l1s[0].geometry.num_sets
    for sm, l1 in enumerate(hier.l1s):
        for k, lines in enumerate(l1._sets):
            assert list(vec._l1[sm * nsets + k].items()) == \
                lru_order(lines), (sm, k)
    for k, lines in enumerate(hier.l2._sets):
        assert list(vec._l2[k].items()) == lru_order(lines), k
    assert vec.dram_row_hits == hier.dram_row_hits
    assert vec._open_rows == hier._open_rows


# ----------------------------------------------------------------------
# captured workload waves, replayed twice through evolved cache state
# ----------------------------------------------------------------------
def _captured_waves(workload: str, technique: str, scale: float = 0.1):
    """Run a workload under the vector engine, capturing its raw waves."""
    cfg = replace(small_config(), replay_engine="vector")
    m = Machine(technique, config=cfg)
    waves = []
    inner = m.engine.replay_wave

    def capture(traces, stats):
        waves.append(list(traces))
        inner(traces, stats)

    m.engine.replay_wave = capture
    wl = make_workload(workload, m, scale=scale, seed=3)
    wl.run(1)
    return waves


def test_repeated_waves_stay_bit_identical():
    cfg = small_config()
    waves = _captured_waves("BFS-vE", "cuda")
    # the second pass replays every wave against the cache state the
    # first pass left: hits, refreshes and evictions of real traffic
    ref, vec = ReferenceEngine(MemoryHierarchy(cfg)), VectorEngine(cfg)
    rs, vs = KernelStats(), KernelStats()
    for _ in range(2):
        for traces in waves:
            ref.replay_wave(traces, rs)
            vec.replay_wave(traces, vs)
    assert vs == rs
    _assert_same_state(ref, vec)


# ----------------------------------------------------------------------
# property test: random access streams, both engines in lockstep
# ----------------------------------------------------------------------
#: tiny geometry so evictions and row conflicts happen within a handful
#: of accesses (L1: 8 lines in 4 sets; L2: 32 lines in 16 sets)
_PROP_CFG = GPUConfig(
    name="prop-gpu",
    num_sms=2,
    l1=CacheGeometry(size_bytes=1024, assoc=2),
    l2=CacheGeometry(size_bytes=4096, assoc=2),
    dram_row_bytes=512,
    dram_num_banks=2,
)
#: wider sets, so a set's LRU order spans more lines (L1: 8 lines in 2
#: sets of 4; L2: 32 lines in 4 sets of 8)
_PROP_CFG_WIDE = replace(
    _PROP_CFG, name="prop-gpu-wide",
    l1=CacheGeometry(size_bytes=1024, assoc=4),
    l2=CacheGeometry(size_bytes=4096, assoc=8),
)

_access = st.tuples(
    st.integers(min_value=0, max_value=31),        # line index
    st.integers(min_value=1, max_value=15),        # sector mask
    st.booleans(),                                 # store?
    st.sampled_from([None, "vtable", "vfunc"]),    # role
)
_warp = st.lists(_access, min_size=0, max_size=16)


def _build_trace(sm: int, accs) -> MemoryTrace:
    t = MemoryTrace(sm=sm)
    for line_idx, mask, store, role in accs:
        base = line_idx * 128
        addrs = [base + s * 32 for s in range(4) if mask & (1 << s)]
        t.append_access(np.asarray(addrs, dtype=np.uint64), 1, store,
                        role_id(role))
    return t.finalize()


@given(cfg=st.sampled_from([_PROP_CFG, _PROP_CFG_WIDE]),
       waves=st.lists(st.lists(_warp, min_size=1, max_size=4),
                      min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_random_streams_bit_identical(cfg, waves):
    ref = ReferenceEngine(MemoryHierarchy(cfg))
    vec = VectorEngine(cfg)
    ref_stats, vec_stats = KernelStats(), KernelStats()
    for wave in waves:
        traces = [_build_trace(w % cfg.num_sms, accs)
                  for w, accs in enumerate(wave)]
        # engines replay the same frozen traces; state persists across
        # waves in both (caches are not flushed between kernels)
        ref.replay_wave(traces, ref_stats)
        vec.replay_wave(traces, vec_stats)
    assert vec_stats == ref_stats
    # the cache and row-buffer state must agree too, not just the
    # counters so far
    _assert_same_state(ref, vec)
