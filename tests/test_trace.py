"""The memory-trace IR: batched coalescing, CSR layout, wave flattening."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.coalescing import coalesce, coalesce_arrays
from repro.gpu.stats import KernelStats
from repro.gpu.tlb import TLBHierarchy
from repro.gpu.trace import (
    MemoryTrace,
    POPCOUNT4,
    TRACE_ENCODING_VERSION,
    decode_wave,
    encode_wave,
    flatten_wave,
    role_id,
    role_name,
)

addr_lists = st.lists(
    st.integers(min_value=0, max_value=4096), min_size=1, max_size=32
)
widths = st.sampled_from([1, 4, 8, 16, 32])


# ----------------------------------------------------------------------
# coalesce_arrays is the batched form of coalesce
# ----------------------------------------------------------------------
@given(addrs=addr_lists, width=widths)
def test_coalesce_arrays_matches_coalesce(addrs, width):
    a = np.asarray(addrs, dtype=np.uint64)
    txns = coalesce(a, width)
    lines, masks = coalesce_arrays(a, width)
    assert [t.line_addr for t in txns] == lines.tolist()
    assert [t.sector_mask for t in txns] == masks.tolist()


# ----------------------------------------------------------------------
# deferred per-warp coalescing reproduces per-access coalescing
# ----------------------------------------------------------------------
accesses = st.lists(
    st.tuples(addr_lists, widths, st.booleans(),
              st.sampled_from([None, "roleA", "roleB"])),
    min_size=1, max_size=12,
)


@given(accs=accesses)
@settings(max_examples=60, deadline=None)
def test_finalize_matches_per_access_coalescing(accs):
    trace = MemoryTrace(sm=0)
    expect = []
    for addrs, width, store, role in accs:
        a = np.asarray(addrs, dtype=np.uint64)
        trace.append_access(a, width, store, role_id(role))
        expect.append(coalesce_arrays(a, width))
    trace.finalize()

    assert trace.n_accesses == len(accs)
    for i, (lines, masks) in enumerate(expect):
        s = int(trace.txn_start[i])
        e = s + int(trace.txn_count[i])
        assert trace.line[s:e].tolist() == lines.tolist()
        assert trace.mask[s:e].tolist() == masks.tolist()
    assert trace.store.tolist() == [a[2] for a in accs]
    assert [role_name(r) for r in trace.role.tolist()] == [a[3] for a in accs]


@given(accs=accesses)
@settings(max_examples=40, deadline=None)
def test_finalize_defers_transaction_counters(accs):
    trace = MemoryTrace(sm=1)
    expect = KernelStats()
    for addrs, width, store, role in accs:
        a = np.asarray(addrs, dtype=np.uint64)
        trace.append_access(a, width, store, role_id(role))
        _, masks = coalesce_arrays(a, width)
        n = int(POPCOUNT4[masks].sum())
        if store:
            expect.global_store_transactions += n
        else:
            expect.global_load_transactions += n
            expect.add_role_transactions(role, n)
    got = KernelStats()
    trace.finalize(got)
    assert got.global_load_transactions == expect.global_load_transactions
    assert got.global_store_transactions == expect.global_store_transactions
    assert got.role_transactions == expect.role_transactions


def test_empty_trace_finalize():
    trace = MemoryTrace(sm=2).finalize(KernelStats())
    assert trace.n_accesses == 0
    assert trace.n_txns == 0
    assert trace.total_sectors() == 0
    assert flatten_wave([trace]) is None


def test_zero_lane_access_keeps_boundaries():
    trace = MemoryTrace(sm=0)
    trace.append_access(np.empty(0, dtype=np.uint64), 4, False, 0)
    trace.append_access(np.array([128], dtype=np.uint64), 4, False, 0)
    trace.finalize()
    assert trace.txn_count.tolist() == [0, 1]
    assert trace.txn_start.tolist() == [0, 0]


# ----------------------------------------------------------------------
# a wave buffer coalesces to the traces one-warp captures give
# ----------------------------------------------------------------------
LANES = 4   # lanes per warp of the generated waves


@st.composite
def wave_streams(draw):
    """A wave's access stream: lane batches over random lane subsets,
    and one-warp accesses (some with no lanes)."""
    num_warps = draw(st.integers(min_value=1, max_value=4))
    addr = st.integers(min_value=0, max_value=1 << 19)   # 8 TLB pages
    who = st.one_of(
        st.tuples(st.none(), st.lists(st.tuples(st.booleans(), addr),
                                      min_size=num_warps * LANES,
                                      max_size=num_warps * LANES)),
        st.tuples(st.integers(min_value=0, max_value=num_warps - 1),
                  st.lists(addr, max_size=LANES)),
    )
    stream = draw(st.lists(
        st.tuples(who, st.integers(min_value=1, max_value=64), st.booleans(),
                  st.sampled_from([None, "roleA", "roleB"])),
        max_size=10))
    return num_warps, stream


@given(wave=wave_streams())
@settings(max_examples=80, deadline=None)
def test_wave_buffer_equals_one_warp_captures(wave):
    num_warps, stream = wave
    sms = [w % 2 for w in range(num_warps)]
    tlb_wave = TLBHierarchy(2, l1_entries=2, l2_entries=3)
    tlb_warps = TLBHierarchy(2, l1_entries=2, l2_entries=3)
    buf = MemoryTrace(sms, tlb=tlb_wave)
    singles = [MemoryTrace(sm, tlb=tlb_warps) for sm in sms]
    for (warp, lanes), width, store, role in stream:
        rid = role_id(role)
        if warp is None:
            active = [i for i, (on, _) in enumerate(lanes) if on]
            addrs = np.array([lanes[i][1] for i in active], dtype=np.uint64)
            lane_warp = np.array(active, dtype=np.int64) // LANES
            buf.append_access(addrs, width, store, rid, lane_warp)
            for w in np.unique(lane_warp).tolist():
                singles[w].append_access(addrs[lane_warp == w], width,
                                         store, rid)
        else:
            addrs = np.array(lanes, dtype=np.uint64)
            buf.append_access(addrs, width, store, rid, warp)
            singles[warp].append_access(addrs, width, store, rid)

    got_stats, want_stats = KernelStats(), KernelStats()
    got = buf.finalize(got_stats)
    want = [t.finalize(want_stats) for t in singles]
    _assert_traces_equal(got, want)
    assert [_digest(t) for t in got] == [_digest(t) for t in want]
    assert got_stats == want_stats
    assert list(got_stats.role_transactions) == \
        list(want_stats.role_transactions)
    assert tlb_wave.stats == tlb_warps.stats


def test_empty_lane_batch_leaves_tlb_probes_aligned():
    """A lane batch with no active lanes records nothing, so the pages
    of later accesses still probe the TLB under their own access."""
    tlb_wave, tlb_warp = (TLBHierarchy(2, l1_entries=2, l2_entries=3)
                          for _ in range(2))
    buf = MemoryTrace([0], tlb=tlb_wave)
    single = MemoryTrace(0, tlb=tlb_warp)
    buf.append_access(np.empty(0, dtype=np.uint64), 1, False, 0,
                      np.empty(0, dtype=np.int64))
    for _ in range(2):
        buf.append_access(np.zeros(1, dtype=np.uint64), 1, False, 0,
                          np.zeros(1, dtype=np.int64))
        single.append_access(np.zeros(1, dtype=np.uint64), 1, False, 0)
    got_stats, want_stats = KernelStats(), KernelStats()
    buf.finalize(got_stats)
    single.finalize(want_stats)
    assert got_stats == want_stats
    assert tlb_wave.stats == tlb_warp.stats


# ----------------------------------------------------------------------
# flatten_wave preserves the round-robin replay invariant
# ----------------------------------------------------------------------
def _naive_round_robin(traces):
    """Access r of every warp (warp order) before access r+1 of any."""
    line, mask, sm, store, role = [], [], [], [], []
    cursors = [0] * len(traces)
    remaining = sum(t.n_accesses for t in traces)
    while remaining:
        for i, t in enumerate(traces):
            c = cursors[i]
            if c >= t.n_accesses:
                continue
            cursors[i] = c + 1
            remaining -= 1
            s = int(t.txn_start[c])
            e = s + int(t.txn_count[c])
            line.extend(t.line[s:e].tolist())
            mask.extend(t.mask[s:e].tolist())
            sm.extend([t.sm] * (e - s))
            store.extend([bool(t.store[c])] * (e - s))
            role.extend([int(t.role[c])] * (e - s))
    return line, mask, sm, store, role


@given(
    warps=st.lists(accesses, min_size=1, max_size=4),
    sms=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_flatten_wave_is_round_robin(warps, sms):
    traces = []
    for w, accs in enumerate(warps):
        t = MemoryTrace(sm=w % sms)
        for addrs, width, store, role in accs:
            t.append_access(np.asarray(addrs, dtype=np.uint64), width,
                            store, role_id(role))
        traces.append(t.finalize())
    flat = flatten_wave(traces)
    line, mask, sm, store, role = _naive_round_robin(traces)
    if not line:
        assert flat is None
        return
    f_line, f_mask, f_sm, f_store, f_role, f_nsec = flat
    assert f_line.tolist() == line
    assert f_mask.tolist() == mask
    assert f_sm.tolist() == sm
    assert f_store.tolist() == store
    assert f_role.tolist() == role
    assert f_nsec.tolist() == POPCOUNT4[np.asarray(mask)].tolist()


# ----------------------------------------------------------------------
# digests and role interning
# ----------------------------------------------------------------------
def _digest(trace):
    h = hashlib.sha1()
    trace.digest_into(h)
    return h.digest()


def test_digest_distinguishes_replay_relevant_content():
    def make(mask_addr):
        t = MemoryTrace(sm=0)
        t.append_access(np.array([mask_addr], dtype=np.uint64), 4, False, 0)
        return t.finalize()

    assert _digest(make(0)) == _digest(make(0))
    # different sector of the same line -> different mask -> new digest
    assert _digest(make(0)) != _digest(make(32))


def test_role_interning_round_trips():
    assert role_id(None) == 0
    assert role_name(0) is None
    rid = role_id("some-role")
    assert rid > 0
    assert role_id("some-role") == rid
    assert role_name(rid) == "some-role"


# ----------------------------------------------------------------------
# delta-encoded wave codec: encode -> decode is the identity on every
# column (dtype, shape, values), including empty and one-access traces
# ----------------------------------------------------------------------
_COLUMNS = ("line", "mask", "txn_count", "txn_start", "store", "role")


def _assert_traces_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.sm == w.sm
        assert g.n_accesses == w.n_accesses
        assert g.n_txns == w.n_txns
        for col in _COLUMNS:
            ga, wa = getattr(g, col), getattr(w, col)
            assert ga.dtype == wa.dtype, col
            assert ga.shape == wa.shape, col
            assert np.array_equal(ga, wa), col


def _wave_from(warps, sms):
    traces = []
    for w, accs in enumerate(warps):
        t = MemoryTrace(sm=w % sms)
        for addrs, width, store, role in accs:
            t.append_access(np.asarray(addrs, dtype=np.uint64), width,
                            store, role_id(role))
        traces.append(t.finalize())
    return traces


@given(
    # empty inner lists produce finalized traces with zero accesses
    warps=st.lists(st.lists(st.tuples(addr_lists, widths, st.booleans(),
                                      st.sampled_from([None, "vtable"])),
                            min_size=0, max_size=8),
                   min_size=0, max_size=4),
    sms=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_wave_codec_round_trips(warps, sms):
    traces = _wave_from(warps, sms)
    got = decode_wave(encode_wave(traces))
    _assert_traces_equal(got, traces)


def test_wave_codec_round_trips_empty_wave():
    assert decode_wave(encode_wave([])) == []


def test_wave_codec_round_trips_empty_and_single_access_traces():
    empty = MemoryTrace(sm=3).finalize()
    single = MemoryTrace(sm=1)
    single.append_access(np.array([1 << 40], dtype=np.uint64), 1, True,
                         role_id("vtable"))
    wave = [empty, single.finalize()]
    got = decode_wave(encode_wave(wave))
    _assert_traces_equal(got, wave)


def test_wave_codec_line_deltas_survive_non_monotone_addresses():
    # descending addresses make the uint64 deltas wrap; the cumsum on
    # decode must wrap back to the exact original values
    t = MemoryTrace(sm=0)
    for addr in (1 << 50, 128, 1 << 63, 0):
        t.append_access(np.array([addr], dtype=np.uint64), 1, False, 0)
    wave = [t.finalize()]
    got = decode_wave(encode_wave(wave))
    _assert_traces_equal(got, wave)


def test_wave_codec_decodes_at_offset():
    # buckets concatenate encoded waves: decoding must work mid-buffer
    w1 = _wave_from([[((0, 128), 1, False, None)]], 1)
    w2 = _wave_from([[((256,), 1, True, "vtable")]], 2)
    b1, b2 = encode_wave(w1), encode_wave(w2)
    buf = b1 + b2
    _assert_traces_equal(decode_wave(buf, 0), w1)
    _assert_traces_equal(decode_wave(buf, len(b1)), w2)


def test_wave_codec_rejects_bad_magic_and_version():
    buf = bytearray(encode_wave([MemoryTrace(sm=0).finalize()]))
    bad_magic = b"XXXX" + bytes(buf[4:])
    with pytest.raises(ValueError, match="magic"):
        decode_wave(bad_magic)
    bad_version = bytes(buf[:4]) + (TRACE_ENCODING_VERSION + 1).to_bytes(
        4, "little") + bytes(buf[8:])
    with pytest.raises(ValueError, match="version"):
        decode_wave(bad_version)
