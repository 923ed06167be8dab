"""Tests for the simulated device heap."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidAddress
from repro.memory.heap import Heap


def test_sbrk_returns_aligned_disjoint_regions(heap):
    a = heap.sbrk(100, 16)
    b = heap.sbrk(100, 16)
    assert a % 16 == 0 and b % 16 == 0
    assert b >= a + 100


def test_sbrk_zero(heap):
    a = heap.sbrk(0)
    b = heap.sbrk(16)
    assert b >= a


def test_sbrk_negative_rejected(heap):
    with pytest.raises(ValueError):
        heap.sbrk(-1)


def test_null_guard_faults(heap):
    with pytest.raises(InvalidAddress):
        heap.load(0, "u64")
    with pytest.raises(InvalidAddress):
        heap.store(8, "u32", 1)


def test_access_beyond_brk_faults(heap):
    addr = heap.sbrk(64)
    with pytest.raises(InvalidAddress):
        heap.load(addr + 64, "u64")


def test_scalar_roundtrip_all_dtypes(heap):
    addr = heap.sbrk(128)
    cases = [
        ("u8", 200), ("u16", 65000), ("u32", 4_000_000_000),
        ("i32", -123456), ("u64", 2**60), ("i64", -(2**40)),
        ("f32", 1.5), ("f64", -2.25),
    ]
    for i, (dt, val) in enumerate(cases):
        heap.store(addr + i * 16, dt, val)
        got = heap.load(addr + i * 16, dt)
        assert got == val or np.isclose(float(got), float(val))


def test_heap_grows_on_demand():
    h = Heap(capacity=1024)
    addr = h.sbrk(100_000)
    h.store(addr + 99_992, "u64", 77)
    assert h.load(addr + 99_992, "u64") == 77


def test_growth_preserves_contents():
    h = Heap(capacity=1024)
    a = h.sbrk(100)
    h.store(a, "u64", 0xDEADBEEF)
    h.sbrk(1 << 20)  # force growth
    assert h.load(a, "u64") == 0xDEADBEEF


def test_gather_scatter_roundtrip(heap):
    base = heap.sbrk(1024)
    addrs = np.array([base, base + 40, base + 8, base + 200], dtype=np.uint64)
    vals = np.array([1, 2, 3, 4], dtype=np.uint64)
    heap.scatter(addrs, "u64", vals)
    got = heap.gather(addrs, "u64")
    np.testing.assert_array_equal(got, vals)


def test_gather_empty(heap):
    out = heap.gather(np.empty(0, dtype=np.uint64), "u32")
    assert out.size == 0
    heap.scatter(np.empty(0, dtype=np.uint64), "u32", np.empty(0))


def test_gather_out_of_range_faults(heap):
    base = heap.sbrk(64)
    bad = np.array([base, base + 10**9], dtype=np.uint64)
    with pytest.raises(InvalidAddress):
        heap.gather(bad, "u32")


def test_scatter_null_guard_faults(heap):
    heap.sbrk(64)
    with pytest.raises(InvalidAddress):
        heap.scatter(np.array([4], dtype=np.uint64), "u32",
                     np.array([1], dtype=np.uint32))


def test_scatter_duplicate_addresses_last_wins(heap):
    base = heap.sbrk(64)
    addrs = np.array([base, base, base], dtype=np.uint64)
    heap.scatter(addrs, "u32", np.array([1, 2, 3], dtype=np.uint32))
    assert heap.load(base, "u32") == 3


def test_misaligned_scalar_access(heap):
    base = heap.sbrk(64)
    heap.store(base + 3, "u32", 0x01020304)
    assert heap.load(base + 3, "u32") == 0x01020304


def test_read_write_array_roundtrip(heap):
    base = heap.sbrk(4 * 100)
    vals = np.arange(100, dtype=np.float32)
    heap.write_array(base, "f32", vals)
    np.testing.assert_array_equal(heap.read_array(base, "f32", 100), vals)


def test_fill(heap):
    base = heap.sbrk(64)
    heap.fill(base, 64, 0xFF)
    assert heap.load(base + 32, "u8") == 0xFF
    heap.fill(base, 64, 0)
    assert heap.load(base + 32, "u8") == 0


def test_zero_ranges_clears_exactly_the_ranges(heap):
    base = heap.sbrk(256)
    heap.fill(base, 256, 0xFF)
    # unsorted, with two abutting ranges that merge into one run
    heap.zero_ranges([base + 100, base + 8, base + 16], [20, 8, 4])
    got = heap.read_array(base, "u8", 256)
    want = np.full(256, 0xFF, dtype=np.uint8)
    for lo, n in ((100, 20), (8, 8), (16, 4)):
        want[lo:lo + n] = 0
    np.testing.assert_array_equal(got, want)


def test_zero_ranges_checks_every_range_first(heap):
    base = heap.sbrk(64)
    heap.fill(base, 64, 0xFF)
    with pytest.raises(InvalidAddress):
        heap.zero_ranges([base, heap.brk - 4], [8, 8])
    assert (heap.read_array(base, "u8", 64) == 0xFF).all()


def test_sbrk_regions_zeroed(heap):
    a = heap.sbrk(256)
    assert heap.load(a + 128, "u64") == 0


@given(
    offsets=st.lists(
        st.integers(min_value=0, max_value=96), min_size=1, max_size=32
    ),
    values=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=32
    ),
)
def test_gather_reads_what_scatter_wrote(offsets, values):
    h = Heap(capacity=1 << 16)
    base = h.sbrk(512, 16)
    n = min(len(offsets), len(values))
    # deduplicate offsets so last-write-wins doesn't confuse the check
    uniq = sorted(set(offsets[:n]))
    addrs = np.array([base + o * 4 for o in uniq], dtype=np.uint64)
    vals = np.array(values[: len(uniq)], dtype=np.uint32)
    if len(vals) < len(addrs):
        addrs = addrs[: len(vals)]
    h.scatter(addrs, "u32", vals)
    np.testing.assert_array_equal(h.gather(addrs, "u32"), vals)
