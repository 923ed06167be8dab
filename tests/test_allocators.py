"""Tests for the CUDA-like allocator, the TypePointer wrapper and the
batched ``alloc_many`` path of every allocator."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Machine, TypeDescriptor
from repro.errors import AllocatorError, DoubleFree, TypeTagOverflow
from repro.gpu.config import small_config
from repro.memory.address_space import MAX_TAG, decode_tag, strip_tag
from repro.memory.cuda_allocator import HEADER_PAD, CudaHeapAllocator
from repro.memory.heap import Heap
from repro.memory.shared_oa import SharedOAAllocator
from repro.memory.soa_allocator import SoaAllocator
from repro.memory.typepointer_alloc import TypePointerAllocator


@pytest.fixture
def cuda_alloc(heap):
    return CudaHeapAllocator(heap)


class TestCudaAllocator:
    def test_allocations_do_not_overlap(self, cuda_alloc):
        ptrs = [cuda_alloc.alloc_object("T", 24) for _ in range(200)]
        spans = sorted((p, p + 24) for p in ptrs)
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_padding_between_objects(self, cuda_alloc):
        # paper 8.2: the CUDA allocator pads between allocations
        assert cuda_alloc.size_class(24) >= 24 + HEADER_PAD

    def test_consecutive_allocations_scatter(self, cuda_alloc):
        # consecutive device-side allocations land in different arenas
        a = cuda_alloc.alloc_object("T", 24)
        b = cuda_alloc.alloc_object("T", 24)
        assert abs(b - a) > 1024

    def test_free_and_reuse(self, cuda_alloc):
        a = cuda_alloc.alloc_object("T", 24)
        cuda_alloc.free_object(a)
        # same size class reuses the freed slot
        ptrs = [cuda_alloc.alloc_object("T", 24) for _ in range(10)]
        assert a in ptrs

    def test_double_free_raises(self, cuda_alloc):
        a = cuda_alloc.alloc_object("T", 24)
        cuda_alloc.free_object(a)
        with pytest.raises(DoubleFree):
            cuda_alloc.free_object(a)

    def test_free_unknown_raises(self, cuda_alloc):
        with pytest.raises(DoubleFree):
            cuda_alloc.free_object(0x123456)

    def test_owner_type_tracking(self, cuda_alloc):
        a = cuda_alloc.alloc_object("A", 16)
        b = cuda_alloc.alloc_object("B", 16)
        assert cuda_alloc.owner_type(a) == "A"
        assert cuda_alloc.owner_type(b) == "B"
        cuda_alloc.free_object(a)
        assert cuda_alloc.owner_type(a) is None

    def test_live_count_and_stats(self, cuda_alloc):
        ptrs = [cuda_alloc.alloc_object("T", 32) for _ in range(5)]
        assert cuda_alloc.live_count() == 5
        assert cuda_alloc.stats.live_bytes == 160
        cuda_alloc.free_object(ptrs[0])
        assert cuda_alloc.live_count() == 4
        assert cuda_alloc.stats.frees == 1

    def test_rejects_nonpositive_size(self, cuda_alloc):
        with pytest.raises(ValueError):
            cuda_alloc.alloc_object("T", 0)

    def test_alloc_raw_disjoint_from_objects(self, cuda_alloc):
        obj = cuda_alloc.alloc_object("T", 64)
        raw = cuda_alloc.alloc_raw(256)
        assert raw >= obj + 64 or raw + 256 <= obj

    def test_modeled_alloc_cost_is_expensive(self, cuda_alloc):
        # the device-side new of section 8.2 pays a large per-call cost
        cuda_alloc.alloc_object("T", 16)
        assert cuda_alloc.stats.modeled_alloc_cycles >= 1000

    def test_internal_fragmentation_reported(self, cuda_alloc):
        from repro.memory.fragmentation import measure

        for _ in range(50):
            cuda_alloc.alloc_object("T", 20)
        report = measure(cuda_alloc)
        assert report.internal_fragmentation > 0

    @given(sizes=st.lists(st.integers(1, 200), min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_no_overlap_property(self, sizes):
        heap = Heap(capacity=1 << 20)
        alloc = CudaHeapAllocator(heap)
        spans = []
        for i, s in enumerate(sizes):
            p = alloc.alloc_object(f"T{i % 3}", s)
            spans.append((p, p + s))
        spans.sort()
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0


class TestBatchFree:
    """free_objects_many: the vectorised mirror of on_construct_many."""

    def test_cuda_batch_free_matches_serial(self, heap):
        a = CudaHeapAllocator(heap)
        b = CudaHeapAllocator(Heap(capacity=1 << 20))
        pa = [a.alloc_object(f"T{i % 3}", 16 + 8 * (i % 4)) for i in range(40)]
        pb = [b.alloc_object(f"T{i % 3}", 16 + 8 * (i % 4)) for i in range(40)]
        assert pa == pb
        victims = pa[::2]
        a.free_objects_many(np.array(victims, dtype=np.uint64))
        for p in pb[::2]:
            b.free_object(p)
        assert a.live_count() == b.live_count() == 20
        assert a.stats.frees == b.stats.frees == 20
        assert a.stats.live_bytes == b.stats.live_bytes
        # the free lists are in the same state: identical reuse order
        after_a = [a.alloc_object("T0", 16) for _ in range(10)]
        after_b = [b.alloc_object("T0", 16) for _ in range(10)]
        assert after_a == after_b

    def test_sharedoa_batch_free_matches_serial(self):
        from repro.memory.shared_oa import SharedOAAllocator

        a = SharedOAAllocator(Heap(capacity=1 << 20), initial_chunk_objects=16)
        b = SharedOAAllocator(Heap(capacity=1 << 20), initial_chunk_objects=16)
        pa = [a.alloc_object(f"T{i % 2}", 24) for i in range(50)]
        pb = [b.alloc_object(f"T{i % 2}", 24) for i in range(50)]
        assert pa == pb
        a.free_objects_many(np.array(pa[10:40], dtype=np.uint64))
        for p in pb[10:40]:
            b.free_object(p)
        assert a.live_count() == b.live_count() == 20
        after_a = [a.alloc_object("T0", 24) for _ in range(15)]
        after_b = [b.alloc_object("T0", 24) for _ in range(15)]
        assert after_a == after_b

    def test_batch_free_validates_before_mutating(self, cuda_alloc):
        ptrs = [cuda_alloc.alloc_object("T", 24) for _ in range(5)]
        bogus = np.array(ptrs + [0xDEAD0], dtype=np.uint64)
        with pytest.raises(DoubleFree):
            cuda_alloc.free_objects_many(bogus)
        # atomic: the valid half of the failed batch is still live
        assert cuda_alloc.live_count() == 5
        cuda_alloc.free_objects_many(np.array(ptrs, dtype=np.uint64))
        assert cuda_alloc.live_count() == 0

    def test_batch_free_rejects_duplicates(self, cuda_alloc):
        p = cuda_alloc.alloc_object("T", 24)
        q = cuda_alloc.alloc_object("T", 24)
        with pytest.raises(DoubleFree):
            cuda_alloc.free_objects_many(np.array([p, q, p], dtype=np.uint64))
        assert cuda_alloc.live_count() == 2

    def test_batch_free_accepts_tagged_pointers(self, heap):
        inner = CudaHeapAllocator(heap)
        alloc = TypePointerAllocator(inner, lambda t: 64)
        ptrs = [alloc.alloc_object("A", 32) for _ in range(8)]
        assert all(decode_tag(p) == 64 for p in ptrs)
        alloc.free_objects_many(np.array(ptrs, dtype=np.uint64))
        assert alloc.live_count() == 0
        assert alloc.stats.frees == 8

    def test_empty_batch_is_noop(self, cuda_alloc):
        cuda_alloc.alloc_object("T", 16)
        cuda_alloc.free_objects_many(np.array([], dtype=np.uint64))
        assert cuda_alloc.live_count() == 1
        assert cuda_alloc.stats.frees == 0

    @given(
        n=st.integers(10, 60),
        pick=st.randoms(use_true_random=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_sharedoa_batch_serial_equivalence_property(self, n, pick):
        from repro.memory.shared_oa import SharedOAAllocator

        a = SharedOAAllocator(Heap(capacity=1 << 20), initial_chunk_objects=8)
        b = SharedOAAllocator(Heap(capacity=1 << 20), initial_chunk_objects=8)
        pa = [a.alloc_object(f"T{i % 3}", 16) for i in range(n)]
        pb = [b.alloc_object(f"T{i % 3}", 16) for i in range(n)]
        idx = pick.sample(range(n), k=n // 2)
        a.free_objects_many(np.array([pa[i] for i in idx], dtype=np.uint64))
        for i in idx:
            b.free_object(pb[i])
        assert a.live_count() == b.live_count()
        assert [a.alloc_object("T0", 16) for _ in range(n // 2)] == \
            [b.alloc_object("T0", 16) for _ in range(n // 2)]


class TestTypePointerAllocator:
    def _make(self, heap, inner_cls=CudaHeapAllocator, tags=None):
        tags = tags or {"A": 64, "B": 128}
        inner = inner_cls(heap)
        return TypePointerAllocator(inner, lambda t: tags[t])

    def test_pointer_carries_tag(self, heap):
        alloc = self._make(heap)
        p = alloc.alloc_object("A", 32)
        assert decode_tag(p) == 64
        q = alloc.alloc_object("B", 32)
        assert decode_tag(q) == 128

    def test_free_accepts_tagged_pointer(self, heap):
        alloc = self._make(heap)
        p = alloc.alloc_object("A", 32)
        alloc.free_object(p)
        assert alloc.live_count() == 0

    def test_owner_type_via_tagged_pointer(self, heap):
        alloc = self._make(heap)
        p = alloc.alloc_object("A", 32)
        assert alloc.owner_type(p) == "A"

    def test_tag_overflow_raises(self, heap):
        alloc = self._make(heap, tags={"A": MAX_TAG + 1})
        with pytest.raises(TypeTagOverflow):
            alloc.alloc_object("A", 32)

    @pytest.mark.parametrize("inner_cls", [SharedOAAllocator,
                                           CudaHeapAllocator],
                             ids=["typepointer", "tp_on_cuda"])
    @pytest.mark.parametrize("call", [
        lambda a: a.alloc_object("B", 16),
        lambda a: a.alloc_many(["B", "A"], [16, 16]),
        lambda a: a.alloc_many(["A", "B"], [16, 16]),
    ], ids=["alloc_object", "alloc_many-BA", "alloc_many-AB"])
    def test_tag_overflow_leaves_nothing_live(self, heap, inner_cls, call):
        # a fresh wrapper places an object before its first tag check;
        # an overflowing tag must free it again
        alloc = self._make(heap, inner_cls, tags={"A": 64, "B": MAX_TAG + 1})
        with pytest.raises(TypeTagOverflow):
            call(alloc)
        assert alloc.live_count() == 0
        p = alloc.alloc_object("A", 16)
        assert alloc.live_objects() == [(strip_tag(p), "A", 16)]

    def test_canonical_address_is_inner_placement(self, heap):
        alloc = self._make(heap)
        p = alloc.alloc_object("A", 32)
        canonical = strip_tag(p)
        assert alloc.inner.owner_type(canonical) == "A"

    def test_stats_shared_with_inner(self, heap):
        alloc = self._make(heap)
        alloc.alloc_object("A", 32)
        assert alloc.stats is alloc.inner.stats
        assert alloc.stats.allocations == 1

    def test_wraps_sharedoa_and_exposes_ranges(self, heap):
        from repro.memory.shared_oa import SharedOAAllocator

        inner = SharedOAAllocator(heap, initial_chunk_objects=8)
        alloc = TypePointerAllocator(inner, lambda t: 64)
        alloc.alloc_object("A", 32)
        assert len(alloc.ranges()) == 1
        assert alloc.range_table_version == inner.range_table_version


# ----------------------------------------------------------------------
# alloc_many: the batched path equals the per-object sequence
# ----------------------------------------------------------------------
TAGS = {"T0": 64, "T1": 72, "T2": 80, "T3": 88, "BAD": MAX_TAG + 1}


def _tp(inner):
    return TypePointerAllocator(inner, TAGS.__getitem__)


BATCH_ALLOCATORS = {
    "cuda": CudaHeapAllocator,
    "sharedoa": lambda heap: SharedOAAllocator(heap, initial_chunk_objects=4),
    "sharedoa-nomerge": lambda heap: SharedOAAllocator(
        heap, initial_chunk_objects=4, merge_adjacent=False),
    "soa": SoaAllocator,
    "tp-sharedoa": lambda heap: _tp(
        SharedOAAllocator(heap, initial_chunk_objects=4)),
    "tp-cuda": lambda heap: _tp(CudaHeapAllocator(heap)),
}


def _allocator_state(alloc) -> dict:
    heap = alloc.heap
    inner = getattr(alloc, "inner", alloc)
    state = {
        "brk": heap.brk,
        "heap": heap.read_array(heap.null_guard, "u8",
                                heap.brk - heap.null_guard).tobytes(),
        "live": alloc.live_objects(),
        "stats": dataclasses.asdict(alloc.stats),
    }
    if isinstance(inner, SharedOAAllocator):
        state["ranges"] = inner.ranges()
        state["version"] = inner.range_table_version
        state["slots"] = [(r.base, r.used, list(r.free_slots))
                          for r in inner._all_regions]
    elif isinstance(inner, SoaAllocator):
        state["bitmaps"] = [(b.base, b.type_key, b.occupied)
                            for b in inner._blocks]
        state["avail"] = {t: [b.base for b in blocks]
                          for t, blocks in inner._avail.items()}
    else:
        state["free_lists"] = {c: list(f)
                               for c, f in inner._free_lists.items()}
        state["cursors"] = (inner._next_arena, list(inner._arena_cursor))
    return state


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"),
                  st.lists(st.integers(0, 3), min_size=1, max_size=40)),
        st.tuples(st.sampled_from(["free", "free_many", "replace"]),
                  st.randoms(use_true_random=False)),
    ),
    max_size=6,
)


def _take(op, rnd, live) -> list:
    """Remove and return one (``free``) or a random subset of the live
    pointers."""
    if op == "free":
        return [live.pop(rnd.randrange(len(live)))]
    rnd.shuffle(live)
    k = rnd.randint(1, len(live))
    victims, live[:] = live[:k], live[k:]
    return victims


def _free(op, rnd, live, batched, serial) -> None:
    """Free one or a random subset of the live pointers on both sides."""
    if not live:
        return
    victims = _take(op, rnd, live)
    batched(np.array(victims, dtype=np.uint64))
    for p in victims:
        serial(p)


def _replacements(rnd, live):
    """Random live pointers to replace, and a type index for each."""
    victims = _take("replace", rnd, live)
    return victims, [rnd.randrange(4) for _ in victims]


class TestAllocMany:
    @given(kind=st.sampled_from(sorted(BATCH_ALLOCATORS)),
           sizes=st.lists(st.integers(9, 80), min_size=4, max_size=4),
           first=st.lists(st.integers(0, 3), min_size=1, max_size=40),
           ops=_OPS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batches_equal_alloc_object_sequence(self, kind, sizes, first,
                                                 ops, data):
        batched = BATCH_ALLOCATORS[kind](Heap(capacity=1 << 16))
        serial = BATCH_ALLOCATORS[kind](Heap(capacity=1 << 16))
        live = []
        for op, arg in [("alloc", first)] + ops:
            if op == "alloc" or op == "replace" and live:
                # stale bytes everywhere: zeroing must clear exactly the
                # new objects' bytes, as the per-object path does
                for heap in (batched.heap, serial.heap):
                    heap.fill(heap.null_guard, heap.brk - heap.null_guard,
                              0xA5)
                old = None
                if op == "replace":
                    old, arg = _replacements(arg, live)
                got = batched.alloc_many(
                    [f"T{i}" for i in arg], [sizes[i] for i in arg],
                    replacing=None if old is None else np.array(
                        old, dtype=np.uint64))
                want = []
                for k, i in enumerate(arg):
                    if old is not None:
                        serial.free_object(old[k])
                    want.append(serial.alloc_object(f"T{i}", sizes[i]))
                assert got.dtype == np.uint64
                assert got.tolist() == want
                live.extend(want)
            elif op != "replace":
                _free(op, arg, live, batched.free_objects_many,
                      serial.free_object)
            assert _allocator_state(batched) == _allocator_state(serial)

        # a batch with one bad entry raises and touches nothing
        t = first[0]                  # a type allocated in every run
        bad = [(f"T{t}", 0)]                               # size <= 0
        if kind not in ("cuda", "tp-cuda"):
            bad.append((f"T{t}", sizes[t] + 8))            # stride conflict
        if kind == "soa":
            bad.append(("T9", 8))                          # below header
        if kind.startswith("tp"):
            bad.append(("BAD", 16))                        # tag overflow
        batch = [(f"T{i}", sizes[i]) for i in first]
        batch.insert(data.draw(st.integers(0, len(batch))),
                     data.draw(st.sampled_from(bad)))
        before = _allocator_state(batched)
        with pytest.raises((ValueError, AllocatorError, TypeTagOverflow)):
            batched.alloc_many([k for k, _ in batch], [s for _, s in batch])
        assert _allocator_state(batched) == before

        # so does a replacing batch with a dead, repeated or missing
        # pointer (address 8 lies in the null guard: never an object)
        if live:
            repl = live[:len(first)]
            how = data.draw(st.sampled_from(["dead", "repeat", "short"]))
            if how == "short":
                repl = repl[:-1]
            elif how == "repeat" and len(repl) > 1:
                repl = repl[:-1] + repl[:1]
            else:
                repl = repl[:-1] + [8]
            with pytest.raises((ValueError, DoubleFree)):
                batched.alloc_many(
                    [f"T{i}" for i in first[:len(live)]],
                    [sizes[i] for i in first[:len(live)]],
                    replacing=np.array(repl, dtype=np.uint64))
            assert _allocator_state(batched) == before

    @given(first=st.lists(st.integers(0, 3), min_size=1, max_size=40),
           ops=_OPS)
    @settings(max_examples=15, deadline=None)
    def test_typepointer_indexed_machine_keeps_scalar_order(self, first,
                                                            ops):
        """Through a Machine: ``new_objects`` over a type sequence equals
        the per-object ``alloc_object`` + ``on_construct`` sequence,
        including where the lazily reserved index-encoded vTable region
        lands between the first batch's objects."""
        types = [TypeDescriptor(f"Idx{i}",
                                [(f"f{j}", "u32") for j in range(i + 1)],
                                methods={"m": lambda ctx, objs: None})
                 for i in range(4)]
        machines = [Machine("typepointer_indexed", config=small_config())
                    for _ in range(2)]
        for m in machines:
            m.register(*types)
        batched, serial = machines
        live = []
        for op, arg in [("alloc", first)] + ops:
            if op == "alloc" or op == "replace" and live:
                old = None
                if op == "replace":
                    old, arg = _replacements(arg, live)
                got = batched.new_objects(
                    [types[i] for i in arg],
                    replacing=None if old is None else np.array(
                        old, dtype=np.uint64))
                want = []
                for k, i in enumerate(arg):
                    if old is not None:
                        serial.allocator.free_object(old[k])
                    size = serial.registry.layout(types[i]).size
                    p = serial.allocator.alloc_object(types[i], size)
                    serial.strategy.on_construct(strip_tag(p), types[i])
                    want.append(p)
                assert got.tolist() == want
                live.extend(want)
            elif op != "replace":
                _free(op, arg, live, batched.free_objects,
                      serial.allocator.free_object)
            assert (_allocator_state(batched.allocator)
                    == _allocator_state(serial.allocator))
