"""Allocator protocol shared by all object allocators in the model.

Three allocators implement this protocol:

* :class:`~repro.memory.cuda_allocator.CudaHeapAllocator` -- models the
  default CUDA device-side ``new``: padded allocations, type-interleaved
  and scattered placement (paper section 8.2).
* :class:`~repro.memory.shared_oa.SharedOAAllocator` -- the paper's
  type-based Shared Object Allocator (section 4).
* :class:`~repro.memory.typepointer_alloc.TypePointerAllocator` -- a
  wrapper that additionally encodes the type's vTable offset into the
  upper 15 pointer bits (section 6.1).  It wraps either of the above,
  which is how the paper evaluates TypePointer both on SharedOA
  (Figure 6) and on the CUDA allocator (Figure 11).

An allocation's "type key" is any hashable object; the runtime layer
passes :class:`~repro.runtime.typesystem.TypeDescriptor` instances.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import AllocatorError, DoubleFree
from .heap import Heap


@dataclass
class AllocationStats:
    """Counters every allocator maintains."""

    allocations: int = 0
    frees: int = 0
    live_bytes: int = 0
    reserved_bytes: int = 0
    #: Modeled cycles spent performing allocations (for the init-phase
    #: comparison in section 8.2: device-side CUDA allocation pays a
    #: serialisation/synchronisation penalty per call; host-side
    #: SharedOA is a near-free bump).
    modeled_alloc_cycles: int = 0

    @property
    def live_allocations(self) -> int:
        return self.allocations - self.frees


def check_strides(type_keys: List[Hashable], sizes: List[int],
                  stride_for: Callable[[int], int],
                  known: Callable[[Hashable], Optional[int]]) -> None:
    """Raise :class:`AllocatorError` if a batch gives a type two strides,
    or one other than the stride ``known(type_key)`` already fixed --
    the check SharedOA's and SoA's ``_place_object`` make per object."""
    strides: Dict[Hashable, int] = {}
    for t, s in dict.fromkeys(zip(type_keys, sizes)):
        stride = stride_for(s)
        if t not in strides:
            fixed = known(t)
            strides[t] = stride if fixed is None else fixed
        if strides[t] != stride:
            raise AllocatorError(
                f"type {t!r} allocated with inconsistent sizes "
                f"({strides[t]} vs {stride})"
            )


class Allocator(abc.ABC):
    """Object allocator over the simulated heap."""

    #: short name used in reports ("CUDA", "SharedOA", ...)
    name: str = "abstract"
    #: modeled cycles charged per allocation call (init-phase model)
    ALLOC_CYCLE_COST = 0

    def __init__(self, heap: Heap):
        self.heap = heap
        self.stats = AllocationStats()
        # ground truth: canonical object base address -> (type_key, size)
        self._live: Dict[int, Tuple[Hashable, int]] = {}

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _place_object(self, type_key: Hashable, size: int) -> int:
        """Pick an address for a new ``size``-byte object of ``type_key``."""

    @abc.abstractmethod
    def _unplace_object(self, addr: int, type_key: Hashable, size: int) -> None:
        """Return the object's slot to the allocator."""

    # ------------------------------------------------------------------
    # shared implementation
    # ------------------------------------------------------------------
    def alloc_object(self, type_key: Hashable, size: int) -> int:
        """Allocate one object; returns its (possibly tagged) pointer."""
        if size <= 0:
            raise ValueError(f"object size must be positive, got {size}")
        addr = self._place_object(type_key, size)
        self._live[addr] = (type_key, size)
        self.stats.allocations += 1
        self.stats.live_bytes += size
        self.stats.modeled_alloc_cycles += self.ALLOC_CYCLE_COST
        obs.count("memory.alloc_objects")
        self._zero_object(addr, type_key, size)
        return addr

    def _zero_object(self, addr: int, type_key: Hashable, size: int) -> None:
        """Zero a fresh object's storage.

        The default assumes the object's bytes are contiguous at
        ``addr``; allocators with a non-contiguous (e.g. field-major)
        layout override this to zero exactly the cells the object owns.
        """
        self.heap.fill(addr, size, 0)

    def alloc_many(self, type_keys: Sequence[Hashable],
                   sizes: Sequence[int],
                   replacing: Optional[np.ndarray] = None) -> np.ndarray:
        """Allocate one object per ``(type_keys[i], sizes[i])``, in order.

        The batched mirror of :meth:`alloc_object`: it returns exactly
        the pointers, heap bytes and allocator state that the same
        sequence of ``alloc_object`` calls gives.  Placement stays the
        per-object ``_place_object`` walk (it fixes every address), but
        the whole batch is validated before anything is placed -- a
        failing batch leaves the allocator and heap untouched -- the
        statistics move once, and zeroing goes by runs.

        ``replacing`` holds one live pointer per entry, each freed just
        before its entry is placed: the sequence of ``free_object`` /
        ``alloc_object`` pairs, whose order fixes every address once
        freed slots are reused.
        """
        type_keys = list(type_keys)
        sizes = [int(s) for s in sizes]
        self._check_batch(type_keys, sizes)
        old = (None if replacing is None
               else self._check_live(replacing, len(type_keys)))
        n = len(type_keys)
        if not n:
            return np.empty(0, dtype=np.uint64)
        place = self._place_object
        if old is None:
            addrs = [place(t, s) for t, s in zip(type_keys, sizes)]
        else:
            addrs = []
            freed = 0
            for a, t, s in zip(old, type_keys, sizes):
                old_type, old_size = self._live.pop(a)
                self._unplace_object(a, old_type, old_size)
                freed += old_size
                addrs.append(place(t, s))
            self.stats.frees += n
            self.stats.live_bytes -= freed
            obs.count("memory.free_objects", n)
        self._live.update(zip(addrs, zip(type_keys, sizes)))
        self.stats.allocations += n
        self.stats.live_bytes += sum(sizes)
        self.stats.modeled_alloc_cycles += n * self.ALLOC_CYCLE_COST
        obs.count("memory.alloc_objects", n)
        self._zero_many(addrs, type_keys, sizes)
        return np.array(addrs, dtype=np.uint64)

    def _check_batch(self, type_keys: List[Hashable],
                     sizes: List[int]) -> None:
        """Raise for any entry ``_place_object`` would reject."""
        if len(sizes) != len(type_keys):
            raise ValueError(f"{len(type_keys)} type keys but "
                             f"{len(sizes)} sizes")
        if sizes and min(sizes) <= 0:
            raise ValueError(
                f"object size must be positive, got {min(sizes)}")

    def _zero_many(self, addrs: List[int], type_keys: List[Hashable],
                   sizes: List[int]) -> None:
        """Batched :meth:`_zero_object` (contiguous objects by default)."""
        self.heap.zero_ranges(addrs, sizes)

    def free_object(self, ptr: int) -> None:
        """Free a pointer previously returned by :meth:`alloc_object`."""
        addr = self._canonical(ptr)
        if addr not in self._live:
            raise DoubleFree(f"free of unknown or already-freed pointer {addr:#x}")
        type_key, size = self._live.pop(addr)
        self._unplace_object(addr, type_key, size)
        self.stats.frees += 1
        self.stats.live_bytes -= size
        obs.count("memory.free_objects")

    def free_objects_many(self, ptrs: np.ndarray) -> None:
        """Free a batch of pointers (vectorised mirror of the alloc side).

        The whole batch is validated up front -- an unknown, already-
        freed or duplicated pointer raises :class:`DoubleFree` before
        any slot is released, so a failed batch leaves the allocator
        untouched.  Slot release goes through :meth:`_unplace_many`,
        which the concrete allocators vectorise.
        """
        addr_list = self._check_live(ptrs)
        live = self._live
        type_keys: List[Hashable] = []
        sizes: List[int] = []
        freed_bytes = 0
        for a in addr_list:
            type_key, size = live.pop(a)
            type_keys.append(type_key)
            sizes.append(size)
            freed_bytes += size
        self._unplace_many(addr_list, type_keys, sizes)
        self.stats.frees += len(addr_list)
        self.stats.live_bytes -= freed_bytes
        obs.count("memory.free_objects", len(addr_list))

    def _check_live(self, ptrs, count: Optional[int] = None) -> List[int]:
        """Canonical addresses of a batch of pointers to free.

        Raises :class:`DoubleFree` for an unknown, already-freed or
        repeated pointer, and ``ValueError`` when ``count`` is given and
        the batch has another length.
        """
        addrs = self._canonical_array(np.asarray(ptrs, dtype=np.uint64))
        addr_list = addrs.tolist()
        if count is not None and len(addr_list) != count:
            raise ValueError(f"{count} objects but {len(addr_list)} "
                             f"pointers to replace")
        live = self._live
        seen = set()
        for a in addr_list:
            if a not in live or a in seen:
                raise DoubleFree(
                    f"free of unknown, duplicated or already-freed "
                    f"pointer {a:#x}"
                )
            seen.add(a)
        return addr_list

    def _unplace_many(self, addrs: List[int], type_keys: List[Hashable],
                      sizes: List[int]) -> None:
        """Return a batch of slots; default is the per-object loop."""
        for a, t, s in zip(addrs, type_keys, sizes):
            self._unplace_object(a, t, s)

    def alloc_raw(self, size: int, align: int = 16) -> int:
        """Allocate an untyped device buffer (workload arrays, tables).

        Raw buffers are not object storage, so they do not count toward
        ``reserved_bytes`` (which feeds the Figure 10b fragmentation
        metric over *object regions*).
        """
        return self.heap.sbrk(size, align)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _canonical(self, ptr: int) -> int:
        """Hook for tag-encoding wrappers; identity by default."""
        return ptr

    def _canonical_array(self, ptrs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_canonical`; identity by default."""
        return ptrs

    # ------------------------------------------------------------------
    # field addressing
    # ------------------------------------------------------------------
    def field_addr(self, addr: int, layout, field: str) -> int:
        """Address of one object's field, given its canonical ``addr``.

        Every member access -- device-side (charged) and host-side --
        routes through this hook, so an allocator that places fields
        away from the object base (field-major SoA blocks) changes the
        whole address stream in one place.  The default is the
        array-of-structures rule: base plus the layout offset.
        """
        return addr + layout.offset(field)

    def field_addrs(self, addrs: np.ndarray, layout, field: str) -> np.ndarray:
        """Vectorised :meth:`field_addr` over same-typed object pointers.

        ``addrs`` may still carry TypePointer tag bits (device-side
        accesses pass through the MMU, which strips them); the default
        AoS rule is tag-transparent because the offset only touches the
        low bits.
        """
        return addrs + np.uint64(layout.offset(field))

    def owner_type(self, ptr: int) -> Optional[Hashable]:
        """Ground-truth type of a live object, or None (validation only)."""
        entry = self._live.get(self._canonical(ptr))
        return entry[0] if entry else None

    def live_objects(self) -> List[Tuple[int, Hashable, int]]:
        """(addr, type_key, size) for every live object, address order."""
        return sorted((a, t, s) for a, (t, s) in self._live.items())

    def live_count(self) -> int:
        return len(self._live)

    def external_fragmentation(self) -> float:
        """Fraction of reserved object space not occupied by live objects.

        Matches the metric plotted in Figure 10b.  Allocators that do not
        reserve space ahead of demand report 0.
        """
        if self.stats.reserved_bytes == 0:
            return 0.0
        frag = 1.0 - self.stats.live_bytes / self.stats.reserved_bytes
        return max(0.0, frag)
