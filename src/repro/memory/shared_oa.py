"""SharedOA: the paper's type-based shared object allocator (section 4).

Two jobs:

1. dedicate contiguous chunks of memory to each object type, and
2. maintain the *virtual range table*: the (base, end) address range of
   every chunk, tagged with its type, which COAL's lookup walks.

Region sizing follows the paper exactly: the first region for a type
holds ``initial_chunk_objects`` objects (default 4K, swept 4K..4M in
Figure 10); when a region fills, the next one **doubles** the object
count; when a new region happens to land contiguously after the
previous region of the same type, the two are **merged** into one
larger region, keeping the range table small.

Chunks are sized in *objects*, not bytes ("larger objects are given
larger chunk sizes", section 5).  Objects are packed at their natural
stride, so -- like other small-object allocators -- SharedOA has no
internal fragmentation; Figure 10b's external fragmentation is the
reserved-but-unused tail of each region.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

import numpy as np

from ..errors import AllocatorError
from .address_space import align_up
from .allocators import Allocator, check_strides
from .heap import Heap

#: Object alignment inside a region.
OBJ_ALIGN = 8

#: Default number of objects in a type's first region (paper: "4K objects").
DEFAULT_INITIAL_CHUNK_OBJECTS = 4096


@dataclass
class Region:
    """One contiguous chunk dedicated to a single type."""

    type_key: Hashable
    base: int
    stride: int
    capacity: int           # object slots
    used: int = 0           # bump cursor (slots handed out, incl. freed)
    free_slots: List[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.capacity * self.stride

    @property
    def live(self) -> int:
        return self.used - len(self.free_slots)

    def full(self) -> bool:
        return self.used >= self.capacity and not self.free_slots

    def take_slot(self) -> int:
        if self.free_slots:
            slot = self.free_slots.pop()
        else:
            if self.used >= self.capacity:
                raise AllocatorError("take_slot on a full region")
            slot = self.used
            self.used += 1
        return self.base + slot * self.stride

    def release(self, addr: int) -> None:
        slot, rem = divmod(addr - self.base, self.stride)
        if rem or not 0 <= slot < self.used:
            raise AllocatorError(f"address {addr:#x} is not a slot of this region")
        self.free_slots.append(slot)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class SharedOAAllocator(Allocator):
    """Type-based shared object allocator (SharedOA, paper section 4)."""

    name = "SharedOA"
    #: Host-side bump allocation: no device heap lock, no sync.
    ALLOC_CYCLE_COST = 25

    def __init__(
        self,
        heap: Heap,
        initial_chunk_objects: int = DEFAULT_INITIAL_CHUNK_OBJECTS,
        growth_factor: int = 2,
        merge_adjacent: bool = True,
    ):
        super().__init__(heap)
        if initial_chunk_objects < 1:
            raise ValueError("initial_chunk_objects must be >= 1")
        if growth_factor < 1:
            raise ValueError("growth_factor must be >= 1")
        self.initial_chunk_objects = initial_chunk_objects
        self.growth_factor = growth_factor
        self.merge_adjacent = merge_adjacent
        self._regions_by_type: Dict[Hashable, List[Region]] = {}
        self._all_regions: List[Region] = []
        #: bumped every time the set of ranges changes, so COAL knows to
        #: rebuild its segment tree before the next kernel launch.
        self.range_table_version = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _stride_for(self, size: int) -> int:
        return align_up(size, OBJ_ALIGN)

    def _place_object(self, type_key: Hashable, size: int) -> int:
        stride = self._stride_for(size)
        regions = self._regions_by_type.setdefault(type_key, [])
        for region in regions:
            if region.stride != stride:
                raise AllocatorError(
                    f"type {type_key!r} allocated with inconsistent sizes "
                    f"({region.stride} vs {stride})"
                )
            if not region.full():
                return region.take_slot()
        region = self._grow_type(type_key, stride, regions)
        return region.take_slot()

    def _check_batch(self, type_keys, sizes) -> None:
        super()._check_batch(type_keys, sizes)
        regions = self._regions_by_type
        check_strides(type_keys, sizes, self._stride_for,
                      lambda t: regions[t][0].stride if regions.get(t)
                      else None)

    def _grow_type(
        self, type_key: Hashable, stride: int, regions: List[Region]
    ) -> Region:
        if regions:
            capacity = regions[-1].capacity * self.growth_factor
        else:
            capacity = self.initial_chunk_objects
        base = self.heap.sbrk(capacity * stride, OBJ_ALIGN)
        self.stats.reserved_bytes += capacity * stride

        last = regions[-1] if regions else None
        if (
            self.merge_adjacent
            and last is not None
            and last.end == base
        ):
            # adjacent same-type regions merge into one larger region
            last.capacity += capacity
            self.range_table_version += 1
            return last

        region = Region(type_key=type_key, base=base, stride=stride, capacity=capacity)
        regions.append(region)
        self._all_regions.append(region)
        self.range_table_version += 1
        return region

    def _unplace_object(self, addr: int, type_key: Hashable, size: int) -> None:
        for region in self._regions_by_type.get(type_key, ()):
            if region.contains(addr):
                region.release(addr)
                return
        raise AllocatorError(f"freed address {addr:#x} not in any region")

    def _unplace_many(self, addrs: List[int], type_keys: List[Hashable],
                      sizes: List[int]) -> None:
        """Vectorised batch release: slot arithmetic per region.

        Groups the batch by type, then resolves each group against the
        type's regions with array containment/divmod instead of a
        per-pointer scan.  Input order is preserved within each region,
        so the resulting ``free_slots`` state matches a serial free
        loop exactly.
        """
        by_type: Dict[Hashable, List[int]] = {}
        for a, t in zip(addrs, type_keys):
            by_type.setdefault(t, []).append(a)
        for type_key, alist in by_type.items():
            remaining = np.asarray(alist, dtype=np.int64)
            for region in self._regions_by_type.get(type_key, ()):
                in_region = (
                    (remaining >= region.base) & (remaining < region.end)
                )
                if not in_region.any():
                    continue
                offsets = remaining[in_region] - region.base
                slots, rems = np.divmod(offsets, region.stride)
                if rems.any() or (slots >= region.used).any():
                    bad = int(remaining[in_region][0])
                    raise AllocatorError(
                        f"address {bad:#x} is not a live slot of its region"
                    )
                region.free_slots.extend(int(s) for s in slots.tolist())
                remaining = remaining[~in_region]
                if remaining.size == 0:
                    break
            if remaining.size:
                raise AllocatorError(
                    f"freed address {int(remaining[0]):#x} not in any region"
                )

    # ------------------------------------------------------------------
    # virtual range table
    # ------------------------------------------------------------------
    def ranges(self) -> List[Tuple[int, int, Hashable]]:
        """(base, end, type_key) for every region, sorted by base.

        This is the data the virtual range table / COAL segment tree is
        built from (Figure 3).
        """
        return sorted(
            (r.base, r.end, r.type_key) for r in self._all_regions
        )

    def region_count(self) -> int:
        return len(self._all_regions)

    def regions_of(self, type_key: Hashable) -> List[Region]:
        return list(self._regions_by_type.get(type_key, ()))

    def type_of_address(self, addr: int):
        """Reference linear-scan lookup (ground truth for the segment tree)."""
        for region in self._all_regions:
            if region.contains(addr):
                return region.type_key
        return None
