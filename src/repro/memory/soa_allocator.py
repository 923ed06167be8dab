"""SoaAllocator: DynaSOAr-style structure-of-arrays object allocator.

The strongest related work to the paper's SharedOA is the SoaAlloc /
DynaSOAr allocator family (Springer & Masuhara, arXiv:1809.07444 and
arXiv:1810.11765): objects of one type live in fixed-capacity *blocks*
whose storage is laid out field-major, so when a warp touches the same
field of neighbouring objects the accesses are unit-stride and
coalesce -- while allocate/free stay cheap via a per-block occupancy
bitmap (one 64-bit word per block, like DynaSOAr's block bitmaps).

Layout of one block (capacity ``C`` objects, AoS object size ``S``,
header size ``H``), reserved as one ``C * S``-byte heap region at
``B``::

    [B,            B + C*H)      header column: object i's H header
                                  bytes live contiguously at B + i*H
    [B + C*o_f,    B + C*o_f + C*s_f)   one column per field f with
                                  AoS offset o_f and size s_f; object
                                  i's element is at B + C*o_f + i*s_f

The *object pointer* of slot ``i`` is ``B + i*H``: the technique's
16-byte shared-object header (GPU vTable* at +0, CPU vTable* at +8) is
contiguous at that address, so the embedded-vTable dispatch lowering
is reused unchanged -- only member accesses transpose, which is what
:meth:`field_addrs` implements (and what produces the field-major
address streams the trace pipeline replays).

Because AoS field intervals are disjoint within ``[0, S)`` and every
field is naturally aligned, the scaled columns are disjoint within the
reserved region and keep natural alignment; padding bytes simply
become unused gaps between columns.
"""
from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import AllocatorError, InvalidAddress
from .address_space import align_up
from .allocators import Allocator, check_strides
from .heap import SCALAR_TYPES, Heap

#: Objects per block: one 64-bit occupancy bitmap word (DynaSOAr).
BLOCK_CAPACITY = 64

#: All-slots-occupied bitmap value.
_FULL = (1 << BLOCK_CAPACITY) - 1

#: Alignment of block bases (covers every scalar field dtype).
BLOCK_ALIGN = 64


class SoaBlock:
    """One fixed-capacity, single-type, field-major block."""

    __slots__ = ("type_key", "base", "stride", "occupied")

    def __init__(self, type_key: Hashable, base: int, stride: int):
        self.type_key = type_key
        self.base = base
        self.stride = stride          # AoS object size (bytes of state)
        self.occupied = 0             # 64-slot bitmap

    @property
    def live(self) -> int:
        return bin(self.occupied).count("1")

    def full(self) -> bool:
        return self.occupied == _FULL

    def take_slot(self) -> int:
        free = ~self.occupied & _FULL
        if not free:
            raise AllocatorError("take_slot on a full SoA block")
        slot = (free & -free).bit_length() - 1   # lowest free slot
        self.occupied |= 1 << slot
        return slot

    def release_slot(self, slot: int) -> None:
        bit = 1 << slot
        if not self.occupied & bit:
            raise AllocatorError(f"slot {slot} of block {self.base:#x} "
                                 f"is not occupied")
        self.occupied &= ~bit


class SoaAllocator(Allocator):
    """Structure-of-arrays allocator (SoaAlloc / DynaSOAr family)."""

    name = "SoA"
    #: Host-side bitmap allocation: as cheap as SharedOA's bump.
    ALLOC_CYCLE_COST = 25

    def __init__(
        self,
        heap: Heap,
        header_size: int = 16,
        layout_for: Optional[Callable] = None,
    ):
        super().__init__(heap)
        if header_size < 8 or header_size % 8:
            raise ValueError("header_size must be a positive multiple of 8")
        self.header_size = header_size
        #: resolves a type key to its ObjectLayout (the machine passes
        #: ``registry.layout``); used to derive per-field column plans.
        self._layout_for = layout_for
        self._blocks_by_type: Dict[Hashable, List[SoaBlock]] = {}
        #: per-type stack of blocks with at least one free slot
        self._avail: Dict[Hashable, List[SoaBlock]] = {}
        #: all blocks in base order (sbrk is monotonic, so append-only)
        self._blocks: List[SoaBlock] = []
        self._bases_list: List[int] = []
        self._bases_np: Optional[np.ndarray] = None
        #: type_key -> tuple of (aos_offset, cell_size) columns to zero
        self._plans: Dict[Hashable, Tuple[Tuple[int, int], ...]] = {}

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _stride_for(self, size: int) -> int:
        return align_up(size, 8)

    def _place_object(self, type_key: Hashable, size: int) -> int:
        stride = self._stride_for(size)
        if stride < self.header_size:
            raise AllocatorError(
                f"SoA object of {size} bytes is smaller than its "
                f"{self.header_size}-byte header"
            )
        blocks = self._blocks_by_type.setdefault(type_key, [])
        if blocks and blocks[0].stride != stride:
            raise AllocatorError(
                f"type {type_key!r} allocated with inconsistent sizes "
                f"({blocks[0].stride} vs {stride})"
            )
        avail = self._avail.setdefault(type_key, [])
        if not avail:
            avail.append(self._grow_type(type_key, stride, blocks))
        block = avail[-1]
        slot = block.take_slot()
        if block.full():
            avail.pop()
        return block.base + slot * self.header_size

    def _check_batch(self, type_keys, sizes) -> None:
        super()._check_batch(type_keys, sizes)
        small = min(sizes, default=self.header_size)
        if self._stride_for(small) < self.header_size:
            raise AllocatorError(
                f"SoA object of {small} bytes is smaller than its "
                f"{self.header_size}-byte header"
            )
        blocks = self._blocks_by_type
        check_strides(type_keys, sizes, self._stride_for,
                      lambda t: blocks[t][0].stride if blocks.get(t)
                      else None)

    def _grow_type(self, type_key: Hashable, stride: int,
                   blocks: List[SoaBlock]) -> SoaBlock:
        nbytes = BLOCK_CAPACITY * stride
        base = self.heap.sbrk(nbytes, BLOCK_ALIGN)
        self.stats.reserved_bytes += nbytes
        block = SoaBlock(type_key, base, stride)
        blocks.append(block)
        self._blocks.append(block)
        self._bases_list.append(base)
        self._bases_np = None
        return block

    def _unplace_object(self, addr: int, type_key: Hashable, size: int) -> None:
        block, slot = self._locate(addr)
        if block.type_key != type_key:
            raise AllocatorError(
                f"freed address {addr:#x} belongs to a "
                f"{block.type_key!r} block, not {type_key!r}"
            )
        was_full = block.full()
        block.release_slot(slot)
        if was_full:
            self._avail.setdefault(type_key, []).append(block)

    def _unplace_many(self, addrs: List[int], type_keys: List[Hashable],
                      sizes: List[int]) -> None:
        """Vectorised batch release: one searchsorted, per-block bit ops."""
        a = np.asarray(addrs, dtype=np.uint64)
        bases = self._bases()
        idx = np.searchsorted(bases, a, side="right") - 1
        if (idx < 0).any():
            bad = int(a[idx < 0][0])
            raise AllocatorError(f"freed address {bad:#x} not in any block")
        rel = a - bases[idx]
        slots, rems = np.divmod(rel, np.uint64(self.header_size))
        if rems.any() or (slots >= BLOCK_CAPACITY).any():
            bad = int(a[(rems != 0) | (slots >= BLOCK_CAPACITY)][0])
            raise AllocatorError(
                f"address {bad:#x} is not an object slot of its block"
            )
        for block_i in np.unique(idx):
            block = self._blocks[int(block_i)]
            sel = idx == block_i
            mask = 0
            for s in slots[sel].tolist():
                mask |= 1 << int(s)
            if block.occupied & mask != mask:
                raise AllocatorError(
                    f"batch free hit unoccupied slots of block "
                    f"{block.base:#x}"
                )
            was_full = block.full()
            block.occupied &= ~mask
            if was_full:
                self._avail.setdefault(block.type_key, []).append(block)

    # ------------------------------------------------------------------
    # the field-major transposition
    # ------------------------------------------------------------------
    def _bases(self) -> np.ndarray:
        if self._bases_np is None:
            self._bases_np = np.asarray(self._bases_list, dtype=np.uint64)
        return self._bases_np

    def _locate(self, addr: int) -> Tuple[SoaBlock, int]:
        bases = self._bases()
        i = int(np.searchsorted(bases, np.uint64(addr), side="right")) - 1
        if i < 0:
            raise InvalidAddress(f"address {addr:#x} precedes every SoA block")
        block = self._blocks[i]
        slot, rem = divmod(addr - block.base, self.header_size)
        if rem or slot >= BLOCK_CAPACITY:
            raise InvalidAddress(
                f"address {addr:#x} is not an object slot of block "
                f"{block.base:#x}"
            )
        return block, slot

    def field_addr(self, addr: int, layout, field: str) -> int:
        block, slot = self._locate(addr)
        off = layout.offset(field)
        fsize = SCALAR_TYPES[layout.dtype(field)][1]
        return block.base + BLOCK_CAPACITY * off + slot * fsize

    def field_addrs(self, addrs: np.ndarray, layout, field: str) -> np.ndarray:
        a = np.asarray(addrs, dtype=np.uint64)
        if a.size == 0:
            return a
        bases = self._bases()
        idx = np.searchsorted(bases, a, side="right") - 1
        if (idx < 0).any():
            bad = int(a[idx < 0][0])
            raise InvalidAddress(
                f"address {bad:#x} precedes every SoA block"
            )
        block_bases = bases[idx]
        slots, rems = np.divmod(a - block_bases, np.uint64(self.header_size))
        if rems.any() or (slots >= BLOCK_CAPACITY).any():
            bad = int(a[(rems != 0) | (slots >= BLOCK_CAPACITY)][0])
            raise InvalidAddress(
                f"address {bad:#x} is not an object slot of its block"
            )
        off = layout.offset(field)
        fsize = SCALAR_TYPES[layout.dtype(field)][1]
        return (block_bases + np.uint64(BLOCK_CAPACITY * off)
                + slots * np.uint64(fsize))

    # ------------------------------------------------------------------
    # zeroing (the AoS fill would stomp neighbouring slots' columns)
    # ------------------------------------------------------------------
    def _plan(self, type_key: Hashable,
              stride: int) -> Tuple[Tuple[int, int], ...]:
        plan = self._plans.get(type_key)
        if plan is not None:
            return plan
        cells: List[Tuple[int, int]] = [(0, self.header_size)]
        layout = None
        if self._layout_for is not None:
            try:
                layout = self._layout_for(type_key)
            except Exception:
                layout = None  # raw (non-TypeDescriptor) type key
        if layout is not None:
            cells.extend(
                (off, SCALAR_TYPES[dt][1])
                for _, dt, off in layout.field_offsets
            )
        elif stride > self.header_size:
            # unknown layout: treat everything past the header as one
            # payload column (consistent as long as the caller never
            # asks for per-field addresses, which requires a layout)
            cells.append((self.header_size, stride - self.header_size))
        plan = tuple(cells)
        self._plans[type_key] = plan
        return plan

    def _zero_object(self, addr: int, type_key: Hashable, size: int) -> None:
        block, slot = self._locate(addr)
        for off, cell in self._plan(type_key, block.stride):
            self.heap.fill(block.base + BLOCK_CAPACITY * off + slot * cell,
                           cell, 0)

    def _zero_many(self, addrs, type_keys, sizes) -> None:
        """Zero each object's header and field cells, column by column:
        consecutive slots of one block make one run per column."""
        a = np.asarray(addrs, dtype=np.int64)
        bases = self._bases().astype(np.int64)
        base = bases[np.searchsorted(bases, a, side="right") - 1]
        slot = (a - base) // self.header_size
        codes: Dict[Hashable, int] = {}
        kind = np.fromiter((codes.setdefault(t, len(codes))
                            for t in type_keys), dtype=np.int64, count=a.size)
        starts, lengths = [], []
        for type_key, code in codes.items():
            sel = kind == code
            stride = self._blocks_by_type[type_key][0].stride
            for off, cell in self._plan(type_key, stride):
                starts.append(base[sel] + BLOCK_CAPACITY * off
                              + slot[sel] * cell)
                lengths.append(np.full(starts[-1].size, cell, np.int64))
        self.heap.zero_ranges(np.concatenate(starts), np.concatenate(lengths))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def block_count(self) -> int:
        return len(self._blocks)

    def blocks_of(self, type_key: Hashable) -> List[SoaBlock]:
        return list(self._blocks_by_type.get(type_key, ()))
