"""The GPU virtual address space and TypePointer bit manipulation.

GPU unified memory uses a 49-bit virtual address space inside 64-bit
pointers (paper section 3/6).  The upper 15 bits are architecturally
unused; TypePointer stores the object's vTable byte-offset there
(Figure 5a):

    63              49 48                               0
    +----------------+----------------------------------+
    |  15-bit type   |        49-bit GPU address        |
    +----------------+----------------------------------+

All helpers here are pure functions on Python ints or numpy uint64
arrays so both the allocator (scalar) and the SIMT executor (warp-wide)
can share them.
"""
from __future__ import annotations

import numpy as np

#: Number of architecturally meaningful virtual-address bits.
VA_BITS = 49

#: Number of unused upper bits available to TypePointer.
TAG_BITS = 64 - VA_BITS  # 15

#: Mask selecting the 49 address bits of a pointer.
ADDR_MASK = (1 << VA_BITS) - 1

#: Mask selecting the 15 tag bits (after shifting right by VA_BITS).
TAG_MASK = (1 << TAG_BITS) - 1

#: Maximum tag value: 32K - 1.  15 bits encode 32KiB of vTable space,
#: "enough for 4k virtual function pointers" (paper section 6.1).
MAX_TAG = TAG_MASK

#: Size of a simulated page.  Used by the MMU's demand-mapped page table.
PAGE_SIZE = 1 << 16  # 64 KiB, typical for GPU unified memory

# numpy scalar constants (uint64 arithmetic must not silently upcast)
_U64_ADDR_MASK = np.uint64(ADDR_MASK)
_U64_VA_BITS = np.uint64(VA_BITS)
_U64_TAG_MASK = np.uint64(TAG_MASK)


def is_canonical(ptr: int) -> bool:
    """True if the pointer has no tag bits set (a plain GPU address)."""
    return 0 <= ptr <= ADDR_MASK


def encode_tag(addr: int, tag: int) -> int:
    """Embed ``tag`` in the upper 15 bits of ``addr`` (Figure 5a).

    ``addr`` must be canonical and ``tag`` must fit in 15 bits.
    """
    if not is_canonical(addr):
        raise ValueError(f"address {addr:#x} already has tag bits set")
    if not 0 <= tag <= MAX_TAG:
        raise ValueError(f"tag {tag} does not fit in {TAG_BITS} bits")
    return (tag << VA_BITS) | addr


def decode_tag(ptr: int) -> int:
    """Extract the 15-bit tag from a pointer (SHR in Figure 5b)."""
    return (ptr >> VA_BITS) & TAG_MASK


def strip_tag(ptr: int) -> int:
    """Return the canonical 49-bit address, discarding any tag."""
    return ptr & ADDR_MASK


def encode_tag_array(addrs: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Vectorised :func:`encode_tag` (canonical ``addrs``, 15-bit ``tags``)."""
    return np.bitwise_or(addrs.astype(np.uint64, copy=False),
                         np.left_shift(tags.astype(np.uint64, copy=False),
                                       _U64_VA_BITS))


def strip_tag_array(ptrs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`strip_tag` for a warp's worth of pointers."""
    return np.bitwise_and(ptrs.astype(np.uint64, copy=False), _U64_ADDR_MASK)


def decode_tag_array(ptrs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`decode_tag` (the SHR of Figure 5b)."""
    shifted = np.right_shift(ptrs.astype(np.uint64, copy=False), _U64_VA_BITS)
    return np.bitwise_and(shifted, _U64_TAG_MASK)


def has_tag_array(ptrs: np.ndarray) -> np.ndarray:
    """Boolean mask of which pointers carry a non-zero tag."""
    return decode_tag_array(ptrs) != 0


def page_of(addr: int) -> int:
    """Page number containing ``addr``."""
    return addr // PAGE_SIZE


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a positive power of two, got {alignment}")
    return (value + alignment - 1) & ~(alignment - 1)
