"""TypePointer allocator wrapper (paper section 6.1).

Wraps any :class:`~repro.memory.allocators.Allocator` and encodes the
object's type in the 15 unused pointer bits of every pointer returned
from allocation.  The tag is the byte offset of the type's vTable
inside the contiguous vTable arena, so the dispatch sequence of
Figure 5b (SHR / ADD / LDG / CALL) can recover the vTable with zero
memory accesses.

Because it only post-processes the returned pointer, TypePointer is
**allocator-independent**: the paper evaluates it over SharedOA
(Figure 6) and over the default CUDA allocator (Figure 11); this
wrapper accepts either.
"""
from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TypeTagOverflow
from .address_space import (
    MAX_TAG,
    decode_tag,
    encode_tag,
    encode_tag_array,
    strip_tag,
    strip_tag_array,
)
from .allocators import Allocator


class TypePointerAllocator(Allocator):
    """Tag-encoding wrapper over an inner allocator."""

    ALLOC_CYCLE_COST = 0  # charged by the inner allocator

    def __init__(self, inner: Allocator, tag_for_type: Callable[[Hashable], int]):
        # Deliberately NOT calling super().__init__: this wrapper owns no
        # placement state; it delegates everything to ``inner``.
        self.inner = inner
        self.heap = inner.heap
        self.stats = inner.stats
        self._tag_for_type = tag_for_type
        #: whether any tag has been asked for yet (see alloc_many)
        self._tagged = False
        self.name = f"TypePointer({inner.name})"

    # ------------------------------------------------------------------
    def _tag(self, type_key: Hashable) -> int:
        tag = self._tag_for_type(type_key)
        self._tagged = True
        if not 0 <= tag <= MAX_TAG:
            raise TypeTagOverflow(
                f"vTable offset {tag} for {type_key!r} exceeds the 15-bit "
                f"tag space ({MAX_TAG}); see paper section 6.1 for the "
                f"index-based fallback"
            )
        return tag

    def alloc_object(self, type_key: Hashable, size: int) -> int:
        addr = self.inner.alloc_object(type_key, size)
        try:
            tag = self._tag(type_key)
        except TypeTagOverflow:
            self.inner.free_object(addr)
            raise
        return encode_tag(addr, tag)

    def alloc_many(self, type_keys: Sequence[Hashable],
                   sizes: Sequence[int],
                   replacing: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched :meth:`alloc_object`: the inner batch, tagged.

        Sizes and the (possibly tagged) ``replacing`` pointers are
        checked first, then one tag per distinct type, then the inner
        allocator places the batch.  Asking for a tag may reserve
        memory -- the index-encoded vTable region is sbrk'd on the first
        request -- and ``alloc_object`` asks only once its object is
        placed.  So before a wrapper's first tag, the batch's first
        object goes through ``alloc_object`` (after freeing the object
        it replaces), which keeps every later region where the scalar
        sequence puts it; that object is then placed before the other
        entries' tags are checked, and freed again if one overflows.
        """
        type_keys, sizes = list(type_keys), list(sizes)
        self.inner._check_batch(type_keys, sizes)
        old = None
        if replacing is not None:
            old = strip_tag_array(np.asarray(replacing, dtype=np.uint64))
            self.inner._check_live(old, len(type_keys))
        head = []
        if type_keys and not self._tagged:
            if old is not None:
                self.inner.free_object(int(old[0]))
                old = old[1:]
            head = [self.alloc_object(type_keys[0], sizes[0])]
            type_keys, sizes = type_keys[1:], sizes[1:]
        try:
            tags = {t: self._tag(t) for t in dict.fromkeys(type_keys)}
        except TypeTagOverflow:
            for ptr in head:
                self.free_object(ptr)
            raise
        addrs = self.inner.alloc_many(type_keys, sizes, replacing=old)
        tagged = encode_tag_array(addrs, np.fromiter(
            (tags[t] for t in type_keys), dtype=np.uint64,
            count=len(type_keys)))
        return np.concatenate((np.array(head, dtype=np.uint64), tagged))

    def free_object(self, ptr: int) -> None:
        self.inner.free_object(strip_tag(ptr))

    def free_objects_many(self, ptrs: np.ndarray) -> None:
        self.inner.free_objects_many(
            strip_tag_array(np.asarray(ptrs, dtype=np.uint64))
        )

    def alloc_raw(self, size: int, align: int = 16) -> int:
        return self.inner.alloc_raw(size, align)

    # ------------------------------------------------------------------
    def _canonical(self, ptr: int) -> int:
        return strip_tag(ptr)

    def _canonical_array(self, ptrs: np.ndarray) -> np.ndarray:
        return strip_tag_array(ptrs)

    def owner_type(self, ptr: int) -> Optional[Hashable]:
        return self.inner.owner_type(strip_tag(ptr))

    def live_objects(self) -> List[Tuple[int, Hashable, int]]:
        return self.inner.live_objects()

    def live_count(self) -> int:
        return self.inner.live_count()

    def external_fragmentation(self) -> float:
        return self.inner.external_fragmentation()

    def tag_of(self, ptr: int) -> int:
        """The tag carried by ``ptr`` (testing/introspection helper)."""
        return decode_tag(ptr)

    # delegate range-table access when wrapping SharedOA
    def ranges(self):
        return self.inner.ranges()  # type: ignore[attr-defined]

    @property
    def range_table_version(self):
        return getattr(self.inner, "range_table_version", 0)

    def _place_object(self, type_key, size):  # pragma: no cover - unused
        raise NotImplementedError("wrapper delegates placement to inner")

    def _unplace_object(self, addr, type_key, size):  # pragma: no cover
        raise NotImplementedError("wrapper delegates placement to inner")
