"""Processes: an address space plus a hardware-walkable page table.

``Process.populate`` eagerly backs a VMA with physical frames the way the
paper's data-intensive workloads allocate memory at initialization time
(§7); ``Process.touch`` provides demand faulting for finer-grained tests.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.arch import PAGE_SIZE, PageSize, align_down
from repro.kernel.page_table import RadixPageTable, TablePlacementPolicy
from repro.kernel.vma import VMA, AddressSpace
from repro.mem.buddy import OutOfMemoryError
from repro.mem.physmem import PhysicalMemory

_HUGE_ORDER = 9  # 2 MB = 2^9 base frames


class PageFaultError(Exception):
    """Access to an address with no VMA behind it (SIGSEGV analogue)."""


class Process:
    """One simulated user process."""

    _pids = itertools.count(1)

    def __init__(
        self,
        memory: PhysicalMemory,
        levels: int = 4,
        placement: Optional[TablePlacementPolicy] = None,
        thp_enabled: bool = False,
        name: str = "proc",
    ):
        self.pid = next(Process._pids)
        self.name = name
        self.asid = self.pid
        self.memory = memory
        self.thp_enabled = thp_enabled
        self.addr_space = AddressSpace()
        self.page_table = RadixPageTable(
            memory, levels=levels, asid=self.asid, placement=placement
        )

    # ------------------------------------------------------------------ #
    # Memory mapping
    # ------------------------------------------------------------------ #

    def mmap(self, length: int, addr: Optional[int] = None, name: str = "anon",
             populate: bool = False, **kwargs) -> VMA:
        vma = self.addr_space.mmap(length, addr=addr, name=name, **kwargs)
        if populate:
            self.populate(vma)
        return vma

    def munmap(self, start: int, length: int) -> None:
        for vma in self.addr_space.munmap(start, length):
            self._unmap_range(vma.start, vma.end)

    def populate(self, vma: VMA, page_size: Optional[PageSize] = None) -> int:
        """Back every page of ``vma`` with frames; returns pages mapped.

        With THP enabled (and no explicit ``page_size``), 2 MB-aligned
        chunks are mapped with huge pages and the remainder with 4 KB pages,
        matching Linux THP behaviour for large anonymous areas.
        """
        mapped = 0
        va = vma.start
        while va < vma.end:
            use_huge = False
            if page_size == PageSize.SIZE_2M:
                use_huge = True
            elif page_size is None and self.thp_enabled:
                use_huge = (
                    va % PageSize.SIZE_2M.bytes == 0
                    and va + PageSize.SIZE_2M.bytes <= vma.end
                )
            if use_huge:
                mapped += self._map_huge(va)
                va += PageSize.SIZE_2M.bytes
            else:
                # 4 KB pages up to the next 2 MB boundary, where the
                # huge-page test runs again
                end = min(vma.end, (va | (PageSize.SIZE_2M.bytes - 1)) + 1)
                pages = range(va, end, PAGE_SIZE)
                self.page_table.map_pages(pages, self._new_frame)
                mapped += len(pages)
                va += len(pages) * PAGE_SIZE
        return mapped

    def _new_frame(self, va: int, pte: int) -> Optional[int]:
        """A fresh frame for an unmapped page (``map_pages`` callback)."""
        if pte:
            return None
        return self.memory.allocator.alloc_pages(0, movable=True)

    def _map_huge(self, va: int) -> int:
        if self.page_table.lookup(va) is not None:
            return 0
        try:
            frame = self.memory.allocator.alloc_pages(_HUGE_ORDER, movable=True)
        except OutOfMemoryError:
            # fall back to base pages, as Linux THP does under pressure
            for offset in range(0, PageSize.SIZE_2M.bytes, PAGE_SIZE):
                frame = self.memory.allocator.alloc_pages(0, movable=True)
                self.page_table.map(va + offset, frame, PageSize.SIZE_4K)
            return 512
        self.page_table.map(va, frame, PageSize.SIZE_2M)
        return 512

    def touch(self, va: int, write: bool = False) -> int:
        """Demand-fault ``va`` if needed; returns the physical address."""
        translated = self.page_table.translate(va)
        if translated is None:
            vma = self.addr_space.find(va)
            if vma is None:
                raise PageFaultError(f"{va:#x} is not mapped by any VMA")
            frame = self.memory.allocator.alloc_pages(0, movable=True)
            self.page_table.map(align_down(va, PAGE_SIZE), frame, PageSize.SIZE_4K)
            translated = self.page_table.translate(va)
        self.page_table.set_accessed_dirty(va, dirty=write)
        return translated[0]

    def _unmap_range(self, start: int, end: int) -> None:
        va = start
        while va < end:
            found = self.page_table.lookup(va)
            if found is None:
                va += PAGE_SIZE
                continue
            _, pte, size = found
            frame = self.page_table.unmap(va)
            order = 0 if size == PageSize.SIZE_4K else _HUGE_ORDER
            try:
                self.memory.allocator.free_pages(frame, order)
            except ValueError:
                pass  # frame owned elsewhere (e.g. shared mapping)
            va = align_down(va, size.bytes) + size.bytes

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def resident_pages(self) -> int:
        return self.page_table.mapped_pages

    def page_table_bytes(self) -> int:
        return self.page_table.table_bytes
