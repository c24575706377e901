"""x86-64 radix page tables (4- or 5-level) backed by simulated memory.

Tables are real pages in a :class:`~repro.mem.physmem.PhysicalMemory`
domain: entries are 8-byte words at genuine physical addresses, so the MMU
walkers in :mod:`repro.translation` fetch the same bytes a hardware walker
would, and DMT's direct PTE fetch and the radix walk observe a single copy
of each PTE (the paper stresses DMT creates no PTE duplicates, §3).

Where a table page lands in physical memory is delegated to a
*placement policy*: vanilla Linux scatters table pages wherever the buddy
allocator happens to place them; DMT-Linux's policy places last-level
tables inside TEAs (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.arch import (
    ENTRIES_PER_TABLE,
    PAGE_SHIFT,
    PTE_SIZE,
    PageSize,
    level_shift,
)
from repro.analysis import sanitizer
from repro.mem.physmem import PhysicalMemory, frame_to_addr

PTE_PRESENT = 1 << 0
PTE_WRITE = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
PTE_HUGE = 1 << 7  # PS bit: this entry maps a huge page

PTE_FLAGS_MASK = (1 << PAGE_SHIFT) - 1

#: Page size of a leaf entry found at each radix level.
_LEAF_SIZE = {1: PageSize.SIZE_4K, 2: PageSize.SIZE_2M, 3: PageSize.SIZE_1G}
#: ``level_shift`` by level (index 0 unused), so slot arithmetic costs no
#: call; a level-``L`` table's index key is ``va >> _SHIFT[L + 1]``.
_SHIFT = (0,) + tuple(level_shift(level) for level in range(1, 7))
_INDEX_MASK = ENTRIES_PER_TABLE - 1
_PAGE_MASK = (1 << PAGE_SHIFT) - 1


def pte_frame(pte: int) -> int:
    return pte >> PAGE_SHIFT


def make_pte(frame: int, flags: int = PTE_PRESENT | PTE_WRITE) -> int:
    return (frame << PAGE_SHIFT) | flags


class TablePlacementPolicy:
    """Decides which physical frame holds a given page-table node.

    ``place_table`` may return a pre-reserved frame (DMT returns TEA slots
    for leaf tables) or ``None`` to fall back to the buddy allocator.
    """

    def place_table(self, level: int, va: int, page_size: PageSize) -> Optional[int]:
        return None

    def table_released(self, frame: int, level: int, va: int) -> bool:
        """Return True if the policy owns the frame (so it won't be freed
        back to the buddy allocator)."""
        return False


@dataclass
class WalkStep:
    """One sequential MMU access during a radix walk."""

    level: int
    pte_addr: int  # physical address of the entry fetched
    pte_value: int
    is_leaf: bool


class PageTableStats:
    def __init__(self) -> None:
        self.pte_writes = 0
        self.tables_allocated = 0
        self.tables_freed = 0


class RadixPageTable:
    """A hardware-walkable multi-level page table."""

    def __init__(
        self,
        memory: PhysicalMemory,
        levels: int = 4,
        asid: int = 0,
        placement: Optional[TablePlacementPolicy] = None,
        write_hook: Optional[Callable[[int, int], None]] = None,
    ):
        if levels not in (4, 5):
            raise ValueError("x86-64 supports 4- or 5-level page tables")
        self.memory = memory
        self.levels = levels
        self.asid = asid
        self.placement = placement or TablePlacementPolicy()
        #: called as write_hook(pte_addr, new_value) on every PTE update —
        #: shadow paging uses this to model write-protection traps.
        self.write_hook = write_hook
        self.stats = PageTableStats()
        # (level, table_key) -> frame; table_key = va >> level_shift(level+1).
        # Invariant: exactly the non-root tables reachable from the root,
        # so a table found here is the one a root walk would reach.
        self._tables: Dict[Tuple[int, int], int] = {}
        self._mapped_pages: Dict[int, PageSize] = {}  # leaf va_base -> size
        self.root_frame = self._new_table(self.levels, 0, PageSize.SIZE_4K, track=False)

    # ------------------------------------------------------------------ #
    # Table bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def table_pages(self) -> int:
        """Number of table pages currently allocated (incl. the root)."""
        return len(self._tables) + 1

    @property
    def table_bytes(self) -> int:
        return self.table_pages << PAGE_SHIFT

    @property
    def mapped_pages(self) -> int:
        return len(self._mapped_pages)

    def _table_key(self, va: int, level: int) -> int:
        return va >> _SHIFT[level + 1]

    def _new_table(self, level: int, va: int, page_size: PageSize, track: bool = True) -> int:
        frame = self.placement.place_table(level, va, page_size)
        if frame is None:
            frame = self.memory.allocator.alloc_pages(0, movable=False)
        self.memory.clear_page(frame)
        self.stats.tables_allocated += 1
        if track:
            self._tables[(level, self._table_key(va, level))] = frame
        return frame

    # dmtlint-domain: va=any -- the EPT is this same structure keyed by gPA
    def table_frame(self, va: int, level: int) -> Optional[int]:
        """Frame of the level-``level`` table covering ``va`` (root for top)."""
        if level == self.levels:
            return self.root_frame
        return self._tables.get((level, self._table_key(va, level)))

    # ------------------------------------------------------------------ #
    # PTE access
    # ------------------------------------------------------------------ #

    def _entry_addr(self, table_frame: int, va: int, level: int) -> int:
        return (frame_to_addr(table_frame)
                + ((va >> _SHIFT[level]) & _INDEX_MASK) * PTE_SIZE)

    def _write_pte(self, addr: int, value: int) -> None:
        self.memory.write_word(addr, value)
        self.stats.pte_writes += 1
        if self.write_hook is not None:
            self.write_hook(addr, value)

    def _descend(self, va: int, leaf_level: int, create: bool,
                 page_size: PageSize = PageSize.SIZE_4K) -> Optional[int]:
        """Return the physical address of the leaf PTE slot at ``leaf_level``."""
        frame = self._tables.get((leaf_level, va >> _SHIFT[leaf_level + 1]))
        if frame is not None:
            return self._entry_addr(frame, va, leaf_level)
        frame = self.root_frame
        for level in range(self.levels, leaf_level, -1):
            addr = self._entry_addr(frame, va, level)
            pte = self.memory.read_word(addr)
            if pte & PTE_PRESENT:
                if pte & PTE_HUGE:
                    raise ValueError(
                        f"va {va:#x}: huge mapping at level {level} blocks a "
                        f"level-{leaf_level} mapping"
                    )
                frame = pte_frame(pte)
            elif create:
                frame = self._new_table(level - 1, va, page_size)
                self._write_pte(addr, make_pte(frame))
            else:
                return None
        return self._entry_addr(frame, va, leaf_level)

    # ------------------------------------------------------------------ #
    # Public mapping API
    # ------------------------------------------------------------------ #

    def map(self, va: int, pfn: int, page_size: PageSize = PageSize.SIZE_4K,
            flags: int = PTE_PRESENT | PTE_WRITE) -> int:
        """Map ``va`` -> frame ``pfn`` with the given page size.

        ``pfn`` is in units of the page size (for 2 MB pages it is the 4 KB
        frame number of the first frame, which must be 512-aligned).
        Returns the physical address of the written leaf PTE.
        """
        leaf_level = page_size.leaf_level
        base = va & ~(page_size.bytes - 1)
        if page_size != PageSize.SIZE_4K:
            if pfn % (page_size.bytes >> PAGE_SHIFT):
                raise ValueError("huge-page frame must be size aligned")
            flags |= PTE_HUGE
        slot = self._descend(base, leaf_level, create=True, page_size=page_size)
        if leaf_level > 1:
            old = self.memory.read_word(slot)
            if old & PTE_PRESENT and not old & PTE_HUGE:
                self._retire_table(base, leaf_level - 1, pte_frame(old))
        self._set_leaf(slot, base, pfn, page_size, flags)
        return slot

    def _set_leaf(self, slot: int, base: int, pfn: int, page_size: PageSize,
                  flags: int) -> None:
        if sanitizer.active():
            sanitizer.check_pte_target(base, pfn, page_size,
                                       self.memory.total_frames)
        self._write_pte(slot, make_pte(pfn, flags))
        self._mapped_pages[base] = page_size

    def map_pages(self, vas: Iterable[int],
                  frame_for: Callable[[int, int], Optional[int]]) -> int:
        """Map 4 KB pages at ascending ``vas``.

        The bulk form of ``lookup``-then-``map``: each 2 MB span's leaf
        table is resolved once and its slots are read and filled in place.
        For each page in turn, ``frame_for(va, pte)`` gets the PTE mapping
        ``va`` now (a covering huge leaf's, or 0 when unmapped) and returns
        the frame to map there, or None to leave the page alone; a mapped
        page is unmapped first. ``frame_for`` must not remap pages of this
        table itself. Every effect of the per-page calls happens as it
        would there, in the same order: ``frame_for``'s own allocations
        come before the tables a first mapping creates, and each mapping
        makes one PTE write and ``write_hook`` call, one ``_mapped_pages``
        insertion and the sanitizer's checks. Returns the number of pages
        mapped.
        """
        read = self.memory.read_word
        span = table = None
        mapped = 0
        for va in vas:
            if va >> _SHIFT[2] != span:
                span = va >> _SHIFT[2]
                table = self._tables.get((1, span))
            if table is None:
                found = self.lookup(va)
                pte = found[1] if found is not None else 0
            else:
                slot = (frame_to_addr(table)
                        + ((va >> _SHIFT[1]) & _INDEX_MASK) * PTE_SIZE)
                pte = read(slot)
                if not pte & PTE_PRESENT:
                    pte = 0
            frame = frame_for(va, pte)
            if frame is None:
                continue
            mapped += 1
            if pte:
                self.unmap(va)
            if table is None:
                self.map(va, frame)
                table = self._tables.get((1, span))
            else:
                self._set_leaf(slot, va & ~_PAGE_MASK, frame,
                               PageSize.SIZE_4K, PTE_PRESENT | PTE_WRITE)
        return mapped

    def unmap(self, va: int, page_size: Optional[PageSize] = None) -> Optional[int]:
        """Clear the leaf PTE for ``va``; returns the frame it mapped."""
        found = self.lookup(va)
        if found is None:
            return None
        slot, pte, size = found
        if page_size is not None and size != page_size:
            raise ValueError(f"va {va:#x} is mapped with {size.name}, not {page_size.name}")
        self._write_pte(slot, 0)
        self._mapped_pages.pop(va & ~(size.bytes - 1), None)
        if sanitizer.active():
            sanitizer.check_unmap_coherence(self.asid, va, size)
        return pte_frame(pte)

    def _retire_table(self, va: int, level: int, frame: int) -> None:
        """Drop the level-``level`` table covering ``va`` before a huge
        leaf replaces the entry pointing at it (khugepaged promotion)."""
        base = frame_to_addr(frame)
        if any(self.memory.read_word(base + index * PTE_SIZE) & PTE_PRESENT
               for index in range(ENTRIES_PER_TABLE)):
            raise ValueError(
                f"va {va:#x}: level-{level} table still maps pages; a "
                f"level-{level + 1} huge mapping cannot replace it"
            )
        self._tables.pop((level, self._table_key(va, level)), None)
        self._release_table(frame, level, va)

    def _release_table(self, frame: int, level: int, va: int) -> None:
        if not self.placement.table_released(frame, level, va):
            self.memory.allocator.free_pages(frame)
        self.stats.tables_freed += 1

    def lookup(self, va: int) -> Optional[Tuple[int, int, PageSize]]:
        """(leaf PTE address, PTE value, page size) for ``va`` if mapped.

        Starts at the lowest indexed table covering ``va`` (the root if
        none): by the ``_tables`` invariant a walk from there reads the
        tail of a root walk, so a mapped page costs one index probe per
        level above its leaf and one read.
        """
        for level in range(1, self.levels):
            frame = self._tables.get((level, va >> _SHIFT[level + 1]))
            if frame is not None:
                break
        else:
            level, frame = self.levels, self.root_frame
        while True:
            addr = self._entry_addr(frame, va, level)
            pte = self.memory.read_word(addr)
            if not pte & PTE_PRESENT:
                return None
            if level == 1 or pte & PTE_HUGE:
                return addr, pte, _LEAF_SIZE[level]
            frame = pte_frame(pte)
            level -= 1

    def translate(self, va: int) -> Optional[Tuple[int, PageSize]]:
        """Full software translation: ``va`` -> (physical address, page size)."""
        found = self.lookup(va)
        if found is None:
            return None
        _, pte, size = found
        base = pte_frame(pte) << PAGE_SHIFT
        return base + (va & (size.bytes - 1)), size

    def leaf_pte_addr(self, va: int) -> Optional[Tuple[int, PageSize]]:
        found = self.lookup(va)
        if found is None:
            return None
        addr, _, size = found
        return addr, size

    def set_accessed_dirty(self, va: int, dirty: bool = False) -> None:
        """Set A (and optionally D) bits the way a hardware walker does."""
        found = self.lookup(va)
        if found is None:
            raise KeyError(f"va {va:#x} not mapped")
        addr, pte, _ = found
        new = pte | PTE_ACCESSED | (PTE_DIRTY if dirty else 0)
        if new != pte:
            self.memory.write_word(addr, new)  # A/D updates don't trap

    # ------------------------------------------------------------------ #
    # Hardware-walk enumeration
    # ------------------------------------------------------------------ #

    # dmtlint-domain: va=any -- host walkers enumerate EPT steps over gPAs
    def walk_steps(self, va: int) -> List[WalkStep]:
        """The ordered PTE fetches a hardware walker performs for ``va``.

        Always starts at the root; MMU caches (PWC) that skip upper levels
        are applied by the walker models, not here.
        """
        steps: List[WalkStep] = []
        frame = self.root_frame
        for level in range(self.levels, 0, -1):
            addr = self._entry_addr(frame, va, level)
            pte = self.memory.read_word(addr)
            leaf = level == 1 or bool(pte & PTE_HUGE) or not pte & PTE_PRESENT
            steps.append(WalkStep(level, addr, pte, leaf))
            if leaf:
                break
            frame = pte_frame(pte)
        return steps

    # ------------------------------------------------------------------ #
    # Table relocation (TEA migration support, §4.3)
    # ------------------------------------------------------------------ #

    def relocate_table(self, va: int, level: int, new_frame: int) -> int:
        """Move the level-``level`` table covering ``va`` to ``new_frame``.

        Copies the page and rewrites the parent entry so the original x86
        walker stays correct during and after TEA migration. Returns the
        old frame (caller decides whether to free it).
        """
        key = (level, self._table_key(va, level))
        old_frame = self._tables.get(key)
        if old_frame is None:
            raise KeyError(f"no level-{level} table covering {va:#x}")
        parent_frame = self.table_frame(va, level + 1)
        if parent_frame is None:
            raise KeyError(f"no parent table at level {level + 1} for {va:#x}")
        self.memory.copy_page(old_frame, new_frame)
        parent_addr = self._entry_addr(parent_frame, va, level + 1)
        parent_pte = self.memory.read_word(parent_addr)
        self._write_pte(parent_addr, make_pte(new_frame, parent_pte & PTE_FLAGS_MASK))
        self._tables[key] = new_frame
        if sanitizer.active():
            sanitizer.check_relocate_coherence(va, level,
                                               frame_to_addr(old_frame))
        return old_frame

    def destroy(self) -> None:
        """Free every table page (not the mapped data frames)."""
        for (level, key), frame in list(self._tables.items()):
            self._release_table(frame, level, key << level_shift(level + 1))
        self._tables.clear()
        self.memory.allocator.free_pages(self.root_frame)
        self._mapped_pages.clear()
