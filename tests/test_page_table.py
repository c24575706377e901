"""Tests for the radix page table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import ENTRIES_PER_TABLE, PAGE_SHIFT, PAGE_SIZE, PTE_SIZE, \
    PageSize, level_shift
from repro.kernel.page_table import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_HUGE,
    PTE_PRESENT,
    RadixPageTable,
    TablePlacementPolicy,
    make_pte,
    pte_frame,
)
from repro.kernel.process import Process
from repro.kernel.thp import demote, promote
from repro.mem.physmem import PhysicalMemory

MB = 1 << 20
BASE = 0x7F00_0000_0000


@pytest.fixture
def memory():
    return PhysicalMemory(128 * MB)


@pytest.fixture
def table(memory):
    return RadixPageTable(memory)


class TestMapping:
    def test_map_translate_roundtrip(self, table):
        slot = table.map(BASE, 100)
        assert table.translate(BASE) == (100 * PAGE_SIZE, PageSize.SIZE_4K)
        assert table.translate(BASE + 0x123) == (100 * PAGE_SIZE + 0x123,
                                                 PageSize.SIZE_4K)
        assert table.memory.read_word(slot) == make_pte(100)

    def test_unmapped_translates_to_none(self, table):
        assert table.translate(BASE) is None

    def test_unmap(self, table):
        table.map(BASE, 100)
        assert table.unmap(BASE) == 100
        assert table.translate(BASE) is None
        assert table.unmap(BASE) is None

    def test_huge_page_2m(self, table):
        table.map(BASE, 512, PageSize.SIZE_2M)
        pa, size = table.translate(BASE + 0x12345)
        assert size == PageSize.SIZE_2M
        assert pa == 512 * PAGE_SIZE + 0x12345

    def test_huge_page_1g(self, table):
        table.map(BASE, 512 * 512, PageSize.SIZE_1G)
        pa, size = table.translate(BASE + 0x1234567)
        assert size == PageSize.SIZE_1G

    def test_huge_page_requires_alignment(self, table):
        with pytest.raises(ValueError):
            table.map(BASE, 100, PageSize.SIZE_2M)  # frame not 512-aligned

    def test_mapping_under_huge_page_rejected(self, table):
        table.map(BASE, 512, PageSize.SIZE_2M)
        with pytest.raises(ValueError):
            table.map(BASE + PAGE_SIZE, 7, PageSize.SIZE_4K)

    def test_table_page_accounting(self, table):
        assert table.table_pages == 1  # root only
        table.map(BASE, 100)
        assert table.table_pages == 4  # root + L3 + L2 + L1
        table.map(BASE + PAGE_SIZE, 101)  # same leaf table
        assert table.table_pages == 4

    def test_five_level_tree(self, memory):
        table5 = RadixPageTable(memory, levels=5)
        table5.map(BASE, 99)
        assert table5.translate(BASE)[0] == 99 * PAGE_SIZE
        assert len(table5.walk_steps(BASE)) == 5

    def test_invalid_level_count(self, memory):
        with pytest.raises(ValueError):
            RadixPageTable(memory, levels=3)


class TestWalkSteps:
    def test_walk_is_four_sequential_fetches(self, table):
        table.map(BASE, 100)
        steps = table.walk_steps(BASE)
        assert [s.level for s in steps] == [4, 3, 2, 1]
        assert steps[-1].is_leaf
        assert pte_frame(steps[-1].pte_value) == 100
        # every step's entry address must be unique physical memory
        assert len({s.pte_addr for s in steps}) == 4

    def test_walk_shortens_for_huge_pages(self, table):
        table.map(BASE, 512, PageSize.SIZE_2M)
        steps = table.walk_steps(BASE)
        assert [s.level for s in steps] == [4, 3, 2]
        assert steps[-1].pte_value & PTE_HUGE

    def test_walk_stops_at_non_present(self, table):
        steps = table.walk_steps(BASE)
        assert len(steps) == 1
        assert not steps[0].pte_value & PTE_PRESENT

    def test_leaf_pte_addr_matches_walk(self, table):
        table.map(BASE, 100)
        addr, size = table.leaf_pte_addr(BASE)
        assert addr == table.walk_steps(BASE)[-1].pte_addr


class TestAccessedDirty:
    def test_set_accessed(self, table):
        table.map(BASE, 100)
        table.set_accessed_dirty(BASE)
        _, pte, _ = table.lookup(BASE)
        assert pte & PTE_ACCESSED
        assert not pte & PTE_DIRTY

    def test_set_dirty(self, table):
        table.map(BASE, 100)
        table.set_accessed_dirty(BASE, dirty=True)
        _, pte, _ = table.lookup(BASE)
        assert pte & PTE_DIRTY

    def test_unmapped_raises(self, table):
        with pytest.raises(KeyError):
            table.set_accessed_dirty(BASE)


class TestWriteHook:
    def test_hook_sees_pte_writes(self, memory):
        writes = []
        table = RadixPageTable(memory, write_hook=lambda a, v: writes.append((a, v)))
        table.map(BASE, 100)
        # 3 intermediate table entries + 1 leaf
        assert len(writes) == 4
        table.unmap(BASE)
        assert writes[-1][1] == 0

    def test_ad_updates_do_not_trap(self, memory):
        writes = []
        table = RadixPageTable(memory, write_hook=lambda a, v: writes.append(a))
        table.map(BASE, 100)
        count = len(writes)
        table.set_accessed_dirty(BASE, dirty=True)
        assert len(writes) == count  # A/D updates bypass the hook


class TestPlacementPolicy:
    def test_policy_controls_leaf_frames(self, memory):
        reserved = memory.allocator.alloc_contig(4)

        class Policy(TablePlacementPolicy):
            def place_table(self, level, va, page_size):
                return reserved if level == 1 else None

            def table_released(self, frame, level, va):
                return frame == reserved

        table = RadixPageTable(memory, placement=Policy())
        slot = table.map(BASE, 100)
        assert slot >> 12 == reserved  # leaf PTE lives in the reserved frame
        table.destroy()  # must not free the policy-owned frame
        memory.allocator.free_contig(reserved, 4)


class TestRelocation:
    def test_relocate_leaf_table(self, table, memory):
        table.map(BASE, 100)
        table.map(BASE + PAGE_SIZE, 101)
        new_frame = memory.allocator.alloc_pages(0, movable=False)
        old_frame = table.relocate_table(BASE, 1, new_frame)
        # translations survive and walks now land in the new frame
        assert table.translate(BASE)[0] == 100 * PAGE_SIZE
        assert table.translate(BASE + PAGE_SIZE)[0] == 101 * PAGE_SIZE
        assert table.walk_steps(BASE)[-1].pte_addr >> 12 == new_frame
        memory.allocator.free_pages(old_frame)

    def test_relocate_missing_table_raises(self, table, memory):
        with pytest.raises(KeyError):
            table.relocate_table(BASE, 1, 50)


class TestDestroy:
    def test_destroy_frees_table_pages(self, memory):
        table = RadixPageTable(memory)
        before = memory.allocator.free_frames
        table.map(BASE, 100)
        table.destroy()
        assert memory.allocator.free_frames == before + 1  # root freed too


class TestProperties:
    @given(st.sets(st.integers(0, 1 << 24), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_many_mappings_translate_independently(self, vpns):
        memory = PhysicalMemory(256 * MB)
        table = RadixPageTable(memory)
        mapping = {}
        for i, vpn in enumerate(sorted(vpns)):
            va = BASE + vpn * PAGE_SIZE
            table.map(va, 1000 + i)
            mapping[va] = 1000 + i
        for va, frame in mapping.items():
            assert table.translate(va) == (frame * PAGE_SIZE, PageSize.SIZE_4K)
        assert table.mapped_pages == len(mapping)


class TestHugeOverTable:
    """A huge leaf written over a table pointer retires that table."""

    def test_empty_leaf_table_is_retired(self, table, memory):
        table.map(BASE, 100)
        table.unmap(BASE)
        leaf_frame = table.table_frame(BASE, 1)
        free_before = memory.allocator.free_frames
        table.map(BASE, 512, PageSize.SIZE_2M)
        assert table.table_frame(BASE, 1) is None
        assert table.stats.tables_freed == 1
        assert table.table_pages == 3  # root + L3 + L2
        assert memory.allocator.free_frames == free_before + 1
        assert leaf_frame not in table._tables.values()
        assert table.translate(BASE + 0x1234) == (
            512 * PAGE_SIZE + 0x1234, PageSize.SIZE_2M)

    def test_live_leaf_table_blocks_huge_mapping(self, table):
        table.map(BASE + PAGE_SIZE, 100)
        with pytest.raises(ValueError, match="still maps pages"):
            table.map(BASE, 512, PageSize.SIZE_2M)
        assert table.translate(BASE + PAGE_SIZE) == (100 * PAGE_SIZE,
                                                     PageSize.SIZE_4K)
        assert table.table_frame(BASE, 1) is not None
        assert table.stats.tables_freed == 0

    def test_policy_owned_table_is_not_freed(self, memory):
        reserved = memory.allocator.alloc_pages(0, movable=False)

        class Policy(TablePlacementPolicy):
            def place_table(self, level, va, page_size):
                return reserved if level == 1 else None

            def table_released(self, frame, level, va):
                return frame == reserved

        table = RadixPageTable(memory, placement=Policy())
        table.map(BASE, 100)
        table.unmap(BASE)
        table.map(BASE, 512, PageSize.SIZE_2M)
        assert table.stats.tables_freed == 1
        memory.allocator.free_pages(reserved)  # still allocated: policy's


# --------------------------------------------------------------------- #
# Indexed slot resolution against the root walk
# --------------------------------------------------------------------- #

_HUGE = PageSize.SIZE_2M.bytes
#: 2 MB spans under different L2, L3 and L4 (and, 5-level, L5) entries.
_SPANS = (BASE, BASE + _HUGE, BASE + (1 << 30), BASE + (1 << 39),
          BASE + (1 << 48))
_PAGES = (0, 1, 2, 7, ENTRIES_PER_TABLE - 1)


def _reachable(pt):
    """``{(level, key): frame}`` of every non-root table the root reaches."""
    by_frame = {}
    for word, value in pt.memory._words.items():
        addr = word * PTE_SIZE
        by_frame.setdefault(addr >> PAGE_SHIFT, {})[
            (addr & (PAGE_SIZE - 1)) // PTE_SIZE] = value
    found = {}
    stack = [(pt.root_frame, pt.levels, 0)]
    while stack:
        frame, level, prefix = stack.pop()
        if level == 1:
            continue
        for index, pte in by_frame.get(frame, {}).items():
            if pte & PTE_PRESENT and not pte & PTE_HUGE:
                va = prefix | (index << level_shift(level))
                found[(level - 1, va >> level_shift(level))] = pte_frame(pte)
                stack.append((pte_frame(pte), level - 1, va))
    return found


def _check_against_walk(pt, probes):
    assert pt._tables == _reachable(pt)
    for va in probes:
        last = pt.walk_steps(va)[-1]
        found = pt.lookup(va)
        if not last.pte_value & PTE_PRESENT:
            assert found is None and pt.translate(va) is None
            continue
        size = {1: PageSize.SIZE_4K, 2: PageSize.SIZE_2M,
                3: PageSize.SIZE_1G}[last.level]
        assert found == (last.pte_addr, last.pte_value, size)
        assert pt.leaf_pte_addr(va) == (last.pte_addr, size)
        offset = va & (size.bytes - 1)
        assert pt.translate(va) == (
            (pte_frame(last.pte_value) << PAGE_SHIFT) + offset, size)


_OPS = st.lists(
    st.tuples(st.sampled_from(["map", "unmap", "map2m", "promote", "demote",
                               "relocate", "fill"]),
              st.integers(0, len(_SPANS) - 1),
              st.integers(0, len(_PAGES) - 1)),
    min_size=1, max_size=25)


class TestIndexedLookupProperty:
    @pytest.mark.parametrize("levels", [4, 5])
    @given(ops=_OPS)
    @settings(max_examples=40, deadline=None)
    def test_lookup_equals_root_walk(self, levels, ops):
        """After every operation, ``lookup``/``translate`` agree with the
        last step of the hardware walk, and ``_tables`` names exactly the
        tables reachable from the root."""
        spans = _SPANS if levels == 5 else _SPANS[:-1]
        proc = Process(PhysicalMemory(64 * MB), levels=levels)
        pt, alloc = proc.page_table, proc.memory.allocator
        probes = [span + page * PAGE_SIZE + 0x18
                  for span in spans for page in _PAGES]
        for kind, span_index, page_index in ops:
            base = spans[span_index % len(spans)]
            va = base + _PAGES[page_index] * PAGE_SIZE
            current = pt.lookup(base)
            huge = current is not None and current[2] == PageSize.SIZE_2M
            live = any(pt.lookup(base + page * PAGE_SIZE) is not None
                       for page in range(ENTRIES_PER_TABLE))
            if kind == "map":
                if huge:
                    with pytest.raises(ValueError):
                        pt.map(va, alloc.alloc_pages(0))
                else:
                    pt.map(va, alloc.alloc_pages(0))
            elif kind == "unmap":
                pt.unmap(va)
            elif kind == "map2m":
                frame = alloc.alloc_pages(9)
                if live and not huge:
                    with pytest.raises(ValueError, match="still maps"):
                        pt.map(base, frame, PageSize.SIZE_2M)
                else:
                    pt.map(base, frame, PageSize.SIZE_2M)
            elif kind == "promote" and not huge:
                assert promote(proc, base)
            elif kind == "demote" and huge:
                demote(proc, base)
            elif kind == "fill":
                # bulk map across two spans; every other page is remapped
                # even when mapped (by a huge leaf, too)
                given_frames = {}

                def frame_for(page, pte):
                    if pte and (page >> PAGE_SHIFT) % 2:
                        return None
                    given_frames[page] = alloc.alloc_pages(0)
                    return given_frames[page]

                start = va + PAGE_SIZE * ENTRIES_PER_TABLE - 3 * PAGE_SIZE
                pages = range(va, start + 6 * PAGE_SIZE, PAGE_SIZE)
                assert pt.map_pages(pages, frame_for) == len(given_frames)
                for page, frame in given_frames.items():
                    assert pt.translate(page) == (frame << PAGE_SHIFT,
                                                  PageSize.SIZE_4K)
            elif kind == "relocate" and pt._tables:
                keys = sorted(pt._tables)
                level, key = keys[(span_index * 7 + page_index) % len(keys)]
                table_va = key << level_shift(level + 1)
                old = pt.relocate_table(table_va, level,
                                        alloc.alloc_pages(0, movable=False))
                alloc.free_pages(old)
            _check_against_walk(pt, probes)
