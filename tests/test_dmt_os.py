"""Integration tests for DMT-Linux: hooks, placement, registers, fetcher."""

import pytest

from repro.arch import PAGE_SIZE, PageSize
from repro.core.dmt_os import DMTLinux, DMTPlacementPolicy
from repro.core.fetcher import DMTFetcher
from repro.core.registers import RegisterSet
from repro.kernel.kernel import Kernel

MB = 1 << 20


@pytest.fixture
def kernel():
    return Kernel(memory_bytes=256 * MB)


@pytest.fixture
def dmt(kernel):
    return DMTLinux(kernel)


def null_fetch(addr, tag, group):
    pass


class TestPlacement:
    def test_leaf_tables_land_in_teas(self, kernel, dmt):
        proc = kernel.create_process()
        vma = proc.mmap(8 * MB, populate=True)
        manager = dmt.manager_for(proc)
        tea = manager.clusters[0].teas[PageSize.SIZE_4K][0]
        for offset in (0, 3 * MB, vma.size - PAGE_SIZE):
            leaf_addr = proc.page_table.walk_steps(vma.start + offset)[-1].pte_addr
            assert tea.base_frame <= (leaf_addr >> 12) < tea.base_frame + tea.npages

    def test_policy_counters(self, kernel, dmt):
        proc = kernel.create_process()
        proc.mmap(4 * MB, populate=True)
        policy = proc.page_table.placement
        assert isinstance(policy, DMTPlacementPolicy)
        assert policy.placed > 0

    def test_thp_kernel_gets_both_tea_sizes(self):
        kernel = Kernel(memory_bytes=256 * MB, thp_enabled=True)
        dmt = DMTLinux(kernel)
        proc = kernel.create_process()
        proc.mmap(8 * MB, populate=True)
        cluster = dmt.manager_for(proc).clusters[0]
        assert cluster.teas[PageSize.SIZE_4K]
        assert cluster.teas[PageSize.SIZE_2M]
        # the 2 MB leaf PTE lives in the 2M TEA
        tea2m = cluster.teas[PageSize.SIZE_2M][0]
        leaf = proc.page_table.walk_steps(proc.addr_space.vmas()[0].start)[-1]
        assert tea2m.base_frame <= (leaf.pte_addr >> 12) < \
            tea2m.base_frame + tea2m.npages


class TestRegisters:
    def test_context_switch_reloads(self, kernel, dmt):
        p1 = kernel.create_process()
        p1.mmap(4 * MB, populate=True)
        p2 = kernel.create_process()
        p2.mmap(2 * MB, populate=True)
        kernel.context_switch(p1)
        regs1 = dmt.register_file.registers(RegisterSet.NATIVE)
        kernel.context_switch(p2)
        regs2 = dmt.register_file.registers(RegisterSet.NATIVE)
        assert regs1 and regs2
        # both processes mmap at the same virtual base, but their TEAs live
        # in different physical frames — the reload must swap them
        assert regs1[0].tea_base_pfn != regs2[0].tea_base_pfn

    def test_munmap_drops_registers(self, kernel, dmt):
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        assert dmt.reload_registers(proc)
        proc.munmap(vma.start, vma.size)
        assert dmt.reload_registers(proc) == []


class TestFetcherIntegration:
    def test_fetch_agrees_with_radix_walk(self, kernel, dmt):
        proc = kernel.create_process()
        vma = proc.mmap(8 * MB, populate=True)
        dmt.reload_registers(proc)
        fetcher = DMTFetcher(dmt.register_file)
        for offset in (0, 0x1234, 5 * MB + 0x567, vma.size - 1):
            result = fetcher.translate_native(
                vma.start + offset, kernel.memory.read_word, null_fetch)
            assert result.references == 1, "native DMT is one memory reference (§3)"
            expected = proc.page_table.translate(vma.start + offset)[0]
            assert result.pa == expected

    def test_uncovered_address_falls_back(self, kernel, dmt):
        proc = kernel.create_process()
        proc.mmap(4 * MB, populate=True)
        dmt.reload_registers(proc)
        fetcher = DMTFetcher(dmt.register_file)
        result = fetcher.translate_native(0x1234000, kernel.memory.read_word,
                                          null_fetch)
        assert result.fallback
        assert fetcher.fallbacks == 1

    def test_unpopulated_page_faults(self, kernel, dmt):
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB)  # mapped but never touched
        dmt.reload_registers(proc)
        fetcher = DMTFetcher(dmt.register_file)
        result = fetcher.translate_native(vma.start, kernel.memory.read_word,
                                          null_fetch)
        assert result.fault and not result.fallback

    def test_thp_parallel_probe_selects_correct_size(self):
        kernel = Kernel(memory_bytes=256 * MB, thp_enabled=True)
        dmt = DMTLinux(kernel)
        proc = kernel.create_process()
        vma = proc.mmap(4 * MB + PAGE_SIZE, populate=True)
        dmt.reload_registers(proc)
        fetcher = DMTFetcher(dmt.register_file)
        fetches = []
        huge = fetcher.translate_native(
            vma.start + 0x3000, kernel.memory.read_word,
            lambda a, t, g: fetches.append(g))
        assert huge.page_size == PageSize.SIZE_2M
        assert huge.pa == proc.page_table.translate(vma.start + 0x3000)[0]
        assert len(set(fetches)) == 1, "per-size probes go out in parallel (§4.4)"
        small = fetcher.translate_native(
            vma.end - 1, kernel.memory.read_word, null_fetch)
        assert small.page_size == PageSize.SIZE_4K


class TestManagementLedger:
    def test_init_time_management_is_recorded(self, kernel, dmt):
        proc = kernel.create_process()
        proc.mmap(8 * MB, populate=True)
        assert dmt.management_ms() > 0

    def test_nested_environment_multiplier(self):
        from repro.core.costs import Environment, ManagementLedger
        native = ManagementLedger(Environment.NATIVE)
        nested = ManagementLedger(Environment.NESTED)
        native.record("tea_create")
        nested.record("tea_create")
        assert nested.total_us == pytest.approx(native.total_us * 50)


class TestPromotionUnderMigration:
    def test_promoted_huge_page_survives_tea_migration(self, kernel, dmt):
        """khugepaged's 2 MB leaf must outlive a later TEA migration: the
        replaced leaf table leaves the page table's index, so migration
        finds no table to relocate over the huge entry."""
        from repro.kernel.thp import promote

        proc = kernel.create_process()
        vma = proc.mmap(4 * MB, populate=True)
        assert promote(proc, vma.start)
        before = proc.page_table.lookup(vma.start)
        assert before[2] == PageSize.SIZE_2M
        assert proc.page_table.table_frame(vma.start, 1) is None
        proc.addr_space.grow(vma, 64 * MB)  # the 4 KB TEA migrates
        dmt.reload_registers(proc)
        assert proc.page_table.lookup(vma.start) == before
        assert proc.page_table.translate(vma.start + 0x1234) == (
            (before[1] >> 12 << 12) + 0x1234, PageSize.SIZE_2M)
