"""Shadow paging (§2.1.2, §2.1.3).

The hypervisor maintains a *shadow page table* (sPT) mapping guest virtual
addresses straight to host physical addresses, combining the guest page
table with the gPA->hPA mapping. Translation then costs a native-style
walk, but every guest PTE update must be intercepted and synchronized —
each such write is a VM exit, which is where shadow paging's overhead
comes from. This model counts those exits via the guest page table's write
hook and rebuilds the sPT on demand.

For nested virtualization the same class builds the L2PA->L0PA shadow
table of Figure 3 by composing the two hypervisors' tables.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional

from repro.arch import PAGE_SHIFT, PAGE_SIZE, PageSize
from repro.kernel.page_table import PTE_HUGE, RadixPageTable, pte_frame
from repro.kernel.process import Process
from repro.virt.hypervisor import VM


class ShadowPager:
    """Maintains an sPT for one guest process."""

    def __init__(self, vm: VM, guest_process: Process):
        self.vm = vm
        self.guest_process = guest_process
        self.spt = RadixPageTable(
            vm.hypervisor.host_memory,
            levels=guest_process.page_table.levels,
            asid=0x2000 + guest_process.asid,
        )
        self._prior_hook = guest_process.page_table.write_hook
        guest_process.page_table.write_hook = self._on_guest_pte_write

    def _on_guest_pte_write(self, pte_addr: int, value: int) -> None:
        # Guest page tables are write-protected under shadow paging: each
        # guest PTE update traps to the hypervisor for sPT synchronization.
        self.vm.exits.shadow_syncs += 1
        if self._prior_hook is not None:
            self._prior_hook(pte_addr, value)

    def detach(self) -> None:
        self.guest_process.page_table.write_hook = self._prior_hook

    # ------------------------------------------------------------------ #
    # Synchronization
    # ------------------------------------------------------------------ #

    def sync(self) -> int:
        """Rebuild the sPT from the current guest PT + EPT state.

        Returns the number of shadow entries installed. A real hypervisor
        does this incrementally on each trapped write; rebuilding before
        simulation gives an identical sPT for the walker.
        """
        installed = 0
        guest_pt = self.guest_process.page_table
        for size, run in itertools.groupby(
                sorted(guest_pt._mapped_pages.items()), key=lambda m: m[1]):
            bases = [base for base, _ in run]
            if size == PageSize.SIZE_4K:
                installed += self._install_4k(bases, self._guest_gpa)
            else:
                for base in bases:
                    installed += self._shadow_huge(base, size)
        return installed

    def _guest_gpa(self, va: int) -> Optional[int]:
        translated = self.guest_process.page_table.translate(va)
        return None if translated is None else translated[0]

    def _shadow_huge(self, va: int, size: PageSize) -> int:
        gpa = self._guest_gpa(va)
        if gpa is None:
            return 0
        # Huge guest page: shadow it hugely only if the host backing is a
        # matching aligned huge EPT leaf; otherwise fracture into 4 KB.
        ept_leaf = self.vm.ept.lookup(gpa)
        if (
            ept_leaf is not None
            and ept_leaf[2] == size
            and gpa % size.bytes == 0
        ):
            return int(self._install(va, self.vm.gpa_to_hpa(gpa), size))
        return self._install_4k(range(va, va + size.bytes, PAGE_SIZE),
                                lambda page: gpa + (page - va))

    def _install_4k(self, vas: Iterable[int],
                    gpa_of: Callable[[int], Optional[int]]) -> int:
        """Shadow the ascending 4 KB pages ``vas``: the bulk form of
        :meth:`_install`, one host-backing lookup per page."""
        def frame_for(va: int, pte: int) -> Optional[int]:
            gpa = gpa_of(va)
            if gpa is None:
                return None
            hfn = self.vm.gpa_to_hpa(gpa) >> PAGE_SHIFT
            if pte and not pte & PTE_HUGE and pte_frame(pte) == hfn:
                return None  # already correct
            return hfn
        return self.spt.map_pages(vas, frame_for)

    def _install(self, va: int, hpa: int, size: PageSize) -> bool:
        """Install one shadow entry; returns False if already correct."""
        existing = self.spt.lookup(va)
        if existing is not None:
            if existing[2] == size and (existing[1] >> PAGE_SHIFT) == hpa >> PAGE_SHIFT:
                return False
            self.spt.unmap(va)
        self.spt.map(va, hpa >> PAGE_SHIFT, size)
        return True


class NestedShadowPager:
    """The L0-maintained sPT of nested virtualization (Figure 3).

    Maps L2-physical addresses to L0-physical addresses by composing the
    L1 hypervisor's table for L2 (L2PA -> L1PA) with the L0 hypervisor's
    table for L1 (L1PA -> L0PA). L1-side page-table updates must be
    intercepted by L0, so writes to the L2 VM's EPT count as L0 exits.
    """

    def __init__(self, l1_vm: VM, l2_vm: VM):
        self.l1_vm = l1_vm  # L0's view of L1
        self.l2_vm = l2_vm  # L1's view of L2 (its ept maps L2PA->L1PA)
        self.spt = RadixPageTable(
            l1_vm.hypervisor.host_memory,
            levels=l2_vm.ept.levels,
            asid=0x3000 + l2_vm.vm_id,
        )
        self._prior_hook = l2_vm.ept.write_hook
        l2_vm.ept.write_hook = self._on_l1_table_write

    def _on_l1_table_write(self, pte_addr: int, value: int) -> None:
        self.l1_vm.exits.shadow_syncs += 1
        if self._prior_hook is not None:
            self._prior_hook(pte_addr, value)

    def detach(self) -> None:
        self.l2_vm.ept.write_hook = self._prior_hook

    def sync(self) -> int:
        ept = self.l2_vm.ept

        def pages() -> Iterator[int]:
            # fracture to 4 KB: L1->L0 backing is rarely contiguous at 2 MB
            for gpa_base, size in sorted(ept._mapped_pages.items()):
                yield from range(gpa_base, gpa_base + size.bytes, PAGE_SIZE)

        def frame_for(gpa: int, pte: int) -> Optional[int]:
            l1pa = ept.translate(gpa)
            if l1pa is None:
                return None
            l0pa = self.l1_vm.gpa_to_hpa(l1pa[0])
            return None if pte else l0pa >> PAGE_SHIFT

        return self.spt.map_pages(pages(), frame_for)
