"""Per-core cache hierarchy glued to the MOESI directory.

Each core owns a private L1I, L1D and unified L2 (Table 1).  The L2 is
inclusive of both L1s.  Accesses to the globally shared address region
(``addr >= SHARED_BASE``) are kept coherent through the distributed
MOESI directory (:mod:`repro.mem.coherence`); private accesses only pay
the private-hierarchy latencies.

The hierarchy returns an :class:`AccessResult` with the latency beyond
the L1 lookup plus the event counts the power model converts into
energy (L1/L2/memory accesses, NoC flit-hops, invalidations).
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..config import CMPConfig
from ..noc.mesh import Mesh2D
from ..units import Cycles
from ..trace.generator import SHARED_BASE
from .cache import Cache
from .coherence import Directory, State


class AccessResult(NamedTuple):
    """Timing and energy-relevant events of one memory access."""

    latency: Cycles     # beyond the L1 lookup (0 = L1 hit)
    l1_hit: bool
    l2_access: bool
    mem_access: bool
    flit_hops: int
    invalidations: int
    writeback: bool


_L1_HIT = AccessResult(0, True, False, False, 0, 0, False)


class MemoryHierarchy:
    """All private caches of the CMP plus the shared MOESI directory."""

    def __init__(self, cfg: CMPConfig, mesh: Mesh2D) -> None:
        self.cfg = cfg
        self.mesh = mesh
        n = cfg.num_cores
        self.l1i: List[Cache] = [Cache(cfg.mem.l1i) for _ in range(n)]
        self.l1d: List[Cache] = [Cache(cfg.mem.l1d) for _ in range(n)]
        self.l2: List[Cache] = [Cache(cfg.mem.l2_per_core) for _ in range(n)]
        self.directory = Directory(n, mesh, cfg.mem.memory_latency)
        self._l2_lat: Cycles = cfg.mem.l2_per_core.latency
        self._mem_lat: Cycles = cfg.mem.memory_latency
        self._shared_line_floor = SHARED_BASE >> cfg.mem.l1d.offset_bits

    # -- helpers ----------------------------------------------------------

    def is_shared_line(self, line: int) -> bool:
        return line >= self._shared_line_floor

    def _fill_l2(self, core: int, line: int) -> AccessResult | None:
        """Insert into L2, handling inclusive back-invalidation and
        coherence eviction of the victim.  Returns writeback info."""
        victim = self.l2[core].fill(line)
        wrote_back = False
        if victim is not None:
            # Inclusive hierarchy: kill the victim in both L1s.
            self.l1i[core].invalidate(victim)
            self.l1d[core].invalidate(victim)
            if self.is_shared_line(victim):
                wrote_back = self.directory.evict(core, victim)
        if wrote_back:
            return AccessResult(0, False, False, False, 0, 0, True)
        return None

    # -- instruction fetch -------------------------------------------------

    def fetch_instr(self, core: int, pc: int) -> AccessResult:
        """Instruction-cache access for one fetch group leader."""
        line = self.l1i[core].line_of(pc)
        if self.l1i[core].probe(line):
            return _L1_HIT
        lat = self._l2_lat
        l2 = self.l2[core]
        if not l2.probe(line):
            lat += self._mem_lat
            self._fill_l2(core, line)
        self.l1i[core].fill(line)
        return AccessResult(lat, False, True, lat > self._l2_lat, 0, 0, False)

    # -- data accesses ------------------------------------------------------

    def load(self, core: int, addr: int) -> AccessResult:
        line = self.l1d[core].line_of(addr)
        shared = self.is_shared_line(line)
        if self.l1d[core].probe(line):
            if not shared:
                return _L1_HIT
            # Shared line cached locally: still a hit unless another core
            # invalidated it (handled below via directory state).
            if self.directory.state_of(core, line) != State.I:
                return _L1_HIT
            self.l1d[core].invalidate(line)
            self.l2[core].invalidate(line)
            self.l1d[core].misses += 1  # reclassify the stale hit

        lat = self._l2_lat
        l2_hit = self.l2[core].probe(line)
        if shared and l2_hit and self.directory.state_of(core, line) == State.I:
            self.l2[core].invalidate(line)
            l2_hit = False

        flit_hops = 0
        invals = 0
        mem = False
        wb = False
        if not l2_hit:
            if shared:
                res = self.directory.read_miss(core, line)
                lat += res.latency
                flit_hops = self.mesh.record_message(res.hops)
                mem = not res.from_cache
            else:
                lat += self._mem_lat
                mem = True
            wb_res = self._fill_l2(core, line)
            wb = wb_res is not None
        self.l1d[core].fill(line)
        return AccessResult(lat, False, True, mem, flit_hops, invals, wb)

    def store(self, core: int, addr: int) -> AccessResult:
        line = self.l1d[core].line_of(addr)
        shared = self.is_shared_line(line)
        if not shared:
            # Private store: same path as a load (write-allocate).
            if self.l1d[core].probe(line):
                return _L1_HIT
            lat = self._l2_lat
            mem = False
            if not self.l2[core].probe(line):
                lat += self._mem_lat
                mem = True
                self._fill_l2(core, line)
            self.l1d[core].fill(line)
            return AccessResult(lat, False, True, mem, 0, 0, False)

        st = self.directory.state_of(core, line)
        l1_present = self.l1d[core].probe(line)
        if st in (State.M, State.E) and l1_present:
            if st == State.E:
                # Silent E->M upgrade.
                self.directory._set_state(core, line, State.M)
                entry = self.directory._entry(line)
                entry.dirty = True
            return _L1_HIT
        # Need GetM: upgrade from S/O/I (and refetch if not present).
        res = self.directory.write_miss(core, line)
        lat = self._l2_lat + res.latency
        flit_hops = self.mesh.record_message(res.hops)
        if not self.l2[core].contains(line):
            self._fill_l2(core, line)
        if not l1_present:
            self.l1d[core].fill(line)
        return AccessResult(
            lat, False, True, False, flit_hops, res.invalidations, False
        )

    def atomic(self, core: int, addr: int) -> AccessResult:
        """Atomic read-modify-write (lock/barrier primitives).

        Always needs M; modelled as a store with RMW port occupancy
        charged by the pipeline.
        """
        return self.store(core, addr)

    # -- warm-up -------------------------------------------------------------

    def prewarm(
        self,
        core: int,
        private_lines: range,
        shared_lines: range = range(0),
        code_lines: range = range(0),
    ) -> None:
        """Preload a core's never-filled L2 with its working set (no
        stats, no timing): private, then shared, then code lines.

        Mirrors the paper's methodology of measuring the *parallel phase*:
        by then the initialization phase has touched all program data, so
        steady-state runs see capacity/coherence misses, not a cold-start
        compulsory-miss storm.  Shared lines enter in S state (read by
        everyone during initialization).  Victims of a full set are
        dropped without back-invalidation or directory eviction.  Raises
        ``ValueError`` (before any state changes) if the core's L2 was
        already filled or the ranges share a line.
        """
        self.l2[core].preload((private_lines, shared_lines, code_lines))
        self.directory.add_sharer(core, shared_lines)

    # -- statistics ---------------------------------------------------------

    def miss_rates(self, core: int) -> dict:
        def rate(c: Cache) -> float:
            return c.misses / c.accesses if c.accesses else 0.0

        return {
            "l1i": rate(self.l1i[core]),
            "l1d": rate(self.l1d[core]),
            "l2": rate(self.l2[core]),
        }
