"""Tests for the per-core cache hierarchy + coherence glue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, CMPConfig, MemoryConfig
from repro.mem.coherence import State
from repro.mem.hierarchy import MemoryHierarchy
from repro.noc.mesh import Mesh2D
from repro.trace.generator import SHARED_BASE


@pytest.fixture
def hier():
    cfg = CMPConfig(num_cores=4)
    return MemoryHierarchy(cfg, Mesh2D(4, cfg.net))


PRIV = 1 << 34
SHARED = SHARED_BASE


class TestPrivatePath:
    def test_cold_load_goes_to_memory(self, hier):
        res = hier.load(0, PRIV)
        assert not res.l1_hit
        assert res.l2_access
        assert res.mem_access
        assert res.latency >= 300

    def test_warm_load_hits_l1(self, hier):
        hier.load(0, PRIV)
        res = hier.load(0, PRIV)
        assert res.l1_hit
        assert res.latency == 0

    def test_l2_hit_after_l1_eviction(self, hier):
        hier.load(0, PRIV)
        # Evict from L1 by filling its set (2 ways + 1 conflict).
        l1 = hier.l1d[0]
        set_stride = l1.num_sets * 64
        hier.load(0, PRIV + set_stride)
        hier.load(0, PRIV + 2 * set_stride)
        res = hier.load(0, PRIV)
        assert not res.l1_hit
        assert res.l2_access
        assert not res.mem_access
        assert res.latency == 12

    def test_private_store_write_allocates(self, hier):
        res = hier.store(0, PRIV)
        assert res.mem_access
        res2 = hier.store(0, PRIV)
        assert res2.l1_hit

    def test_private_data_is_core_local(self, hier):
        hier.load(0, PRIV)
        res = hier.load(1, PRIV)  # different core: own hierarchy, cold
        assert not res.l1_hit
        assert res.mem_access


class TestSharedPath:
    def test_shared_load_engages_directory(self, hier):
        res = hier.load(0, SHARED)
        assert res.mem_access
        line = hier.l1d[0].line_of(SHARED)
        assert hier.directory.state_of(0, line) == State.E

    def test_cache_to_cache_transfer(self, hier):
        hier.load(0, SHARED)
        res = hier.load(1, SHARED)
        assert not res.mem_access  # supplied on-chip
        assert res.flit_hops > 0

    def test_store_invalidates_remote_readers(self, hier):
        hier.load(0, SHARED)
        hier.load(1, SHARED)
        res = hier.store(2, SHARED)
        assert res.invalidations >= 1
        # Reader 0's next load must miss (its copy was invalidated).
        res0 = hier.load(0, SHARED)
        assert not res0.l1_hit

    def test_store_hit_in_modified_is_free(self, hier):
        hier.store(0, SHARED)
        res = hier.store(0, SHARED)
        assert res.l1_hit

    def test_silent_e_to_m_upgrade(self, hier):
        hier.load(0, SHARED)   # E
        res = hier.store(0, SHARED)
        assert res.l1_hit      # no traffic for E->M
        line = hier.l1d[0].line_of(SHARED)
        assert hier.directory.state_of(0, line) == State.M

    def test_atomic_behaves_like_store(self, hier):
        res = hier.atomic(0, SHARED)
        line = hier.l1d[0].line_of(SHARED)
        assert hier.directory.state_of(0, line) == State.M

    def test_is_shared_line_boundary(self, hier):
        assert hier.is_shared_line(hier.l1d[0].line_of(SHARED))
        assert not hier.is_shared_line(hier.l1d[0].line_of(PRIV))


class TestInstructionFetch:
    def test_cold_fetch_misses(self, hier):
        res = hier.fetch_instr(0, 0x1000)
        assert res.latency > 0

    def test_warm_fetch_hits(self, hier):
        hier.fetch_instr(0, 0x1000)
        res = hier.fetch_instr(0, 0x1000)
        assert res.l1_hit
        assert res.latency == 0

    def test_same_line_fetch_hits(self, hier):
        hier.fetch_instr(0, 0x1000)
        res = hier.fetch_instr(0, 0x1004)  # same 64 B line
        assert res.l1_hit


class TestPrewarm:
    def test_prewarm_fills_l2(self, hier):
        line = hier.l2[0].line_of(PRIV)
        hier.prewarm(0, range(line, line + 64))
        res = hier.load(0, PRIV)
        assert not res.mem_access
        assert res.latency == 12

    def test_prewarm_shared_enters_s_state(self, hier):
        line = hier.l1d[0].line_of(SHARED)
        hier.prewarm(0, range(0), range(line, line + 8))
        assert hier.directory.state_of(0, line) == State.S

    def test_prewarm_does_not_pollute_stats(self, hier):
        line = hier.l2[0].line_of(PRIV)
        hier.prewarm(0, range(line, line + 128))
        assert hier.l2[0].hits == 0
        assert hier.l2[0].misses == 0


class TestInclusive:
    def test_l2_eviction_back_invalidates_l1(self, hier):
        cfg = CMPConfig(num_cores=1)
        h = MemoryHierarchy(cfg, Mesh2D(1, cfg.net))
        l2 = h.l2[0]
        base_line = l2.line_of(PRIV)
        # Fill one L2 set completely, then one more to force an eviction.
        stride = l2.num_sets
        addrs = [PRIV + i * stride * 64 for i in range(l2.assoc + 1)]
        for a in addrs:
            h.load(0, a)
        victim_line = l2.line_of(addrs[0])
        assert not h.l1d[0].contains(victim_line)

    def test_miss_rates_reporting(self, hier):
        hier.load(0, PRIV)
        hier.load(0, PRIV)
        rates = hier.miss_rates(0)
        assert 0.0 <= rates["l1d"] <= 1.0
        assert rates["l1d"] == pytest.approx(0.5)


def _per_line_prewarm(h, core, private_lines, shared_lines=range(0)):
    """The per-line prewarm loop that ``Cache.preload`` and
    ``Directory.add_sharer`` replaced, as the differential reference."""
    l2 = h.l2[core]
    hits, misses = l2.hits, l2.misses
    for line in private_lines:
        if not l2.contains(line):
            l2.fill(line)
    for line in shared_lines:
        if not l2.contains(line):
            l2.fill(line)
        if h.directory.state_of(core, line) == State.I:
            entry = h.directory._entry(line)
            entry.sharers.add(core)
            h.directory._set_state(core, line, State.S)
    l2.hits, l2.misses = hits, misses


def _hierarchy_state(h):
    """Every cache way with its LRU stamp and counters, then the
    directory's entries and per-core line states, in dict order."""
    caches = [
        (list(zip(c._tags, c._lru)), c._tick, c.hits, c.misses, c.evictions)
        for level in (h.l1i, h.l1d, h.l2)
        for c in level
    ]
    d = h.directory
    entries = [
        (line, e.owner, sorted(e.sharers), e.dirty)
        for line, e in d._entries.items()
    ]
    return caches, entries, [list(v.items()) for v in d._core_state]


def _tiny_hierarchy():
    """Three cores whose 8-set, 4-way L2 (32 lines) a short range overflows."""
    mem = MemoryConfig(
        l1i=CacheConfig(4 * 2 * 64, 2),
        l1d=CacheConfig(4 * 2 * 64, 2),
        l2_per_core=CacheConfig(8 * 4 * 64, 4, latency=12),
    )
    cfg = CMPConfig(num_cores=3, mem=mem)
    return MemoryHierarchy(cfg, Mesh2D(3, cfg.net))


_PRIV_LINE = PRIV >> 6
_SHARED_LINE = SHARED >> 6
_CORE = st.integers(0, 2)
_PREWARM_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("prewarm"), _CORE,
            st.integers(0, 40), st.integers(0, 80),
            st.integers(0, 40), st.integers(0, 80),
        ),
        st.tuples(st.sampled_from(["load", "store"]), _CORE,
                  st.booleans(), st.integers(0, 60)),
    ),
    max_size=25,
)


class TestBulkPrewarmMatchesPerLineLoop:
    """``prewarm`` against the per-line loop it replaced, from whatever
    state earlier prewarms and accesses left: ranges repeat lines already
    present, overlap each other and overflow sets (the eviction branch no
    shipped benchmark reaches), and shared lines may already be held in
    any MOESI state."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_PREWARM_OPS)
    def test_same_state_after_every_step(self, ops):
        bulk, ref = _tiny_hierarchy(), _tiny_hierarchy()
        for op in ops:
            if op[0] == "prewarm":
                _, core, p0, plen, s0, slen = op
                private = range(_PRIV_LINE + p0, _PRIV_LINE + p0 + plen)
                shared = range(_SHARED_LINE + s0, _SHARED_LINE + s0 + slen)
                bulk.prewarm(core, private, shared)
                _per_line_prewarm(ref, core, private, shared)
            else:
                kind, core, shared, off = op
                addr = (SHARED if shared else PRIV) + off * 64
                assert getattr(bulk, kind)(core, addr) == getattr(ref, kind)(
                    core, addr)
            assert _hierarchy_state(bulk) == _hierarchy_state(ref)

    def test_overflowing_prewarm_evicts_like_fill(self):
        bulk, ref = _tiny_hierarchy(), _tiny_hierarchy()
        for h in (bulk, ref):
            h.load(0, SHARED)            # E, then M: kept by the prewarm
            h.store(0, SHARED)
            h.load(0, PRIV + 3 * 64)
        private = range(_PRIV_LINE, _PRIV_LINE + 70)
        shared = range(_SHARED_LINE, _SHARED_LINE + 20)
        bulk.prewarm(0, private, shared)
        _per_line_prewarm(ref, 0, private, shared)
        bulk.prewarm(1, range(0, 40))
        _per_line_prewarm(ref, 1, range(0, 40))
        assert bulk.l2[0].evictions == ref.l2[0].evictions > 0
        assert bulk.l2[1].evictions == ref.l2[1].evictions > 0
        assert bulk.directory.state_of(0, _SHARED_LINE) == State.M
        assert _hierarchy_state(bulk) == _hierarchy_state(ref)
