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


def _per_line_add_sharer(d, core, lines):
    """The per-line loop ``Directory.add_sharer`` replaced."""
    for line in lines:
        if d.state_of(core, line) == State.I:
            entry = d._entry(line)
            entry.sharers.add(core)
            d._set_state(core, line, State.S)


def _per_line_prewarm(h, core, private_lines, shared_lines=range(0),
                      code_lines=range(0)):
    """The per-line prewarm loop that ``Cache.preload`` and
    ``Directory.add_sharer`` replaced, as the differential reference."""
    l2 = h.l2[core]
    hits, misses = l2.hits, l2.misses
    for lines in (private_lines, shared_lines, code_lines):
        for line in lines:
            if not l2.contains(line):
                l2.fill(line)
    _per_line_add_sharer(h.directory, core, shared_lines)
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


def _tiny_hierarchy(assoc=4):
    """Three cores whose 8-set L2 (8 * assoc lines) a short range
    overflows."""
    mem = MemoryConfig(
        l1i=CacheConfig(4 * 2 * 64, 2),
        l1d=CacheConfig(4 * 2 * 64, 2),
        l2_per_core=CacheConfig(8 * assoc * 64, assoc, latency=12),
    )
    cfg = CMPConfig(num_cores=3, mem=mem)
    return MemoryHierarchy(cfg, Mesh2D(3, cfg.net))


_PRIV_LINE = PRIV >> 6
_SHARED_LINE = SHARED >> 6
_CORE = st.integers(0, 2)
# (offset, length): starts on and off the 8-set boundary, empty ranges,
# and ranges up to 10x a 1-way L2 that overflow sets and evict.
_SPAN = st.tuples(st.integers(0, 40), st.integers(0, 80))
_ACCESSES = st.lists(
    st.tuples(st.sampled_from(["load", "store"]), _CORE,
              st.booleans(), st.integers(0, 60)),
    max_size=25,
)


def _prewarm_ranges(private, shared, code):
    """A core's private, shared and code lines from three (offset,
    length) spans, in the regions ``CMPSimulator`` prewarms."""
    return (
        range(_PRIV_LINE + private[0], _PRIV_LINE + sum(private)),
        range(_SHARED_LINE + shared[0], _SHARED_LINE + sum(shared)),
        range(code[0], sum(code)),
    )


def _access(h, op):
    kind, core, shared, off = op
    return getattr(h, kind)(core, (SHARED if shared else PRIV) + off * 64)


class TestBulkPrewarmMatchesPerLineLoop:
    """``prewarm`` against the per-line loop it replaced: every core of a
    fresh hierarchy is prewarmed once, then random loads and stores run,
    and the state must match after every step.  Ranges start on and off
    set boundaries, may be empty and overflow sets (the eviction branch
    no shipped benchmark reaches)."""

    @settings(max_examples=100, deadline=None)
    @given(
        assoc=st.sampled_from([1, 2, 4]),
        spans=st.lists(st.tuples(_SPAN, _SPAN, _SPAN), min_size=3,
                       max_size=3),
        ops=_ACCESSES,
    )
    def test_same_state_after_every_step(self, assoc, spans, ops):
        bulk, ref = _tiny_hierarchy(assoc), _tiny_hierarchy(assoc)
        for core, span in enumerate(spans):
            ranges = _prewarm_ranges(*span)
            bulk.prewarm(core, *ranges)
            _per_line_prewarm(ref, core, *ranges)
            assert _hierarchy_state(bulk) == _hierarchy_state(ref)
        for op in ops:
            assert _access(bulk, op) == _access(ref, op)
            assert _hierarchy_state(bulk) == _hierarchy_state(ref)

    def test_overflowing_prewarm_evicts_like_fill(self):
        bulk, ref = _tiny_hierarchy(), _tiny_hierarchy()
        ranges = (range(_PRIV_LINE, _PRIV_LINE + 70),
                  range(_SHARED_LINE + 3, _SHARED_LINE + 23),
                  range(0, 40))
        bulk.prewarm(0, *ranges)
        _per_line_prewarm(ref, 0, *ranges)
        bulk.prewarm(1, range(0, 40))
        _per_line_prewarm(ref, 1, range(0, 40))
        assert bulk.l2[0].evictions == ref.l2[0].evictions == 98
        assert bulk.l2[1].evictions == ref.l2[1].evictions == 8
        assert _hierarchy_state(bulk) == _hierarchy_state(ref)

    @settings(max_examples=60, deadline=None)
    @given(ops=_ACCESSES, core=_CORE, span=_SPAN)
    def test_add_sharer_matches_per_line_loop_from_any_state(
            self, ops, core, span):
        """Shared lines the core already holds, in any MOESI state,
        keep their state and their place in the dict order."""
        bulk, ref = _tiny_hierarchy(), _tiny_hierarchy()
        for op in ops:
            _access(bulk, op)
            _access(ref, op)
        lines = range(_SHARED_LINE + span[0], _SHARED_LINE + sum(span))
        bulk.directory.add_sharer(core, lines)
        _per_line_add_sharer(ref.directory, core, lines)
        assert _hierarchy_state(bulk) == _hierarchy_state(ref)


class TestPrewarmContract:
    """``prewarm`` writes a never-filled L2 in closed form, so it refuses,
    before changing any state, an L2 that was ever filled and ranges that
    share a line."""

    @settings(max_examples=40, deadline=None)
    @given(ops=_ACCESSES.filter(bool))
    def test_prewarm_after_any_fill_raises(self, ops):
        h = _tiny_hierarchy()
        for op in ops:
            _access(h, op)
        touched = {op[1] for op in ops}    # a first access always fills
        before = _hierarchy_state(h)
        for core in touched:
            with pytest.raises(ValueError, match="never-filled"):
                h.prewarm(core, range(_PRIV_LINE, _PRIV_LINE + 4),
                          range(_SHARED_LINE, _SHARED_LINE + 4))
        assert _hierarchy_state(h) == before
        for core in {0, 1, 2} - touched:
            h.prewarm(core, range(_PRIV_LINE, _PRIV_LINE + 4))

    def test_second_prewarm_of_a_core_raises(self):
        h = _tiny_hierarchy()
        h.prewarm(0, range(_PRIV_LINE, _PRIV_LINE + 4))
        before = _hierarchy_state(h)
        with pytest.raises(ValueError, match="never-filled"):
            h.prewarm(0, range(0), range(_SHARED_LINE, _SHARED_LINE + 4))
        assert _hierarchy_state(h) == before
        h.prewarm(1, range(0), range(_SHARED_LINE, _SHARED_LINE + 4))

    @pytest.mark.parametrize("ranges", [
        (range(100, 110), range(105, 120)),
        (range(0), range(_SHARED_LINE, _SHARED_LINE + 4),
         range(_SHARED_LINE + 3, _SHARED_LINE + 5)),
        (range(0, 10), range(0), range(9, 1024)),
    ], ids=["private-shared", "shared-code", "private-code"])
    def test_overlapping_ranges_raise(self, ranges):
        h = _tiny_hierarchy()
        before = _hierarchy_state(h)
        with pytest.raises(ValueError, match="overlap"):
            h.prewarm(0, *ranges)
        assert _hierarchy_state(h) == before
