"""Tests for the set-associative cache (repro.mem.cache)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.mem.cache import Cache


def small_cache(sets=4, assoc=2):
    return Cache(CacheConfig(sets * assoc * 64, assoc))


class TestBasicOperations:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.probe(0x100)
        c.fill(0x100)
        assert c.probe(0x100)
        assert c.hits == 1
        assert c.misses == 1

    def test_contains_does_not_count(self):
        c = small_cache()
        c.fill(5)
        assert c.contains(5)
        assert not c.contains(6)
        assert c.hits == 0
        assert c.misses == 0

    def test_invalidate(self):
        c = small_cache()
        c.fill(9)
        assert c.invalidate(9)
        assert not c.contains(9)
        assert not c.invalidate(9)  # already gone

    def test_fill_same_line_twice_no_eviction(self):
        c = small_cache()
        assert c.fill(3) is None
        assert c.fill(3) is None
        valid, _ = c.occupancy()
        assert valid == 1

    def test_flush(self):
        c = small_cache()
        for line in range(8):
            c.fill(line)
        c.flush()
        assert c.occupancy()[0] == 0


class TestLRUReplacement:
    def test_evicts_least_recently_used(self):
        c = small_cache(sets=1, assoc=2)
        c.fill(0)
        c.fill(1)
        c.probe(0)          # 0 is now MRU
        victim = c.fill(2)  # evicts 1
        assert victim == 1
        assert c.contains(0)
        assert c.contains(2)

    def test_probe_refreshes_lru(self):
        c = small_cache(sets=1, assoc=4)
        for line in range(4):
            c.fill(line)
        c.probe(0)
        c.probe(1)
        victim = c.fill(99)
        assert victim == 2  # oldest untouched

    def test_eviction_counter(self):
        c = small_cache(sets=1, assoc=2)
        c.fill(0)
        c.fill(1)
        c.fill(2)
        assert c.evictions == 1

    def test_set_isolation(self):
        """Lines mapping to different sets never evict each other."""
        c = small_cache(sets=4, assoc=1)
        c.fill(0)  # set 0
        c.fill(1)  # set 1
        c.fill(2)  # set 2
        assert c.contains(0) and c.contains(1) and c.contains(2)

    def test_conflict_in_same_set(self):
        c = small_cache(sets=4, assoc=1)
        c.fill(0)
        victim = c.fill(4)  # same set (line % 4 == 0)
        assert victim == 0


class TestOccupancyInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    def test_never_exceeds_capacity(self, lines):
        c = small_cache(sets=4, assoc=2)
        for line in lines:
            if not c.probe(line):
                c.fill(line)
        valid, capacity = c.occupancy()
        assert valid <= capacity == 8

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
    def test_fill_then_immediate_probe_hits(self, lines):
        c = small_cache(sets=8, assoc=2)
        for line in lines:
            c.fill(line)
            assert c.probe(line)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 31), min_size=5, max_size=100))
    def test_hits_plus_misses_equals_accesses(self, lines):
        c = small_cache()
        for line in lines:
            c.probe(line)
            c.fill(line)
        assert c.hits + c.misses == c.accesses == len(lines)

    def test_working_set_within_capacity_converges_to_hits(self):
        c = small_cache(sets=8, assoc=2)  # 16 lines
        lines = list(range(12))
        for _ in range(3):
            for line in lines:
                if not c.probe(line):
                    c.fill(line)
        # Last two passes should be pure hits.
        assert c.hits >= 2 * len(lines)


class _NestedCache:
    """The one-list-per-set cache the flat layout replaced, as the
    reference for the differential test below: its methods unchanged,
    plus ``restamp_line`` and a (set, way) reader."""

    def __init__(self, cfg: CacheConfig) -> None:
        self.num_sets = cfg.num_sets
        self.assoc = cfg.assoc
        self._index_mask = self.num_sets - 1
        self._tags = [[-1] * self.assoc for _ in range(self.num_sets)]
        self._lru = [[0] * self.assoc for _ in range(self.num_sets)]
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def probe(self, line, update_lru=True):
        s = line & self._index_mask
        tags = self._tags[s]
        for w in range(self.assoc):
            if tags[w] == line:
                if update_lru:
                    self._tick += 1
                    self._lru[s][w] = self._tick
                self.hits += 1
                return True
        self.misses += 1
        return False

    def contains(self, line):
        return line in self._tags[line & self._index_mask]

    def fill(self, line):
        s = line & self._index_mask
        tags = self._tags[s]
        lru = self._lru[s]
        self._tick += 1
        victim_way = 0
        for w in range(self.assoc):
            if tags[w] == line:
                lru[w] = self._tick
                return None
            if tags[w] == -1:
                tags[w] = line
                lru[w] = self._tick
                return None
        oldest = lru[0]
        for w in range(1, self.assoc):
            if lru[w] < oldest:
                oldest = lru[w]
                victim_way = w
        victim_line = tags[victim_way]
        tags[victim_way] = line
        lru[victim_way] = self._tick
        self.evictions += 1
        return victim_line

    def invalidate(self, line):
        s = line & self._index_mask
        tags = self._tags[s]
        for w in range(self.assoc):
            if tags[w] == line:
                tags[w] = -1
                self._lru[s][w] = 0
                return True
        return False

    def restamp_line(self, line):
        """What FastEngine's replay exit did: the way holding ``line``
        gets the current tick as its stamp."""
        s = line & self._index_mask
        for w in range(self.assoc):
            if self._tags[s][w] == line:
                self._lru[s][w] = self._tick
                return True
        return False

    def flush(self):
        for s in range(self.num_sets):
            for w in range(self.assoc):
                self._tags[s][w] = -1
                self._lru[s][w] = 0

    def occupancy(self):
        valid = sum(
            1
            for s in range(self.num_sets)
            for w in range(self.assoc)
            if self._tags[s][w] != -1
        )
        return valid, self.num_sets * self.assoc

    def ways(self):
        return [
            (self._tags[s][w], self._lru[s][w])
            for s in range(self.num_sets)
            for w in range(self.assoc)
        ]


def _flat_ways(cache: Cache):
    return list(zip(cache._tags, cache._lru))


def _counters(c):
    return (c._tick, c.hits, c.misses, c.evictions, c.occupancy())


# 24 lines over 4 sets: most operations find their line present or
# evict from a full set.  fill is listed twice to fill sets faster.
_LINES = st.integers(0, 23)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("probe"), _LINES, st.booleans()),
        st.tuples(st.just("fill"), _LINES),
        st.tuples(st.just("fill"), _LINES),
        st.tuples(st.just("invalidate"), _LINES),
        st.tuples(st.just("contains"), _LINES),
        st.tuples(st.just("restamp"), _LINES),
        st.tuples(st.just("flush")),
    ),
    max_size=120,
)


@st.composite
def _disjoint_ranges(draw):
    """Up to three step-1 ranges that share no line, in any order.

    Starts fall on and off set boundaries, ranges may be empty or
    adjacent, and one range may be longer than the whole cache, so sets
    overflow and evict."""
    spans = []
    start = draw(st.integers(0, 9))
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(0, 40))
        spans.append(range(start, start + length))
        start += length + draw(st.integers(0, 9))
    return draw(st.permutations(spans))


def _per_line_preload(ref, ranges):
    """The per-line prewarm loop ``Cache.preload`` stands for."""
    for r in ranges:
        for line in r:
            if not ref.contains(line):
                ref.fill(line)


class TestFlatLayoutMatchesNested:
    """The flat ``set * assoc + way`` arrays against the one-list-per-set
    cache they replaced: same return values, victims, counters, occupancy
    and (set, way) contents after every operation.  Each case starts with
    a ``preload`` of the fresh cache, checked against the per-line
    ``contains``/``fill`` loop it stands for, and checks
    ``slot_of``/``restamp`` against the engine's old direct (set, way)
    re-stamp."""

    @pytest.mark.parametrize("assoc", [1, 2, 4])
    @settings(max_examples=100, deadline=None)
    @given(ranges=_disjoint_ranges(), ops=_OPS)
    def test_same_behaviour(self, assoc, ranges, ops):
        cfg = CacheConfig(4 * assoc * 64, assoc)
        flat, ref = Cache(cfg), _NestedCache(cfg)
        flat.preload(ranges)
        _per_line_preload(ref, ranges)
        assert _counters(flat) == _counters(ref)
        assert _flat_ways(flat) == ref.ways()
        for op in ops:
            kind, args = op[0], op[1:]
            if kind == "restamp":
                slot = flat.slot_of(args[0])
                if slot is not None:
                    flat.restamp(slot)
                assert (slot is not None) == ref.restamp_line(args[0])
            else:
                assert getattr(flat, kind)(*args) == getattr(ref, kind)(*args)
            assert _counters(flat) == _counters(ref)
            assert _flat_ways(flat) == ref.ways()

    def test_preload_evicts_like_fill(self):
        """A range three times the cache's size, from a start off a set
        boundary, overflows every set."""
        cfg = CacheConfig(4 * 2 * 64, 2)
        flat, ref = Cache(cfg), _NestedCache(cfg)
        flat.preload([range(3, 27)])
        _per_line_preload(ref, [range(3, 27)])
        assert flat.evictions == ref.evictions == 16
        assert _counters(flat) == _counters(ref)
        assert _flat_ways(flat) == ref.ways()


class TestPreloadContract:
    """The closed form holds only for distinct lines entering a cache
    that was never filled; anything else is refused before any write."""

    @pytest.mark.parametrize("touch", [
        lambda c: c.fill(5),
        lambda c: c.preload([range(5, 6)]),
    ], ids=["fill", "preload"])
    def test_preload_after_a_fill_raises(self, touch):
        c = small_cache()
        touch(c)
        ways = _flat_ways(c)
        with pytest.raises(ValueError, match="never-filled"):
            c.preload([range(8, 12)])
        assert _flat_ways(c) == ways

    @pytest.mark.parametrize("ranges", [
        [range(0, 10), range(9, 12)],
        [range(9, 12), range(0, 10)],
        [range(4, 6), range(0, 3), range(5, 5), range(2, 4)],
    ])
    def test_overlapping_ranges_raise(self, ranges):
        c = small_cache()
        with pytest.raises(ValueError, match="overlap"):
            c.preload(ranges)
        assert _counters(c) == (0, 0, 0, 0, (0, 8))

    def test_ranges_must_step_by_one(self):
        with pytest.raises(ValueError, match="step"):
            small_cache().preload([range(0, 10, 2)])
