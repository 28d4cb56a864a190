"""Set-associative cache with LRU replacement.

Used for the per-core L1 I/D caches and the per-core unified L2
(Table 1).  Lines are tracked at cache-line (64 B) granularity; the
simulator only cares about hit/miss timing, occupancy and the victim
line (for write-back accounting and inclusive-hierarchy invalidation),
not data values.

The implementation favours the common case — a hit in a 2- or 4-way
set — which is a short scan over a Python list.  Each cache keeps its
tags and LRU stamps in two flat lists, way ``w`` of set ``s`` at index
``s * assoc + w``, so building a cache allocates two lists whatever its
size (lists per set would make a 16-core hierarchy 163,840 lists).  For
associativities this small plain lists beat numpy scalar indexing by a
wide margin.  No code outside this module indexes the two lists; the
fast engine's spin replay goes through :meth:`Cache.slot_of` and
:meth:`Cache.restamp`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..config import CacheConfig


class Cache:
    """One level of set-associative cache.

    Stores line addresses (address >> offset_bits) rather than raw
    addresses.  ``probe``/``fill``/``invalidate`` are the access
    operations; the hierarchy composes them into load/store handling,
    and warms a cache with ``preload``.
    """

    __slots__ = (
        "cfg", "num_sets", "assoc", "_index_mask", "_offset_bits",
        "_tags", "_lru", "_tick", "hits", "misses", "evictions",
    )

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        self.assoc = cfg.assoc
        self._index_mask = self.num_sets - 1
        self._offset_bits = cfg.offset_bits
        ways = self.num_sets * self.assoc
        self._tags: List[int] = [-1] * ways
        self._lru: List[int] = [0] * ways
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def line_of(self, addr: int) -> int:
        return addr >> self._offset_bits

    def probe(self, line: int, update_lru: bool = True) -> bool:
        """True if ``line`` is present; updates LRU and counters."""
        base = (line & self._index_mask) * self.assoc
        tags = self._tags
        for w in range(base, base + self.assoc):
            if tags[w] == line:
                if update_lru:
                    self._tick += 1
                    self._lru[w] = self._tick
                self.hits += 1
                return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU or hit/miss counters."""
        base = (line & self._index_mask) * self.assoc
        return line in self._tags[base:base + self.assoc]

    def fill(self, line: int) -> Optional[int]:
        """Insert ``line``; returns the evicted line (or None)."""
        base = (line & self._index_mask) * self.assoc
        end = base + self.assoc
        tags = self._tags
        lru = self._lru
        self._tick += 1
        for w in range(base, end):
            if tags[w] == line:      # already present (racing fills)
                lru[w] = self._tick
                return None
            if tags[w] == -1:
                tags[w] = line
                lru[w] = self._tick
                return None
        # Set full: evict true LRU way.
        victim_way = base
        oldest = lru[base]
        for w in range(base + 1, end):
            if lru[w] < oldest:
                oldest = lru[w]
                victim_way = w
        victim_line = tags[victim_way]
        tags[victim_way] = line
        lru[victim_way] = self._tick
        self.evictions += 1
        return victim_line

    def preload(self, lines: Iterable[int]) -> None:
        """Insert every absent line of ``lines`` in order, as ``fill``
        would, discarding victims; present lines are left untouched.

        The bulk form of the prewarm loop ``if not contains(line):
        fill(line)``: same ways, stamps, ``_tick`` and ``evictions`` from
        any starting state, in one call instead of two per line.
        Hit/miss counters are not touched.
        """
        tags = self._tags
        lru = self._lru
        mask = self._index_mask
        assoc = self.assoc
        tick = self._tick
        evictions = self.evictions
        for line in lines:
            base = (line & mask) * assoc
            ways = tags[base:base + assoc]
            if line in ways:
                continue
            tick += 1
            try:
                w = base + ways.index(-1)
            except ValueError:
                # Set full: the first least-recently-used way, as fill.
                stamps = lru[base:base + assoc]
                w = base + stamps.index(min(stamps))
                evictions += 1
            tags[w] = line
            lru[w] = tick
        self._tick = tick
        self.evictions = evictions

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present; returns whether it was present."""
        base = (line & self._index_mask) * self.assoc
        tags = self._tags
        for w in range(base, base + self.assoc):
            if tags[w] == line:
                tags[w] = -1
                self._lru[w] = 0
                return True
        return False

    def slot_of(self, line: int) -> Optional[int]:
        """Opaque handle of the way holding ``line`` (None if absent),
        for :meth:`restamp`.  Touches neither LRU nor counters."""
        base = (line & self._index_mask) * self.assoc
        tags = self._tags
        for w in range(base, base + self.assoc):
            if tags[w] == line:
                return w
        return None

    def restamp(self, slot: int) -> None:
        """Give the way at ``slot`` the current LRU stamp, without
        advancing the tick: the state a run of hits on one line leaves."""
        self._lru[slot] = self._tick

    def flush(self) -> None:
        ways = len(self._tags)
        self._tags[:] = [-1] * ways
        self._lru[:] = [0] * ways

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def occupancy(self) -> Tuple[int, int]:
        """(valid lines, total ways) — used by tests and reports."""
        ways = len(self._tags)
        return ways - self._tags.count(-1), ways
