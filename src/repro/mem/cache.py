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

from typing import List, Optional, Sequence, Tuple

from ..config import CacheConfig


class Cache:
    """One level of set-associative cache.

    Stores line addresses (address >> offset_bits) rather than raw
    addresses.  ``probe``/``fill``/``invalidate`` are the access
    operations; the hierarchy composes them into load/store handling,
    and warms a never-filled cache with ``preload``.
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

    def preload(self, ranges: Sequence[range]) -> None:
        """Fill a never-filled cache with the lines of ``ranges`` in
        order, leaving exactly the state one ``fill`` per line would:
        same ways, stamps, ``_tick`` and ``evictions``; victims are
        discarded and hit/miss counters are not touched.

        Closed form: a set that receives lines one by one from empty
        puts its k-th line (k from 0) in way ``k % assoc`` (an empty way
        while one is left, then the least recently stamped, which is
        that way again), stamps it with the line's position in the whole
        sequence plus one, and evicts ``max(0, level - assoc)`` lines.
        Consecutive lines map to consecutive sets, so a range is a few
        passes over runs of sets; the fill level is kept as run-length
        segments of sets, and each segment a pass crosses takes its
        lines and stamps in one strided slice of each array.

        Raises ``ValueError`` if the cache was ever filled, if a range
        does not step by 1, or if two ranges share a line: the closed
        form holds only for distinct lines entering empty sets.
        """
        if self._tick:
            raise ValueError("preload needs a never-filled cache")
        if any(r.step != 1 for r in ranges if r):
            raise ValueError("preload ranges must step by 1")
        spans = sorted((r.start, r.stop) for r in ranges if r)
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            if start < stop:
                raise ValueError("preload ranges overlap")
        tags = self._tags
        lru = self._lru
        assoc = self.assoc
        mask = self._index_mask
        # (first set, end set, fill level) segments covering every set.
        segments = [(0, self.num_sets, 0)]
        stamp = 1
        evictions = 0
        for r in ranges:
            line, stop = r.start, r.stop
            while line < stop:
                # One pass: sets first..end-1 take line + (set - first).
                first = line & mask
                end = min(self.num_sets, first + stop - line)
                base = line - first
                stamp_base = stamp - first
                crossed = []
                for lo, hi, level in segments:
                    a, b = max(lo, first), min(hi, end)
                    if a >= b:
                        crossed.append((lo, hi, level))
                        continue
                    way = level % assoc
                    tags[a * assoc + way:b * assoc:assoc] = range(
                        base + a, base + b)
                    lru[a * assoc + way:b * assoc:assoc] = range(
                        stamp_base + a, stamp_base + b)
                    if level >= assoc:
                        evictions += b - a
                    if lo < a:
                        crossed.append((lo, a, level))
                    crossed.append((a, b, level + 1))
                    if b < hi:
                        crossed.append((b, hi, level))
                segments = crossed
                stamp += end - first
                line += end - first
        self._tick = stamp - 1
        self.evictions += evictions

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
