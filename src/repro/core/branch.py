"""Gshare branch predictor (Table 1: 64 KB, 16-bit gshare).

Classic gshare: the prediction index is the branch PC XORed with a
global history register; each table entry is a 2-bit saturating
counter.  A 64 KB table of 2-bit counters holds 256K counters (18
index bits); the paper's "16 bit" refers to the history length, which
we honour.
"""

from __future__ import annotations


class GsharePredictor:
    """2-bit-counter gshare with configurable history length."""

    __slots__ = ("_table", "_mask", "history", "_hist_mask",
                 "lookups", "mispredictions")

    def __init__(self, table_bytes: int = 64 * 1024, history_bits: int = 16):
        if table_bytes <= 0:
            raise ValueError("table size must be positive")
        counters = table_bytes * 4  # 2-bit counters
        if counters & (counters - 1):
            raise ValueError("counter count must be a power of two")
        # Weakly-taken initial state: loops predict well immediately.
        self._table = bytearray(b"\x02") * counters
        self._mask = counters - 1
        self.history = 0
        self._hist_mask = (1 << history_bits) - 1
        self.lookups = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self._mask

    def predict(self, pc: int) -> bool:
        self.lookups += 1
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, train and advance history; returns ``mispredicted``.

        Combines lookup and update because the simulator resolves
        branches at fetch (the *timing* cost of a misprediction is
        applied separately by the pipeline).
        """
        i = self._index(pc)
        c = self._table[i]
        predicted = c >= 2
        if taken:
            if c < 3:
                self._table[i] = c + 1
        else:
            if c > 0:
                self._table[i] = c - 1
        self.history = ((self.history << 1) | (1 if taken else 0)) & self._hist_mask
        self.lookups += 1
        mispred = predicted != taken
        if mispred:
            self.mispredictions += 1
        return mispred

    @property
    def accuracy(self) -> float:
        if self.lookups == 0:
            return 1.0
        return 1.0 - self.mispredictions / self.lookups
