"""Lane-packed bit storage — the memory layout at the heart of the GBF.

§3.1: "instead of dividing the entire memory into separate pieces for
separate Bloom filters, the bits with the same index in each Bloom
filter are grouped together ... the CPU can visit the required bits in
a bunch."

A :class:`LanePackedBitMatrix` stores ``num_slots`` *fields* of
``num_lanes`` bits each (one bit per logical Bloom filter) inside
``word_bits``-wide machine words, in whichever of two layouts applies:

* **dense** (``num_lanes <= word_bits``): ``word_bits // num_lanes``
  whole fields share one word.  A membership probe reads one word per
  hash index; cleaning one lane across a word's worth of slots is a
  single read-modify-write — this is what makes the GBF's per-element
  cleaning cost ``O(Q/D * M/N)`` (Theorem 1.3) rather than ``O(Q*M/N)``.
* **wide** (``num_lanes > word_bits``): each field spans
  ``ceil(num_lanes / word_bits)`` words; probes cost that many reads per
  hash index, which is exactly the regime where §4 hands over to TBF.

All accesses are tallied into an
:class:`~repro.bitset.words.OperationCounter` supplied by the owner.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..bitset.words import OperationCounter
from ..errors import ConfigurationError
from . import kernels


class LanePackedBitMatrix:
    """``num_slots`` fields of ``num_lanes`` bits packed into words."""

    def __init__(
        self,
        num_slots: int,
        num_lanes: int,
        word_bits: int = 64,
        counter: OperationCounter | None = None,
    ) -> None:
        if num_slots < 1:
            raise ConfigurationError(f"num_slots must be >= 1, got {num_slots}")
        if num_lanes < 1:
            raise ConfigurationError(f"num_lanes must be >= 1, got {num_lanes}")
        if word_bits not in (8, 16, 32, 64):
            raise ConfigurationError(f"word_bits must be 8/16/32/64, got {word_bits}")
        self.num_slots = num_slots
        self.num_lanes = num_lanes
        self.word_bits = word_bits
        self.counter = counter if counter is not None else OperationCounter()
        self.field_mask = (1 << num_lanes) - 1

        if num_lanes <= word_bits:
            #: Whole fields per word (dense layout); 1 in the wide layout.
            self.slots_per_word = word_bits // num_lanes
            self.words_per_slot = 1
            num_words = -(-num_slots // self.slots_per_word)
        else:
            self.slots_per_word = 1
            self.words_per_slot = -(-num_lanes // word_bits)
            num_words = num_slots * self.words_per_slot
        self._words = np.zeros(num_words, dtype=np.uint64)
        # Lazily-built per-slot gather tables for the batch probe path
        # (dense multi-slot layout only): word index and bit shift of
        # every slot, so a probe is two gathers instead of a divmod.
        self._slot_word: "np.ndarray | None" = None
        self._slot_shift: "np.ndarray | None" = None

    def _probe_tables(self) -> tuple:
        if self._slot_word is None:
            slots = np.arange(self.num_slots, dtype=np.int64)
            self._slot_word = slots // self.slots_per_word
            self._slot_shift = (
                (slots % self.slots_per_word) * self.num_lanes
            ).astype(np.uint64)
        return self._slot_word, self._slot_shift

    # ------------------------------------------------------------------
    # Dense-layout helpers
    # ------------------------------------------------------------------

    def _field_position(self, slot: int) -> tuple:
        word_index, slot_in_word = divmod(slot, self.slots_per_word)
        return word_index, slot_in_word * self.num_lanes

    # ------------------------------------------------------------------
    # Probing and insertion
    # ------------------------------------------------------------------

    def probe_and(self, indices: Sequence[int]) -> List[int]:
        """AND the fields at ``indices``; returns the lane-bit survivors.

        The result is a little-endian list of words (one when
        ``num_lanes <= word_bits``): bit ``j`` set means every probed
        slot has lane ``j``'s bit set — i.e. filter ``j`` claims
        membership.  Counts one word read per index (dense) or
        ``words_per_slot`` reads per index (wide).
        """
        words = self._words
        if self.words_per_slot == 1:
            combined = self.field_mask
            if self.slots_per_word == 1:
                for index in indices:
                    combined &= int(words[index])
            else:
                lanes = self.num_lanes
                spw = self.slots_per_word
                for index in indices:
                    word_index, slot_in_word = divmod(index, spw)
                    combined &= int(words[word_index]) >> (slot_in_word * lanes)
                combined &= self.field_mask
            self.counter.word_reads += len(indices)
            return [combined]

        stride = self.words_per_slot
        mask = (1 << self.word_bits) - 1
        combined = [mask] * stride
        for index in indices:
            base = index * stride
            for offset in range(stride):
                combined[offset] &= int(words[base + offset])
        self.counter.word_reads += len(indices) * stride
        return combined

    def set_lane(self, indices: Sequence[int], lane: int) -> None:
        """Set ``lane``'s bit in every field at ``indices``.

        Counted as one write per index: the paper's flow ANDs the k
        words it already fetched and "write[s] them back", so the reads
        were already paid for by :meth:`probe_and`.
        """
        words = self._words
        if self.words_per_slot == 1:
            lanes = self.num_lanes
            spw = self.slots_per_word
            for index in indices:
                word_index, slot_in_word = divmod(index, spw)
                bit = np.uint64(1 << (slot_in_word * lanes + lane))
                words[word_index] |= bit
        else:
            stride = self.words_per_slot
            offset, bit_position = divmod(lane, self.word_bits)
            bit = np.uint64(1 << bit_position)
            for index in indices:
                words[index * stride + offset] |= bit
        self.counter.word_writes += len(indices)

    # ------------------------------------------------------------------
    # Batch probing and insertion (dense layout)
    # ------------------------------------------------------------------

    def probe_fields_batch(self, idx: "np.ndarray") -> "np.ndarray":
        """Gather the ``num_lanes``-bit field at every slot of ``idx``.

        ``idx`` is ``(n, k)``; the result is ``(n, k)`` uint64 fields.
        Counts one read per probed slot, exactly like ``n`` scalar
        :meth:`probe_and` calls.  Dense layout only — the wide layout
        keeps the scalar path (it is the regime §4 hands over to TBF).
        """
        if self.words_per_slot != 1:
            raise ConfigurationError("probe_fields_batch requires the dense layout")
        words = self._words
        self.counter.word_reads += idx.size
        if self.slots_per_word == 1:
            return words[idx] & np.uint64(self.field_mask)
        wtab, stab = self._probe_tables()
        return (words[wtab[idx]] >> stab[idx]) & np.uint64(self.field_mask)

    def or_lane_batch(self, idx: "np.ndarray", lane: int) -> None:
        """Set ``lane``'s bit at every slot of ``idx`` (any shape).

        Counts one write per slot, like scalar :meth:`set_lane` over
        each row.  Duplicate slots are exact: the single-slot layout
        ORs one constant bit (idempotent, order-free), the multi-slot
        layout uses a duplicate-safe OR scatter
        (:func:`repro.core.kernels.or_lane_slots`).
        """
        if self.words_per_slot != 1:
            raise ConfigurationError("or_lane_batch requires the dense layout")
        words = self._words
        if self.slots_per_word == 1:
            kernels.or_constant_bit(words, idx, np.uint64(1 << lane))
        else:
            slot_word, slot_shift = self._probe_tables()
            kernels.or_lane_slots(
                words, idx, self.slots_per_word, self.num_lanes, lane,
                slot_word, slot_shift,
            )
        self.counter.word_writes += idx.size

    # ------------------------------------------------------------------
    # Lane cleaning
    # ------------------------------------------------------------------

    def clear_lane_range(self, lane: int, start_slot: int, num_cleared: int) -> None:
        """Zero ``lane``'s bit in slots [start_slot, start_slot + num_cleared).

        In the dense layout a single read-modify-write clears the lane
        across every field sharing the word — the "bunch" access §3.1
        promises.  Words whose lane bits are already zero cost only the
        read.
        """
        if num_cleared <= 0:
            return
        stop_slot = min(start_slot + num_cleared, self.num_slots)
        if start_slot >= stop_slot:
            return
        words = self._words
        if self.words_per_slot == 1:
            reads, writes = kernels.clear_lane_span(
                words, lane, start_slot, stop_slot, self.slots_per_word,
                self.num_lanes,
            )
        else:
            stride = self.words_per_slot
            offset, bit_position = divmod(lane, self.word_bits)
            keep = np.uint64(~np.uint64(1 << bit_position))
            reads = 0
            writes = 0
            for slot in range(start_slot, stop_slot):
                index = slot * stride + offset
                word = words[index]
                reads += 1
                if word & ~keep:
                    words[index] = word & keep
                    writes += 1
        self.counter.word_reads += reads
        self.counter.word_writes += writes

    def clear_lane_segments(
        self, lane: int, start_slot: int, per_element: int, num_elements: int
    ) -> None:
        """Replay ``num_elements`` consecutive :meth:`clear_lane_range` calls.

        Call ``i`` covers ``[start_slot + i * per_element,
        start_slot + (i + 1) * per_element)`` clamped to the slot count —
        the cursor-advancing sweep the GBF runs once per arrival.  Bit
        mutations *and* read/write tallies are identical to the scalar
        calls: each (call, word) intersection is one read, and a write
        whenever the lane has a set bit among the intersection's slots.
        Intersections are disjoint in (slot, lane) space, so pre-sweep
        bit values decide every write even though earlier calls may
        touch the same word.
        """
        if num_elements <= 0 or per_element <= 0:
            return
        stop_slot = min(start_slot + per_element * num_elements, self.num_slots)
        if start_slot >= stop_slot:
            return
        words = self._words
        if self.words_per_slot == 1:
            boundaries = np.arange(
                start_slot, stop_slot, per_element, dtype=np.int64
            )
            boundaries = np.append(boundaries, stop_slot)
            reads, writes = kernels.clear_lane_runs(
                words, lane, boundaries, self.slots_per_word, self.num_lanes
            )
        else:
            stride = self.words_per_slot
            offset, bit_position = divmod(lane, self.word_bits)
            indices = np.arange(start_slot, stop_slot, dtype=np.int64) * stride + offset
            values = words[indices]
            bit = np.uint64(1 << bit_position)
            reads = int(indices.size)
            writes = int(np.count_nonzero(values & bit))
            words[indices] = values & ~bit
        self.counter.word_reads += reads
        self.counter.word_writes += writes

    def clear_lane_run_lengths(
        self, lane: int, start_slot: int, lengths: "np.ndarray"
    ) -> None:
        """Replay consecutive :meth:`clear_lane_range` calls of *variable* size.

        Call ``i`` starts where call ``i - 1``'s clamped cursor stopped
        and covers ``lengths[i]`` slots (clamped to the slot count);
        zero-length entries are skipped, exactly like a caller that
        guards each scalar call.  This is the time-based GBF's cleaning
        pattern — one call per elapsed time unit with the unit's quota —
        fused into a single kernel sweep with scalar-identical bit
        mutations and read/write tallies.  Dense layout only.
        """
        if self.words_per_slot != 1:
            raise ConfigurationError(
                "clear_lane_run_lengths requires the dense layout"
            )
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.size == 0 or start_slot >= self.num_slots:
            return
        bounds = np.empty(lengths.size + 1, dtype=np.int64)
        bounds[0] = start_slot
        np.cumsum(lengths, out=bounds[1:])
        bounds[1:] += start_slot
        np.minimum(bounds, self.num_slots, out=bounds)
        # Strictly increasing boundaries = non-empty calls only.
        keep = np.empty(bounds.size, dtype=bool)
        keep[0] = True
        np.greater(bounds[1:], bounds[:-1], out=keep[1:])
        bounds = bounds[keep]
        reads, writes = kernels.clear_lane_runs(
            self._words, lane, bounds, self.slots_per_word, self.num_lanes
        )
        self.counter.word_reads += reads
        self.counter.word_writes += writes

    def words_for_slot_range(self, num_slots: int) -> int:
        """How many word RMWs cleaning ``num_slots`` consecutive slots takes."""
        return -(-num_slots // self.slots_per_word)

    def clear_all(self) -> None:
        """Bulk zero (used by idle-gap fast-forward); counts a full sweep."""
        nonzero = int((self._words != 0).sum())
        self.counter.word_reads += len(self._words)
        self.counter.word_writes += nonzero
        self._words.fill(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_words(self) -> int:
        return len(self._words)

    @property
    def memory_bits(self) -> int:
        return len(self._words) * self.word_bits

    def lane_population(self, lane: int) -> int:
        """Set-bit count of one lane (diagnostics and tests)."""
        words = self._words
        if self.words_per_slot == 1:
            # Lane-packed layout: the lane's bit recurs every num_lanes
            # bits within each word.  One vectorized mask-and-sum per
            # slot position beats a per-slot Python loop by orders of
            # magnitude; padding bits past num_slots are never set, so
            # counting whole words is exact.
            lanes = self.num_lanes
            one = np.uint64(1)
            count = 0
            for slot_in_word in range(self.slots_per_word):
                shift = np.uint64(slot_in_word * lanes + lane)
                count += int(((words >> shift) & one).sum())
            return count
        stride = self.words_per_slot
        offset, bit_position = divmod(lane, self.word_bits)
        lane_words = words[offset::stride]
        return int(((lane_words >> np.uint64(bit_position)) & np.uint64(1)).sum())

    def get_bit(self, slot: int, lane: int) -> bool:
        """Uncounted single-bit read (tests only)."""
        if self.words_per_slot == 1:
            word_index, base = self._field_position(slot)
            return bool(int(self._words[word_index]) >> (base + lane) & 1)
        offset, bit_position = divmod(lane, self.word_bits)
        return bool(
            int(self._words[slot * self.words_per_slot + offset]) >> bit_position & 1
        )
