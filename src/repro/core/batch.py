"""Shared machinery for the vectorized batch detection paths.

Every detector's ``process_batch`` follows the same plan: probe the
whole chunk against the *pre-chunk* state with array ops, then resolve
the interactions *between* elements of the chunk — an element that
inserts makes its slots look occupied to every later element — without
falling back to full scalar processing.

Scratch is sized to the chunk, never to the table.  A chunk of ``n``
elements with ``k`` hashes touches at most ``n * k`` distinct slots;
:class:`TouchedSlots` sorts and dedupes them once and every per-slot
table (first writer, definite writers, the walk's written flags, last
writer) lives over that compact set.  The batch path's cost per call is
then ``O(nk log nk)`` plus the paper's own cleaning work, whatever the
table size ``m``.

The resolution problem is ordered: element ``i``'s verdict depends on
which earlier elements inserted, and whether they insert depends on
*their* earlier elements.  :func:`resolve_inserts` handles it exactly:

* An element already duplicate against the pre-chunk state stays a
  duplicate no matter what the chunk does (inserts only add coverage),
  and it never inserts.
* Optimistic pre-pass: assume every non-duplicate inserts and take the
  earliest such row per touched slot.  Real writers are a subset of
  the assumed ones, so any element some uncovered slot of which is
  *not* optimistically covered can never flip — it is a definite
  inserter, decided without any per-element work.
* Only the (typically few) remaining elements are walked in arrival
  order over plain Python ints, checking each still-uncertain slot
  against the definite writers' table and a byte-per-slot written
  flag.  Even a fully-colliding chunk costs a handful of list/bytearray
  operations per element — far below the scalar path's hashing +
  probing + cleaning.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import kernels

#: First-writer value for slots nobody writes; larger than any row.
NO_WRITER = np.iinfo(np.int64).max


class TouchedSlots:
    """The distinct slots a chunk's inserting candidates touch.

    Built from the ``(c, k)`` index rows of the candidates (``rows``:
    their ascending row numbers in the chunk; default ``0..c-1``).  One
    in-place sort of packed ``(slot << shift) | cell`` keys yields the
    touched slots in ascending order (:attr:`slots`) and, per slot, a
    run of the cells hashing there with candidates ascending — so every
    per-slot table holds at most ``c * k`` entries, and "some earlier
    candidate touches this slot" is a neighbour compare within a run.
    Keys fit an int64 while ``slot * c * k < 2**63``: tables of up to
    ``2**42`` slots at a 2^16-row chunk of 20 hashes.

    Candidates are numbered ``0..c-1`` internally, with ``c`` meaning
    "none".  :func:`resolve_inserts` fills in ``first_local`` (earliest
    *actually inserting* candidate per slot) and :attr:`inserting`
    (``(c,)`` bool, ``None`` when every candidate inserts).
    """

    def __init__(self, idx: "np.ndarray", rows: "Optional[np.ndarray]" = None) -> None:
        c, k = idx.shape
        size = c * k
        shift = max(1, (size - 1).bit_length())
        keys = np.left_shift(idx.ravel(), shift, dtype=np.int64)
        keys |= np.arange(size, dtype=np.int64)
        keys.sort()
        cells = keys & ((1 << shift) - 1)
        keys >>= shift
        run_start = np.empty(size + 1, dtype=bool)
        run_start[0] = run_start[size] = True
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:size])
        bounds = np.flatnonzero(run_start)
        self.slots = keys[bounds[:-1]]
        self.first_local: "Optional[np.ndarray]" = None
        self.inserting: "Optional[np.ndarray]" = None
        self._k = k
        #: Per sorted cell: its row-major cell index and its candidate.
        #: Run ``g`` (slot ``slots[g]``) spans ``bounds[g]:bounds[g+1]``.
        self._cells = cells
        self._local = cells // k
        self._run_start = run_start
        self._bounds = bounds
        #: Candidate -> chunk row, with the no-writer sentinel appended.
        base = np.arange(c, dtype=np.int64) if rows is None else rows
        self._rows = np.append(base, NO_WRITER)

    @property
    def first_writer(self) -> "np.ndarray":
        """Earliest inserting chunk row per slot (:data:`NO_WRITER`: none)."""
        return self._rows[self.first_local]

    def slots_of(self, rows: "np.ndarray") -> "np.ndarray":
        """``(len(rows), k)`` positions in :attr:`slots` of the cells of
        candidates ``rows`` (ascending)."""
        count = self._rows.shape[0] - 1
        member = np.zeros(count, dtype=bool)
        member[rows] = True
        sel = np.flatnonzero(member[self._local])
        cells = self._cells[sel]
        rank = np.empty(count, dtype=np.intp)
        rank[rows] = np.arange(rows.shape[0])
        runs = np.cumsum(self._run_start[:-1], dtype=np.intp)[sel]
        runs -= 1
        out = np.empty((rows.shape[0], self._k), dtype=np.intp)
        out[rank[cells // self._k], cells % self._k] = runs
        return out

    def first(self) -> "np.ndarray":
        """Earliest candidate per slot (the run heads)."""
        return self._local[self._bounds[:-1]]

    def _cells_of(self, runs: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        """Sorted positions of every cell of ``runs`` (any order, repeats
        allowed), and for each the index into ``runs`` it came from."""
        starts = self._bounds[runs]
        lengths = self._bounds[runs + 1] - starts
        owner = np.repeat(np.arange(runs.shape[0]), lengths)
        cells = np.arange(owner.shape[0])
        cells += (starts - (np.cumsum(lengths) - lengths))[owner]
        return cells, owner

    def first_among(
        self, runs: "np.ndarray", mask: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Earliest candidate where ``mask`` (``(c,)`` bool) holds, on
        each of ``runs``; ``c`` where none.

        Also returns, for every cell of those runs, its row-major index
        and whether that earliest candidate precedes the cell's own.
        Costs one pass over those runs' cells only.
        """
        cells, owner = self._cells_of(runs)
        local = self._local[cells]
        first = np.full(runs.shape[0], mask.shape[0], dtype=np.int64)
        keep = mask[local]
        np.minimum.at(first, owner[keep], local[keep])
        return first, self._cells[cells], first[owner] < local

    def covered_by_earlier(self) -> "np.ndarray":
        """``(c, k)`` bool: an earlier candidate also touches the cell's slot."""
        local = self._local
        size = local.shape[0]
        earlier = np.zeros(size, dtype=bool)
        np.less(local[:-1], local[1:], out=earlier[1:])
        earlier &= ~self._run_start[:size]
        # A candidate hashing one slot twice: its later cells share the
        # first one's answer (chains are shorter than k).
        repeat = np.flatnonzero(local[1:] == local[:-1]) + 1
        repeat = repeat[~self._run_start[repeat]]
        for _ in range(self._k - 1 if repeat.size else 0):
            earlier[repeat] = earlier[repeat - 1]
        covered = np.empty(size, dtype=bool)
        covered[self._cells] = earlier
        return covered.reshape(-1, self._k)

    def last_writers(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """``(slots, rows)``: every slot an inserting row wrote, and the
        latest such chunk row."""
        last = self._local[self._bounds[1:] - 1]
        if self.inserting is None:
            return self.slots, self._rows[last]
        # Only slots whose latest candidate flipped need another look.
        redo = np.flatnonzero(~self.inserting[last])
        if redo.size:
            cells, owner = self._cells_of(redo)
            local = self._local[cells]
            keep = self.inserting[local]
            last[redo] = -1
            np.maximum.at(last, redo[owner[keep]], local[keep])
        written = last >= 0
        return self.slots[written], self._rows[last[written]]

    def keep_fresh(
        self, erase: "np.ndarray", start: int, done: int, elements: "np.ndarray"
    ) -> None:
        """Un-erase entries a row re-stamped before the sweep reached them.

        ``erase`` covers table slots ``[start, start + len(erase))``,
        visited after ``done`` earlier sweep positions; ``elements``
        names the chunk row sweeping each position.  A slot whose first
        writer precedes its sweeping row holds a fresh in-chunk stamp,
        which the sweep must leave alone.  Only the touched slots inside
        the slice are looked at.
        """
        lo, hi = np.searchsorted(self.slots, (start, start + erase.shape[0]))
        if lo == hi:
            return
        offsets = self.slots[lo:hi] - start
        fresh = self._rows[self.first_local[lo:hi]] < elements[offsets + done]
        erase[offsets[fresh]] = False

    def written_before(self, idx: "np.ndarray", rows: "np.ndarray") -> "np.ndarray":
        """``(r, k)`` bool: slot ``idx[i, j]`` has a first writer
        earlier than chunk row ``rows[i]`` (slots outside the table have
        none)."""
        pos = np.searchsorted(self.slots, idx)
        pos[pos == self.slots.shape[0]] = 0
        return (self.slots[pos] == idx) & (self.first_writer[pos] < rows[:, None])


def _has_run(hits, run_length: int) -> bool:
    run = 0
    for hit in hits:
        run = run + 1 if hit else 0
        if run >= run_length:
            return True
    return False


def resolve_inserts(
    dup0: "np.ndarray",
    cov0: "np.ndarray",
    idx: "np.ndarray",
    need_covered: bool = True,
    older: "Optional[np.ndarray]" = None,
) -> Tuple[
    "np.ndarray", "np.ndarray", Optional[TouchedSlots], "Optional[np.ndarray]"
]:
    """Resolve intra-chunk insert dependencies exactly.

    Parameters
    ----------
    dup0:
        ``(n,)`` bool — element is a duplicate against the pre-chunk
        state alone.
    cov0:
        ``(n, k)`` bool — slot already covered pre-chunk *in the
        dimension inserts write to* (current lane for GBF, active
        timestamp for TBF, young slices for the APBF).  ``dup0`` may be
        wider than the flip rule applied to ``cov0`` (GBF: any active
        lane suffices), but that rule must imply ``dup0``.
    idx:
        ``(n, k)`` int64 slot indices (non-negative; the APBF offsets
        each young slice into its own range).
    older:
        ``(n, l)`` bool or ``None``.  ``None``: a row is a duplicate once
        all ``k`` of its slots are covered.  Otherwise (the APBF's aged
        slices, which inserts never write) once its covered slots
        followed by these columns hold ``k`` consecutive hits.

    Returns ``(duplicate, inserters, touched, covered)``: ``touched``
    is the :class:`TouchedSlots` of the rows not duplicate pre-chunk,
    resolved (``None`` when every element is a pre-chunk duplicate),
    and ``covered`` is the ``(n, k)`` bool matrix ``cov0 | (first
    writer of the slot < row)`` — slot covered *at probe time*, which
    the TBF-family detectors feed straight to :func:`check_reads`.  On
    the hot path it is the array the resolution already materialized;
    callers that never read it pass ``need_covered=False`` and get
    ``None``.
    """
    n, k = idx.shape
    duplicate = dup0.copy()
    inserters = ~dup0
    num_dup0 = int(np.count_nonzero(dup0))
    if num_dup0 == n:
        return duplicate, inserters, None, cov0 if need_covered else None
    # Pre-chunk duplicates never write: the table holds candidates only,
    # numbered 0..c-1 in arrival order (``rows`` maps them back).
    if num_dup0:
        rows = np.flatnonzero(inserters)
        cand_idx = np.take(idx, rows, axis=0)
        cand_cov = np.take(cov0, rows, axis=0)
        cand_older = np.take(older, rows, axis=0) if older is not None else None
    else:
        rows = None
        cand_idx, cand_cov, cand_older = idx, cov0, older
    touched = TouchedSlots(cand_idx, rows)

    def flips(covered: "np.ndarray", which: "Optional[np.ndarray]") -> "np.ndarray":
        if cand_older is None:
            return kernels.row_all(covered)
        tail = cand_older if which is None else cand_older[which]
        return kernels.run_of_k(np.concatenate((covered, tail), axis=1), k)

    # Optimistic pass: every candidate inserts.  A verdict can flip
    # only if the row is covered even under this writer set.
    first_local = touched.first()
    potential = cand_cov | touched.covered_by_earlier()
    maybe = flips(potential, None)
    if maybe.any():
        walk = np.flatnonzero(maybe)
        walk_groups = touched.slots_of(walk)
        # Definite inserters' writes are real under every resolution;
        # the walk consults their earliest candidate per slot.  Slots
        # needing the in-order check: not covered pre-chunk and not
        # covered by an earlier definite inserter.
        certain = touched.first_among(walk_groups.ravel(), ~maybe)[0]
        certain = certain.reshape(walk_groups.shape)
        need = ~(cand_cov[walk] | (certain < walk[:, None]))

        # A row covered by pre-chunk state plus definite writers alone
        # flips under every resolution, without walking (and, flipping,
        # writes nothing later rows could need).  Only rows leaning on
        # an *uncertain* earlier writer walk.
        sure = flips(~need, walk)
        inserting = np.ones(maybe.shape[0], dtype=bool)
        inserting[walk[sure]] = False
        uncertain = ~sure
        written = bytearray(touched.slots.shape[0])
        slots_list = walk_groups[uncertain].tolist()
        need_list = need[uncertain].tolist()
        walking = walk[uncertain]
        older_list = cand_older[walking].tolist() if cand_older is not None else None
        for i, local in enumerate(walking.tolist()):
            slots = slots_list[i]
            needs = need_list[i]
            hits = [not needs[j] or written[slots[j]] for j in range(k)]
            if older_list is not None:
                hits += older_list[i]
            if _has_run(hits, k):
                inserting[local] = False
            else:
                for slot in slots:
                    written[slot] = 1

        if not inserting.all():
            touched.inserting = inserting
            flipped = np.flatnonzero(~inserting)
            chunk_rows = flipped if rows is None else rows[flipped]
            duplicate[chunk_rows] = True
            inserters[chunk_rows] = False
            # Only the flipped rows' slots can lose their first writer
            # (a slot listed twice gets the same answer twice).
            runs = walk_groups[~inserting[walk]].ravel()
            first, cells, earlier = touched.first_among(runs, inserting)
            first_local[runs] = first
            if need_covered:
                flat = potential.reshape(-1)
                flat[cells] = cand_cov.reshape(-1)[cells] | earlier
    touched.first_local = first_local
    if not need_covered:
        return duplicate, inserters, touched, None
    if not num_dup0:
        return duplicate, inserters, touched, potential
    covered = cov0.copy()
    covered[rows] = potential
    # Pre-chunk duplicates not fully covered in the insert dimension
    # (GBF-style wide ``dup0``) see in-chunk writes like anyone else.
    partial = np.flatnonzero(dup0 & ~kernels.row_all(cov0))
    if partial.size:
        covered[partial] |= touched.written_before(idx[partial], partial)
    return duplicate, inserters, touched, covered


def check_reads(active: "np.ndarray") -> int:
    """Total probe reads for a chunk, matching the scalar early-break.

    The scalar check reads slots in hash order until the first inactive
    one: ``k`` reads for a duplicate, ``first_inactive + 1`` otherwise.
    Equivalently, one read per element plus one per all-active row
    prefix shorter than ``k`` — a running column AND, cheaper than the
    axis-1 argmax reduction.  (Duplicate rows are exactly the
    all-active ones, so they fall out of the same sum.)
    """
    n, k = active.shape
    reads = n
    if k > 1:
        prefix = active[:, 0].copy()
        reads += int(np.count_nonzero(prefix))
        for column in range(1, k - 1):
            prefix &= active[:, column]
            reads += int(np.count_nonzero(prefix))
    return reads
