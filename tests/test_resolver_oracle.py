"""The chunk-sized insert resolver against dense-table references.

:func:`repro.core.batch.resolve_inserts` keeps every per-slot table
over the slots a chunk touches.  The references below are the dense
resolvers it replaced, one ``O(m)`` first-writer table per call: the
TBF/GBF rule (all ``k`` slots covered) and the APBF rule (a run of
``k`` consecutive covered slices, aged slices never written).  Tiny
tables force collisions, so the optimistic, definite, sure-flip and
walk paths all run; large ones leave most rows collision-free.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.batch import NO_WRITER, resolve_inserts

SETTINGS = settings(max_examples=200, deadline=None)


def dense_resolve_inserts(dup0, cov0, idx, num_entries):
    """Reference: dense first-writer tables over all ``num_entries`` slots.

    Returns ``(duplicate, inserters, first_writer, covered)`` with
    ``first_writer`` the ``(num_entries,)`` earliest inserting row per
    slot (``NO_WRITER`` where none).
    """
    n, k = idx.shape
    duplicate = dup0.copy()
    inserters = ~dup0
    first_writer = np.full(num_entries, NO_WRITER, dtype=np.int64)
    if dup0.all():
        return duplicate, inserters, first_writer, cov0
    rows = np.arange(n, dtype=np.int64)
    np.minimum.at(
        first_writer, idx.ravel(), np.where(inserters, rows, NO_WRITER).repeat(k)
    )
    rows_col = rows[:, None]
    potential = cov0 | (first_writer[idx] < rows_col)
    maybe = potential.all(axis=1) & inserters
    if not maybe.any():
        return duplicate, inserters, first_writer, potential

    certain = np.full(num_entries, NO_WRITER, dtype=np.int64)
    definite = inserters & ~maybe
    np.minimum.at(
        certain, idx.ravel(), np.where(definite, rows, NO_WRITER).repeat(k)
    )
    written = np.zeros(num_entries, dtype=bool)
    for row in np.nonzero(maybe)[0]:
        slots = idx[row]
        covered = cov0[row] | (certain[slots] < row) | written[slots]
        if covered.all():
            duplicate[row] = True
            inserters[row] = False
        else:
            written[slots] = True

    first_writer.fill(NO_WRITER)
    np.minimum.at(
        first_writer, idx.ravel(), np.where(inserters, rows, NO_WRITER).repeat(k)
    )
    return duplicate, inserters, first_writer, cov0 | (first_writer[idx] < rows_col)


def dense_resolve_runs(match0, young, slice_bits):
    """Reference for the APBF rule: one dense table per young slice.

    ``match0`` is ``(n, S)`` pre-run hits in age order; ``young`` the
    ``(n, k)`` young-slice indices.  A row is a duplicate once ``k``
    consecutive slices hit; inserts write the ``k`` young slices.
    """
    n, num_slices = match0.shape
    k = young.shape[1]
    duplicate = kernels.run_of_k(match0, k)
    inserters = ~duplicate
    certain = np.full((k, slice_bits), NO_WRITER, dtype=np.int64)
    potential = match0.copy()
    first_writer = np.full((k, slice_bits), NO_WRITER, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    for age in range(k):
        np.minimum.at(
            first_writer[age], young[:, age], np.where(inserters, rows, NO_WRITER)
        )
        potential[:, age] |= first_writer[age][young[:, age]] < rows
    maybe = kernels.run_of_k(potential, k) & inserters
    definite = inserters & ~maybe
    for age in range(k):
        np.minimum.at(
            certain[age], young[:, age], np.where(definite, rows, NO_WRITER)
        )
    written = np.zeros((k, slice_bits), dtype=bool)
    for row in np.nonzero(maybe)[0]:
        hits = match0[row].copy()
        for age in range(k):
            slot = young[row, age]
            hits[age] |= certain[age][slot] < row or written[age][slot]
        if kernels.run_of_k(hits[None, :], k)[0]:
            duplicate[row] = True
            inserters[row] = False
        else:
            for age in range(k):
                written[age][young[row, age]] = True
    return duplicate, inserters


table_sizes = st.one_of(
    st.integers(min_value=3, max_value=24),
    st.integers(min_value=3, max_value=10**6),
)


@st.composite
def chunks(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    k = draw(st.integers(min_value=1, max_value=6))
    m = draw(table_sizes)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    idx = rng.integers(0, m, (n, k), dtype=np.int64)
    cov0 = rng.random((n, k)) < draw(st.floats(min_value=0.0, max_value=1.0))
    # dup0 covers row_all(cov0), plus GBF-style extra (other-lane) hits.
    extra = rng.random(n) < draw(st.floats(min_value=0.0, max_value=0.5))
    dup0 = cov0.all(axis=1) | extra
    return dup0, cov0, idx, m


@SETTINGS
@given(chunk=chunks())
def test_resolver_matches_dense_reference(chunk):
    dup0, cov0, idx, m = chunk
    want_dup, want_ins, want_fw, want_cov = dense_resolve_inserts(dup0, cov0, idx, m)
    dup, ins, touched, cov = resolve_inserts(dup0, cov0, idx)

    assert np.array_equal(dup, want_dup)
    assert np.array_equal(ins, want_ins)
    assert np.array_equal(cov, want_cov)
    if touched is None:
        assert dup0.all() and (want_fw == NO_WRITER).all()
        return
    # Same first writer on every touched slot; every other slot the
    # dense table holds is unwritten.
    assert np.array_equal(touched.first_writer, want_fw[touched.slots])
    outside = np.ones(m, dtype=bool)
    outside[touched.slots] = False
    assert (want_fw[outside] == NO_WRITER).all()
    # Last writers: a dense maximum scatter over the actual inserters.
    last = np.full(m, -1, dtype=np.int64)
    rows = np.nonzero(ins)[0]
    np.maximum.at(last, idx[rows].ravel(), np.repeat(rows, idx.shape[1]))
    slots, writers = touched.last_writers()
    assert np.array_equal(slots, np.nonzero(last >= 0)[0])
    assert np.array_equal(writers, last[slots])
    # No-covered callers get the same verdicts.
    dup2, ins2, _, none = resolve_inserts(dup0, cov0, idx, need_covered=False)
    assert none is None
    assert np.array_equal(dup2, want_dup) and np.array_equal(ins2, want_ins)


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=80),
    k=st.integers(min_value=1, max_value=5),
    aged=st.integers(min_value=1, max_value=5),
    slice_bits=table_sizes,
    fill=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_run_rule_matches_dense_reference(n, k, aged, slice_bits, fill, seed):
    rng = np.random.default_rng(seed)
    match0 = rng.random((n, k + aged)) < fill
    young = rng.integers(0, slice_bits, (n, k), dtype=np.int64)
    want_dup, want_ins = dense_resolve_runs(match0, young, slice_bits)
    offsets = np.arange(k, dtype=np.int64) * slice_bits
    dup, ins, _, _ = resolve_inserts(
        kernels.run_of_k(match0, k),
        match0[:, :k],
        young + offsets,
        need_covered=False,
        older=match0[:, k:],
    )
    assert np.array_equal(dup, want_dup)
    assert np.array_equal(ins, want_ins)


def test_fully_colliding_chunk_walks_every_row():
    # One slot, every row: row 0 inserts and each later row is a
    # duplicate of it — the walk and flip paths on the smallest table.
    idx = np.zeros((40, 3), dtype=np.int64)
    cov0 = np.zeros((40, 3), dtype=bool)
    dup0 = np.zeros(40, dtype=bool)
    dup, ins, touched, cov = resolve_inserts(dup0, cov0, idx)
    want = dense_resolve_inserts(dup0, cov0, idx, 3)
    assert np.array_equal(dup, want[0]) and np.array_equal(cov, want[3])
    assert ins.tolist() == [True] + [False] * 39
    assert touched.slots.tolist() == [0] and touched.first_writer.tolist() == [0]
