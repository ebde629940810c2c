"""A small batch call allocates chunk-sized scratch, never table-sized.

The batch paths keep their per-call tables over the slots a chunk
touches (``repro.core.batch.TouchedSlots``), so a 64-click call on a
benchmark-sized detector — 2^16-click window at target FP 0.01, where
the TBF holds 659,577 entries — must not allocate anything near the
table.  The measured call straddles a 4096-click boundary, where the
timed variants also run a time unit's cleaning sweep (``tbf-time``
keeps 16 units per window and sweeps 1/16 of its table there: the
largest allocation left, ~0.5 MiB of int64 ages).
"""

import tracemalloc

import numpy as np
import pytest

from repro.detection import DetectorSpec, WindowSpec, create_detector

WINDOW = 1 << 16
#: Timed variants see this many clicks per stream-second.
RATE = float(WINDOW)
UNIT = WINDOW // 16
CALL = 64
LIMIT = 1 << 20
TIMED = {"tbf-time", "time-limited-bf"}


def _build(variant):
    window = (
        WindowSpec("jumping", WINDOW, 8)
        if variant == "tbf-jumping"
        else WindowSpec("sliding", WINDOW)
    )
    return create_detector(
        DetectorSpec(
            algorithm=variant,
            window=window,
            target_fp=0.01,
            seed=1,
            duration=WINDOW / RATE if variant in TIMED else None,
        )
    )


def _call(detector, variant, rng, start, size):
    ids = rng.integers(0, 4 * WINDOW, size, dtype=np.uint64)
    if variant in TIMED:
        stamps = np.arange(start, start + size, dtype=np.float64) / RATE
        return detector.process_batch_at(ids, stamps)
    return detector.process_batch(ids)


@pytest.mark.parametrize(
    "variant", ["tbf", "tbf-time", "tbf-jumping", "apbf", "time-limited-bf"]
)
def test_small_call_allocates_under_one_mib(variant):
    detector = _build(variant)
    rng = np.random.default_rng(7)
    # Two units of traffic, then up to half a call before the next
    # unit boundary.
    position = 0
    target = 3 * UNIT - CALL // 2
    while position < target:
        size = min(UNIT // 4, target - position)
        _call(detector, variant, rng, position, size)
        position += size
    tracemalloc.start()
    try:
        _call(detector, variant, rng, position, CALL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LIMIT, f"{variant}: one {CALL}-click call peaked at {peak} bytes"
