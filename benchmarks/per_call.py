"""Per-call cost of the batch path on benchmark-sized detectors.

Builds all seven core variants sized for a 2^16-click window at target
FP 0.01 (the sizing ``perfbench`` uses), warms each with one window of
distinct-ish traffic in 4096-click calls, then times ``process_batch``
/ ``process_batch_at`` calls of 64, 128 and 4096 clicks (median over
repeats) and takes the ``tracemalloc`` peak of one 64-click call that
crosses a time-unit boundary (timed variants sweep a unit's cleaning
quota there, the largest 64-click call)::

    PYTHONPATH=src python benchmarks/per_call.py            # markdown table
    PYTHONPATH=src python benchmarks/per_call.py --repeats 50

Timed variants see 2^16 clicks per stream-second, so one window holds
2^16 clicks, as in ``perfbench``.  Like ``perfbench``, the script first
frees one 24 MiB buffer, which raises glibc's mmap threshold to the
level a long-running process reaches; without it every temporary over
128 KiB is a fresh mmap and the timings measure page faults.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.detection import DetectorSpec, WindowSpec, create_detector  # noqa: E402

WINDOW = 1 << 16
RATE = float(WINDOW)
TARGET_FP = 0.01
SUBWINDOWS = 8
VARIANTS = (
    "gbf", "gbf-time", "tbf", "tbf-time", "tbf-jumping", "apbf", "time-limited-bf"
)
TIMED = frozenset({"gbf-time", "tbf-time", "time-limited-bf"})
JUMPING = frozenset({"gbf", "gbf-time", "tbf-jumping"})
SIZES = (64, 128, 4096)
WARM_CHUNK = 4096


def build(variant: str):
    """``variant`` sized for ``WINDOW`` clicks at ``TARGET_FP``."""
    if variant in JUMPING:
        window = WindowSpec("jumping", WINDOW, SUBWINDOWS)
    else:
        window = WindowSpec("sliding", WINDOW)
    return create_detector(
        DetectorSpec(
            algorithm=variant,
            window=window,
            target_fp=TARGET_FP,
            seed=1,
            duration=WINDOW / RATE if variant in TIMED else None,
        )
    )


class Feeder:
    """Feeds one detector consecutive clicks of a seeded stream."""

    def __init__(self, variant: str, seed: int = 0) -> None:
        self.detector = build(variant)
        self.timed = variant in TIMED
        self.rng = np.random.default_rng(seed)
        self.position = 0

    def call(self, size: int) -> "np.ndarray":
        ids = self.rng.integers(0, 4 * WINDOW, size, dtype=np.uint64)
        start = self.position
        self.position += size
        if self.timed:
            stamps = np.arange(start, start + size, dtype=np.float64) / RATE
            return self.detector.process_batch_at(ids, stamps)
        return self.detector.process_batch(ids)

    def warm(self, clicks: int = WINDOW) -> None:
        for _ in range(clicks // WARM_CHUNK):
            self.call(WARM_CHUNK)

    def align(self, unit_clicks: int, size: int) -> None:
        """Advance so the next ``size``-click call straddles a unit boundary."""
        target = (self.position // unit_clicks + 1) * unit_clicks - size // 2
        if target < self.position:
            target += unit_clicks
        while self.position < target:
            self.call(min(WARM_CHUNK, target - self.position))


def call_seconds(variant: str, size: int, repeats: int) -> float:
    feeder = Feeder(variant)
    feeder.warm()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        feeder.call(size)
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def peak_bytes(variant: str, size: int = 64) -> int:
    """``tracemalloc`` peak of one ``size``-click call after warm-up.

    The call straddles a 4096-click boundary: a timed variant's time
    unit (``tbf-time`` keeps 16 units per window) or a TLBF slice.
    """
    feeder = Feeder(variant)
    feeder.warm()
    feeder.call(size)
    feeder.align(WINDOW // 16, size)
    tracemalloc.start()
    try:
        feeder.call(size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args(argv)
    np.empty(24 << 20, dtype=np.uint8)
    header = " | ".join(f"{size} clicks (ms)" for size in SIZES)
    print(f"| variant | {header} | peak of one 64-click call (KiB) |")
    print("|---" * (len(SIZES) + 2) + "|")
    for variant in VARIANTS:
        cells = []
        for size in SIZES:
            repeats = max(5, args.repeats * 64 // size)
            cells.append(f"{call_seconds(variant, size, repeats) * 1e3:.3f}")
        peak = peak_bytes(variant) / 1024
        print(f"| {variant} | {' | '.join(cells)} | {peak:.0f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
