"""Shared pieces of the benchmark: seeded streams, digests, statistics, spans.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`use_checkout_sources` has put the checkout's ``src`` first on
``sys.path``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Window every workload sizes its detectors for (clicks), and the
#: stream clock: timed variants see ``RATE`` clicks per stream-second,
#: so a ``WINDOW / RATE``-second window holds ``WINDOW`` clicks.
WINDOW = 1 << 16
RATE = float(WINDOW)
DURATION = WINDOW / RATE
TARGET_FP = 0.01
SUBWINDOWS = 8
#: Identifiers are uniform over four windows' worth of values, which
#: makes ~22% of clicks in-window duplicates (1 - e^(-1/4)).
UNIVERSE = 4 * WINDOW
#: Identifiers are drawn this many at a time (see :class:`Stream`).
BLOCK = 1 << 16
#: Hash seed of every detector; the workload seed only shapes the stream.
DETECTOR_SEED = 1
#: Verdict digests cover this many leading clicks, which every run
#: processes whatever the host's speed, so equal seeds give equal digests.
DIGEST_CLICKS = 1 << 18


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {source}")
    sys.path.insert(0, str(source))


def settle_allocator() -> None:
    """Put glibc's allocator in the state a long-running process reaches.

    Freeing one large block raises glibc's mmap threshold (and with it
    the trim threshold) to that block's size, for the rest of the
    process.  Until that first large free, every numpy temporary above
    128 KiB is a fresh mmap whose pages fault in on each call, which
    made the first pass of a fresh process about 30% slower than later
    ones and tied results to whichever allocation happened to come
    first.  Benchmark processes do this once at start.
    """
    np.empty(24 << 20, dtype=np.uint8)


def work_dir() -> Path:
    """Scratch space inside the checkout for traces and cluster state."""
    path = ROOT / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Streams


class Stream:
    """The seeded click stream, consumed in pieces of any size.

    Identifiers are drawn in fixed blocks of :data:`BLOCK`, so the stream
    is the same sequence however callers slice it.  Timestamps are not
    drawn: click ``i`` arrives at ``i / RATE``.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._buffer = np.empty(0, dtype=np.uint64)
        self._offset = 0
        self.position = 0

    def take(self, count: int) -> "np.ndarray":
        """The next ``count`` identifiers."""
        parts = []
        while count:
            if self._offset == self._buffer.shape[0]:
                self._buffer = self._rng.integers(0, UNIVERSE, size=BLOCK, dtype=np.uint64)
                self._offset = 0
            part = self._buffer[self._offset : self._offset + count]
            self._offset += part.shape[0]
            count -= part.shape[0]
            parts.append(part)
        self.position += sum(part.shape[0] for part in parts)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def click_stream(seed: int, count: int) -> "np.ndarray":
    """The first ``count`` identifiers of seed ``seed``'s stream."""
    return Stream(seed).take(count)


def in_window_duplicate_share(identifiers: "np.ndarray", window: int = WINDOW) -> float:
    """Share of clicks whose identifier occurred within the sliding window.

    A click at position ``i`` repeats when the same identifier arrived at
    some ``j`` with ``i - j < window`` (the count-based sliding window).
    """
    n = identifiers.shape[0]
    order = np.argsort(identifiers, kind="stable")
    ordered = identifiers[order]
    same = ordered[1:] == ordered[:-1]
    gaps = order[1:] - order[:-1]
    repeats = np.count_nonzero(same & (gaps < window))
    return repeats / n if n else 0.0


def digest(*arrays: "np.ndarray") -> str:
    """Short SHA-256 over the raw bytes of ``arrays``."""
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()[:16]


def verdict_digest(verdicts: "np.ndarray") -> str:
    """Digest of the first :data:`DIGEST_CLICKS` verdicts."""
    head = np.asarray(verdicts[:DIGEST_CLICKS], dtype=bool)
    if head.shape[0] < DIGEST_CLICKS:
        raise RuntimeError(
            f"only {head.shape[0]} verdicts; digests need {DIGEST_CLICKS}"
        )
    return digest(np.packbits(head))


# ----------------------------------------------------------------------
# Statistics


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (the sample itself, no interpolation)."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def interval_rates(
    times: Sequence[float], counts: Sequence[int], intervals: int
) -> List[float]:
    """Work per second in ``intervals`` consecutive, equal-count slices.

    ``times`` are completion instants (ascending) and ``counts`` the work
    each completion delivered; slice ``j`` runs from the last completion
    of slice ``j - 1``, so no time is counted twice.
    """
    n = len(times)
    if n < intervals + 1:
        raise ValueError(f"{n} completions cannot fill {intervals} intervals")
    edges = [round(j * (n - 1) / intervals) for j in range(intervals + 1)]
    rates = []
    for a, b in zip(edges, edges[1:]):
        rates.append(sum(counts[a + 1 : b + 1]) / (times[b] - times[a]))
    return rates


def slice_rate(seconds: Sequence[float], size: int, slices: int = 8) -> float:
    """Median work per second over ``slices`` consecutive equal slices.

    ``seconds`` are the durations of calls that each did ``size`` units
    of work.  The median damps pauses without hiding a change that slows
    every call.
    """
    edges = [round(j * len(seconds) / slices) for j in range(slices + 1)]
    return median([
        (b - a) * size / sum(seconds[a:b]) for a, b in zip(edges, edges[1:])
    ])


def histogram_quantile(q: float, buckets: Sequence[Sequence[float]]) -> float:
    """Prometheus ``histogram_quantile`` over ``(upper_bound, cumulative)``.

    Linear interpolation inside the bucket holding the rank; the open
    ``+Inf`` bucket answers with the largest finite bound.
    """
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    rank = q * total
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if math.isinf(bound):
                return lower_bound
            if count == lower_count:
                return bound
            return lower_bound + (bound - lower_bound) * (
                (rank - lower_count) / (count - lower_count)
            )
        lower_bound, lower_count = bound, count
    return lower_bound


# ----------------------------------------------------------------------
# Spans


class Spans:
    """In-memory span log, written out once at the end of a traced run.

    Each span is ``(span_id, parent_id, name, start_ns, end_ns, request)``;
    spans of one request share ``request``.  A disabled log records
    nothing, so untraced runs pay one attribute check per call site.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[tuple] = []
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: int = 0,
        request: int = 0,
        span_id: Optional[int] = None,
    ) -> int:
        span_id = span_id if span_id is not None else self.new_id()
        self.records.append((span_id, parent, name, start_ns, end_ns, request))
        return span_id

    def durations(self, name: str) -> List[int]:
        """Nanosecond durations of every span called ``name``."""
        return [r[4] - r[3] for r in self.records if r[2] == name]

    def self_time(self, name: str) -> int:
        """Total duration of ``name`` spans minus what their children cover."""
        ids = set()
        total = 0
        for span_id, _parent, span_name, start, end, _request in self.records:
            if span_name == name:
                ids.add(span_id)
                total += end - start
        for _span, parent, _name, start, end, _request in self.records:
            if parent in ids:
                total -= end - start
        return total

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            handle.write("span_id,parent_id,name,start_ns,end_ns,request\n")
            for record in self.records:
                handle.write(",".join(str(field) for field in record) + "\n")


def timed_calls(function, name: str, spans: Spans, current: list):
    """Wrap ``function`` so each call records a span called ``name``.

    ``current`` is a one-element list holding the id of the innermost
    open span; a wrapped call nests under it and holds its own id there
    while it runs, so spans of nested wrapped calls chain to it.
    """
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        parent = current[0]
        span_id = spans.new_id()
        current[0] = span_id
        start = clock()
        try:
            return function(*args, **kwargs)
        finally:
            spans.add(name, start, clock(), parent=parent, span_id=span_id)
            current[0] = parent

    return wrapper


# ----------------------------------------------------------------------
# Results


@contextlib.contextmanager
def collector_paused():
    """Hold the load generator's garbage collector off while it drives load.

    A collection stalls every thread of the generator for milliseconds,
    which would show up as send lateness and as server latency.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def cpu_seconds() -> float:
    """CPU seconds this process has used, all threads."""
    times = os.times()
    return times.user + times.system
