"""``offline-portfolio``: the seven core variants in-process, one after another.

Each variant gets a fresh detector behind ``DetectionPipeline``, one full
window of warm-up, then 4096-click chunks through
``run_identified_batch`` for its share of the run.  Only the pipeline
call is timed; stream slicing and checks sit outside it.  Every verdict
is checked against ``repro.baselines.exact``: a chunk holding a false
negative is a failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import geometric_mean, mean
from typing import Dict, List

if __name__ == "__main__":
    # Run as a worker: find the sibling modules and the checkout's sources.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import common

    common.use_checkout_sources()
    common.settle_allocator()

import numpy as np  # noqa: E402

from common import (  # noqa: E402
    DETECTOR_SEED,
    DIGEST_CLICKS,
    DURATION,
    RATE,
    SUBWINDOWS,
    TARGET_FP,
    WINDOW,
    Spans,
    click_stream,
    digest,
    in_window_duplicate_share,
    median,
    metric,
    quantile,
    slice_rate,
    timed_calls,
    verdict_digest,
)
from repro.baselines.exact import ExactDetector  # noqa: E402
from repro.detection import DetectorSpec, WindowSpec, create_detector  # noqa: E402
from repro.detection.pipeline import DetectionPipeline  # noqa: E402

VARIANTS = ("gbf", "gbf-time", "tbf", "tbf-time", "tbf-jumping", "apbf", "time-limited-bf")
TIMED = frozenset({"gbf-time", "tbf-time", "time-limited-bf"})
JUMPING = frozenset({"gbf", "gbf-time", "tbf-jumping"})
#: Time units per window of ``tbf-time`` (the ``DetectorSpec`` default).
RESOLUTION = 16
#: The window each variant guarantees, as the number of blocks it moves
#: in (``1`` is a sliding window).  ``tbf-time`` holds the last
#: ``RESOLUTION`` time units, so it moves a unit at a time and may drop
#: a click up to one unit before an exact sliding window would.
BLOCKS = {
    variant: SUBWINDOWS if variant in JUMPING else RESOLUTION if variant == "tbf-time" else 1
    for variant in VARIANTS
}
CHUNK = 4096
#: Builds of the whole portfolio timed before each variant runs, so the
#: ``setup_s`` median samples the whole run, not one instant of it.
SETUP_REPEATS = 5
#: Upper bound on any variant's speed, used only to size the stream.
MAX_CLICKS_PER_S = 4.0e6
#: Fresh processes an untraced run spreads its passes over: one process's
#: heap layout alone moves a variant's speed by up to a quarter.
WORKERS = 3


def spec(variant: str) -> DetectorSpec:
    """The variant sized for ``WINDOW`` clicks at ``TARGET_FP``.

    Timed variants get a ``DURATION``-second window, which holds
    ``WINDOW`` clicks at the stream's fixed ``RATE``.
    """
    if variant in JUMPING:
        window = WindowSpec("jumping", WINDOW, SUBWINDOWS)
    else:
        window = WindowSpec("sliding", WINDOW)
    return DetectorSpec(
        algorithm=variant,
        window=window,
        target_fp=TARGET_FP,
        seed=DETECTOR_SEED,
        duration=DURATION if variant in TIMED else None,
    )


def build_portfolio() -> Dict[str, object]:
    return {variant: create_detector(spec(variant)) for variant in VARIANTS}


def exact_verdicts(identifiers: "np.ndarray", blocks: int) -> "np.ndarray":
    """Ground truth from ``repro.baselines.exact`` for a ``blocks`` window.

    The timed variants share the count-based truth: click ``i`` arrives
    at ``i / RATE`` and the window lasts ``WINDOW / RATE`` seconds, its
    blocks ``WINDOW / blocks / RATE``, all exact in binary floating
    point, so the time-based and count-based windows hold the same clicks.
    """
    exact = (
        ExactDetector.jumping(WINDOW, blocks)
        if blocks > 1
        else ExactDetector.sliding(WINDOW)
    )
    process = exact.process
    return np.fromiter(
        (process(identifier) for identifier in identifiers.tolist()),
        dtype=bool,
        count=identifiers.shape[0],
    )


def missed(identifiers: "np.ndarray", verdicts: "np.ndarray", blocks: int) -> "np.ndarray":
    """Positions the detector called valid while it still held the identifier.

    This is the zero-false-negative theorem as the property tests state
    it: a click is missed when an identical click *the detector* accepted
    as valid is still in the window.  The plain exact labeler is not the
    yardstick here, because after a false positive the detector skips an
    insert the labeler makes, and later repeats differ for that reason.
    """
    accepted = np.flatnonzero(~verdicts)
    order = np.argsort(identifiers[accepted], kind="stable")
    ordered = accepted[order]
    same = identifiers[ordered[1:]] == identifiers[ordered[:-1]]
    earlier, later = ordered[:-1][same], ordered[1:][same]
    if blocks > 1:
        block = WINDOW // blocks
        active = later // block - earlier // block < blocks
    else:
        active = later - earlier < WINDOW
    return later[active]


def _run_variant(variant, detector, identifiers, budget, spans):
    """Warm up, then time chunks for ``budget`` seconds; returns raw results."""
    timed = variant in TIMED
    current = [0]
    if spans.enabled:
        name = "process_batch_at" if timed else "process_batch"
        setattr(detector, name, timed_calls(
            getattr(detector, name), f"core.{variant}", spans, current))
    pipeline = DetectionPipeline(detector, score_sources=False)
    run = pipeline.run_identified_batch
    if spans.enabled:
        run = timed_calls(run, f"detection.{variant}", spans, current)
    family = detector.family
    clock = time.perf_counter
    verdicts: List[np.ndarray] = []
    seconds: List[float] = []
    hashing = 0.0
    total = identifiers.shape[0]
    offset = 0
    deadline = None
    while offset + CHUNK <= total:
        chunk = identifiers[offset : offset + CHUNK]
        stamps = np.arange(offset, offset + CHUNK, dtype=np.float64) / RATE if timed else None
        start = clock()
        verdicts.append(run(chunk, stamps))
        end = clock()
        if spans.enabled:
            family.indices_batch(chunk)
            hashing += clock() - end
        offset += CHUNK
        if offset <= WINDOW:
            continue
        seconds.append(end - start)
        if deadline is None:
            deadline = start + budget
        elif end >= deadline and offset >= DIGEST_CLICKS:
            break
    return np.concatenate(verdicts), seconds, hashing


def time_builds(count: int) -> List[float]:
    """Seconds to build all seven detectors, ``count`` times."""
    clock = time.perf_counter
    samples = []
    for _ in range(count):
        start = clock()
        build_portfolio()
        samples.append(clock() - start)
    return samples


def run(seed: int, seconds: float, spans: Spans) -> dict:
    """One pass over the portfolio; returns metrics and the run record."""
    budget = seconds / len(VARIANTS)
    count = max(DIGEST_CLICKS, WINDOW + CHUNK * int(np.ceil(budget * MAX_CLICKS_PER_S / CHUNK)))
    identifiers = click_stream(seed, count)
    results = {}
    builds: List[float] = []
    for variant, detector in build_portfolio().items():
        builds += time_builds(SETUP_REPEATS)
        results[variant] = (detector,) + _run_variant(
            variant, detector, identifiers, budget, spans
        )
    resident = resident_mb()

    truth = {
        blocks: exact_verdicts(identifiers[:DIGEST_CLICKS], blocks)
        for blocks in set(BLOCKS.values())
    }
    attempted = failed = 0
    per_variant = {}
    digests = []
    for variant, (detector, verdicts, chunk_seconds, hashing) in results.items():
        blocks = BLOCKS[variant]
        misses = missed(identifiers, verdicts, blocks)
        attempted += verdicts.shape[0] // CHUNK
        failed += np.unique(misses // CHUNK).shape[0]
        valid = ~truth[blocks][WINDOW:]
        false_positives = np.count_nonzero(verdicts[WINDOW:DIGEST_CLICKS] & valid)
        digests.append(verdict_digest(verdicts))
        per_variant[variant] = {
            "clicks_per_s": slice_rate(chunk_seconds, CHUNK),
            "clicks": int(verdicts.shape[0]),
            "false_negatives": int(misses.shape[0]),
            "fp_rate": false_positives / int(np.count_nonzero(valid)),
            "bits_per_click": detector.memory_bits / WINDOW,
            "chunk_seconds": chunk_seconds,
            "hashing_seconds": hashing,
        }
    portfolio = len(VARIANTS) / sum(1.0 / v["clicks_per_s"] for v in per_variant.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "per_variant": per_variant,
        "clicks_per_s": portfolio,
        "resident_mb": resident,
        "setup_s": median(builds),
        "record": {
            "stream_digest": digest(identifiers),
            "verdict_digest": digest(np.frombuffer("".join(digests).encode(), dtype=np.uint8)),
            "duplicate_share": in_window_duplicate_share(identifiers[:DIGEST_CLICKS]),
            "clicks": {v: r["clicks"] for v, r in per_variant.items()},
            "false_negatives": {v: r["false_negatives"] for v, r in per_variant.items()},
        },
    }


def summary(result: dict) -> dict:
    """What an untraced worker pass reports to its parent."""
    chunks = [figures["chunk_seconds"] for figures in result["per_variant"].values()]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "clicks_per_s": result["clicks_per_s"],
        "chunk_p50": geometric_mean([median(c) for c in chunks]),
        "chunks": sum(len(c) for c in chunks),
        "setup_s": result["setup_s"],
        "resident_mb": result["resident_mb"],
        "record": result["record"],
    }


def end_to_end(seed: int, seconds: float) -> dict:
    """``WORKERS`` fresh processes in turn, each one pass; metrics averaged.

    ``latency_p50_ms`` is the geometric mean over the variants of each
    one's median chunk time (``latency_p99_ms``, in the traced run, of
    each one's p99): pooling the chunks would weight fast variants by
    their chunk counts and put the pooled quantiles in the gaps between
    variants.  All passes read the same stream, so their digests must agree.
    """
    passes = []
    for _ in range(WORKERS):
        worker = subprocess.run(
            [sys.executable, __file__, str(seed), repr(seconds / WORKERS)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        passes.append(json.loads(worker.stdout))
    digests = {p["record"]["verdict_digest"] for p in passes}
    record = dict(passes[0]["record"], passes=len(passes),
                  latency_samples=sum(p["chunks"] for p in passes))
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes) + len(digests) - 1,
        "record": record,
        "metrics": {
            "setup_s": metric(median([p["setup_s"] for p in passes]), "s"),
            "clicks_per_s": metric(mean([p["clicks_per_s"] for p in passes]), "1/s"),
            "latency_p50_ms": metric(1e3 * mean([p["chunk_p50"] for p in passes]), "ms"),
            "rss_mb": metric(mean([p["resident_mb"] for p in passes]), "MB"),
        },
    }


def per_layer(seed: int, seconds: float, spans: Spans) -> dict:
    """Half the run untraced, half traced; per-layer figures from the traced half."""
    untraced = run(seed, seconds / 2, Spans(False))
    result = run(seed, seconds / 2, spans)
    metrics = {}
    for variant, figures in result["per_variant"].items():
        core = sum(spans.durations(f"core.{variant}")) / 1e9
        pipeline = spans.durations(f"detection.{variant}")
        pipeline_total = sum(pipeline) / 1e9
        core_clicks = CHUNK * len(pipeline)
        metrics[f"clicks_per_s.{variant}"] = metric(figures["clicks_per_s"], "1/s")
        metrics[f"hashing.share.{variant}"] = metric(
            figures["hashing_seconds"] / core, "ratio")
        metrics[f"core.clicks_per_s.{variant}"] = metric(core_clicks / core, "1/s")
        metrics[f"detection.pipeline_share.{variant}"] = metric(
            spans.self_time(f"detection.{variant}") / 1e9 / pipeline_total, "ratio")
        metrics[f"core.bits_per_click.{variant}"] = metric(figures["bits_per_click"], "bits")
        metrics[f"detection.fp_rate.{variant}"] = metric(figures["fp_rate"], "ratio")
    metrics["latency_p99_ms"] = metric(1e3 * geometric_mean([
        quantile(figures["chunk_seconds"], 0.99) for figures in result["per_variant"].values()
    ]), "ms")
    metrics["trace.overhead_share"] = metric(
        1.0 - result["clicks_per_s"] / untraced["clicks_per_s"], "ratio")
    result["metrics"] = metrics
    result["attempted"] += untraced["attempted"]
    result["failed"] += untraced["failed"]
    return result


def resident_mb() -> float:
    """This process's resident set now: stream, detectors and verdicts.

    Read after the timed loops and before the checks, whose transient
    arrays grow with the clicks a host managed to process.
    """
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


if __name__ == "__main__":
    print(json.dumps(summary(run(int(sys.argv[1]), float(sys.argv[2]), Spans(False)))))
