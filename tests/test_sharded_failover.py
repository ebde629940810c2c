"""Tests for shard failover: fail-open/fail-closed policies, rebuild from
checkpoint, degraded-window stats, and whole-sharded-detector checkpoints."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import CheckpointError, load_detector, save_detector
from repro.core.checkpoint import pack_frame, unpack_frame
from repro.detection import (
    DetectionPipeline,
    DetectorSpec,
    FailoverPolicy,
    ShardedDetector,
    TBFParams,
    WindowSpec,
    create_detector,
)
from repro.errors import ConfigurationError
from repro.resilience import SupervisedPipeline

FLEET = DetectorSpec(
    "tbf", WindowSpec("sliding", 64), params=TBFParams(4096, 10), seed=1, shards=4
)
TIME_FLEET = DetectorSpec(
    "tbf-time",
    WindowSpec("sliding", 1024),
    duration=30.0,
    resolution=8,
    params=TBFParams(8192, 10),
    seed=1,
    shards=4,
)


def drive(detector, count, seed, universe=80):
    rng = random.Random(seed)
    return [detector.process(rng.randrange(universe)) for _ in range(count)]


def test_fail_open_accepts_and_fail_closed_rejects_everything():
    detector = create_detector(FLEET)
    drive(detector, 200, seed=2)

    detector.fail_shard(1, FailoverPolicy.FAIL_OPEN)
    detector.fail_shard(2, "fail-closed")  # strings accepted too
    rng = random.Random(3)
    for _ in range(300):
        identifier = rng.randrange(80)
        shard = detector.router(identifier)
        verdict = detector.process(identifier)
        if shard == 1:
            assert verdict is False  # fail-open: everything accepted
        elif shard == 2:
            assert verdict is True  # fail-closed: everything rejected

    stats = detector.degraded_shards()
    assert set(stats) == {1, 2}
    assert stats[1]["policy"] == "fail-open"
    assert stats[2]["policy"] == "fail-closed"
    assert stats[1]["clicks"] > 0 and stats[2]["clicks"] > 0
    assert detector.is_degraded


def test_restore_shard_resumes_exact_verdicts():
    # Two detectors fed identically; one loses a shard and rebuilds it
    # from a checkpoint taken at that instant.  With no clicks processed
    # during the degraded window, verdicts must stay identical forever.
    healthy = create_detector(FLEET)
    failing = create_detector(FLEET)
    assert drive(healthy, 300, seed=5) == drive(failing, 300, seed=5)

    blob = failing.checkpoint_shard(2)
    failing.fail_shard(2)
    degraded_clicks = failing.restore_shard(2, blob)
    assert degraded_clicks == 0
    assert not failing.is_degraded
    assert drive(healthy, 400, seed=6) == drive(failing, 400, seed=6)


def test_degraded_window_damage_is_bounded_to_one_shard():
    healthy = create_detector(FLEET)
    failing = create_detector(FLEET)
    drive(healthy, 300, seed=5)
    drive(failing, 300, seed=5)

    blob = failing.checkpoint_shard(2)
    failing.fail_shard(2, FailoverPolicy.FAIL_OPEN)
    rng_a, rng_b = random.Random(7), random.Random(7)
    disagreements = 0
    for _ in range(200):
        x = rng_a.randrange(80)
        if healthy.process(x) != failing.process(rng_b.randrange(80)):
            assert failing.router(x) == 2  # only the degraded shard differs
            disagreements += 1
    assert disagreements > 0
    assert failing.restore_shard(2, blob) > 0  # degraded clicks were counted


def test_restore_shard_type_mismatch_rejected():
    detector = create_detector(FLEET)
    from repro.core import GBFDetector

    wrong = save_detector(GBFDetector(64, 8, 1024, 4, seed=3))
    with pytest.raises(CheckpointError, match="GBFDetector"):
        detector.restore_shard(1, wrong)


def test_shard_index_validated():
    detector = create_detector(FLEET)
    with pytest.raises(ConfigurationError):
        detector.fail_shard(4)
    with pytest.raises(ConfigurationError):
        detector.checkpoint_shard(-1)


def test_time_sharded_failover():
    detector = create_detector(TIME_FLEET)
    rng = random.Random(2)
    timestamp = 0.0
    for _ in range(300):
        timestamp += rng.random() * 0.2
        detector.process_at(rng.randrange(80), timestamp)

    blob = detector.checkpoint_shard(0)
    detector.fail_shard(0, FailoverPolicy.FAIL_CLOSED)
    for _ in range(50):
        timestamp += rng.random() * 0.2
        identifier = rng.randrange(80)
        verdict = detector.process_at(identifier, timestamp)
        if detector.router(identifier) == 0:
            assert verdict is True
    assert detector.restore_shard(0, blob) > 0
    assert not detector.is_degraded


def test_whole_sharded_detector_checkpoint_preserves_degradation():
    detector = create_detector(FLEET)
    drive(detector, 300, seed=5)
    detector.fail_shard(3, FailoverPolicy.FAIL_OPEN)
    drive(detector, 50, seed=6)

    restored = load_detector(save_detector(detector))
    assert restored.degraded_shards() == detector.degraded_shards()
    assert restored.shard_arrivals() == detector.shard_arrivals()
    assert drive(detector, 300, seed=7) == drive(restored, 300, seed=7)


def test_custom_router_refused_for_whole_detector_checkpoint():
    from repro.core import TBFDetector

    detector = ShardedDetector(
        [TBFDetector(16, 512, 4, seed=s) for s in range(2)],
        router=lambda identifier: identifier % 2,
    )
    with pytest.raises(CheckpointError, match="router"):
        save_detector(detector)
    # Per-shard checkpoints still work — that is the escape hatch.
    load_detector(detector.checkpoint_shard(0))


def test_supervised_pipeline_surfaces_degraded_window(tmp_path):
    from tests.test_resilience import make_billing, make_stream

    detector = create_detector(FLEET)
    detector.fail_shard(1, FailoverPolicy.FAIL_CLOSED)
    pipeline = DetectionPipeline(detector, billing=make_billing())
    supervisor = SupervisedPipeline(pipeline, tmp_path, checkpoint_every=50)
    result = supervisor.run(make_stream(120))
    assert 1 in result.degraded
    assert result.degraded[1]["policy"] == "fail-closed"
    assert result.degraded[1]["clicks"] > 0
    # Fail-closed means those clicks were rejected, not billed.
    assert result.duplicates >= result.degraded[1]["clicks"]


# ----------------------------------------------------------------------
# Failover under the vectorized batch path: a shard lost mid-stream must
# produce exactly the verdicts, degraded-click accounting, and telemetry
# that the scalar path produces.
# ----------------------------------------------------------------------

def _stream_arrays(count, seed, universe=80):
    import numpy as np

    rng = random.Random(seed)
    return np.array(
        [rng.randrange(universe) for _ in range(count)], dtype=np.uint64
    )


def test_batch_failover_matches_scalar_path():
    import numpy as np

    scalar = create_detector(FLEET)
    batched = create_detector(FLEET)
    warmup = _stream_arrays(300, seed=5)
    assert [scalar.process(int(x)) for x in warmup] == list(
        batched.process_batch(warmup)
    )

    # Lose the shard "mid-run": both detectors degrade identically.
    scalar.fail_shard(2, FailoverPolicy.FAIL_OPEN)
    batched.fail_shard(2, FailoverPolicy.FAIL_OPEN)
    after = _stream_arrays(400, seed=6)
    scalar_verdicts = [scalar.process(int(x)) for x in after]
    batch_verdicts = batched.process_batch(after)
    assert scalar_verdicts == [bool(v) for v in batch_verdicts]

    # Degraded-window accounting and telemetry agree between the paths.
    assert scalar.degraded_shards() == batched.degraded_shards()
    assert scalar.shard_arrivals() == batched.shard_arrivals()
    scalar_snap = scalar.telemetry_snapshot()
    batch_snap = batched.telemetry_snapshot()
    assert scalar_snap["counters"] == batch_snap["counters"]
    assert scalar_snap["gauges"]["degraded_shards"] == 1
    assert batch_snap["gauges"]["degraded_shards"] == 1
    assert batch_snap["shards"]["2"]["degraded"] == 1.0


def test_batch_failover_kill_between_chunks_and_restore():
    import numpy as np

    scalar = create_detector(FLEET)
    batched = create_detector(FLEET)
    chunks = [_stream_arrays(150, seed=s) for s in range(8)]
    blob = None
    for index, chunk in enumerate(chunks):
        if index == 3:  # kill the shard mid-stream, checkpoint first
            blob = batched.checkpoint_shard(1)
            scalar.fail_shard(1, FailoverPolicy.FAIL_CLOSED)
            batched.fail_shard(1, FailoverPolicy.FAIL_CLOSED)
        if index == 6:  # rebuild from the pre-failure checkpoint
            missed_scalar = scalar.restore_shard(1, blob)
            missed_batched = batched.restore_shard(1, blob)
            assert missed_scalar == missed_batched > 0
        expected = [scalar.process(int(x)) for x in chunk]
        assert expected == [bool(v) for v in batched.process_batch(chunk)]
    assert not batched.is_degraded
    assert scalar.telemetry_snapshot()["counters"] == (
        batched.telemetry_snapshot()["counters"]
    )


def test_time_sharded_batch_failover_matches_scalar_path():
    import numpy as np

    scalar = create_detector(TIME_FLEET)
    batched = create_detector(TIME_FLEET)
    rng = random.Random(9)
    timestamp, ids, stamps = 0.0, [], []
    for _ in range(500):
        timestamp += rng.random() * 0.2
        ids.append(rng.randrange(80))
        stamps.append(timestamp)
    ids = np.array(ids, dtype=np.uint64)
    stamps = np.array(stamps, dtype=np.float64)

    half = 250
    for a, b in ((0, half), (half, len(ids))):
        if a == half:
            scalar.fail_shard(0, FailoverPolicy.FAIL_CLOSED)
            batched.fail_shard(0, FailoverPolicy.FAIL_CLOSED)
        expected = [
            scalar.process_at(int(i), float(t))
            for i, t in zip(ids[a:b], stamps[a:b])
        ]
        got = batched.process_batch_at(ids[a:b], stamps[a:b])
        assert expected == [bool(v) for v in got]
    assert scalar.degraded_shards() == batched.degraded_shards()


def _degraded_blob(spec):
    """A CRC-valid fleet checkpoint with shard 1 degraded mid-stream."""
    detector = create_detector(spec)
    try:
        if spec.duration is None:
            drive(detector, 150, seed=4)
        else:
            detector.process_batch_at(
                np.arange(150, dtype=np.uint64), np.linspace(0.0, 5.0, 150)
            )
        fail = getattr(detector, "fail_worker", None) or detector.fail_shard
        fail(1, "fail-open")
        return save_detector(detector)
    finally:
        close = getattr(detector, "close", None)
        if close is not None:
            close()


TAMPERINGS = {
    "unknown-shard": lambda header: header["degraded"].update(
        {"99": {"policy": "fail-open", "clicks": 0}}
    ),
    "bogus-policy": lambda header: header["degraded"]["1"].update(policy="bogus"),
    "missing-clicks": lambda header: header["degraded"]["1"].pop("clicks"),
    "negative-clicks": lambda header: header["degraded"]["1"].update(clicks=-1),
    "negative-arrivals": lambda header: header["per_shard_arrivals"].__setitem__(
        0, -5
    ),
}


FLEETS = {
    "sharded": FLEET,
    "time-sharded": TIME_FLEET,
    "parallel-sharded": replace(FLEET, engine="parallel"),
    "parallel-time-sharded": replace(TIME_FLEET, engine="parallel"),
}


@pytest.mark.parametrize(
    "kind,tampering",
    [
        (kind, tampering)
        for kind in FLEETS
        for tampering in sorted(TAMPERINGS)
        # Time-based fleets carry no arrival counts to tamper with.
        if not (tampering == "negative-arrivals" and "time" in kind)
    ],
)
def test_tampered_failover_state_is_rejected(kind, tampering):
    header, payload = unpack_frame(_degraded_blob(FLEETS[kind]))
    assert header["kind"] == kind
    TAMPERINGS[tampering](header)
    with pytest.raises(CheckpointError):
        load_detector(pack_frame(header, payload))
