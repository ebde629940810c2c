"""Golden checkpoint bytes for every wrapper kind.

Round-trip tests only compare a blob with itself, so a refactor could
change the checkpoint format on both sides at once and still pass them.
This suite pins the format instead: each wrapper kind is built from a
fixed :class:`~repro.detection.DetectorSpec`, driven with a seeded
stream (batch and scalar calls, plus a failover on the sharded kinds),
and the sha256 of ``save_detector(...)`` must equal the digest recorded
below.  Spawn transport, cluster rebalance by byte surgery and drain
manifests all read these bytes, so they must never drift silently.

If a deliberate format change lands, re-record the digests and say so
in the change description.
"""

import hashlib

import numpy as np
import pytest

from repro.adaptive import AdaptiveDetector
from repro.cluster import split_sharded
from repro.core.checkpoint import load_detector, save_detector, unpack_frame
from repro.detection import (
    APBFParams,
    DetectorSpec,
    TBFParams,
    TLBFParams,
    WindowSpec,
    create_detector,
)

TBF = DetectorSpec(
    "tbf", WindowSpec("sliding", 256), params=TBFParams(4096, 4), seed=3, shards=4
)
TBF_TIME = DetectorSpec(
    "tbf-time",
    WindowSpec("sliding", 256),
    duration=24.0,
    resolution=8,
    params=TBFParams(4096, 4),
    seed=3,
    shards=3,
)
APBF = DetectorSpec(
    "apbf",
    WindowSpec("sliding", 256),
    params=APBFParams(4, 3, 512, 64),
    seed=5,
    shards=2,
)
TLBF = DetectorSpec(
    "time-limited-bf",
    WindowSpec("sliding", 256),
    duration=24.0,
    resolution=6,
    params=TLBFParams(4, 3, 512),
    seed=5,
    shards=2,
)
ASSIGNMENT = {4: np.array([0, 1, 1, 0]), 3: np.array([1, 0, 1])}


def _stream(seed, count=1500):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 700, size=count, dtype=np.uint64)
    timestamps = np.cumsum(rng.random(count) * 0.05)
    return ids, timestamps


def _drive(detector, seed):
    """Seeded batch + scalar traffic through whichever surface it has."""
    ids, timestamps = _stream(seed)
    timed = not hasattr(detector, "process")
    for start, stop in ((0, 600), (600, 1100)):
        if timed:
            detector.process_batch_at(ids[start:stop], timestamps[start:stop])
        else:
            detector.process_batch(ids[start:stop])
    for identifier, timestamp in zip(ids[1100:1200], timestamps[1100:1200]):
        if timed:
            detector.process_at(int(identifier), float(timestamp))
        else:
            detector.process(int(identifier))
    return ids[1200:], timestamps[1200:]


def _finish(detector, rest):
    ids, timestamps = rest
    if hasattr(detector, "process"):
        detector.process_batch(ids)
    else:
        detector.process_batch_at(ids, timestamps)


def _sharded(spec, policy):
    detector = create_detector(spec)
    rest = _drive(detector, spec.seed)
    detector.fail_shard(1, policy)
    _finish(detector, rest)
    return save_detector(detector)


def _slices(spec):
    detector = create_detector(spec)
    rest = _drive(detector, spec.seed)
    _finish(detector, rest)
    slices = split_sharded(detector, ASSIGNMENT[spec.shards], 2)
    return b"".join(save_detector(part) for part in slices)


def _adaptive(spec, new_spec):
    detector = AdaptiveDetector(spec, retain=300)
    rest = _drive(detector, 11)
    detector.migrate(new_spec)
    _finish(detector, rest)
    return save_detector(detector)


def _parallel(spec):
    from dataclasses import replace

    detector = create_detector(replace(spec, engine="parallel"))
    try:
        rest = _drive(detector, spec.seed)
        detector.fail_worker(1, "fail-open")
        _finish(detector, rest)
        return save_detector(detector)
    finally:
        detector.close()


SINGLE_TBF = DetectorSpec(
    "tbf", WindowSpec("sliding", 256), params=TBFParams(2048, 4), seed=3
)
SINGLE_TLBF = DetectorSpec(
    "time-limited-bf",
    WindowSpec("sliding", 256),
    duration=24.0,
    resolution=6,
    params=TLBFParams(4, 3, 256),
    seed=5,
)
GROWN_TBF = DetectorSpec(
    "tbf", WindowSpec("sliding", 256), params=TBFParams(4096, 5), seed=4
)
GROWN_TLBF = DetectorSpec(
    "time-limited-bf",
    WindowSpec("sliding", 256),
    duration=24.0,
    resolution=6,
    params=TLBFParams(4, 3, 512),
    seed=6,
)

#: kind tag(s) the blob(s) carry -> (build function, sha256 recorded at the
#: commit before the wrapper classes were merged).
GOLDEN = {
    "sharded": (
        lambda: _sharded(TBF, "fail-open"),
        "a8335674c9ed09cdccf89f801d57b103007e45b29e98ac32c6ab96a3a3f61362",
    ),
    "sharded-apbf": (
        lambda: _sharded(APBF, "fail-closed"),
        "5f766b7f46b1be323954ed1c47ae482046e344e1af9ff38b9824ac19126f58fe",
    ),
    "time-sharded": (
        lambda: _sharded(TBF_TIME, "fail-closed"),
        "6c8fa11ba3112753b036ca70b4e122ccbdeb3a8e69a5423fdbd6511910be9628",
    ),
    "time-sharded-tlbf": (
        lambda: _sharded(TLBF, "fail-open"),
        "1b7ed5c737eb029e649b0447b317e67192c2d4ce8e152d354efcd8a19a48c2df",
    ),
    "cluster-slice": (
        lambda: _slices(TBF),
        "9787efa49feba38a228c67ef9f67c91328c43fe805370f1ee31d9b9bb76bb7e0",
    ),
    "cluster-time-slice": (
        lambda: _slices(TBF_TIME),
        "d55b215070808c9672ba3d3db3925ac3d25ca7a7dbf937346b1837c0d9f24d86",
    ),
    "adaptive": (
        lambda: _adaptive(SINGLE_TBF, GROWN_TBF),
        "c2eeaad6ecd7e728c2a876e9342819a35613a0c43a5b8c4520ec64a6a3ea8420",
    ),
    "adaptive-timed": (
        lambda: _adaptive(SINGLE_TLBF, GROWN_TLBF),
        "9cf14bfcc7aab3ee73906b63a9659cc4564bfd9ab6a7445aa27e4ccf16c33cf9",
    ),
    "parallel-sharded": (
        lambda: _parallel(TBF),
        "2fce3ecdb4cc2a48a828f7c22357a2b6434b7ed1101287f4526a85cf534dcff0",
    ),
    "parallel-time-sharded": (
        lambda: _parallel(TBF_TIME),
        "3bc778e3be8d8558512656ebfecfe5824d6d2cc005885fe0e75f6e1018642b9f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_checkpoint_bytes_match_golden_digest(name):
    build, digest = GOLDEN[name]
    blob = build()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_blob_reloads_to_identical_bytes(name):
    build, _ = GOLDEN[name]
    frames = _frames(build())
    expected_kind = name.replace("-apbf", "").replace("-tlbf", "")
    assert {unpack_frame(frame)[0]["kind"] for frame in frames} == {expected_kind}
    for frame in frames:
        restored = load_detector(frame)
        try:
            assert save_detector(restored) == frame
        finally:
            close = getattr(restored, "close", None)
            if close is not None:
                close()


def _frames(blob):
    """Split concatenated checkpoint frames (the slice cases join two)."""
    frames = []
    while blob:
        # magic(8) + header_len(4) + header + payload_len(8) + payload + crc(4)
        header_len = int.from_bytes(blob[8:12], "little")
        payload_len = int.from_bytes(blob[12 + header_len : 20 + header_len], "little")
        end = 24 + header_len + payload_len
        frames.append(blob[:end])
        blob = blob[end:]
    return frames
