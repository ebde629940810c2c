"""Server side of the serve workloads, run as its own process.

``python3 serve_child.py serve`` hosts one TBF behind ``ServerThread``
with a live ``TelemetrySession``, as ``repro serve`` does;
``python3 serve_child.py cluster DIR`` hosts ``LocalCluster`` (router
plus two nodes over an 8-shard TBF) with its state under ``DIR``.

It prints one JSON line ``{"port": ..., "assignment": ...}`` once
listening, then answers JSON commands on stdin, one per line:
``{"cmd": "stats"}`` returns its CPU seconds and the cumulative buckets
of every ``repro_serve_stage_seconds`` histogram; ``{"cmd": "drain"}``
drains gracefully, returns the same figures and exits.  End of input
drains too, so the process never outlives the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # Run as a script: find the sibling modules and the checkout's sources.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import common

    common.use_checkout_sources()
    common.settle_allocator()

from common import DETECTOR_SEED, TARGET_FP, WINDOW  # noqa: E402
from repro.detection import DetectorSpec, WindowSpec, create_detector  # noqa: E402
from repro.telemetry import TelemetrySession  # noqa: E402

#: Shards of the cluster's TBF (``ClusterConfig.total_shards`` default).
CLUSTER_SHARDS = 8
CLUSTER_NODES = 2


def tbf_spec(shards: int = 1) -> DetectorSpec:
    return DetectorSpec(
        algorithm="tbf",
        window=WindowSpec("sliding", WINDOW),
        target_fp=TARGET_FP,
        seed=DETECTOR_SEED,
        shards=shards,
    )


def stats(session: TelemetrySession) -> dict:
    stages = {}
    for family in session.registry.families():
        if family.name != "repro_serve_stage_seconds":
            continue
        for key, histogram in family.children():
            stages[key[0]] = histogram.cumulative_buckets()
    return {"cpu": time.process_time(), "stages": stages}


def main(argv) -> int:
    mode = argv[1]
    session = TelemetrySession()
    if mode == "serve":
        from repro.serve import ServeConfig, ServerThread

        host = ServerThread(
            create_detector(tbf_spec()), ServeConfig(port=0), telemetry=session
        ).start()
        port, assignment, stop = host.port, None, host.stop
    elif mode == "cluster":
        from repro.cluster import LocalCluster

        state = Path(argv[2])
        host = LocalCluster(
            lambda: create_detector(tbf_spec(CLUSTER_SHARDS)),
            nodes=CLUSTER_NODES,
            state_dir=state,
            telemetry=session,
        ).start()
        port, assignment = host.port, [int(node) for node in host.assignment]

        def stop():
            try:
                host.__exit__(None, None, None)
            finally:
                shutil.rmtree(state, ignore_errors=True)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    print(json.dumps({"port": port, "assignment": assignment}), flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "drain":
                break
            print(json.dumps(stats(session)), flush=True)
    finally:
        stop()
    print(json.dumps(stats(session)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
