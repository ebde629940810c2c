"""Run one workload of the click-path benchmark and print its result.

    python3 perfbench/run.py --workload serve-bulk --seed 7 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that records spans around calls into
each layer and reports the per-layer metrics (a layer the workload does
not reach reads 0).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run record (seed, stream and verdict digests,
in-window duplicate share).  A verdict mismatch, a false negative or a
refusal frame makes the run incorrect and the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, Spans, metric, settle_allocator, use_checkout_sources, work_dir

use_checkout_sources()
settle_allocator()

import offline  # noqa: E402
import serve  # noqa: E402

WORKLOADS = {
    "offline-portfolio": lambda seed, seconds, spans: (
        offline.per_layer(seed, seconds, spans) if spans.enabled
        else offline.end_to_end(seed, seconds)
    ),
    "serve-bulk": lambda seed, seconds, spans: serve.bulk("serve", seed, seconds, spans),
    "serve-small": serve.small,
    "cluster-bulk": lambda seed, seconds, spans: serve.bulk("cluster", seed, seconds, spans),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    spans = Spans(bool(args.trace))
    result = WORKLOADS[args.workload](args.seed, args.seconds, spans)

    measured = result["metrics"]
    undeclared = sorted(set(measured) - {entry["name"] for entry in section})
    if undeclared:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    for entry in section:
        if entry["name"] in measured:
            metrics[entry["name"]] = measured[entry["name"]]
        elif args.trace:
            metrics[entry["name"]] = metric(0.0, entry["unit"])
        else:
            raise SystemExit(f"perfbench: {args.workload} did not measure {entry['name']}")
    if spans.enabled:
        spans.write(work_dir() / f"spans-{args.workload}-{args.seed}.csv")

    correct = result["failed"] == 0 and "invalid" not in result
    for name, value in metrics.items():
        print(f"{name:<40} {value['value']:>16.6g} {value['unit']}")
    record = {"workload": args.workload, "seed": args.seed, **result["record"]}
    if "invalid" in result:
        record["invalid"] = result["invalid"]
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
