"""The cross-process workloads: ``serve-bulk``, ``serve-small``, ``cluster-bulk``.

The server (or the router and its nodes) runs in a child process
(``serve_child.py``); this process is the load generator, with one
connection and at most two threads.  Every served verdict is compared
with an in-process reference over the same batches in the same order:
``DetectionPipeline.run_identified_batch`` on a TBF for the serve
workloads, ``ShardedDetector.process_batch`` for the cluster.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean
from typing import Dict, List, Optional

import numpy as np

from common import (
    DIGEST_CLICKS,
    WINDOW,
    Spans,
    Stream,
    collector_paused,
    cpu_seconds,
    digest,
    histogram_quantile,
    in_window_duplicate_share,
    interval_rates,
    median,
    metric,
    quantile,
    slice_rate,
    timed_calls,
    verdict_digest,
    work_dir,
)
from loadgen import (
    Connection,
    closed_loop,
    due_times,
    fresh_client_id,
    latencies_from_due,
)
from repro.cluster import merge_verdict_payloads, split_batch_records
from repro.detection import create_detector
from repro.detection.pipeline import DetectionPipeline
from repro.serve import ServeClient
from repro.serve.protocol import (
    HEADER,
    decode_batch_payload,
    decode_verdicts_payload,
    encode_batch,
    encode_verdicts,
)
from repro.telemetry.requesttrace import SERVE_STAGES
from serve_child import CLUSTER_SHARDS, tbf_spec

HERE = Path(__file__).resolve().parent
#: Fresh servers an untraced run spreads its load over (see :func:`bulk`).
EPISODES = 3
BULK_BATCH = 4096
BULK_DEPTH = 8
SMALL_BATCH = 64
SMALL_DEPTH = 32
#: serve-small's open-loop steps: label and offered clicks per second.
RATES = (("16k", 16_000), ("64k", 64_000))
#: Share of the run each serve-small step gets: 16k, 64k, closed loop.
SMALL_SHARES = (0.6, 0.15, 0.25)
#: A run whose generator sent later than this (p99) is invalid: its
#: latencies would measure the generator, not the server.
LAG_BOUND_S = 0.010
#: Throughput is the median over this many equal slices of the replies.
SLICES = 8
#: Clicks sent before timing starts (two full windows).
WARMUP_CLICKS = 2 * WINDOW
#: Clicks per call of the in-process reference that checks the verdicts.
REFERENCE_CHUNK = WINDOW


class Child:
    """One server process, driven over its stdin/stdout."""

    def __init__(self, mode: str) -> None:
        command = [sys.executable, str(HERE / "serve_child.py"), mode]
        if mode == "cluster":
            command.append(str(work_dir() / f"cluster-{os.getpid()}-{time.monotonic_ns()}"))
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.rss_mb: Optional[float] = None
        line = self.process.stdout.readline()
        if not line:
            self.reap()
            raise RuntimeError(f"{mode} server exited before listening")
        ready = json.loads(line)
        self.port: int = ready["port"]
        self.assignment: Optional[List[int]] = ready["assignment"]

    def _ask(self, command: str) -> dict:
        self.process.stdin.write(json.dumps({"cmd": command}) + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def stats(self) -> dict:
        return self._ask("stats")

    def drain(self) -> None:
        """Drain the server, wait for the process, keep its peak RSS."""
        self._ask("drain")
        self.reap()

    def reap(self) -> None:
        """Close stdin (the child drains on end of input) and wait for exit."""
        if self.process.returncode is not None:
            return
        self.process.stdin.close()
        try:
            _pid, status, usage = os.wait4(self.process.pid, 0)
        except ChildProcessError:
            return
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.process.stdout.close()
        self.rss_mb = usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            self.reap()


def spawn(mode: str, connect):
    """Start a server and connect to it; returns child, client, set-up seconds.

    Set-up runs from the spawn to the first ``HELLO_ACK``.
    """
    began = time.perf_counter()
    child = Child(mode)
    try:
        client = connect(child.port)
    except BaseException:
        child.kill()
        raise
    return child, client, time.perf_counter() - began


def stage_p50_ms(before: dict, after: dict) -> Dict[str, float]:
    """Per-stage p50 over the interval between two ``stats`` replies."""
    out = {}
    for stage in SERVE_STAGES:
        late = after["stages"].get(stage)
        early = before["stages"].get(stage)
        if late is None:
            out[stage] = 0.0
            continue
        buckets = [
            (bound, count - (early[index][1] if early else 0))
            for index, (bound, count) in enumerate(late)
        ]
        out[stage] = 1e3 * histogram_quantile(0.5, buckets)
    return out


def per_call_us(function, *args, seconds: float = 0.05) -> float:
    """Median microseconds per call of ``function(*args)`` over ``seconds``."""
    clock = time.perf_counter
    samples = []
    stop = clock() + seconds
    while clock() < stop or len(samples) < 5:
        began = clock()
        function(*args)
        samples.append(clock() - began)
    return 1e6 * median(samples)


def protocol_costs(identifiers: "np.ndarray") -> Dict[str, float]:
    """Codec microseconds per request at batch 64 and 4096, same clicks."""
    out = {}
    for size in (SMALL_BATCH, BULK_BATCH):
        batch = identifiers[:size]
        payload = encode_batch(1, batch)[HEADER.size :]
        verdicts = (batch & np.uint64(1)).astype(bool)

        def round_trip():
            decode_verdicts_payload(encode_verdicts(1, verdicts)[HEADER.size :])

        out[f"protocol.encode_us.{size}"] = per_call_us(encode_batch, 1, batch)
        out[f"protocol.decode_us.{size}"] = per_call_us(decode_batch_payload, payload)
        out[f"protocol.verdicts_us.{size}"] = per_call_us(round_trip)
    return out


def router_costs(identifiers: "np.ndarray", assignment) -> Dict[str, float]:
    """Router split and merge microseconds on one 4096-click frame."""
    assignment = np.asarray(assignment)
    records = encode_batch(1, identifiers[:BULK_BATCH])[HEADER.size :]
    groups = split_batch_records(records, CLUSTER_SHARDS, assignment)
    parts = [(positions, bytes(positions.shape[0])) for _node, positions, _b in groups]
    return {
        "router.split_us": per_call_us(split_batch_records, records, CLUSTER_SHARDS, assignment),
        "router.merge_us": per_call_us(merge_verdict_payloads, BULK_BATCH, parts),
    }


def verify(mode: str, batches: List[np.ndarray], served: List[Optional[np.ndarray]]):
    """Replay the accepted batches in-process; returns mismatches and timings.

    The reference runs in ``REFERENCE_CHUNK`` calls whatever the request
    size: a detector's verdicts do not depend on how its input is
    batched, and small calls would make the check slower than the run.
    A batch the server refused (``None``) never touched server state, so
    the reference skips it too; it is already counted as failed.
    """
    if mode == "cluster":
        run = create_detector(tbf_spec(CLUSTER_SHARDS)).process_batch
    else:
        run = DetectionPipeline(create_detector(tbf_spec()), score_sources=False).run_identified_batch
    accepted = [(b, v) for b, v in zip(batches, served) if v is not None]
    clicks = np.concatenate([b for b, _v in accepted])
    clock = time.perf_counter
    seconds = []
    parts = []
    for offset in range(0, clicks.shape[0], REFERENCE_CHUNK):
        began = clock()
        parts.append(run(clicks[offset : offset + REFERENCE_CHUNK]))
        seconds.append(clock() - began)
    reference = np.concatenate(parts)
    served_all = np.concatenate([v for _b, v in accepted])
    ends = np.cumsum([b.shape[0] for b, _v in accepted])
    wrong = np.flatnonzero(reference != served_all)
    mismatched = np.unique(np.searchsorted(ends, wrong, side="right")).shape[0]
    return mismatched, seconds, reference


def record(batches: List[np.ndarray], reference: "np.ndarray") -> dict:
    clicks = np.concatenate(batches)
    return {
        "stream_digest": digest(clicks[:DIGEST_CLICKS]),
        "verdict_digest": verdict_digest(reference),
        "duplicate_share": in_window_duplicate_share(clicks[:DIGEST_CLICKS]),
        "clicks": int(clicks.shape[0]),
    }


# ----------------------------------------------------------------------
# serve-bulk and cluster-bulk


def bulk_episode(mode: str, seed: int, seconds: float, spans: Spans) -> dict:
    """One fresh server, warmed up, then ``seconds`` of closed-loop load.

    Every episode replays the seed's stream from its first click, so
    every episode's verdict digest must agree.
    """
    stream = Stream(seed)
    child, client, ready = spawn(
        mode, lambda port: ServeClient("127.0.0.1", port, timeout=60.0))
    log: list = []
    try:
        with collector_paused():
            closed_loop(client, stream, BULK_BATCH, BULK_DEPTH, log,
                        batches=WARMUP_CLICKS // BULK_BATCH)
            warm = len(log)
            if spans.enabled:
                current = [0]
                client.submit = timed_calls(client.submit, "client.submit", spans, current)
                client.collect = timed_calls(client.collect, "client.collect", spans, current)
            before, cpu_before, began = child.stats(), cpu_seconds(), time.perf_counter()
            closed_loop(client, stream, BULK_BATCH, BULK_DEPTH, log, seconds=seconds)
            wall = time.perf_counter() - began
            after, cpu_after = child.stats(), cpu_seconds()
        client.close()
        child.drain()
    except BaseException:
        child.kill()
        raise
    batches = [entry[0] for entry in log]
    served = [entry[3] for entry in log]
    mismatched, reference_seconds, reference = verify(mode, batches, served)
    return {
        "setup": ready,
        "clicks_per_s": _bulk_rate(log[warm:]),
        "latencies": [replied - submitted for _i, submitted, replied, _v in log[warm:]],
        "attempted": len(log),
        "failed": sum(verdicts is None for verdicts in served) + mismatched,
        "record": record(batches, reference),
        "rss_mb": child.rss_mb,
        "stages": stage_p50_ms(before, after),
        "server_cpu": (after["cpu"] - before["cpu"]) / wall,
        "client_cpu": (cpu_after - cpu_before) / wall,
        "reference_seconds": reference_seconds,
        "assignment": child.assignment,
        "first_batch": batches[0],
    }


def bulk(mode: str, seed: int, seconds: float, spans: Spans) -> dict:
    """``serve-bulk`` or ``cluster-bulk``: load split over fresh servers.

    Untraced, the run is ``EPISODES`` episodes of equal length and the
    metrics average over them: one server process's heap layout alone
    moves its throughput by up to a quarter.  Traced, it is one untraced
    and one traced episode, and the per-layer figures come from the
    second.
    """
    if spans.enabled:
        plain, traced = (bulk_episode(mode, seed, seconds / 2, tracing)
                         for tracing in (Spans(False), spans))
        episodes = [plain, traced]
    else:
        episodes = [bulk_episode(mode, seed, seconds / EPISODES, spans)
                    for _ in range(EPISODES)]
    digests = {(e["record"]["stream_digest"], e["record"]["verdict_digest"]) for e in episodes}
    result = {
        "attempted": sum(e["attempted"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes) + len(digests) - 1,
        "record": dict(episodes[0]["record"], episodes=len(episodes),
                       latency_samples=sum(len(e["latencies"]) for e in episodes)),
    }
    if not spans.enabled:
        result["metrics"] = {
            "setup_s": metric(median([e["setup"] for e in episodes]), "s"),
            "clicks_per_s": metric(mean([e["clicks_per_s"] for e in episodes]), "1/s"),
            "latency_p50_ms": metric(
                1e3 * mean([quantile(e["latencies"], 0.5) for e in episodes]), "ms"),
            "rss_mb": metric(mean([e["rss_mb"] for e in episodes]), "MB"),
        }
        return result
    metrics = {
        f"server.stage_p50_ms.{stage}": metric(value, "ms")
        for stage, value in traced["stages"].items()
    }
    metrics["latency_p99_ms"] = metric(1e3 * quantile(traced["latencies"], 0.99), "ms")
    metrics["server.cpu_share"] = metric(traced["server_cpu"], "ratio")
    metrics["client.cpu_share"] = metric(traced["client_cpu"], "ratio")
    metrics["trace.overhead_share"] = metric(
        1.0 - traced["clicks_per_s"] / plain["clicks_per_s"], "ratio")
    head = traced["first_batch"]
    metrics.update((name, metric(value, "us")) for name, value in protocol_costs(head).items())
    if mode == "cluster":
        metrics.update(
            (name, metric(value, "us"))
            for name, value in router_costs(head, traced["assignment"]).items()
        )
        metrics["sharded.clicks_per_s"] = metric(slice_rate(
            traced["reference_seconds"][WARMUP_CLICKS // REFERENCE_CHUNK :], REFERENCE_CHUNK),
            "1/s")
    result["metrics"] = metrics
    return result


def _bulk_rate(entries) -> float:
    """Median clicks/s over ``SLICES`` equal slices of the replies."""
    return median(interval_rates(
        [replied for _i, _s, replied, _v in entries],
        [identifiers.shape[0] for identifiers, _s, _r, _v in entries],
        SLICES,
    ))


# ----------------------------------------------------------------------
# serve-small


def small_episode(seed: int, seconds: float, spans: Spans) -> dict:
    """One fresh server: warm-up, the two open-loop steps, the closed loop."""
    stream = Stream(seed)
    child, conn, ready = spawn("serve", lambda port: Connection(port, fresh_client_id()))
    clock = time.perf_counter
    steps = {}
    try:
        with collector_paused():
            conn.closed_loop(stream, BULK_BATCH, BULK_DEPTH, batches=WARMUP_CLICKS // BULK_BATCH)
            for (label, rate), share in zip(RATES, SMALL_SHARES):
                interval = SMALL_BATCH / rate
                chunks = [stream.take(SMALL_BATCH) for _ in range(int(seconds * share / interval))]
                before = child.stats()
                start_at = clock() + 0.01
                ids, sent, backlog = conn.open_loop(chunks, interval, start_at)
                after = child.stats()
                due = due_times(len(chunks), interval, start_at)
                steps[label] = {
                    "ids": ids,
                    "due": due,
                    "sent": sent,
                    "latency": latencies_from_due(due, [conn.replies[k][1] for k in ids]),
                    "lag": [went - planned for went, planned in zip(sent, due)],
                    "backlog": backlog,
                    "stages": stage_p50_ms(before, after),
                }
            before, cpu_before, began = child.stats(), cpu_seconds(), clock()
            ids = conn.closed_loop(stream, SMALL_BATCH, SMALL_DEPTH, seconds=seconds * SMALL_SHARES[2])
            wall = clock() - began
            after, cpu_after = child.stats(), cpu_seconds()
        conn.close()
        child.drain()
    except BaseException:
        child.kill()
        raise
    times = [conn.replies[k][1] for k in ids]
    if spans.enabled:
        for request, (_identifiers, went) in conn.sent.items():
            spans.add("client.request", int(went * 1e9),
                      int(conn.replies[request][1] * 1e9), request=request)
        for label, step in steps.items():
            for k, request in enumerate(step["ids"]):
                spans.add(f"generator.lag.{label}", int(step["due"][k] * 1e9),
                          int(step["sent"][k] * 1e9), request=request)
    order = sorted(conn.sent)
    batches = [conn.sent[k][0] for k in order]
    served = [conn.verdicts(k) for k in order]
    mismatched, _seconds, reference = verify("serve", batches, served)
    return {
        "setup": ready,
        "clicks_per_s": median(interval_rates(times, [SMALL_BATCH] * len(times), SLICES)),
        "steps": steps,
        "attempted": len(order),
        "failed": sum(verdicts is None for verdicts in served) + mismatched,
        "record": record(batches, reference),
        "rss_mb": child.rss_mb,
        "server_cpu": (after["cpu"] - before["cpu"]) / wall,
        "client_cpu": (cpu_after - cpu_before) / wall,
        "first_batch": batches[0],
    }


def small(seed: int, seconds: float, spans: Spans) -> dict:
    """``serve-small``, split over fresh servers as :func:`bulk` is."""
    if spans.enabled:
        plain, traced = (small_episode(seed, seconds / 2, tracing)
                         for tracing in (Spans(False), spans))
        episodes = [plain, traced]
    else:
        episodes = [small_episode(seed, seconds / EPISODES, spans) for _ in range(EPISODES)]
    low, high = (label for label, _rate in RATES)
    latency = {
        label: [x for e in episodes for x in e["steps"][label]["latency"]] for label, _r in RATES
    }
    lags = {
        label: quantile([x for e in episodes for x in e["steps"][label]["lag"]], 0.99)
        for label, _r in RATES
    }
    digests = {(e["record"]["stream_digest"], e["record"]["verdict_digest"]) for e in episodes}
    result = {
        "attempted": sum(e["attempted"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes) + len(digests) - 1,
        "record": dict(
            episodes[0]["record"],
            episodes=len(episodes),
            latency_samples={label: len(values) for label, values in latency.items()},
            generator_lag_p99_ms={label: 1e3 * lag for label, lag in lags.items()},
        ),
    }
    late = [label for label, lag in lags.items() if lag > LAG_BOUND_S]
    if late:
        result["invalid"] = (
            f"generator p99 lateness above {1e3 * LAG_BOUND_S:g} ms at {', '.join(late)}"
        )
    if not spans.enabled:
        result["metrics"] = {
            "setup_s": metric(median([e["setup"] for e in episodes]), "s"),
            "clicks_per_s": metric(mean([e["clicks_per_s"] for e in episodes]), "1/s"),
            "latency_p50_ms": metric(1e3 * mean(
                [quantile(e["steps"][low]["latency"], 0.5) for e in episodes]), "ms"),
            "rss_mb": metric(mean([e["rss_mb"] for e in episodes]), "MB"),
        }
        return result
    steps = traced["steps"]
    metrics = {
        f"server.stage_p50_ms.{stage}": metric(value, "ms")
        for stage, value in steps[low]["stages"].items()
    }
    metrics["latency_p99_ms"] = metric(1e3 * quantile(steps[low]["latency"], 0.99), "ms")
    metrics[f"latency_p50_ms.{high}"] = metric(1e3 * quantile(steps[high]["latency"], 0.5), "ms")
    metrics[f"latency_p99_ms.{high}"] = metric(1e3 * quantile(steps[high]["latency"], 0.99), "ms")
    for label, step in steps.items():
        metrics[f"latency_samples.{label}"] = metric(len(step["latency"]), "count")
        metrics[f"generator.lag_p99_ms.{label}"] = metric(1e3 * quantile(step["lag"], 0.99), "ms")
        metrics[f"backlog_end.{label}"] = metric(step["backlog"], "count")
    metrics["server.cpu_share"] = metric(traced["server_cpu"], "ratio")
    metrics["client.cpu_share"] = metric(traced["client_cpu"], "ratio")
    metrics["trace.overhead_share"] = metric(
        1.0 - traced["clicks_per_s"] / plain["clicks_per_s"], "ratio")
    metrics.update(
        (name, metric(value, "us")) for name, value in protocol_costs(traced["first_batch"]).items()
    )
    result["metrics"] = metrics
    return result
