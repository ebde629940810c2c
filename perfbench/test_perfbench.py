"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

import json
import re

import numpy as np
import pytest

import common

common.use_checkout_sources()

import loadgen  # noqa: E402
import offline  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_are_well_formed():
    spec = declared()
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert "setup_s" in {entry["name"] for entry in spec["end_to_end"]}


def test_stream_does_not_depend_on_how_it_is_sliced():
    whole = common.click_stream(11, 3 * common.BLOCK + 5)
    stream = common.Stream(11)
    pieces = [stream.take(64) for _ in range(1000)]
    pieces.append(stream.take(whole.shape[0] - 64_000))
    assert np.array_equal(np.concatenate(pieces), whole)


def test_same_seed_gives_same_stream_and_verdict_digests():
    first = offline.run(5, 0.1, common.Spans(False))
    second = offline.run(5, 0.1, common.Spans(False))
    other = offline.run(6, 0.1, common.Spans(False))
    for key in ("stream_digest", "verdict_digest"):
        assert first["record"][key] == second["record"][key]
        assert first["record"][key] != other["record"][key]
    assert first["failed"] == 0
    assert 0.15 < first["record"]["duplicate_share"] < 0.25


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_stalled_reply_is_charged_to_requests_scheduled_behind_it():
    # A FIFO server answering each request 1 ms after taking it up.
    # Request 3 stalls the server for 100 ms and, with the socket
    # buffer full, blocks the generator's send for the same time.
    clock = FakeClock()
    interval, service, stall = 0.004, 0.001, 0.100
    server_free = 0.0
    received = []

    def send(index):
        nonlocal server_free
        began = max(clock(), server_free)
        work = service + (stall if index == 3 else 0.0)
        server_free = began + work
        received.append(server_free)
        if index == 3:
            clock.now += stall

    due = loadgen.due_times(10, interval, 0.0)
    sent = loadgen.send_on_schedule(10, interval, 0.0, send, clock=clock, sleep=clock.sleep)
    latency = loadgen.latencies_from_due(due, received)
    from_send = [done - went for went, done in zip(sent, received)]

    assert latency[:3] == pytest.approx([service] * 3)
    for index in range(4, 10):
        # Timed from when it was due, each later request carries what is
        # left of the stall; timed from when it went out, it would not.
        assert latency[index] >= stall - (index - 3) * interval
        assert from_send[index] < 10 * service
    assert sent[4] - due[4] > stall - 2 * interval
