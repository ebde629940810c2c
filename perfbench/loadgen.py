"""Load generation for the serve workloads: one process, one connection.

Two load generators share nothing but the wire:

- :func:`closed_loop` drives a ``ServeClient`` with a fixed number of
  batches in flight (the bulk workloads);
- :class:`Connection` drives one raw socket with the public codec of
  ``repro.serve.protocol`` (``serve-small``): closed loop on one
  thread, or open loop with the calling thread sending on schedule
  while one receiver thread reads replies, so a send never waits on a
  reply.

Open-loop latency is taken from when a request was *due*, not when it
went out, so a stall is charged to every request scheduled behind it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConnectionLost, OverloadedError, ProtocolError
from repro.serve.protocol import (
    FRAME_HELLO_ACK,
    FRAME_VERDICTS,
    HEADER,
    MAGIC,
    decode_header,
    decode_verdicts_payload,
    encode_batch,
    encode_hello,
)


def fresh_client_id() -> int:
    """A new nonzero idempotency identity, so no run replays another's verdicts."""
    return int.from_bytes(os.urandom(8), "little") >> 1 | 1


# ----------------------------------------------------------------------
# Open-loop schedule


def send_on_schedule(
    count: int,
    interval: float,
    start: float,
    send: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[float]:
    """Send request ``k`` at ``start + k * interval``; returns the send instants.

    Never waits on replies.  A send that blocks (a full socket buffer)
    delays the ones after it; that lateness is returned, not hidden.
    """
    sent = []
    for index in range(count):
        delay = start + index * interval - clock()
        if delay > 0:
            sleep(delay)
        sent.append(clock())
        send(index)
    return sent


def due_times(count: int, interval: float, start: float) -> List[float]:
    return [start + index * interval for index in range(count)]


def latencies_from_due(due: Sequence[float], received: Sequence[float]) -> List[float]:
    """Seconds from each request's due instant to its reply."""
    return [done - planned for planned, done in zip(due, received)]


# ----------------------------------------------------------------------
# Raw connection


class Connection:
    """One RPK1 connection: HELLO, then batches numbered from 1.

    Replies are kept by request id with their arrival instant.  The
    closed loop reads them on the sending thread; an open-loop step
    reads them on one receiver thread, so sends never wait on replies.
    """

    def __init__(self, port: int, client_id: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.sendall(MAGIC + encode_hello(0, client_id))
        frame_type, _request, _payload = self._read_frame()
        if frame_type != FRAME_HELLO_ACK:
            raise ProtocolError(f"expected HELLO_ACK, got 0x{frame_type:02X}")
        self.next_id = 1
        #: request id -> (frame type, arrival instant, payload)
        self.replies: Dict[int, Tuple[int, float, bytes]] = {}
        #: request id -> (identifiers sent, instant the send began)
        self.sent: Dict[int, Tuple["np.ndarray", float]] = {}

    def _recv(self, count: int) -> bytes:
        chunks = []
        while count:
            chunk = self._sock.recv(count)
            if not chunk:
                raise ConnectionLost("server closed the connection")
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self):
        frame_type, request_id, length = decode_header(
            self._recv(HEADER.size), expect_response=True
        )
        return frame_type, request_id, self._recv(length)

    def send(self, identifiers: "np.ndarray") -> int:
        """Encode and send one batch; returns its request id."""
        request_id = self.next_id
        self.next_id += 1
        self.sent[request_id] = (identifiers, time.perf_counter())
        self._sock.sendall(encode_batch(request_id, identifiers))
        return request_id

    def receive(self) -> None:
        """Read one reply and note when it arrived."""
        frame_type, request_id, payload = self._read_frame()
        self.replies[request_id] = (frame_type, time.perf_counter(), payload)

    @property
    def in_flight(self) -> int:
        return self.next_id - 1 - len(self.replies)

    def closed_loop(
        self, stream, batch: int, depth: int,
        seconds: float = float("inf"), batches: Optional[int] = None,
    ) -> range:
        """``depth`` batches in flight for ``seconds`` or ``batches``; returns their ids."""
        first = self.next_id
        stop = time.perf_counter() + seconds
        remaining = batches if batches is not None else -1
        while remaining != 0 and time.perf_counter() < stop:
            if self.in_flight >= depth:
                self.receive()
            self.send(stream.take(batch))
            remaining -= 1
        while self.in_flight:
            self.receive()
        return range(first, self.next_id)

    def open_loop(self, chunks: Sequence["np.ndarray"], interval: float, start: float):
        """Send ``chunks[k]`` at ``start + k * interval``, replies read aside.

        Returns ``(ids, sent, backlog)``: the request ids, the instant
        each send began, and the requests still unanswered when the last
        one went out.
        """
        first = self.next_id
        reader = threading.Thread(
            target=lambda: [self.receive() for _ in chunks], daemon=True
        )
        reader.start()
        try:
            sent = send_on_schedule(
                len(chunks), interval, start, lambda k: self.send(chunks[k])
            )
            backlog = self.in_flight
        finally:
            reader.join()
        if self.in_flight:
            raise ConnectionLost(f"{self.in_flight} replies never arrived")
        return range(first, self.next_id), sent, backlog

    def verdicts(self, request_id: int) -> Optional["np.ndarray"]:
        """The verdicts of ``request_id``, or ``None`` for a refusal frame."""
        frame_type, _arrived, payload = self.replies[request_id]
        if frame_type != FRAME_VERDICTS:
            return None
        return decode_verdicts_payload(payload)

    def close(self) -> None:
        self._sock.close()


# ----------------------------------------------------------------------
# Closed loop over ServeClient


def closed_loop(
    client,
    stream,
    batch: int,
    depth: int,
    log: list,
    seconds: float = float("inf"),
    batches: Optional[int] = None,
) -> None:
    """Keep ``depth`` batches in flight for ``seconds`` or ``batches``, then drain.

    Appends ``(identifiers, submitted, replied, verdicts)`` per batch to
    ``log``; ``verdicts`` is ``None`` when the server refused the batch
    with ``OVERLOADED`` or ``ERROR``.
    """
    clock = time.perf_counter
    inflight = deque()
    stop = clock() + seconds
    remaining = batches if batches is not None else -1
    while True:
        while len(inflight) < depth and remaining != 0 and clock() < stop:
            identifiers = stream.take(batch)
            submitted = clock()
            client.submit(identifiers)
            inflight.append((identifiers, submitted))
            remaining -= 1
        if not inflight:
            return
        identifiers, submitted = inflight.popleft()
        try:
            verdicts = client.collect()
        except (OverloadedError, ProtocolError):
            verdicts = None
        log.append((identifiers, submitted, clock(), verdicts))
