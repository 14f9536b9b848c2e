"""The benchmark's own client for ``repro serve``.

``repro.server.loadgen.LoadGenerator`` starts each request's clock at
send, which hides the queueing a stall causes; this client times from
the due time instead.  It speaks the wire protocol through the public codec
(``repro.server.protocol.encode_request`` / ``decode_response``) over
plain non-blocking sockets, one ``select`` loop for every connection of
a run.  Two kinds of traffic source share the loop:

- :class:`ClosedLoop` keeps a fixed number of requests outstanding and
  sends the next one as each response arrives (the saturated rate).
- :class:`OpenLoop` sends request ``i`` at its due time, whatever the
  server is doing, and times every response from that due time, so a
  stall also delays the requests queued behind it.  How late the loop
  itself sent each request is recorded as generator lag.

Responses are kept as raw payloads and decoded and checked after the
phase, outside the timed loop.
"""

from __future__ import annotations

import gc
import select
import socket
import struct
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.server import protocol

_LEN = struct.Struct("!I")
_RID = struct.Struct("!I")
#: Byte offset of the status in a response (header ``!BBHIQ``: version,
#: status, count, request id, generation).
_STATUS_AT = 1

#: How long before a due time the loop stops sleeping and polls.
SPIN_S = 0.002


class Conn:
    """One TCP connection with its own request-id space."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._rbuf = bytearray()
        self._wbuf = bytearray()
        self._next_rid = 1
        self.source: Optional["_Source"] = None

    def rid(self) -> int:
        rid = self._next_rid
        self._next_rid = (rid + 1) & 0xFFFFFFFF or 1
        return rid

    def queue(self, payload: bytes) -> None:
        self._wbuf += protocol.frame_bytes(payload)

    def flush(self) -> None:
        while self._wbuf:
            try:
                sent = self.sock.send(self._wbuf)
            except BlockingIOError:
                return
            del self._wbuf[:sent]

    @property
    def wants_write(self) -> bool:
        return bool(self._wbuf)

    def read_frames(self) -> List[bytes]:
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed the connection")
        buf = self._rbuf
        buf += data
        frames = []
        offset = 0
        while len(buf) - offset >= 4:
            (length,) = _LEN.unpack_from(buf, offset)
            if len(buf) - offset - 4 < length:
                break
            frames.append(bytes(buf[offset + 4:offset + 4 + length]))
            offset += 4 + length
        del buf[:offset]
        return frames

    def call(self, opcode: int, keys=(), timeout: float = 30.0):
        """One blocking request/response (set-up, pings, stats, probes)."""
        rid = self.rid()
        self.queue(protocol.encode_request(opcode, rid, keys))
        deadline = time.perf_counter() + timeout
        while True:
            self.flush()
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError(f"no response to opcode {opcode}")
            writable = [self.sock] if self.wants_write else []
            select.select([self.sock], writable, [], left)
            for payload in self.read_frames():
                if _RID.unpack_from(payload, 4)[0] == rid:
                    return protocol.decode_response(payload)

    def close(self) -> None:
        self.sock.close()


class _Source:
    """A traffic source bound to one connection."""

    conn: Conn

    def pump(self, now: float) -> None:  # send whatever is due
        raise NotImplementedError

    def next_wakeup(self) -> float:
        return float("inf")

    def on_frame(self, payload: bytes, now: float) -> None:
        raise NotImplementedError

    def finished(self, now: float) -> bool:
        raise NotImplementedError


class ClosedLoop(_Source):
    """``window`` requests outstanding from ``start`` until ``stop``.

    ``make(i, rid)`` builds the payload of the phase's ``i``-th request.
    OK responses that arrive by ``stop`` are counted; the rest are
    drained and still checked.
    """

    def __init__(self, conn: Conn, make: Callable[[int, int], bytes],
                 window: int, start: float, stop: float) -> None:
        self.conn = conn
        conn.source = self
        self.make = make
        self.window = window
        self.start = start
        self.stop = stop
        self.sent = 0
        self.inflight: Dict[int, int] = {}
        #: Arrival times of the OK responses that arrived by ``stop``.
        self.completed: List[float] = []
        self.responses: List[Tuple[int, bytes]] = []

    def _send(self) -> None:
        rid = self.conn.rid()
        self.inflight[rid] = self.sent
        self.conn.queue(self.make(self.sent, rid))
        self.sent += 1

    def pump(self, now: float) -> None:
        if now < self.stop:
            while len(self.inflight) < self.window:
                self._send()

    def on_frame(self, payload: bytes, now: float) -> None:
        index = self.inflight.pop(_RID.unpack_from(payload, 4)[0])
        self.responses.append((index, payload))
        if now <= self.stop:
            if payload[_STATUS_AT] == protocol.STATUS_OK:
                self.completed.append(now)
            if len(self.inflight) < self.window:
                self._send()

    def window_rates(self, window: float = 1.0) -> List[float]:
        """OK responses per second in each whole ``window`` of the phase."""
        counts = [0] * int((self.stop - self.start) / window)
        for t in self.completed:
            k = int((t - self.start) / window)
            if k < len(counts):
                counts[k] += 1
        return [c / window for c in counts]

    def next_wakeup(self) -> float:
        return self.stop

    def finished(self, now: float) -> bool:
        return now >= self.stop and not self.inflight


class OpenLoop(_Source):
    """Request ``i`` is due at ``due[i]`` (absolute ``perf_counter``)."""

    def __init__(self, conn: Conn, make: Callable[[int, int], bytes],
                 due: Sequence[float]) -> None:
        self.conn = conn
        conn.source = self
        self.make = make
        self.due = list(due)
        self.next = 0
        self.inflight: Dict[int, int] = {}
        self.lag = [0.0] * len(self.due)
        self.latency = [0.0] * len(self.due)
        self.done_at = [0.0] * len(self.due)
        self.responses: List[Tuple[int, bytes]] = []

    def pump(self, now: float) -> None:
        due = self.due
        while self.next < len(due) and due[self.next] <= now:
            i = self.next
            rid = self.conn.rid()
            self.inflight[rid] = i
            self.conn.queue(self.make(i, rid))
            self.lag[i] = now - due[i]
            self.next += 1

    def next_wakeup(self) -> float:
        return self.due[self.next] if self.next < len(self.due) else float("inf")

    def on_frame(self, payload: bytes, now: float) -> None:
        i = self.inflight.pop(_RID.unpack_from(payload, 4)[0])
        self.latency[i] = now - self.due[i]
        self.done_at[i] = now
        self.responses.append((i, payload))

    def finished(self, now: float) -> bool:
        return self.next >= len(self.due) and not self.inflight


def drive(sources: Sequence[_Source], timeout: float,
          wait_for: Optional[Sequence[_Source]] = None) -> None:
    """Run the sources in one ``select`` loop until every source in
    ``wait_for`` (default: all of them) has finished."""
    conns = [s.conn for s in sources]
    by_sock = {c.sock: c for c in conns}
    wait_for = sources if wait_for is None else wait_for
    # A collection of the client's own heap mid-phase would delay sends
    # and inflate latencies measured from due times.
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        _loop(sources, conns, by_sock, wait_for, timeout)
    finally:
        if gc_enabled:
            gc.enable()


def _loop(sources, conns, by_sock, wait_for, timeout) -> None:
    give_up = time.perf_counter() + timeout
    while True:
        now = time.perf_counter()
        if all(s.finished(now) for s in wait_for):
            return
        if now > give_up:
            raise TimeoutError("phase did not finish in time")
        for s in sources:
            s.pump(now)
        for c in conns:
            c.flush()
        wake = min(s.next_wakeup() for s in sources)
        wait = wake - time.perf_counter()
        # Sleeping until a due time overshoots by up to several ms here
        # (p99 ~5 ms for a bare select loop), so the last SPIN_S before a
        # due time is spent polling instead.
        wait = 0.0 if wait < SPIN_S else min(wait - SPIN_S, 0.05)
        writable = [c.sock for c in conns if c.wants_write]
        readable, _, _ = select.select(list(by_sock), writable, [], wait)
        for sock in readable:
            conn = by_sock[sock]
            frames = conn.read_frames()
            if frames:
                now = time.perf_counter()
                for payload in frames:
                    conn.source.on_frame(payload, now)
