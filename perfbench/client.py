"""An open-loop HTTP/1.1 load client on stdlib asyncio streams.

Deliberately independent of :mod:`repro.serve.http11`: a change to the
gateway's codec moves only the server side of the measurement.

Each request is written at its due time whether or not earlier replies
have arrived, pipelined on the least-loaded of a few keep-alive
connections; responses come back in order per connection.  Latency runs
from the request's *due* time to its last response byte, so a stalled
server (or a late sender) is charged to every request queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from perfbench.workloads import Request

#: Statuses the gateway may answer a plan with, and the outcome bucket each
#: counts under.  Anything else (or no answer) is an ``error``.
OUTCOMES = ("ok", "infeasible", "policy_skip", "shed", "timeout", "error")


@dataclass
class Result:
    """What one sent request experienced."""

    request: Request
    sent_at: float
    due_at: float
    status: int = 0
    outcome: str = "error"
    latency_ms: float = float("inf")
    payload: Dict = field(default_factory=dict)
    inflight_at_send: int = 0

    @property
    def answered(self) -> bool:
        """A 200 plan answer (selector or policy skip)."""
        return self.outcome in ("ok", "infeasible", "policy_skip")


def classify(status: int, payload: Dict) -> str:
    kind = payload.get("status")
    if status == 200 and kind in ("ok", "infeasible", "policy_skip"):
        return kind
    if status == 429:
        return "shed"
    if status == 504:
        return "timeout"
    return "error"


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    line = await reader.readline()
    if not line:
        raise ConnectionError("connection closed before status line")
    status = int(line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


class _Connection:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Deque[Result] = deque()


class OpenLoopClient:
    """Drives one gateway over ``connections`` pipelined keep-alive sockets."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self._conns: List[_Connection] = []
        self._readers: List[asyncio.Task] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._outstanding = 0
        self._idle: Optional[asyncio.Event] = None

    async def __aenter__(self) -> "OpenLoopClient":
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        for _ in range(self.connections):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(reader, writer)
            self._conns.append(conn)
            self._readers.append(asyncio.create_task(self._read_loop(conn)))
        return self

    async def __aexit__(self, *exc) -> None:
        for conn in self._conns:
            conn.writer.close()
        for task in self._readers:
            task.cancel()
        for task in self._readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for conn in self._conns:
            try:
                await conn.writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        try:
            while True:
                status, body = await _read_response(conn.reader)
                done = self._loop.time()
                result = conn.pending.popleft()
                try:
                    payload = json.loads(body) if body else {}
                except ValueError:
                    payload = {}
                result.status = status
                result.payload = payload
                result.outcome = classify(status, payload)
                result.latency_ms = (done - result.due_at) * 1000.0
                self._finish()
        except (ConnectionError, asyncio.IncompleteReadError, ValueError,
                IndexError):
            # Whatever is still pending on a broken connection is an error.
            while conn.pending:
                conn.pending.popleft()
                self._finish()

    def _finish(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()

    def _send(self, request: Request, due_at: float) -> Result:
        conn = min(self._conns, key=lambda c: len(c.pending))
        now = self._loop.time()
        result = Result(request, sent_at=now, due_at=due_at,
                        inflight_at_send=self._outstanding)
        conn.pending.append(result)
        self._outstanding += 1
        self._idle.clear()
        conn.writer.write(request.wire)
        return result

    async def closed_loop(self, requests: Sequence[Request]) -> List[Result]:
        """One request at a time (untimed warm-up)."""
        results = []
        for request in requests:
            results.append(self._send(request, self._loop.time()))
            await self._idle.wait()
        return results

    async def open_loop(self, requests: Sequence[Request],
                        abort_late_s: float) -> Tuple[List[Result], float]:
        """Send each request at its due time; returns results and wall time.

        When the oldest unanswered request is already ``abort_late_s``
        past due the rung is overloaded beyond doubt: the remaining
        requests are not sent (they are not counted as attempted) and the
        client waits for everything sent to come back.
        """
        loop = self._loop
        start = loop.time() + 0.005
        results: List[Result] = []
        for request in requests:
            due_at = start + request.due_s
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._outstanding and self._oldest_lateness() > abort_late_s:
                break
            results.append(self._send(request, due_at))
        await self._idle.wait()
        return results, loop.time() - start

    def _oldest_lateness(self) -> float:
        now = self._loop.time()
        return max(
            (now - conn.pending[0].due_at for conn in self._conns if conn.pending),
            default=0.0,
        )


async def http_get(host: str, port: int, path: str,
                   rid: str = "perfbench-get") -> Tuple[int, Dict]:
    """One ``GET`` on a fresh connection (metrics scrape, trace marker)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nhost: perfbench\r\nx-request-id: {rid}\r\n"
            f"connection: close\r\ncontent-length: 0\r\n\r\n".encode("latin-1")
        )
        status, body = await _read_response(reader)
        return status, json.loads(body) if body else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
