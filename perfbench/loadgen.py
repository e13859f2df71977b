"""Open-loop load generation over one TCP connection to ``repro serve``.

The schedule is built by the workload from its seed.  Every request is
timed from when it was *due*, so a stall in the server also delays the
requests queued behind it, and the generator reports how late it sent.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

#: Largest line the client accepts (the server pages payloads at 256 KiB).
LINE_LIMIT = 4 * 1024 * 1024


@dataclass
class Pending:
    """One request's client-side record."""

    message: dict
    phase: str
    due: float = 0.0
    sent: float | None = None
    done: float | None = None
    result: dict | None = None
    clips: list | None = None
    error: str | None = None
    bytes: int = 0
    frames: int = 0
    pages: int = 0

    @property
    def request_id(self) -> str:
        return self.message["request_id"]

    @property
    def ok(self) -> bool:
        return self.error is None and self.done is not None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class Connection:
    """One pipelined client connection; demultiplexes on ``request_id``."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pending: dict = field(default_factory=dict)
    replies: asyncio.Queue = field(default_factory=asyncio.Queue)

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        from repro.service.payload import PayloadAssembler

        reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
        conn = cls(reader, writer)
        conn.assembler = PayloadAssembler()
        conn.task = asyncio.ensure_future(conn._read_loop())
        return conn

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            event = json.loads(line)
            rid = event.get("request_id")
            item = self.pending.get(rid) if rid is not None else None
            if item is None:
                if rid is None:  # a verb's reply (pong, stats)
                    await self.replies.put(event)
                continue
            item.bytes += len(line)
            item.frames += 1
            kind = event.get("event")
            if kind == "payload_page":
                item.pages += 1
            try:
                assembled = self.assembler.feed(event)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                self._finish(item, error=f"payload: {error}")
                continue
            if kind == "result":
                item.result = event
                if "payload" not in event:
                    self._finish(item)
            elif kind == "error":
                self._finish(item, error=event.get("message", "error"))
            elif assembled is not None and assembled.kind == "result":
                item.clips = assembled.arrays
                self._finish(item)

    def _finish(self, item: Pending, error: str | None = None) -> None:
        if item.done is None:
            item.done = time.perf_counter()
            item.error = error
            waiter = getattr(item, "waiter", None)
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    async def op(self, message: dict, timeout: float = 30.0) -> dict:
        """A request/reply verb (``ping``, ``stats``)."""
        self.writer.write(json.dumps(message).encode() + b"\n")
        await self.writer.drain()
        return await asyncio.wait_for(self.replies.get(), timeout)

    async def run(self, items: list[Pending], start: float, timeout: float) -> None:
        """Send each item at ``start + item.due`` (already absolute in
        ``item.due`` once this returns) and wait for every terminal frame."""
        loop = asyncio.get_running_loop()
        for item in items:
            item.due = start + item.due
            item.waiter = loop.create_future()
            self.pending[item.request_id] = item
        for item in items:
            delay = item.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            item.sent = time.perf_counter()
            self.writer.write(json.dumps(item.message).encode() + b"\n")
            if self.writer.transport.get_write_buffer_size() > 1 << 16:
                await self.writer.drain()
        await self.writer.drain()
        deadline = start + timeout
        for item in items:
            remaining = deadline - time.perf_counter()
            try:
                await asyncio.wait_for(asyncio.shield(item.waiter), max(remaining, 0.001))
            except asyncio.TimeoutError:
                self._finish(item, error="timeout")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass
