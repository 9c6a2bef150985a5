"""Single-process asyncio open-loop load generator.

Every request is pre-encoded before the clock starts and stamped with
the time it is due. Senders write each request when it falls due,
whatever the server is doing, over at most ``nproc`` connections with
many streams multiplexed on each (a stream always uses the same
connection, so its units stay in order). Latency runs from the due time
to the response, so a stall also charges the requests queued behind it;
how late the generator itself ran is recorded separately.

Receivers only timestamp response lines; they are parsed after the
phase, off the clock. The one exception is ``snapshot_stream``, whose
payload is restored into a fresh stream as soon as it arrives.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from repro.utils.framing import encode_frame


class Request:
    """One request of the run; ``kind`` is ``ingest`` or a control op."""

    __slots__ = ("rid", "kind", "conn", "stream", "unit", "frame", "phase",
                 "due", "sent", "recv", "line", "_doc")

    def __init__(self, rid, kind, conn, stream, unit, frame, phase, due):
        self.rid = rid
        self.kind = kind
        self.conn = conn
        self.stream = stream
        self.unit = unit
        self.frame = frame
        self.phase = phase
        self.due = due
        self.sent = None
        self.recv = None
        self.line = None
        self._doc = None

    def response(self) -> dict:
        if self._doc is None:
            self._doc = json.loads(self.line)
        return self._doc

    @property
    def ok(self) -> bool:
        return self.recv is not None and self.response().get("ok") is True

    @property
    def latency_ms(self) -> float:
        """Due time to response, in ms; ``inf`` unless answered ok."""
        return (self.recv - self.due) * 1e3 if self.ok else float("inf")


class _Client(asyncio.Protocol):
    """Timestamps response lines and hands them to the generator."""

    def __init__(self, gen: "LoadGenerator") -> None:
        self.gen = gen
        self.transport = None
        self.buffer = b""
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        self.buffer += data
        if b"\n" not in data:
            return
        *lines, self.buffer = self.buffer.split(b"\n")
        for line in lines:
            self.gen.on_response(line, now)

    def connection_lost(self, exc) -> None:
        if not self.lost.done():
            self.lost.set_result(exc)


class LoadGenerator:
    """Drive one server endpoint (and optionally direct shard endpoints)."""

    def __init__(self) -> None:
        self.requests: dict = {}
        self.conns: list = []
        self.extra: dict = {}
        self._next_id = 0
        self._outstanding = 0
        self._idle = None
        #: Receives every response while set (``layers.WireTrace``).
        self.trace = None
        #: ``{rid of snapshot_stream: fresh stream id to restore into}``.
        self.restore_to: dict = {}

    async def connect(self, host: str, port: int, n: int) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(n):
            _transport, proto = await loop.create_connection(
                lambda: _Client(self), host, port
            )
            self.conns.append(proto)

    async def connect_extra(self, name: str, host: str, port: int) -> None:
        loop = asyncio.get_running_loop()
        _transport, proto = await loop.create_connection(
            lambda: _Client(self), host, port
        )
        self.extra[name] = proto

    async def close(self) -> None:
        for proto in self.conns + list(self.extra.values()):
            proto.transport.close()
            await proto.lost

    # ------------------------------------------------------------------
    def request(self, kind: str, conn, phase: str, due: float, stream=None,
                **fields) -> Request:
        """Register (and pre-encode) one control request; ``due`` is
        relative to the phase start until :meth:`run_phase` rebases it."""
        rid = self._next_id
        self._next_id += 1
        doc = {"op": kind, "id": rid}
        if stream is not None:
            doc["stream_id"] = stream
        doc.update(fields)
        req = Request(rid, kind, conn, stream, None, encode_frame(doc), phase, due)
        self.requests[rid] = req
        return req

    def ingest(self, conn, phase: str, due: float, stream: str, unit: bytes) -> Request:
        """Register one ingest of an encoded unit (the frame is spliced
        from the pre-encoded unit; ``check.check_run`` proves it equal
        to what ``encode_frame`` writes)."""
        rid = self._next_id
        self._next_id += 1
        frame = b'{"op":"ingest","id":%d,"stream_id":%s,"raw":%s}\n' % (
            rid, json.dumps(stream).encode(), unit)
        req = Request(rid, "ingest", conn, stream, unit, frame, phase, due)
        self.requests[rid] = req
        return req

    def on_response(self, line: bytes, now: float) -> None:
        if line.startswith(b'{"id":'):
            rid = int(line[6:line.index(b",", 6)])
        else:  # pragma: no cover - every server response leads with its id
            rid = json.loads(line).get("id")
        req = self.requests.get(rid)
        if req is None or req.recv is not None:
            return
        req.recv = now
        req.line = line
        if self.trace is not None:
            self.trace.wire(req)
        target = self.restore_to.get(rid)
        if target is not None:
            self._restore(req, target, now)
        self._outstanding -= 1
        if self._outstanding == 0 and self._idle is not None:
            self._idle.set()

    def _restore(self, snap: Request, target: str, now: float) -> None:
        """Restore a ``snapshot_stream`` payload into ``target`` at once.

        The session payload is spliced out of the response line rather
        than parsed and re-encoded, so a large snapshot does not stall
        the generator's loop; the response is ``{"id":..,"ok":true,
        "result":{"stream_id":..,"session":{..},"n_raw":N}}``.
        """
        line = snap.line
        if not line.startswith(b'{"id":%d,"ok":true,' % snap.rid):
            return
        head = line.index(b'"session":') + len(b'"session":')
        tail = line.rindex(b',"n_raw":')
        rid = self._next_id
        self._next_id += 1
        frame = b'{"op":"restore_stream","id":%d,"stream_id":%s,"session":%s}\n' % (
            rid, json.dumps(target).encode(), line[head:tail])
        req = Request(rid, "restore_stream", snap.conn, target,
                      (snap.stream, int(line[tail + 9:-2])), frame, snap.phase, now)
        self.requests[rid] = req
        self._send_now(req, now)

    def _send_now(self, req: Request, now: float) -> None:
        req.due = now
        req.sent = now
        self._outstanding += 1
        req.conn.transport.write(req.frame)

    # ------------------------------------------------------------------
    async def run_phase(self, requests: list, drain_timeout: float) -> float:
        """Send ``requests`` (due offsets relative to now) open-loop, wait
        until every response arrived or ``drain_timeout`` passed after
        the last due time. Returns the phase's absolute start time."""
        start = time.perf_counter() + 0.005
        by_conn: dict = {}
        for req in requests:
            req.due += start
            by_conn.setdefault(id(req.conn), []).append(req)
        self._idle = asyncio.Event()
        senders = [asyncio.create_task(self._send(reqs)) for reqs in by_conn.values()]
        await asyncio.gather(*senders)
        deadline = time.perf_counter() + drain_timeout
        while self._outstanding > 0:
            self._idle.clear()
            try:
                await asyncio.wait_for(
                    self._idle.wait(), max(0.0, deadline - time.perf_counter())
                )
            except asyncio.TimeoutError:
                break
        self._idle = None
        return start

    async def _send(self, reqs: list) -> None:
        reqs.sort(key=lambda r: r.due)
        i, n = 0, len(reqs)
        while i < n:
            delay = reqs[i].due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            j = i
            chunks = []
            while j < n and reqs[j].due <= now:
                req = reqs[j]
                req.sent = now
                chunks.append(req.frame)
                j += 1
            self._outstanding += j - i
            reqs[i].conn.transport.write(b"".join(chunks))
            i = j


def percentile(values, q: float) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))
