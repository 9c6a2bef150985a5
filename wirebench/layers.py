"""Per-layer costs from a traced run (``--trace 1``).

Two sets of spans, kept in memory and written to
``.wirebench/traces/`` when the run ends. Each span is ``(name, start,
end, parent, request id, cpu, count)``; times are ``perf_counter``
seconds and ``cpu`` is the CPU seconds the span's thread spent in it.

- **Wire spans**, from the generator: every request of the traced high
  phase, from its due time (``wire.request``), split into the wait
  before it was written (``wire.wait``) and its time on the wire and in
  the server (``wire.flight``).
- **Replay spans**, from an in-process replay of the run's accepted
  units through the layers' public calls, at the batch size the server
  formed: client ``encode_frame`` → server ``decode_frame`` +
  ``from_jsonable`` → ``MonitorService.ingest_batch_outcomes`` (with
  ``Domain.item_from_raw`` and ``OMG.observe`` nested under it) →
  response ``encode_frame``; for a fleet also the router's re-encode and
  ``RoutingTable.owner``. The replay's responses must equal the wire
  responses byte for byte, which proves it ran the same work.

End-to-end numbers always come from the untraced phases; only
``trace.overhead_frac`` compares the traced high phase with the
untraced one.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from repro.core.runtime import OMG
from repro.fleet.ring import HashRing, RoutingTable
from repro.serve.service import MonitorService
from repro.utils.codec import from_jsonable
from repro.utils.framing import decode_frame, encode_frame

#: Streams whose state ops the replay times.
STATE_STREAMS = 16
#: Control ops with a wire latency of their own (0 where a workload
#: sends none).
CONTROL_OPS = ("report", "stats", "snapshot_stream", "restore_stream")


class Spans:
    """In-memory span store."""

    def __init__(self) -> None:
        self.rows: list = []

    def add(self, name, start, end, parent=None, rid=None, cpu=0.0, count=0) -> int:
        self.rows.append((name, start, end, parent, rid, cpu, count))
        return len(self.rows) - 1

    def totals(self) -> dict:
        """``{name: [spans, cpu seconds, count]}``."""
        out: dict = {}
        for name, _s, _e, _p, _r, cpu, count in self.rows:
            entry = out.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += cpu
            entry[2] += count
        return out

    def self_times(self) -> dict:
        """``{name: seconds}``: each span's duration minus the part of
        it its children cover, summed per name."""
        children: dict = {}
        for index, row in enumerate(self.rows):
            if row[3] is not None:
                children.setdefault(row[3], []).append(index)
        out: dict = {}
        for index, (name, start, end, *_rest) in enumerate(self.rows):
            covered, reach = 0.0, start
            for lo, hi in sorted(
                (max(self.rows[c][1], start), min(self.rows[c][2], end))
                for c in children.get(index, ())
            ):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")


class WireTrace(Spans):
    """Wire spans; the generator calls :meth:`wire` on each response."""

    def wire(self, req) -> None:
        top = self.add("wire.request", req.due, req.recv, None, req.rid)
        self.add("wire.wait", req.due, req.sent, top, req.rid)
        self.add("wire.flight", req.sent, req.recv, top, req.rid)


class _Clock:
    """Times one span on the calling thread."""

    __slots__ = ("t0", "c0")

    def __init__(self) -> None:
        self.c0 = time.thread_time()
        self.t0 = time.perf_counter()

    def stop(self, spans, name, parent=None, rid=None, count=0) -> None:
        t1 = time.perf_counter()
        spans.add(name, self.t0, t1, parent, rid, time.thread_time() - self.c0, count)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay(domain: str, ingests: list, is_traced, batch: int, fleet: bool,
           evict_at: dict, spans: Spans, problems: list) -> MonitorService:
    """Replay accepted ``ingests`` (send order) in batches of ``batch``
    units, never mixing windows in one batch; spans are recorded for the
    windows ``is_traced`` accepts, the rest only rebuild state. A stream
    is evicted after the request ``evict_at`` names, as on the server."""
    service = MonitorService(domain)
    table = RoutingTable(HashRing(["shard-0", "shard-1"])) if fleet else None
    current = {"parent": None}
    adapter = service.domain.item_from_raw
    observe = OMG.observe

    def traced_adapter(raw, state=None):
        clock = _Clock()
        items = adapter(raw, state)
        clock.stop(spans, "adapter.item_from_raw", current["parent"], count=len(items))
        return items

    def traced_observe(self, *args, **kwargs):
        clock = _Clock()
        fires = observe(self, *args, **kwargs)
        clock.stop(spans, "engine.observe", current["parent"], count=len(fires))
        return fires

    try:
        evict_after: list = []
        for chunk in _batches(ingests, batch):
            for req in chunk:
                if evict_at.get(req.stream) == req.rid:
                    evict_after.append(req.stream)
            if not is_traced(chunk[0].phase):
                service.ingest_batch_outcomes(
                    [(r.stream, from_jsonable(decode_frame(r.frame)["raw"])) for r in chunk]
                )
            else:
                objects = [from_jsonable(json.loads(r.unit)) for r in chunk]
                service.domain.item_from_raw = traced_adapter
                OMG.observe = traced_observe
                pairs = []
                for req, obj in zip(chunk, objects):
                    clock = _Clock()
                    encode_frame({"op": "ingest", "id": req.rid,
                                  "stream_id": req.stream, "raw": obj})
                    clock.stop(spans, "codec.encode", rid=req.rid)
                    clock = _Clock()
                    doc = decode_frame(req.frame)
                    pairs.append((req.stream, from_jsonable(doc["raw"])))
                    clock.stop(spans, "codec.decode", rid=req.rid)
                c0, t0 = time.process_time(), time.perf_counter()
                current["parent"] = spans.add("service.ingest_batch_outcomes", t0, t0)
                outcomes = service.ingest_batch_outcomes(pairs)
                spans.rows[current["parent"]] = (
                    "service.ingest_batch_outcomes", t0, time.perf_counter(), None, None,
                    time.process_time() - c0, len(pairs))
                current["parent"] = None
                OMG.observe = observe
                del service.domain.item_from_raw
                for req, outcome in zip(chunk, outcomes):
                    clock = _Clock()
                    body = {"ok": True, "stream_id": outcome.stream_id,
                            "fires": [fire.record for fire in outcome.fires]}
                    line = encode_frame({"id": req.rid, "ok": True, "result": body})
                    clock.stop(spans, "codec.response_encode", rid=req.rid,
                               count=len(outcome.fires))
                    if fleet:
                        _router_hop(req, line, table, spans)
                    if line[:-1] != req.line:
                        problems.append(f"replayed response differs for request {req.rid}")
            for stream in evict_after:
                service.evict(stream)
            evict_after.clear()
    finally:
        OMG.observe = observe
        service.domain.__dict__.pop("item_from_raw", None)
    return service


def _router_hop(req, shard_line: bytes, table, spans) -> None:
    """What the router does per unit: decode the client frame, pick the
    owner, re-encode the forward, decode the shard's answer, encode the
    client's."""
    clock = _Clock()
    table.owner(req.stream)
    clock.stop(spans, "ring.owner", rid=req.rid)
    clock = _Clock()
    doc = decode_frame(req.frame)
    encode_frame({"op": "ingest", "id": req.rid, "stream_id": doc["stream_id"],
                  "raw": doc["raw"]})
    answer = decode_frame(shard_line)
    result = answer["result"]
    encode_frame({"id": req.rid, "ok": True, "result": {
        "ok": True, "stream_id": req.stream, "fires": result["fires"]}})
    clock.stop(spans, "router.codec", rid=req.rid)


def _batches(ingests: list, size: int):
    """Consecutive runs of one window, cut into ``size``-unit batches."""
    run: list = []
    for req in ingests:
        if run and (req.phase != run[0].phase or len(run) == size):
            yield run
            run = []
        run.append(req)
    if run:
        yield run


def baseline_units_per_s(domain: str, ingests: list, is_traced, evict_at: dict) -> float:
    """The traced windows' units run one at a time through
    ``MonitorService.ingest`` in process (after the same history, closed
    streams evicted): the single-threaded baseline."""
    service = MonitorService(domain)
    units = [(r, from_jsonable(json.loads(r.unit))) for r in ingests]
    elapsed, n = 0.0, 0
    for req, raw in units:
        if is_traced(req.phase):
            t0 = time.perf_counter()
            service.ingest(req.stream, raw)
            elapsed += time.perf_counter() - t0
            n += 1
        else:
            service.ingest(req.stream, raw)
        if evict_at.get(req.stream) == req.rid:
            service.evict(req.stream)
    return n / elapsed


def state_ops(service: MonitorService, streams: list) -> dict:
    """Median ms of report / snapshot_stream / restore_stream, as the
    server runs them (service call plus the payload's wire encoding),
    and the mean encoded snapshot size."""
    times: dict = {"report": [], "snapshot": [], "restore": []}
    sizes = []
    for k, stream in enumerate(streams):
        t0 = time.perf_counter()
        encode_frame({"stream_id": stream, "report": service.report(stream)})
        t1 = time.perf_counter()
        session = service.session_snapshot(stream)
        frame = encode_frame({"stream_id": stream, "session": session,
                              "n_raw": session["n_raw"]})
        t2 = time.perf_counter()
        payload = decode_frame(frame)["session"]
        service.restore_session(f"replay-restored-{k}", payload)
        t3 = time.perf_counter()
        times["report"].append(t1 - t0)
        times["snapshot"].append(t2 - t1)
        times["restore"].append(t3 - t2)
        sizes.append(len(frame))
    out = {name: statistics.median(vals) * 1e3 for name, vals in times.items()}
    out["bytes"] = float(np.mean(sizes))
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def per_layer(workload, drive, out, problems) -> None:
    """Fill ``out`` with every per-layer metric of a traced run."""
    fleet = workload.shards > 1
    replayed = ("warmup", "low", "high", "traced")
    ingests = sorted(
        (r for r in drive.of_kind(*replayed) if r.kind == "ingest" and r.ok),
        key=lambda r: (r.sent, r.rid),
    )
    def is_high(phase):
        return drive.kind[phase] == "high"

    traced = [r for r in ingests if is_high(r.phase)]
    # Evict each closed stream after its last unit of the whole run.
    closed = set(drive.closed)
    evict_at = {r.stream: r.rid for r in sorted(drive.sent("ingest"), key=lambda r: r.rid)
                if r.ok and r.stream in closed}
    units_per_batch = drive.high_batches[0] / max(1, drive.high_batches[1])
    spans = drive.trace
    service = replay(workload.domain, ingests, is_high, max(1, round(units_per_batch)),
                     fleet, evict_at, spans, problems)
    tot = spans.totals()
    n = len(traced)

    def us_per_unit(name: str) -> float:
        return tot.get(name, [0, 0.0, 0])[1] * 1e6 / n

    usage = drive.usage_of("high")
    wall = usage["wall"]
    shard_roles = [k for k in usage if k.startswith("shard-")]
    server_cpu = sum(usage[k] for k in usage if k not in ("loadgen", "wall"))
    done = max(1, n)
    late = [(r.sent - r.due) * 1e3 for r in drive.of_kind("high") if r.kind == "ingest"]

    out.put("loadgen.late_p99_ms", np.percentile(late, 99), "ms")
    out.put("loadgen.cpu_frac", usage["loadgen"] / wall, "fraction")

    out.put("codec.request_bytes_per_unit", np.mean([len(r.frame) for r in traced]), "B")
    out.put("codec.response_bytes_per_unit", np.mean([len(r.line) + 1 for r in traced]), "B")
    out.put("codec.encode_us_per_unit", us_per_unit("codec.encode"), "us")
    out.put("codec.decode_us_per_unit", us_per_unit("codec.decode"), "us")
    out.put("codec.response_encode_us_per_unit", us_per_unit("codec.response_encode"), "us")

    adapter = tot.get("adapter.item_from_raw", [0, 0.0, 0])
    engine = tot.get("engine.observe", [0, 0.0, 0])
    out.put("adapter.us_per_unit", adapter[1] * 1e6 / n, "us")
    out.put("adapter.items_per_unit", adapter[2] / n, "count")
    out.put("engine.us_per_item", engine[1] * 1e6 / max(1, engine[0]), "us")
    out.put("engine.fires_per_unit", engine[2] / n, "count")
    service_us = us_per_unit("service.ingest_batch_outcomes")
    out.put("service.us_per_unit", service_us, "us")
    out.put("service.self_us_per_unit",
            service_us - (adapter[1] + engine[1]) * 1e6 / n, "us")
    out.put("service.baseline_units_per_s",
            baseline_units_per_s(workload.domain, ingests, is_high, evict_at), "units/s")

    layer_us = (us_per_unit("codec.decode") + service_us
                + us_per_unit("codec.response_encode")
                + us_per_unit("router.codec") + us_per_unit("ring.owner"))
    out.put("net.units_per_batch", units_per_batch, "count")
    out.put("net.rejected_overload", drive.final_stats.get("rejected_overload", 0), "count")
    out.put("net.residual_us_per_unit", server_cpu * 1e6 / done - layer_us, "us")

    hops = drive.probe.get("hop_s", [])
    out.put("router.hop_us_p50", statistics.median(hops) * 1e6 if hops else 0.0, "us")
    out.put("router.cpu_ms_per_unit", usage["server"] * 1e3 / done if fleet else 0.0, "ms")
    out.put("router.codec_us_per_unit", us_per_unit("router.codec"), "us")
    out.put("ring.owner_us", tot["ring.owner"][1] * 1e6 / tot["ring.owner"][0]
            if fleet else 0.0, "us")
    if fleet:
        per_shard = [s["completed"] for s in drive.final_stats["shards"].values()]
        out.put("router.shard_skew", max(per_shard) / np.mean(per_shard), "ratio")
        shard_cpu = sum(usage[k] for k in shard_roles)
        n_shards = len(shard_roles)
    else:
        out.put("router.shard_skew", 1.0, "ratio")
        shard_cpu, n_shards = usage["server"], 1
    out.put("shard.cpu_ms_per_unit", shard_cpu * 1e3 / done, "ms")
    out.put("shard.busy_frac", shard_cpu / (wall * n_shards), "fraction")

    live = service.stream_ids()[-STATE_STREAMS:]
    state = state_ops(service, live)
    out.put("state.report_ms", state["report"], "ms")
    out.put("state.snapshot_stream_ms", state["snapshot"], "ms")
    out.put("state.restore_stream_ms", state["restore"], "ms")
    out.put("state.bytes_per_stream", state["bytes"], "B")

    out.put("p50_ms.high", drive.p50_ms["high"], "ms")
    for kind in ("low", "high"):
        out.put(f"p99_ms.{kind}", drive.p99_ms[kind], "ms")
    control = drive.control_ms
    out.put("control_p50_ms", control["all"]["p50"], "ms")
    out.put("control_p90_ms", control["all"]["p90"], "ms")
    for op in CONTROL_OPS:
        out.put(f"control.{op}_p50_ms", control[op]["p50"] if op in control else 0.0, "ms")
    out.put("ladder.max_rate_units_per_s", drive.max_rate, "units/s")
    predicted = (os.cpu_count() or 1) / (layer_us * 1e-6)
    out.put("model.predicted_units_per_s", predicted, "units/s")
    out.put("model.gap_frac", predicted / drive.max_rate - 1.0, "fraction")

    # Wire spans cost only the generator: charge its extra CPU per unit
    # in the traced phase against the untraced phase's whole CPU per unit.
    traced_use = drive.usage_of("traced")
    traced_done = sum(1 for r in drive.of_kind("traced") if r.kind == "ingest" and r.ok)
    extra = traced_use["loadgen"] / max(1, traced_done) - usage["loadgen"] / done
    out.put("trace.overhead_frac", extra / ((server_cpu + usage["loadgen"]) / done),
            "fraction")
    drive.layer_self_s = spans.self_times()
    spans.dump(drive.trace_path)
