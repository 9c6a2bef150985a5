"""One benchmark run: start the server, drive it open-loop through every
window, check the outputs, and compute the metrics.

Windows, in order, on the same streams (so every stream's units form
one contiguous sequence): a short warm-up at the low rate (lazy set-up
finishes; not reported), rounds of low and high windows, and with
``--trace 1`` also a traced high window in each round and then the rate
ladder, which stops after two steps in a row miss the p99 limit, are
refused units, or build a backlog. Control ops run at a fixed rate
through the low, high and traced windows.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import statistics
import sys
import time

import numpy as np

import check
import procs
from loadgen import LoadGenerator, percentile
from workloads import KEEP, build_schedule, load_inputs, plan_streams, untraced

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".wirebench")
#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Units each router probe path carries (``--trace 1``, fleet only).
PROBE_UNITS = 60
#: Seconds to wait for responses after a window's last due time.
DRAIN_S = 15.0
#: Reported in place of a latency percentile that fell on a failed unit.
FAILED_MS = 1e6
#: Seconds after start-up by which a run must be done driving the
#: server; a server that stops answering fails the run instead of
#: hanging it.
DRIVE_BUDGET_S = 130.0
#: Window kinds whose requests count towards ``attempted``/``failed``.
COUNTED = ("warmup", "low", "high", "traced")


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    stages = {"start": time.perf_counter()}
    phases = build_schedule(workload, seed, seconds)
    if not traced:
        phases = untraced(phases)
    plan = plan_streams(workload, seed, phases)
    inputs = load_inputs(workload, seed, plan.units, os.path.join(WORK, "cache"))
    stages["inputs"] = time.perf_counter()

    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    ready = os.path.join(rundir, "ready.json")
    command = procs.server_command(workload.domain, workload.shards, ready,
                                   os.path.join(rundir, "fleet"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = rundir
    setups = []
    server = None
    try:
        for i in range(SETUPS):
            server = procs.ServerProcess(command, rundir, ready, env)
            server.start()
            setups.append(server.setup_s)
            if i < SETUPS - 1:
                server.stop()
                server = None
        stages["setup"] = time.perf_counter()
        drive = Drive(workload, seed, phases, plan, inputs, server, traced)
        host0 = procs.host_times()
        with procs.IdleSpinners():
            asyncio.run(drive.main())
        steal = procs.steal_frac(host0, procs.host_times())
        rss = sum(procs.peak_rss_mb(pid) for pid in server.pids.values())
    finally:
        if server is not None:
            server.stop()
    shutil.rmtree(rundir, ignore_errors=True)
    stages["drive"] = time.perf_counter()

    problems: list = []
    problems.extend(drive.close_problems)
    check.check_run(workload.domain, drive.sent("ingest"),
                    drive.sent("restore_stream"), drive.reports,
                    drive.final_stats, problems)
    stages["check"] = time.perf_counter()
    metrics = Metrics()
    counts = end_to_end(workload, drive, setups, rss, metrics)
    reported = metrics
    if traced:
        import layers

        drive.max_rate = max_rate([e for e in drive.window_log if e["kind"] == "step"],
                                  workload.p99_limit_ms)
        reported = Metrics()
        layers.per_layer(workload, drive, reported, problems)
    stages["metrics"] = time.perf_counter()
    names = list(stages)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": not problems,
        "problems": problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": reported.as_dict(),
        "end_to_end": metrics.as_dict(),
        "setups_s": setups,
        "host_steal_frac": steal,
        "stage_s": {b: stages[b] - stages[a] for a, b in zip(names, names[1:])},
        "layer_self_s": drive.layer_self_s,
        "max_rate_units_per_s": drive.max_rate,
        "p50_ms": drive.p50_ms,
        "p99_ms": drive.p99_ms,
        "control_ms": drive.control_ms,
        "windows": drive.window_log,
        "command": command,
    }


class Metrics:
    """Named metrics with units, in insertion order."""

    def __init__(self) -> None:
        self.values: dict = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def as_dict(self) -> dict:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in self.values.items()}


# ----------------------------------------------------------------------
# Driving the server
# ----------------------------------------------------------------------
class Drive:
    """The asyncio half of a run; everything it measures stays on it."""

    def __init__(self, workload, seed, phases, plan, inputs, server, traced):
        self.workload = workload
        self.seed = seed
        self.phases = phases
        self.kind = {p.name: p.kind for p in phases}
        self.plan = plan
        self.inputs = inputs
        #: Streams closed (report read, then evicted) so far.
        self.closed: list = []
        self.close_problems: list = []
        self.server = server
        self.traced = traced
        self.gen: "LoadGenerator | None" = None
        self.window_log: list = []
        #: Per-window CPU seconds of every server process and the
        #: generator, and wall seconds.
        self.usage: dict = {}
        #: ``[completed, batches]`` of the server over the high windows.
        self.high_batches = [0, 0]
        self.final_stats: dict = {}
        self.reports: dict = {}
        self.probe: dict = {}
        #: Highest ladder rate meeting the p99 limit (see :func:`max_rate`);
        #: traced runs only.
        self.max_rate = None
        #: Ingest p50 and p99 (ms) of the low and high windows the
        #: metrics use.
        self.p50_ms: dict = {}
        self.p99_ms: dict = {}
        #: ``{op: {p50, p90, n}}`` (ms) of the control ops in those
        #: windows, per op and pooled (``all``).
        self.control_ms: dict = {}
        self.trace = None
        #: Self time (s) per span name of a traced run.
        self.layer_self_s: dict = {}
        self.trace_path = os.path.join(WORK, "traces", f"{workload.name}-s{seed}.jsonl")

    def sent(self, kind: str) -> list:
        return [r for r in self.gen.requests.values()
                if r.kind == kind and r.sent is not None]

    def of_kind(self, *kinds) -> list:
        """Requests of the windows of the given kinds."""
        return [r for r in self.gen.requests.values()
                if self.kind.get(r.phase) in kinds]

    def usage_of(self, kind: str) -> dict:
        total: dict = {}
        for name, use in self.usage.items():
            if self.kind[name] == kind:
                for key, value in use.items():
                    total[key] = total.get(key, 0.0) + value
        return total

    async def main(self) -> None:
        if self.traced:
            import layers

            self.trace = layers.WireTrace()
        self.gen = LoadGenerator()
        host, port = self.server.address
        await self.gen.connect(host, port, max(1, min(os.cpu_count() or 1, 8)))
        try:
            await self._main()
        finally:
            await self.gen.close()

    def _plan(self) -> list:
        """Pre-encode every window's requests before any clock starts."""
        gen, workload, plan = self.gen, self.workload, self.plan
        conns = gen.conns
        cursor = {sid: 0 for sid in plan.units}
        crng = np.random.default_rng([self.seed, 2])
        # Every window of a given length gets the same count of each op
        # (the weighted pattern repeated and cut at its length); only the
        # order and the target streams are drawn.
        pattern = [op for op, weight in workload.control_mix.items() for _ in range(weight)]
        planned = []
        for index, phase in enumerate(self.phases):
            reqs = []
            for due, k, sid in zip(phase.due.tolist(), phase.stream.tolist(),
                                   plan.ids[index]):
                reqs.append(gen.ingest(conns[k % len(conns)], phase.name, due, sid,
                                       self.inputs[sid][cursor[sid]]))
                cursor[sid] += 1
            if phase.kind in ("low", "high", "traced"):
                live = plan.live[index]
                n_ops = int(round(workload.control_rate * phase.seconds))
                tiled = (pattern * (n_ops // len(pattern) + 1))[:n_ops]
                for i, op in enumerate(crng.permutation(np.array(tiled)).tolist()):
                    due = (i + 0.5) / workload.control_rate
                    conn = conns[i % len(conns)]
                    if op == "stats":
                        req = gen.request("stats", conn, phase.name, due)
                    else:
                        sid = live[int(crng.integers(len(live)))]
                        req = gen.request(op, conn, phase.name, due, stream=sid)
                        if op == "snapshot_stream":
                            gen.restore_to[req.rid] = f"restored-{req.rid}"
                    reqs.append(req)
            planned.append((phase, reqs))
        return planned

    async def _close(self, streams: list) -> None:
        """Read each stream's report, then evict it (between windows)."""
        conn = self.gen.conns[0]
        reqs = []
        for sid in streams:
            reqs.append(self.gen.request("report", conn, "close", 0.0, stream=sid))
            reqs.append(self.gen.request("evict", conn, "close", 0.0, stream=sid))
        await self.gen.run_phase(reqs, DRAIN_S)
        for req in reqs:
            if not req.ok:
                self.close_problems.append(
                    f"{req.kind} of stream {req.stream} failed: {req.line!r}")
            elif req.kind == "report":
                self.reports[req.stream] = req.response()["result"]["report"]
        self.closed.extend(streams)

    def _restored_open(self) -> list:
        closed = set(self.closed)
        return [r.stream for r in self.sent("restore_stream") if r.stream not in closed]

    async def _main(self) -> None:
        gen = self.gen
        conn = gen.conns[0]
        failures_in_row = 0
        planned = self._plan()
        # The generator's own collector pauses would show up as lateness:
        # freeze what is planned, and collect only between windows.
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + DRIVE_BUDGET_S
        for index, (phase, reqs) in enumerate(planned):
            if phase.kind == "step" and failures_in_row >= 2:
                continue
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"run still driving after {DRIVE_BUDGET_S:.0f} s; the server "
                    "stopped answering"
                )
            # Planned closes count units of ladder copies that may have
            # been skipped; close only streams the server has seen.
            started = {r.stream for r in self.sent("ingest")}
            closing = [s for s in self.plan.closes[index] if s in started]
            closing += self._restored_open()
            if closing:
                await self._close(closing)
            if phase.kind == "high":
                stats0 = await self._call(conn, "stats")
            gen.trace = self.trace if phase.kind == "traced" else None
            gc.disable()
            before, host0 = self._usage(), procs.host_times()
            start = await gen.run_phase(reqs, DRAIN_S)
            after, host1 = self._usage(), procs.host_times()
            gc.enable()
            gen.trace = None
            self.usage[phase.name] = {k: after[k] - before[k] for k in after}
            if phase.kind == "high":
                stats1 = await self._call(conn, "stats")
                self.high_batches[0] += stats1["completed"] - stats0["completed"]
                self.high_batches[1] += stats1["batches"] - stats0["batches"]
            entry = window_summary(phase, reqs, start, self.workload.p99_limit_ms)
            entry["steal"] = procs.steal_frac(host0, host1)
            use = self.usage[phase.name]
            entry["server_cpu_ms_per_unit"] = 1e3 * sum(
                v for k, v in use.items() if k not in ("loadgen", "wall")
            ) / max(1, entry["answered_ok"])
            self.window_log.append(entry)
            print("window {window}: {units} units at {rate:g}/s, p50 {p50_ms:.1f} ms, "
                  "p99 {p99_ms:.1f} ms, late p99 {late_p99_ms:.1f} ms, rejected "
                  "{rejected}, backlog {backlog_growth:+d}, steal {steal:.3f}, "
                  "passed {passed}".format(**entry),
                  file=sys.stderr, flush=True)
            if phase.kind == "step":
                failures_in_row = 0 if entry["passed"] else failures_in_row + 1

        if self.traced and self.workload.shards > 1:
            await self._router_probe()
        closed = set(self.closed)
        started = {r.stream for r in self.sent("ingest")}
        finals = [gen.request("report", conn, "final", 0.0, stream=sid)
                  for sid in list(self.plan.units) + self.probe.get("streams", [])
                  if sid in started and sid not in closed]
        finals += [gen.request("report", conn, "final", 0.0, stream=sid)
                   for sid in self._restored_open()]
        await gen.run_phase(finals, DRAIN_S)
        for req in finals:
            if req.ok:
                self.reports[req.stream] = req.response()["result"]["report"]
        self.final_stats = await self._call(conn, "stats")

    def _usage(self) -> dict:
        usage = {
            role: procs.cpu_seconds(pid) for role, pid in self.server.pids.items()
        }
        usage["loadgen"] = time.process_time()
        usage["wall"] = time.perf_counter()
        return usage

    async def _call(self, conn, op: str, **fields) -> dict:
        req = self.gen.request(op, conn, "probe", 0.0, **fields)
        await self.gen.run_phase([req], DRAIN_S)
        if not req.ok:
            raise RuntimeError(f"{op} failed: {req.line!r}")
        return req.response()["result"]

    async def _router_probe(self) -> None:
        """Send the same units one at a time through the router and
        directly to the shard that owns the probe stream; the difference
        in round trip is the router hop."""
        from repro.fleet.ring import HashRing, RoutingTable

        gen = self.gen
        table = RoutingTable(HashRing(sorted(self.server.shard_addresses)))
        routed, direct = "probe-routed", "probe-direct"
        owner = table.owner(direct)
        host, port = self.server.shard_addresses[owner]
        await gen.connect_extra(owner, host, port)
        hops = []
        longest = max(self.inputs.values(), key=len)
        for i, unit in enumerate(longest[:PROBE_UNITS]):
            rtt = {}
            order = ((routed, gen.conns[0]), (direct, gen.extra[owner]))
            for sid, conn in (order if i % 2 == 0 else order[::-1]):
                req = gen.ingest(conn, "probe", 0.0, sid, unit)
                await gen.run_phase([req], DRAIN_S)
                rtt[sid] = req.recv - req.sent if req.ok else float("inf")
            hops.append(rtt[routed] - rtt[direct])
        self.probe = {"streams": [routed, direct], "hop_s": hops}


def window_summary(phase, reqs: list, start: float, limit_ms: float) -> dict:
    """Latency, lateness, refusals and backlog of one window."""
    ingest = [r for r in reqs if r.kind == "ingest"]
    lat = np.minimum([r.latency_ms for r in ingest], FAILED_MS)
    late = [(r.sent - r.due) * 1e3 for r in ingest if r.sent is not None]
    rejected = sum(
        1 for r in ingest if r.recv is not None and not r.ok
        and r.response()["error"].get("type") == "overloaded"
    )
    sent_t = np.sort([r.sent for r in ingest if r.sent is not None])
    recv_t = np.sort([r.recv for r in ingest if r.recv is not None])

    def backlog(t: float) -> int:
        return int(np.searchsorted(sent_t, t, "right") - np.searchsorted(recv_t, t, "right"))

    growth = backlog(start + phase.seconds) - backlog(start + 0.25 * phase.seconds)
    p99 = percentile(lat, 99)
    return {
        "window": phase.name,
        "kind": phase.kind,
        "rate": phase.rate,
        "units": len(ingest),
        "answered_ok": sum(1 for r in ingest if r.ok),
        "rejected": rejected,
        "p50_ms": percentile(lat, 50),
        "p99_ms": p99,
        "late_p99_ms": percentile(late, 99),
        "backlog_growth": growth,
        "passed": bool(p99 <= limit_ms and rejected == 0
                       and growth <= phase.rate * limit_ms / 1e3),
    }


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def clean_windows(window_log: list, kind: str) -> list:
    """The ``KEEP`` windows of ``kind`` in which the host took the least
    CPU from this machine (``steal``). On a shared host a window with
    several percent steal reads tens of ms slower at p99; choosing by
    the host's own counter keeps those out without looking at latency."""
    windows = [e for e in window_log if e["kind"] == kind]
    return sorted(windows, key=lambda e: e["steal"])[:KEEP]


def max_rate(steps: list, limit_ms: float) -> float:
    """Highest ladder rate meeting the p99 limit.

    A step refused units or built a backlog counts as missing the limit.
    One short step's p99 moves with a single collector pause, so the
    step p99s are first made non-decreasing in rate (pool-adjacent-
    violators, in log space, weighted by units): a lone slow step then
    pulls its neighbour up instead of ending the ladder, and a lone fast
    step above a slow one cannot pass. The rate where that curve crosses
    the limit is interpolated in log space between the two steps around
    it; below the first step, the first step's rate is scaled down by
    its overshoot.
    """
    rates = [s["rate"] for s in steps]
    logs = [
        np.log(s["p99_ms"]) if s["passed"] or s["p99_ms"] > limit_ms
        else np.log(2 * limit_ms)
        for s in steps
    ]
    blocks: list = []  # [mean, weight, count]
    for value, weight in zip(logs, (s["units"] for s in steps)):
        blocks.append([value, weight, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2, c1 + c2])
    curve = [value for value, _w, count in blocks for _ in range(count)]
    limit = np.log(limit_ms)
    if curve[0] > limit:
        return rates[0] * float(np.exp(limit - curve[0]))
    for i in range(1, len(curve)):
        if curve[i] > limit:
            frac = (limit - curve[i - 1]) / (curve[i] - curve[i - 1])
            return rates[i - 1] + (rates[i] - rates[i - 1]) * float(frac)
    return rates[-1]


def end_to_end(workload, drive: Drive, setups: list, rss: float, metrics: Metrics) -> dict:
    """The user-visible metrics, from the untraced windows only."""
    metrics.put("setup_s", statistics.median(setups), "s")
    # Ingest latency, pooled over the windows of each rate the host
    # disturbed least (see README.md).
    clean = {kind: clean_windows(drive.window_log, kind) for kind in ("low", "high")}
    for kind in ("low", "high"):
        names = {e["window"] for e in clean[kind]}
        lat = np.minimum([r.latency_ms for r in drive.of_kind(kind)
                          if r.kind == "ingest" and r.phase in names], FAILED_MS)
        # Only the low rate's p50 is gated: at the high rate, and at p99,
        # host steal moved the figures by more than any bound allowed
        # (see README.md). Traced runs report them.
        drive.p50_ms[kind] = percentile(lat, 50)
        drive.p99_ms[kind] = percentile(lat, 99)
    metrics.put("p50_ms.low", drive.p50_ms["low"], "ms")
    usage = drive.usage_of("high")
    server_cpu = sum(v for k, v in usage.items() if k not in ("loadgen", "wall"))
    done = sum(e["answered_ok"] for e in drive.window_log if e["kind"] == "high")
    metrics.put("cpu_ms_per_unit", server_cpu * 1e3 / max(1, done), "ms")
    metrics.put("rss_mb", rss, "MB")
    names = {e["window"] for kind in clean for e in clean[kind]}
    control = [r for r in drive.of_kind("low", "high")
               if r.kind != "ingest" and r.phase in names]
    # Control-op latency is not gated either, for the same reason; traced
    # runs report it, pooled and per op.
    for op in ["all"] + sorted({r.kind for r in control}):
        lat = np.minimum([r.latency_ms for r in control if op in ("all", r.kind)],
                         FAILED_MS)
        drive.control_ms[op] = {"p50": percentile(lat, 50), "p90": percentile(lat, 90),
                                "n": len(lat)}
    counted = [r for r in drive.of_kind(*COUNTED) if r.sent is not None]
    failed = sum(1 for r in counted if not r.ok)
    metrics.put("ok_frac", 1.0 - failed / max(1, len(counted)), "fraction")
    return {"attempted": len(counted), "failed": failed}
