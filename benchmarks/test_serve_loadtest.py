"""Bench: the network serving front-end under closed- and open-loop load.

Runs the same saturation sweep ``python -m repro loadtest`` exposes —
real TCP sockets, concurrent clients, a fresh server per point — on the
TV-news domain (model-free raw units, so the timer sees the serving
stack: framing, admission, batch coalescing, the service batch ingest).

Asserted, per point: the no-silent-drops ledger holds exactly
(offered == accepted + rejected; completed + failed == accepted), every
measured latency is finite, and closed-loop throughput grows (>= 1.2x)
from 1 client to 4 — the batching front-end must extract concurrency,
not serialize it away. The open-loop saturation point additionally
proves the bounded queue pushes back explicitly under a deliberately
tiny ``max_pending``.

A second sweep axis covers the sharded fleet: 1-vs-2-shard closed-loop
points where each multi-shard point stands up real worker processes
behind the consistent-hash router and drives it through the identical
wire protocol (``repro loadtest --shards``).

The ``BENCH_SERVE`` lines are machine-readable for the nightly CI job
summary; the committed ``BENCH_serve.json`` at the repo root records the
shards sweep for point-by-point comparison across PRs.
"""

import math

import pytest

from conftest import run_once

from repro.serve import LoadTestConfig, run_loadtest

#: Full reproduction runs take minutes; excluded from the fast tier via -m "not slow".
pytestmark = pytest.mark.slow

CLOSED_CONFIG = LoadTestConfig(
    domain="tvnews",
    client_counts=(1, 4),
    mode="closed",
    duration=2.0,
    warmup=0.5,
)

# Matches the committed BENCH_serve.json sweep (repo root): regenerate
# it with `python -m repro loadtest tvnews --clients 1,4 --shards 1,2
# --duration 3 --warmup 0.5 --out BENCH_serve.json`.
SHARDS_CONFIG = LoadTestConfig(
    domain="tvnews",
    client_counts=(1, 4),
    shard_counts=(1, 2),
    mode="closed",
    duration=3.0,
    warmup=0.5,
)

SATURATION_CONFIG = LoadTestConfig(
    domain="tvnews",
    client_counts=(4,),
    mode="open",
    rate=3000.0,
    duration=1.0,
    warmup=0.0,
    max_pending=8,
    max_delay=0.02,
)


def check_point(point) -> None:
    assert point.ledger_ok, point.as_dict()
    assert point.completed + point.failed == point.accepted
    assert point.failed == 0
    if point.n_samples:
        for value in point.latency_ms.values():
            assert math.isfinite(value) and value > 0


def test_closed_loop_sweep_scales_with_clients(benchmark):
    result = run_once(benchmark, run_loadtest, CLOSED_CONFIG, echo=print)
    one, four = result.points
    for point in result.points:
        check_point(point)
        assert point.n_samples > 0
    # batching must extract concurrency from 4 closed-loop clients
    assert four.items_per_s >= 1.2 * one.items_per_s


def test_shard_sweep_holds_the_ledger_across_the_fleet_stack():
    """The 1-vs-2-shard sweep: 2-shard points stand up real worker
    processes behind the consistent-hash router, driven through the
    identical wire protocol. Per point: the merged fleet ledger must
    balance exactly (a lost unit anywhere in router forwarding would
    show up here), latencies must be finite, and every (shards,
    clients) grid cell must produce samples."""
    result = run_loadtest(SHARDS_CONFIG, echo=print)
    points = {(p.shards, p.clients): p for p in result.points}
    assert set(points) == {(1, 1), (1, 4), (2, 1), (2, 4)}
    for point in result.points:
        check_point(point)
        assert point.n_samples > 0


def test_open_loop_saturation_pushes_back_explicitly():
    result = run_loadtest(SATURATION_CONFIG, echo=print)
    (point,) = result.points
    assert point.ledger_ok, point.as_dict()
    assert point.completed + point.failed == point.accepted
    assert point.rejected > 0  # the bounded queue refused, loudly
    assert point.accepted > 0  # ... while still doing real work
