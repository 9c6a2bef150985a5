"""The benchmark's workloads and their seeded inputs.

Each workload is one traffic mix against one server shape. Its rates are
fixed here (not measured per run), so two commits are always driven by
identical schedules. On video-2shard ``low`` sits near a quarter of the
capacity the workload had when the benchmark was defined and ``high``
near half; ecg-mix sits lower. The ladder (traced runs only) brackets
capacity. See ``README.md`` next to this file for why each workload
exists and why ``high`` is not higher.

Inputs are made before any clock starts. A corpus of domain worlds is
generated once per checkout (see :data:`CORPUS`); the workload seed then
picks the stream ids, the segment of the corpus each stream replays and
the order streams take turns in, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str
    shards: int
    streams: int
    #: Offered ingest rates (raw units/s) of the low and high phases.
    low: float
    high: float
    #: Fixed rate ladder (units/s) for ``max_rate_units_per_s``.
    ladder: tuple
    #: p99 limit (ms) a ladder step must meet.
    p99_limit_ms: float
    #: Control ops per second during the low and high phases.
    control_rate: float
    #: ``{op: weight}``; ``snapshot_stream`` is followed by a
    #: ``restore_stream`` of the payload into a fresh stream id.
    control_mix: dict = field(default_factory=dict)
    #: Mean units a stream lives before it is closed and replaced;
    #: ``None``: streams stay open for the whole run.
    lifetime: "int | None" = None
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="video-2shard",
            domain="video",
            shards=2,
            streams=32,
            low=240.0,
            high=450.0,
            ladder=(700.0, 800.0, 920.0, 1060.0, 1220.0, 1400.0, 1600.0),
            p99_limit_ms=100.0,
            control_rate=20.0,
            control_mix={"report": 1, "stats": 1},
            lifetime=None,
            why="router hop and cross-process forwarding dominate; 2-shard fleet",
        ),
        Workload(
            name="ecg-mix",
            domain="ecg",
            shards=1,
            streams=64,
            low=150.0,
            high=300.0,
            ladder=(900.0, 1030.0, 1180.0, 1350.0, 1550.0, 1780.0, 2050.0),
            p99_limit_ms=100.0,
            control_rate=20.0,
            control_mix={"report": 6, "stats": 3, "snapshot_stream": 1},
            lifetime=32,
            why="engine, fire path, many-stream batches and the state ops",
        ),
    )
}


def refuse(name: str) -> str:
    """Why ``name`` is not a workload (the message the CLI exits with)."""
    if name.startswith("av"):
        return (
            "av cannot be benchmarked over the wire: AVSample is not "
            "codec-registered, so no av unit can cross the wire"
        )
    return f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}"


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """One constant-rate window of the open loop.

    ``kind`` is ``warmup``, ``low``, ``high``, ``traced`` (a high window
    with wire spans on) or ``step`` (a ladder step). ``due`` holds each
    unit's due offset (s) from the window start and ``stream`` the
    stream index it goes to, in due order.
    """

    name: str
    kind: str
    rate: float
    seconds: float
    due: np.ndarray
    stream: np.ndarray


#: Rounds of (low, high[, traced]) windows. Interleaving spreads each
#: rate over the whole run, so a slow spell of the machine lands in a
#: few windows of each rate instead of a whole phase.
ROUNDS = 16
#: Windows of each rate the metrics use: the ones in which the host took
#: the least CPU from this machine (see ``bench.clean_windows``). Host
#: steal comes in bursts of a second or two; short windows give the
#: choice a finer grain.
KEEP = 6
#: Seconds of a low / high window per measured second of the run.
WINDOW_SHARE = {"low": 0.04, "high": 0.03, "traced": 0.03}
#: Units per ladder step per measured second of the run: every step
#: gets the same number of samples for its p99, whatever its rate.
STEP_UNITS_PER_S = 65


def build_phase(name, kind, rate, seconds, n_streams, rng) -> Phase:
    """Evenly spaced arrivals at ``rate``; streams take turns in a fresh
    seeded order each round, so every stream sees ``rate / n_streams``."""
    n = max(1, int(round(rate * seconds)))
    due = np.arange(n, dtype=np.float64) / rate
    rounds = -(-n // n_streams)
    order = np.concatenate([rng.permutation(n_streams) for _ in range(rounds)])
    return Phase(name, kind, rate, seconds, due, order[:n].astype(np.int64))


def build_schedule(workload: Workload, seed: int, seconds: float) -> list:
    """Every window of a traced run: warm-up, ``ROUNDS`` rounds of low,
    high and traced windows, then the ladder. An untraced run drops the
    traced windows and the ladder (see :func:`untraced`), which leaves
    every other window unchanged."""
    rng = np.random.default_rng([seed, 1])
    n = workload.streams
    phases = [build_phase("warmup", "warmup", workload.low, 0.05 * seconds, n, rng)]
    for r in range(ROUNDS):
        for kind, rate in (("low", workload.low), ("high", workload.high),
                           ("traced", workload.high)):
            phases.append(build_phase(f"{kind}.{r}", kind, rate,
                                      WINDOW_SHARE[kind] * seconds, n, rng))
    for rate in workload.ladder:
        phases.append(build_phase(f"step.{rate:g}", "step", rate,
                                  STEP_UNITS_PER_S * seconds / rate, n, rng))
    return phases


def untraced(phases: list) -> list:
    """The windows of an untraced run: no traced windows, no ladder."""
    return [p for p in phases if p.kind not in ("traced", "step")]


@dataclass
class StreamPlan:
    """Which stream each scheduled unit goes to.

    A workload keeps ``streams`` streams open at once. With a
    ``Workload.lifetime``, each stream lives for a seeded number of units
    around it and is then closed (its report read, then evicted) between
    two windows and replaced by a new stream. Without one, every stream
    stays open for the whole run and server state grows with it.
    """

    #: Per window, the stream id of each of its units.
    ids: list
    #: Per window, the stream ids to close before it starts.
    closes: list
    #: Per window, the open streams that already have units (control-op
    #: targets).
    live: list
    #: ``{stream id: units}`` in order of first use.
    units: dict


def plan_streams(workload: Workload, seed: int, phases: list) -> StreamPlan:
    rng = np.random.default_rng([seed, 4])
    n, life = workload.streams, workload.lifetime

    def new_id(k: int, incarnation: int) -> str:
        digest = hashlib.blake2b(
            f"{seed}/{workload.name}/{k}/{incarnation}".encode(), digest_size=5
        ).hexdigest()
        return f"{workload.domain}-{digest}"

    incarnation = [0] * n
    current = [new_id(k, 0) for k in range(n)]
    count = [0] * n
    # First lifetimes are spread wider so the streams do not all close
    # at the same window boundary.
    if life is None:
        lives = [float("inf")] * n
    else:
        lives = [int(rng.integers(life // 4, 3 * life // 2 + 1)) for _ in range(n)]
    plan = StreamPlan([], [], [], {})
    for index, phase in enumerate(phases):
        closes = []
        if index > 0:
            for k in range(n):
                if count[k] >= lives[k]:
                    closes.append(current[k])
                    incarnation[k] += 1
                    current[k] = new_id(k, incarnation[k])
                    count[k] = 0
                    lives[k] = int(rng.integers(life // 2, 3 * life // 2 + 1))
        plan.closes.append(closes)
        plan.live.append([current[k] for k in range(n) if count[k] > 0])
        ids = []
        for k in phase.stream.tolist():
            ids.append(current[k])
            count[k] += 1
            plan.units[current[k]] = plan.units.get(current[k], 0) + 1
        plan.ids.append(ids)
    return plan


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Corpus shape per domain: (worlds, units per world). Generated once per
#: checkout from fixed world seeds (video units cost ~5 ms each to make,
#: too slow to regenerate per seed); each run's seed then picks which
#: disjoint corpus segment each stream replays. video-2shard's 32 streams
#: never close, and a traced run gives each ~660 units, so each needs a
#: world of its own.
CORPUS = {"video": (32, 1000), "ecg": (32, 900)}


def build_corpora(cache_dir: str) -> dict:
    """Generate every missing corpus world; returns ``{domain: paths}``.
    Each run calls it, so the first run in a checkout, whatever its
    workload, builds the corpora of both (about four minutes, nearly
    all of it video), and no later run builds anything."""
    paths = {}
    for domain, (n_worlds, n_units) in CORPUS.items():
        paths[domain] = []
        for w in range(n_worlds):
            path = os.path.join(cache_dir, f"{domain}-{n_units}-w{w}.jsonl")
            if not os.path.exists(path):
                _generate(domain, w, n_units, path)
            paths[domain].append(path)
    return paths


def corpus(domain: str, cache_dir: str) -> list:
    """Every corpus world of ``domain`` as a list of encoded units (one
    compact JSON document each, exactly as ``encode_frame`` writes it)."""
    worlds = []
    for path in build_corpora(cache_dir)[domain]:
        with open(path, "rb") as handle:
            worlds.append(handle.read().split(b"\n"))
    return worlds


def _generate(domain: str, w: int, n_units: int, path: str) -> None:
    from repro.core.seeding import derive_seed
    from repro.domains.registry import get_domain
    from repro.utils.codec import to_jsonable

    dom = get_domain(domain)
    stream = dom.iter_stream(dom.build_world(derive_seed(0, "wirebench", domain, w)))
    lines = [
        json.dumps(to_jsonable(next(stream)), separators=(",", ":")).encode()
        for _ in range(n_units)
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "wb") as handle:
        handle.write(b"\n".join(lines))
    os.replace(path + ".tmp", path)


def load_inputs(workload: Workload, seed: int, units: dict, cache_dir: str) -> dict:
    """``{stream_id: [encoded raw unit, ...]}`` with ``units[stream_id]``
    units each.

    Each stream replays one contiguous segment of one corpus world, so
    stateful adapters see a coherent sequence; segments of one run never
    overlap, so no unit repeats within a run. The seed picks the world
    and the gap before each segment.
    """
    worlds = corpus(workload.domain, cache_dir)
    rng = np.random.default_rng([seed, 0])
    room = sum(len(w) for w in worlds) - sum(units.values())
    if room < 0:
        raise ValueError(f"{workload.name}: corpus too small; run fewer --seconds")
    mean_gap = room / (2 * len(units))
    cursor = [0] * len(worlds)
    inputs = {}
    for sid, n in units.items():
        fits = [w for w in range(len(worlds)) if cursor[w] + n <= len(worlds[w])]
        if not fits:
            raise ValueError(f"{workload.name}: corpus too small; run fewer --seconds")
        w = fits[int(rng.integers(len(fits)))]
        start = min(cursor[w] + int(rng.integers(int(mean_gap) + 1)), len(worlds[w]) - n)
        inputs[sid] = worlds[w][start:start + n]
        cursor[w] = start + n
    return inputs
