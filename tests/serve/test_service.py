"""``MonitorService`` semantics: isolation, eviction, batching, fleet
reports, fire routing — on a fast synthetic domain covering every
streaming-evaluator family (per-item, rolling-window, attribute/temporal
consistency, windowed-replay fallback)."""

import json

import numpy as np
import pytest

from repro.core.assertion import FunctionAssertion, ModelAssertion
from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG
from repro.domains.registry import Domain, RawItem
from repro.serve import MonitorService, ServiceConfig, StreamFire

COLORS = ("red", "green", "blue")


class EveryWindowAssertion(ModelAssertion):
    """A custom subclass with no streaming form → windowed-replay path."""

    def evaluate_stream(self, items):
        return [float(len(item.outputs) == 0) for item in items]


class SyntheticDomain(Domain):
    """Random id/color outputs exercising all four assertion families."""

    name = "synthetic"

    def build_monitor(self, config=None) -> OMG:
        omg = OMG(AssertionDatabase(), window_size=8)
        omg.add_assertion(
            lambda inp, outputs: float(max(0, len(outputs) - 2)), name="crowded"
        )
        omg.add_assertion(
            FunctionAssertion(
                lambda inputs, outputs_list: float(
                    sum(len(o) for o in outputs_list) > 6
                ),
                "busy_window",
                window=3,
            )
        )
        omg.add_assertion(EveryWindowAssertion("empty", "no outputs at all"))
        omg.add_consistency_assertion(
            id_fn=lambda o: o["id"],
            attrs_fn=lambda o: {"color": o["color"]},
            temporal_threshold=2.5,
            attr_keys=["color"],
            name="syn",
        )
        return omg

    def build_world(self, seed: int = 0):
        return np.random.default_rng(seed)

    def iter_stream(self, world):
        while True:
            outputs = [
                {
                    "id": int(world.integers(0, 4)),
                    "color": COLORS[int(world.integers(0, len(COLORS)))],
                }
                for _ in range(int(world.integers(0, 4)))
            ]
            yield outputs

    def item_from_raw(self, raw, state=None):
        return [RawItem(list(raw), None)]


def raw_units(seed, n):
    domain = SyntheticDomain()
    stream = domain.iter_stream(domain.build_world(seed))
    return [next(stream) for _ in range(n)]


def assert_reports_equal(a, b):
    assert a.assertion_names == b.assertion_names
    np.testing.assert_array_equal(a.severities, b.severities)
    assert a.records == b.records


class TestIsolationAndDeterminism:
    def test_interleaved_eight_streams_match_eight_solo_runs(self):
        n_streams, n_raw = 8, 30
        units = {f"s{k}": raw_units(k, n_raw) for k in range(n_streams)}

        interleaved = MonitorService(SyntheticDomain())
        for round_index in range(n_raw):
            interleaved.ingest_batch(
                [(sid, units[sid][round_index]) for sid in units]
            )

        for sid, raws in units.items():
            solo = MonitorService(SyntheticDomain())
            for raw in raws:
                solo.ingest(sid, raw)
            assert_reports_equal(interleaved.report(sid), solo.report(sid))

    def test_online_report_matches_offline_monitor(self):
        from repro.core.types import StreamItem

        domain = SyntheticDomain()
        service = MonitorService(domain)
        raws = raw_units(99, 40)
        for raw in raws:
            service.ingest("only", raw)
        online = service.report("only")
        items = [
            StreamItem(index=i, timestamp=float(i), outputs=tuple(raw))
            for i, raw in enumerate(raws)
        ]
        offline = domain.build_monitor().monitor(items)
        assert online.assertion_names == offline.assertion_names
        np.testing.assert_array_equal(online.severities, offline.severities)


class TestFireRouting:
    def test_on_fire_carries_stream_provenance(self):
        service = MonitorService(SyntheticDomain())
        fires = []
        service.on_fire(fires.append)
        for i, raw in enumerate(raw_units(5, 30)):
            service.ingest(f"s{i % 3}", raw)
        assert fires, "the synthetic stream should trip assertions"
        assert all(isinstance(f, StreamFire) for f in fires)
        assert {f.stream_id for f in fires} <= {"s0", "s1", "s2"}
        # every fire's record names a registered assertion
        names = set(service.report("s0").assertion_names)
        assert {f.record.assertion_name for f in fires} <= names

    def test_on_fire_may_reenter_the_service(self):
        # The paper's corrective-action pattern: a fire on one stream
        # ingests a derived event into another stream of the same service.
        service = MonitorService(SyntheticDomain())
        echoed = []

        def corrective(fire):
            if fire.stream_id == "primary":
                echoed.extend(service.ingest("audit", [{"id": 0, "color": "red"}]))

        service.on_fire(corrective)
        for raw in raw_units(8, 30):
            service.ingest("primary", raw)
        assert "audit" in service.stream_ids()
        assert service.report("audit").n_items > 0

    def test_batch_error_on_one_stream_still_dispatches_siblings(self):
        class ExplodingDomain(SyntheticDomain):
            def item_from_raw(self, raw, state=None):
                if raw == "boom":
                    raise RuntimeError("malformed unit")
                return super().item_from_raw(raw, state)

        service = MonitorService(ExplodingDomain())
        dispatched = []
        service.on_fire(dispatched.append)
        crowded = [{"id": 0, "color": "red"}] * 4  # trips "crowded"
        with pytest.raises(RuntimeError, match="malformed"):
            service.ingest_batch([("good", crowded), ("bad", "boom")])
        # the good stream's fires were dispatched despite the sibling error
        assert any(f.stream_id == "good" for f in dispatched)
        assert service.report("good").n_items == 1
        # the failed stream is fail-stop: broken, excluded from fleet
        # views, and loud on any further use until evicted
        assert service.session("bad").broken is not None
        with pytest.raises(RuntimeError, match="broken"):
            service.report("bad")
        with pytest.raises(RuntimeError, match="broken"):
            service.ingest("bad", crowded)
        fleet = service.fleet_report()
        assert list(fleet.stream_reports) == ["good"]
        assert [sid for sid, _ in service.snapshot()["sessions"]] == ["good"]
        service.evict("bad")
        assert service.ingest("bad", crowded) is not None  # fresh session

    def test_batch_fires_arrive_in_pair_order(self):
        service = MonitorService(SyntheticDomain())
        units = {f"s{k}": raw_units(20 + k, 12) for k in range(3)}
        collected = []
        service.on_fire(collected.append)
        returned = []
        for i in range(12):
            returned.extend(
                service.ingest_batch([(sid, units[sid][i]) for sid in units])
            )
        assert collected == returned


class TestEviction:
    def make_clock(self):
        state = {"now": 0.0}

        def clock():
            return state["now"]

        return state, clock

    def test_lru_bound_evicts_least_recently_used(self):
        state, clock = self.make_clock()
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(max_sessions=2), clock=clock
        )
        evicted = []
        service.on_evict(lambda session: evicted.append(session.stream_id))
        raw = raw_units(0, 1)[0]
        service.ingest("a", raw)
        state["now"] = 1.0
        service.ingest("b", raw)
        state["now"] = 2.0
        service.ingest("a", raw)  # touch a: b is now LRU
        state["now"] = 3.0
        service.ingest("c", raw)
        assert evicted == ["b"]
        assert service.stream_ids() == ["a", "c"]

    def test_ttl_expires_idle_sessions(self):
        state, clock = self.make_clock()
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(session_ttl=10.0), clock=clock
        )
        raw = raw_units(0, 1)[0]
        service.ingest("old", raw)
        state["now"] = 5.0
        service.ingest("young", raw)
        state["now"] = 14.0  # old idle 14s > ttl, young idle 9s
        service.ingest("young", raw)
        assert service.stream_ids() == ["young"]

    def test_ttl_purges_on_reporting_and_snapshot_too(self):
        state, clock = self.make_clock()
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(session_ttl=10.0), clock=clock
        )
        evicted = []
        service.on_evict(lambda session: evicted.append(session.stream_id))
        service.ingest("idle", raw_units(0, 1)[0])
        state["now"] = 20.0
        fleet = service.fleet_report()
        assert evicted == ["idle"]
        assert fleet.stream_reports == {}
        service.ingest("fresh", raw_units(0, 1)[0])
        state["now"] = 40.0
        assert service.snapshot()["sessions"] == []
        with pytest.raises(KeyError):
            service.report("fresh")

    def test_batch_within_lru_bound_never_evicts_its_own_members(self):
        state, clock = self.make_clock()
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(max_sessions=2), clock=clock
        )
        raw = raw_units(0, 1)[0]
        service.ingest("a", raw)  # LRU
        state["now"] = 1.0
        service.ingest("b", raw)
        state["now"] = 2.0
        evicted = []
        service.on_evict(lambda session: evicted.append(session.stream_id))
        before = service.session("b").n_items
        # "b" is a batch member and must survive; only "a" may be evicted
        # to make room for "c".
        service.ingest_batch([("c", raw), ("b", raw)])
        assert evicted == ["a"]
        assert service.session("b").n_items == before + 1  # history kept

    def test_batch_wider_than_lru_bound_is_rejected(self):
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(max_sessions=2)
        )
        raw = raw_units(0, 1)[0]
        with pytest.raises(ValueError, match="max_sessions"):
            service.ingest_batch([("a", raw), ("b", raw), ("c", raw)])

    def test_explicit_evict_returns_session(self):
        service = MonitorService(SyntheticDomain())
        service.ingest("a", raw_units(0, 1)[0])
        session = service.evict("a")
        assert session.stream_id == "a"
        assert "a" not in service
        with pytest.raises(KeyError):
            service.evict("a")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_sessions=0)
        with pytest.raises(ValueError):
            ServiceConfig(session_ttl=0.0)


class TestSnapshotOnEvict:
    def test_eviction_hands_hooks_a_restorable_snapshot(self):
        units = raw_units(7, 24)
        captured = {}

        service = MonitorService(
            SyntheticDomain(),
            config=ServiceConfig(max_sessions=1, snapshot_on_evict=True),
        )
        service.on_evict(
            lambda session: captured.update({session.stream_id: session.evict_snapshot})
        )
        for raw in units[:10]:
            service.ingest("a", raw)
        service.ingest("b", units[0])  # LRU-evicts "a" mid-history
        assert "a" in captured and captured["a"] is not None

        # Re-admit "a" and finish its stream: bit-identical to a solo run
        # that was never evicted.
        service.evict("b")
        service.restore_session("a", captured["a"])
        for raw in units[10:]:
            service.ingest("a", raw)

        solo = MonitorService(SyntheticDomain())
        for raw in units:
            solo.ingest("a", raw)
        assert_reports_equal(service.report("a"), solo.report("a"))

    def test_default_config_captures_no_snapshot(self):
        service = MonitorService(SyntheticDomain())
        service.ingest("a", raw_units(0, 1)[0])
        session = service.evict("a")
        assert session.evict_snapshot is None

    def test_restore_session_refuses_live_stream(self):
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(snapshot_on_evict=True)
        )
        service.ingest("a", raw_units(0, 1)[0])
        payload = service.evict("a").evict_snapshot
        service.ingest("a", raw_units(0, 1)[0])  # fresh session, same id
        with pytest.raises(ValueError, match="live"):
            service.restore_session("a", payload)

    def test_broken_session_yields_no_snapshot(self):
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(snapshot_on_evict=True)
        )
        with pytest.raises(TypeError):
            service.ingest("a", [object()])  # outputs must be dicts
        session = service.evict("a")
        assert session.broken is not None
        assert session.evict_snapshot is None


class TestFleetReport:
    def test_aggregate_stacks_streams_in_order(self):
        service = MonitorService(SyntheticDomain())
        units = {f"s{k}": raw_units(30 + k, 15) for k in range(3)}
        for sid, raws in units.items():
            for raw in raws:
                service.ingest(sid, raw)
        fleet = service.fleet_report()
        assert list(fleet.stream_reports) == ["s0", "s1", "s2"]
        stacked = np.vstack([r.severities for r in fleet.stream_reports.values()])
        np.testing.assert_array_equal(fleet.aggregate.severities, stacked)
        assert fleet.aggregate.n_items == sum(
            r.n_items for r in fleet.stream_reports.values()
        )
        # aggregate records are offset per stream and tagged with it
        for record in fleet.aggregate.records:
            offset = fleet.row_offsets[record.context]
            row = record.item_index - offset
            report = fleet.stream_reports[record.context]
            assert report.severities[row][
                report.assertion_names.index(record.assertion_name)
            ] == record.severity
        # fleet counts are the column-wise sums of per-stream counts
        for name, count in fleet.fire_counts().items():
            assert count == sum(
                r.fire_counts()[name] for r in fleet.stream_reports.values()
            )
        table = fleet.format_table()
        assert "TOTAL" in table and "s2" in table

    def test_empty_fleet_report(self):
        fleet = MonitorService(SyntheticDomain()).fleet_report()
        assert fleet.aggregate.n_items == 0
        assert fleet.aggregate.assertion_names  # names still resolved
        assert fleet.fire_counts() == {
            name: 0 for name in fleet.aggregate.assertion_names
        }


class TestServiceConstruction:
    def test_domain_config_requires_a_name(self):
        with pytest.raises(ValueError, match="domain_config"):
            MonitorService(SyntheticDomain(), domain_config={"x": 1})

    def test_by_name_uses_registry(self):
        service = MonitorService("tvnews")
        assert service.domain.name == "tvnews"


class TestBatchErrorAggregation:
    """Satellite fix: a multi-stream batch failure names *every* failed
    stream, not just the first group's exception."""

    class TwoBombsDomain(SyntheticDomain):
        def item_from_raw(self, raw, state=None):
            if isinstance(raw, str):
                raise RuntimeError(f"malformed unit {raw}")
            return super().item_from_raw(raw, state)

    def test_aggregate_error_names_every_failed_stream(self):
        from repro.serve import BatchIngestError

        service = MonitorService(self.TwoBombsDomain())
        crowded = [{"id": 0, "color": "red"}] * 4
        with pytest.raises(BatchIngestError) as excinfo:
            service.ingest_batch(
                [("good", crowded), ("bad1", "boom1"), ("bad2", "boom2")]
            )
        err = excinfo.value
        assert list(err.failures) == ["bad1", "bad2"]
        assert "boom1" in str(err) and "boom2" in str(err)
        assert "bad1" in str(err) and "bad2" in str(err)
        # backward compatible: still a RuntimeError, siblings unharmed,
        # both failed sessions fail-stopped
        assert isinstance(err, RuntimeError)
        assert service.report("good").n_items == 1
        assert service.session("bad1").broken is not None
        assert service.session("bad2").broken is not None

    def test_outcomes_are_per_pair_and_mark_skipped_tail(self):
        service = MonitorService(self.TwoBombsDomain())
        crowded = [{"id": 0, "color": "red"}] * 4
        outcomes = service.ingest_batch_outcomes(
            [("good", crowded), ("bad", "boom"), ("bad", crowded)]
        )
        assert [o.stream_id for o in outcomes] == ["good", "bad", "bad"]
        assert outcomes[0].ok and outcomes[0].fires
        assert not outcomes[1].ok and not outcomes[1].skipped
        assert "boom" in str(outcomes[1].error)
        # the second "bad" unit was never attempted: the session had
        # already broken earlier in the same batch
        assert not outcomes[2].ok and outcomes[2].skipped

    def test_outcomes_match_ingest_batch_fires_when_all_ok(self):
        service_a = MonitorService(SyntheticDomain())
        service_b = MonitorService(SyntheticDomain())
        units = {f"s{k}": raw_units(40 + k, 10) for k in range(3)}
        for i in range(10):
            pairs = [(sid, units[sid][i]) for sid in units]
            fires = service_a.ingest_batch(pairs)
            outcomes = service_b.ingest_batch_outcomes(pairs)
            assert all(o.ok for o in outcomes)
            flat = [f for o in outcomes for f in o.fires]
            assert flat == fires


class TestReentrantHooks:
    """Satellite fixes: hooks that re-enter the service during purge and
    restore must not crash or silently lose sessions."""

    def make_clock(self):
        state = {"now": 0.0}
        return state, (lambda: state["now"])

    def test_purge_survives_on_evict_hook_reentering_the_service(self):
        # The hook's re-entrant call purges the other expired session
        # itself; the outer purge loop must tolerate the id vanishing
        # (pre-fix: KeyError from evicting an already-gone stream).
        state, clock = self.make_clock()
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(session_ttl=10.0), clock=clock
        )
        raw = raw_units(0, 1)[0]
        evicted = []

        def reenter(session):
            evicted.append(session.stream_id)
            service.fleet_report()  # re-entrant: purges expired sessions too

        service.on_evict(reenter)
        service.ingest("a", raw)
        service.ingest("b", raw)
        state["now"] = 20.0  # both expired
        service.ingest("fresh", raw)  # triggers the purge
        assert sorted(evicted) == ["a", "b"]
        assert service.stream_ids() == ["fresh"]

    def test_purge_skips_session_recreated_by_hook(self):
        # A hook that *re-creates* an expired stream id yields a fresh,
        # recently-used session; the outer loop must not evict it.
        state, clock = self.make_clock()
        service = MonitorService(
            SyntheticDomain(), config=ServiceConfig(session_ttl=10.0), clock=clock
        )
        raw = raw_units(0, 1)[0]

        def resurrect(session):
            if session.stream_id == "a":
                service.ingest("b", raw)  # re-creates b before its turn

        service.on_evict(resurrect)
        service.ingest("a", raw)
        service.ingest("b", raw)
        state["now"] = 20.0
        service.fleet_report()  # purge runs: evicts a, hook re-creates b
        assert service.stream_ids() == ["b"]
        assert service.session("b").last_used == 20.0

    def test_restore_refuses_sessions_created_by_evict_hooks(self):
        # Pre-fix: `restore` overwrote _sessions wholesale, silently
        # discarding anything an on_evict hook created mid-teardown.
        service = MonitorService(SyntheticDomain())
        raw = raw_units(0, 1)[0]
        service.ingest("a", raw)
        snapshot = service.snapshot()
        service.on_evict(lambda session: service.ingest("sneaky", raw))
        with pytest.raises(RuntimeError, match="sneaky"):
            service.restore(snapshot)

    def test_restore_tolerates_hook_evicting_other_sessions(self):
        # A hook that *evicts* (not creates) during teardown is fine.
        service = MonitorService(SyntheticDomain())
        raw = raw_units(0, 1)[0]
        service.ingest("a", raw)
        snapshot = service.snapshot()
        service.ingest("b", raw)

        def evict_sibling(session):
            if session.stream_id == "a" and "b" in service:
                service.evict("b")

        service.on_evict(evict_sibling)
        service.restore(snapshot)
        assert service.stream_ids() == ["a"]


class TestTtlBoundary:
    """Satellite test: the TTL comparison is strict — a session idle for
    exactly ``session_ttl`` seconds is still alive."""

    def test_exactly_ttl_idle_is_kept_just_over_is_evicted(self):
        state = {"now": 0.0}
        service = MonitorService(
            SyntheticDomain(),
            config=ServiceConfig(session_ttl=10.0),
            clock=lambda: state["now"],
        )
        raw = raw_units(0, 1)[0]
        service.ingest("s", raw)
        state["now"] = 10.0  # idle == ttl: strictly-greater, so alive
        assert service.report("s").n_items == 1
        assert list(service.fleet_report().stream_reports) == ["s"]
        state["now"] = 10.0 + 1e-9  # the instant after: expired
        assert service.snapshot()["sessions"] == []
        with pytest.raises(KeyError):
            service.report("s")
