"""Correctness of a run, checked against an in-process reference.

Three checks, each of which fails the run (not just a metric):

- every stream's wire ``report`` equals, byte for byte once encoded, the
  report of an in-process :class:`~repro.serve.MonitorService` fed that
  stream's accepted units in send order (a stream restored from a
  ``snapshot_stream`` payload must equal its source's reference at the
  snapshot's unit count);
- every ingest response's fires equal the reference fires for that unit;
- the ``stats`` ledger balances (offered == accepted + rejected,
  completed + failed == accepted, nothing pending) and agrees with the
  generator's own counts.
"""

from __future__ import annotations

import json

from repro.serve.service import MonitorService
from repro.utils.codec import from_jsonable, to_jsonable
from repro.utils.framing import encode_frame


def _canon(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def accepted_units(ingests: list) -> dict:
    """``{stream: [(request, unit), ...]}`` of accepted units, send order."""
    per_stream: dict = {}
    for req in sorted(ingests, key=lambda r: (r.sent, r.rid)):
        if req.recv is None:
            continue
        response = req.response()
        if not response.get("ok"):
            continue
        per_stream.setdefault(req.stream, []).append((req, req.unit))
    return per_stream


def check_run(domain: str, ingests: list, restores: list, reports: dict,
              stats: dict, problems: list) -> None:
    """Append a line to ``problems`` for every mismatch found."""
    accepted = accepted_units(ingests)
    reference = MonitorService(domain)
    checked_fires = 0
    for stream, pairs in accepted.items():
        for req, unit in pairs:
            fires = reference.ingest(stream, from_jsonable(json.loads(unit)))
            want = _canon(to_jsonable([fire.record for fire in fires]))
            got = _canon(req.response()["result"]["fires"])
            if want != got:
                problems.append(
                    f"fires differ on stream {stream} request {req.rid}"
                )
            checked_fires += 1
    for stream in accepted:
        _check_report(reference, stream, stream, reports, problems)
    for req in restores:
        source, n_raw = req.unit
        if req.recv is None or not req.response().get("ok"):
            continue
        twin = MonitorService(domain)
        for _req, unit in accepted[source][:n_raw]:
            twin.ingest(source, from_jsonable(json.loads(unit)))
        _check_report(twin, source, req.stream, reports, problems)
    _check_ledger(ingests, stats, problems)
    if checked_fires == 0:
        problems.append("no ingest response was checked")
    first = min(ingests, key=lambda r: r.rid)
    doc = {"op": "ingest", "id": first.rid, "stream_id": first.stream,
           "raw": json.loads(first.unit)}
    if encode_frame(doc) != first.frame:
        problems.append("spliced ingest frame differs from encode_frame")


def _check_report(reference, ref_stream, wire_stream, reports, problems):
    got = reports.get(wire_stream)
    if got is None:
        problems.append(f"no wire report for stream {wire_stream}")
        return
    want = _canon(to_jsonable(reference.report(ref_stream)))
    if want != _canon(got):
        problems.append(f"report of stream {wire_stream} differs from reference")


def _check_ledger(ingests: list, stats: dict, problems: list) -> None:
    sent = sum(1 for r in ingests if r.sent is not None)
    ok = rejected = failed = unanswered = 0
    for req in ingests:
        if req.sent is None:
            continue
        if req.recv is None:
            unanswered += 1
            continue
        response = req.response()
        if response.get("ok"):
            ok += 1
        elif response["error"].get("type") == "overloaded":
            rejected += 1
        else:
            failed += 1
    expect = {
        "offered": sent,
        "completed": ok,
        "rejected": rejected,
        "failed": failed,
        "pending": 0,
    }
    for key, value in expect.items():
        if stats.get(key) != value:
            problems.append(
                f"ledger: server {key}={stats.get(key)}, generator counted {value}"
            )
    if unanswered:
        problems.append(f"{unanswered} ingest request(s) never answered")
    if stats.get("offered") != stats.get("accepted", 0) + stats.get("rejected", 0):
        problems.append("ledger: offered != accepted + rejected")
    if stats.get("completed", 0) + stats.get("failed", 0) != stats.get("accepted"):
        problems.append("ledger: completed + failed != accepted")
