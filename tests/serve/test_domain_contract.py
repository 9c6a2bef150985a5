"""Every registered domain can be served over the wire.

For each domain in the registry, a few seeded raw units must survive
``encode_frame`` → ``decode_frame`` → ``from_jsonable`` bit-exactly, and
ingesting them through an in-process :class:`MonitorServer` must give the
same fires and the same per-stream report as calling
:meth:`MonitorService.ingest` directly. A domain whose raw unit holds a
dataclass the result codec does not know fails here, not in production.
"""

import asyncio
import itertools

import pytest

from repro.domains.registry import domain_names, get_domain
from repro.serve import MonitorServer, MonitorService, ServerConfig, ServiceClient
from repro.utils.codec import from_jsonable
from repro.utils.framing import decode_frame, encode_frame
from tests.serve.test_service import assert_reports_equal

N_UNITS = 3
STREAM = "contract-0"


def seeded_units(name: str) -> list:
    domain = get_domain(name)
    return list(itertools.islice(domain.iter_stream(domain.build_world(seed=7)), N_UNITS))


@pytest.mark.parametrize("name", domain_names())
def test_raw_units_round_trip_the_frame_codec(name):
    for raw in seeded_units(name):
        frame = encode_frame({"op": "ingest", "id": 1, "stream_id": STREAM, "raw": raw})
        decoded = from_jsonable(decode_frame(frame)["raw"])
        assert type(decoded) is type(raw)
        again = encode_frame({"op": "ingest", "id": 1, "stream_id": STREAM, "raw": decoded})
        assert again == frame


@pytest.mark.parametrize("name", domain_names())
def test_wire_ingest_matches_direct_service(name):
    units = seeded_units(name)

    async def over_the_wire():
        server = MonitorServer(MonitorService(name), ServerConfig())
        await server.start()
        client = await ServiceClient.connect(server.host, server.port)
        try:
            fires = [await client.ingest(STREAM, raw) for raw in units]
            return fires, await client.report(STREAM)
        finally:
            await client.close()
            await server.stop()

    wire_fires, wire_report = asyncio.run(over_the_wire())

    direct = MonitorService(name)
    direct_fires = [
        [fire.record for fire in direct.ingest(STREAM, raw)] for raw in units
    ]
    assert wire_fires == direct_fires
    assert_reports_equal(wire_report, direct.report(STREAM))
