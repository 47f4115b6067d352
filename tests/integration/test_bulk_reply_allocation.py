"""A cached full-size image reply costs the server no body copy.

The path is the one a reactor worker and the reactor run:
``SoapBinService.endpoint`` through the HTTP adapter to a
:class:`Response`, whose head and body are queued on the connection's
write queue as two views.  (The socket read in front of it and the
kernel copy behind it are not part of the budget.)
"""

import tracemalloc

import pytest

pytest.importorskip("numpy")

from repro.apps.imaging import ImageServer
from repro.core import HEADER_CLIENT_ID, HEADER_RTT, PBIO_CONTENT_TYPE
from repro.http11 import Headers, Request
from repro.http11.reactor import _Conn
from repro.pbio import FormatRegistry, PbioSession
from repro.transport import endpoint_http_handler


def test_cached_image_full_reply_is_queued_without_copies():
    server = ImageServer()
    handler = endpoint_http_handler(server.endpoint)
    registry = FormatRegistry()
    for fmt in server.formats.values():
        registry.register(fmt)
    requests = PbioSession(registry)

    def call():
        body = requests.pack_bytes(server.formats["GetImageRequest"],
                                   {"filename": "sky00.ppm",
                                    "operation": "edge"})
        return handler(Request(body=body, headers=Headers([
            ("Content-Type", PBIO_CONTENT_TYPE),
            (HEADER_CLIENT_ID, "bulk"), (HEADER_RTT, "0.05")])))

    first, second = call(), call()      # compute + first contact, replay
    stats = server.service.quality_stats()["cache"]
    assert stats["payload_hits"] == 1
    conn = _Conn(None, None, 0.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        response = call()
        conn.queue_response(response)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    body = response.body
    assert len(body) > 900_000                          # ImageFull
    assert body is second.body                          # the stored bytes:
    assert body.obj is first.body                       # a view of the
    assert body == first.body[len(first.body) - len(body):]  # first reply
    assert conn.out[1].obj is first.body
    assert conn.out_bytes == len(conn.out[0]) + len(body)
    assert peak <= 0.1 * len(body)
