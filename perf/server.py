"""The server child: one process serving one service on loopback.

``python3 perf/server.py echo|imaging|null [--spans FILE]`` prints one JSON
line ``{"port": N}`` once it accepts connections, serves until its standard
input closes, then shuts down (writing its spans to FILE when asked).

The serving shape is production's: ``serve_endpoint`` with an
``AdmissionController``, ``/metrics`` on, every other knob at its default.
``null`` is the floor under all of it: an ``HttpServer`` whose handler
returns a constant empty reply.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.http11 import HttpServer, Response  # noqa: E402
from repro.serving import AdmissionController  # noqa: E402
from repro.transport import serve_endpoint  # noqa: E402

from spans import SpanLog, traced_endpoint, traced_handler  # noqa: E402
from workloads import build_service  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=("echo", "imaging", "null"))
    parser.add_argument("--spans", help="record spans and write them here")
    args = parser.parse_args()

    log = SpanLog()
    if args.kind == "null":
        server = HttpServer(lambda request: Response(body=b""))
    else:
        service = build_service(args.kind)
        endpoint = service.endpoint
        if args.spans:
            endpoint = traced_endpoint(endpoint, log)
            for operation in service.xml_service.operations.values():
                operation.handler = traced_handler(operation.handler, log)
        server = serve_endpoint(endpoint, admission=AdmissionController(),
                                quality_stats=service.quality_stats)
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        sys.stdin.read()
    finally:
        server.close()
    if args.spans:
        log.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
