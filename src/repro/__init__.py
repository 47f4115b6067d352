"""SOAP-binQ: high-performance SOAP with continuous quality management.

A from-scratch Python reproduction of Seshasayee, Schwan & Widener,
*SOAP-binQ: High-Performance SOAP with Continuous Quality Management*
(ICDCS 2004), including every substrate the paper builds on:

======================  ====================================================
``repro.clock``         wall-clock and virtual clocks every layer runs on
``repro.channel``       the request/reply channel contract
``repro.xmlcore``       hand-written XML tokenizer / tree / pull parser
``repro.pbio``          PBIO binary formats, format server, generated codecs
``repro.compress``      Lempel-Ziv codecs (LZSS, LZW, zlib)
``repro.http11``        minimal HTTP/1.1 client + epoll reactor server
``repro.netsim``        deterministic links, cross-traffic, virtual clocks
``repro.transport``     channel abstraction (sockets / simulated / direct)
``repro.reliability``   retry engine, circuit breaker, fault injection
``repro.serving``       admission control, load coupling, prefork fleet
``repro.sunrpc``        Sun RPC + XDR baseline (Fig. 4)
``repro.soap``          standard XML SOAP 1.1 (envelope, dispatch, client)
``repro.wsdl``          WSDL parser/emitter + stub-generating compiler
``repro.core``          SOAP-bin + SOAP-binQ (modes, quality files, RTT)
``repro.echo``          ECho-style pub/sub with runtime filters
``repro.media``         PPM images, image ops, SVG, synthetic workloads
``repro.apps``          the four evaluation applications
``repro.bench``         the figure/table reproduction harness
======================  ====================================================

Importing ``repro`` or one of its packages loads no other package: each
package ``__init__`` resolves its names on first use (``repro._lazy``),
so a process loads only the layers it uses.  The layer order the import
graph follows is in ``docs/architecture.md``.

Quick taste (see ``examples/quickstart.py`` for the full tour)::

    from repro import pbio
    from repro.core import SoapBinClient, SoapBinService
    from repro.transport import DirectChannel

    registry = pbio.FormatRegistry()
    req = pbio.Format.from_dict("EchoRequest", {"data": "float64[]"})
    res = pbio.Format.from_dict("EchoResponse", {"n": "int32"})
    registry.register(req); registry.register(res)

    service = SoapBinService(registry)
    service.add_operation("Echo", req, res,
                          lambda p: {"n": len(p["data"])})
    client = SoapBinClient(DirectChannel(service.endpoint), registry)
    assert client.call("Echo", {"data": [1.0, 2.0]}, req, res) == {"n": 2}
"""

__version__ = "1.0.0"

from ._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {}, submodules=(
    "xmlcore", "pbio", "compress", "http11", "netsim", "transport",
    "reliability", "serving", "sunrpc", "soap", "wsdl", "core", "echo",
    "media", "apps", "bench"))
__all__.append("__version__")
