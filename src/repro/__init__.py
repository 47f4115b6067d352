"""SOAP-binQ: high-performance SOAP with continuous quality management.

A from-scratch Python reproduction of Seshasayee, Schwan & Widener,
*SOAP-binQ: High-Performance SOAP with Continuous Quality Management*
(ICDCS 2004), including every substrate the paper builds on:

==================  =====================================================
``repro.xmlcore``   hand-written XML tokenizer / tree / pull parser
``repro.pbio``      PBIO binary formats, format server, generated codecs
``repro.compress``  Lempel-Ziv codecs (LZSS, LZW, zlib)
``repro.http11``    minimal HTTP/1.1 client + epoll reactor server
``repro.netsim``    deterministic links, cross-traffic, virtual clocks
``repro.transport`` channel abstraction (sockets / simulated / direct)
``repro.sunrpc``    Sun RPC + XDR baseline (Fig. 4)
``repro.soap``      standard XML SOAP 1.1 (envelope, dispatch, client)
``repro.wsdl``      WSDL parser/emitter + stub-generating compiler
``repro.core``      SOAP-bin + SOAP-binQ (modes, quality files, RTT)
``repro.echo``      ECho-style pub/sub with runtime filters
``repro.media``     PPM images, image ops, SVG, synthetic workloads
``repro.apps``      the four evaluation applications
``repro.bench``     the figure/table reproduction harness
==================  =====================================================

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

from . import (apps, bench, compress, core, echo, http11, media, netsim,
               pbio, soap, sunrpc, transport, wsdl, xmlcore)

__all__ = [
    "xmlcore", "pbio", "compress", "http11", "netsim", "transport",
    "sunrpc", "soap", "wsdl", "core", "echo", "media", "apps", "bench",
    "__version__",
]
