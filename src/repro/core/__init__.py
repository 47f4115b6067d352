"""SOAP-bin and SOAP-binQ: the paper's primary contribution.

Binary SOAP invocations over PBIO with XML only where endpoints need it
(three modes), plus continuous quality management: quality files bind
intervals of a monitored attribute (RTT by default) to message types,
quality handlers transform payloads, and a history-based estimator keeps
selection stable.

Minimal SOAP-binQ setup::

    from repro import pbio
    from repro.core import SoapBinClient, SoapBinService
    from repro.transport import DirectChannel

    registry = pbio.FormatRegistry()
    req = pbio.Format.from_dict("GetDataRequest", {"n": "int32"})
    full = pbio.Format.from_dict("GetDataResponse", {"data": "float64[]"})
    small = pbio.Format.from_dict("GetDataSmall", {"data": "float64[]"})
    for fmt in (req, full, small):
        registry.register(fmt)

    service = SoapBinService(registry, quality_text='''
        attribute rtt
        0.0  0.05 - GetDataResponse
        0.05 inf  - GetDataSmall
    ''')
    service.add_operation("GetData", req, full,
                          lambda p: {"data": [0.0] * p["n"]})

    client = SoapBinClient(DirectChannel(service.endpoint), registry)
    out = client.call("GetData", {"n": 4}, req, full)
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "attributes": ["AttributeStore", "RTT", "RESOLUTION", "CPU_LOAD",
                   "MARSHALLING_COST", "MEMORY"],
    "binclient": ["SoapBinClient"],
    "binservice": ["SoapBinService"],
    "conversion": ["ConversionHandler"],
    "dynamic": ["compile_quality_handler"],
    "xmlq": ["XmlQualityClient", "build_attribute_headers",
             "parse_attribute_headers", "build_message_type_header",
             "parse_message_type_header"],
    "monitor": ["ExchangeObservation", "MonitorHub", "NetworkTimeMonitor",
                "ServerTimeMonitor", "BandwidthMonitor",
                "MarshallingCostMonitor", "BreakerRttCoupling",
                "worst_interval_rtt"],
    "errors": ["BinqError", "QualityFileError", "QualityHandlerError",
               "BinProtocolError"],
    "lru": ["LruTtlCache"],
    "manager": ["QualityManager"],
    "modes": ["Mode", "PBIO_CONTENT_TYPE", "HEADER_CLIENT_ID",
              "HEADER_TIMESTAMP", "HEADER_TIMESTAMP_ECHO", "HEADER_RTT",
              "HEADER_SERVER_TIME", "HEADER_OPERATION"],
    "qcache": ["QualityCache", "canonical_digest"],
    "quality_file": ["QualityRule", "QualityPolicy", "parse_quality_file",
                     "format_quality_file"],
    "quality_handlers": ["QualityHandler", "HandlerRegistry",
                         "trivial_handler", "downsample_arrays_handler"],
    "rtt": ["RttEstimator", "HysteresisSelector", "DEFAULT_ALPHA"],
})
