"""Transport channels: real HTTP sockets or a simulated link."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "base": ["Channel", "ChannelReply", "Endpoint", "DirectChannel",
             "BatchResult", "batch_headers"],
    "sim": ["SimChannel", "CallRecord", "ServerTimeModel"],
    "sockets": ["HttpChannel", "PooledHttpChannel", "PipelinedHttpChannel",
                "endpoint_http_handler", "serve_endpoint"],
})
