"""Transport channels: real HTTP sockets or a simulated link."""

from .base import (BatchResult, Channel, ChannelReply, DirectChannel,
                   Endpoint, batch_headers)
from .sim import CallRecord, ServerTimeModel, SimChannel
from .sockets import (HttpChannel, PipelinedHttpChannel, PooledHttpChannel,
                      endpoint_http_handler, serve_endpoint)

__all__ = [
    "Channel", "ChannelReply", "Endpoint", "DirectChannel",
    "SimChannel", "CallRecord", "ServerTimeModel",
    "HttpChannel", "PooledHttpChannel", "PipelinedHttpChannel",
    "BatchResult", "batch_headers", "endpoint_http_handler",
    "serve_endpoint",
]
