"""ECho: publish/subscribe event channels with runtime-installed filters.

The event substrate behind the remote-visualization application (§IV-C.4):
typed channels, synchronous fan-out, and derived channels whose filter code
is compiled at runtime from source shipped by clients.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "channel": ["EventChannel", "ChannelDirectory", "Subscription", "Sink"],
    "errors": ["EchoError", "ChannelClosed", "FilterError"],
    "filters": ["EventFilter", "compile_filter", "identity_filter",
                "select_fields_filter"],
})
