"""The channel contract; it lives in :mod:`repro.channel`.

:mod:`repro.channel` sits below ``soap`` and ``reliability``, which both
speak it, while this package's socket channels sit above
``reliability``; this module keeps the names importable from here.
"""

from ..channel import (BatchHeaders, BatchResult, Channel, ChannelReply,
                       DirectChannel, Endpoint, batch_headers)

__all__ = ["ChannelReply", "BatchResult", "BatchHeaders", "batch_headers",
           "Endpoint", "Channel", "DirectChannel"]
