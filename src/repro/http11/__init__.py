"""Minimal HTTP/1.1 stack: the transport SOAP rides on.

Request/response model with case-insensitive headers, two server cores —
an epoll reactor (default; ``workers + 1`` threads share one epoll set and
the thread woken for a connection serves it from read to write) and the
classic thread-per-connection server — plus persistent-connection and
pipelined clients::

    from repro.http11 import HttpServer, HttpConnection, Response

    with HttpServer(lambda req: Response(body=b"pong")) as server:
        with HttpConnection(server.address) as conn:
            assert conn.get("/").body == b"pong"

``HttpServer(...)`` is a factory: ``concurrency="reactor"`` (default where
``select.epoll`` exists, overridable via the ``REPRO_HTTP_CONCURRENCY``
env var) builds a :class:`ReactorHttpServer`, ``concurrency="threaded"``
the original :class:`ThreadedHttpServer`.  Both expose the identical
surface and run the same test suite.
"""

from .client import (HttpConnection, HttpConnectionPool, default_pool,
                     parse_address)
from .errors import (HttpConnectionClosed, HttpError, HttpParseError,
                     HttpTooLarge)
from .messages import (MAX_BODY_BYTES, MAX_HEADER_BYTES, Headers, Request,
                       RequestParser, Response, ResponseParser, etag_matches)
from .pipeline import PipelinedHttpConnection, PipelineError
from .reactor import ReactorHttpServer
from .server import (CONCURRENCY_ENV, HttpServer, ThreadedHttpServer,
                     default_concurrency, set_reuse_port,
                     supports_reuse_port)

__all__ = [
    "HttpError", "HttpParseError", "HttpConnectionClosed", "HttpTooLarge",
    "Headers", "Request", "Response", "RequestParser", "ResponseParser",
    "etag_matches",
    "MAX_HEADER_BYTES", "MAX_BODY_BYTES",
    "HttpServer", "ThreadedHttpServer", "ReactorHttpServer",
    "default_concurrency", "CONCURRENCY_ENV",
    "set_reuse_port", "supports_reuse_port",
    "HttpConnection", "HttpConnectionPool", "default_pool", "parse_address",
    "PipelinedHttpConnection", "PipelineError",
]
