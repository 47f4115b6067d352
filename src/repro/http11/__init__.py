"""Minimal HTTP/1.1 stack: the transport SOAP rides on.

Request/response model with case-insensitive headers, one server — an
epoll reactor (``workers + 1`` threads share one epoll set and the thread
woken for a connection serves it from read to write; Linux only) — plus
persistent-connection and pipelined clients::

    from repro.http11 import HttpServer, HttpConnection, Response

    with HttpServer(lambda req: Response(body=b"pong")) as server:
        with HttpConnection(server.address) as conn:
            assert conn.get("/").body == b"pong"

``HttpServer(...)`` builds a :class:`ReactorHttpServer`.
"""

from .client import (HttpConnection, HttpConnectionPool, default_pool,
                     parse_address)
from .errors import (HttpConnectionClosed, HttpError, HttpParseError,
                     HttpTooLarge)
from .messages import (MAX_BODY_BYTES, MAX_HEADER_BYTES, Headers, Request,
                       RequestParser, Response, ResponseParser, etag_matches)
from .pipeline import PipelinedHttpConnection, PipelineError
from .reactor import HttpServer, ReactorHttpServer
from .server import set_reuse_port

__all__ = [
    "HttpError", "HttpParseError", "HttpConnectionClosed", "HttpTooLarge",
    "Headers", "Request", "Response", "RequestParser", "ResponseParser",
    "etag_matches",
    "MAX_HEADER_BYTES", "MAX_BODY_BYTES",
    "HttpServer", "ReactorHttpServer", "set_reuse_port",
    "HttpConnection", "HttpConnectionPool", "default_pool", "parse_address",
    "PipelinedHttpConnection", "PipelineError",
]
