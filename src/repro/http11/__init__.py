"""Minimal HTTP/1.1 stack: the transport SOAP rides on.

Request/response model with case-insensitive headers, one server — an
epoll reactor (``workers + 1`` threads share one epoll set and the thread
woken for a connection serves it from read to write; Linux only) — plus
one persistent-connection client whose ``request`` is a pipeline of depth
one and whose ``request_many`` keeps up to ``depth`` requests in flight::

    from repro.http11 import HttpServer, HttpConnection, Response

    with HttpServer(lambda req: Response(body=b"pong")) as server:
        with HttpConnection(server.address) as conn:
            assert conn.get("/").body == b"pong"

``HttpServer(...)`` builds a :class:`ReactorHttpServer`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "client": ["HttpConnection", "HttpConnectionPool", "PipelineError",
               "parse_address"],
    "errors": ["HttpError", "HttpParseError", "HttpConnectionClosed",
               "HttpTooLarge"],
    "messages": ["Headers", "Request", "Response", "RequestParser",
                 "ResponseParser", "etag_matches", "MAX_HEADER_BYTES",
                 "MAX_BODY_BYTES"],
    "reactor": ["HttpServer", "ReactorHttpServer"],
    "server": ["set_reuse_port"],
})
