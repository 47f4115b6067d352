"""Sun RPC (ONC RPC v2) over TCP with XDR — the Fig. 4 baseline.

A from-scratch implementation of the classic RPC stack the paper compares
SOAP-bin against: XDR data representation (big-endian, 4-byte aligned,
symmetric translation at both ends), record-marked TCP framing, numbered
programs/versions/procedures::

    from repro.sunrpc import RpcProgram, RpcServer, RpcClient, XdrEncoder

    program = RpcProgram(prog=0x20000001, vers=1)

    @program.procedure(1)
    def echo(args):
        return args

    with RpcServer() as server:
        server.add_program(program)
        with RpcClient(server.address, 0x20000001, 1) as client:
            assert client.call(1, b"1234") == b"1234"
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "client": ["RpcClient"],
    "errors": ["RpcError", "XdrError", "RpcProtocolError", "RpcDenied"],
    "rpc": ["CallHeader", "encode_call", "decode_call", "encode_reply",
            "decode_reply", "read_record", "write_record", "SUCCESS",
            "PROG_UNAVAIL", "PROC_UNAVAIL", "GARBAGE_ARGS", "SYSTEM_ERR",
            "ACCEPT_STAT_NAMES"],
    "server": ["RpcProgram", "RpcServer"],
    "xdr": ["XdrEncoder", "XdrDecoder"],
})
