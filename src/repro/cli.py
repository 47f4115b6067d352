"""Command-line interface for the SOAP-binQ toolkit.

Mirrors the workflow of the original system's command-line WSDL compiler::

    python -m repro.cli compile service.wsdl --quality policy.q -o stubs.py
    python -m repro.cli validate service.wsdl
    python -m repro.cli quality-check policy.q
    python -m repro.cli figures table1 headline
    python -m repro.cli serve --port 8080
    python -m repro.cli loadgen --profile mixed --duration 10 --workers 2
    python -m repro.cli extract-serve --port 8080 --records 100000
    python -m repro.cli extract --target 127.0.0.1:8080 \\
        --checkpoint job.ckpt

``compile`` writes the generated client + skeleton stub source to a real
Python file (the paper's stub files); ``figures`` regenerates evaluation
tables without going through pytest; ``serve`` runs the quickstart echo
service on a real port.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__


class _CliParser(argparse.ArgumentParser):
    """Argument parser whose failures are one line, not a usage dump.

    With seven subcommands the stock multi-line usage block buries the
    actual problem; an unknown subcommand or flag prints the error plus
    a ``--help`` pointer and exits 2.  ``add_subparsers`` inherits this
    class, so nested parse errors behave the same way.
    """

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message} "
                     f"(run `{self.prog} --help` for usage)\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 130


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="repro-binq",
        description="SOAP-binQ reproduction toolkit (ICDCS 2004)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    compile_cmd = sub.add_parser(
        "compile", help="compile WSDL (+ quality file) into Python stubs")
    compile_cmd.add_argument("wsdl", help="path to the WSDL file")
    compile_cmd.add_argument("--quality", help="path to a quality file")
    compile_cmd.add_argument("-o", "--out", default="-",
                             help="output path ('-' for stdout)")
    compile_cmd.set_defaults(handler=cmd_compile)

    validate_cmd = sub.add_parser("validate",
                                  help="parse and validate a WSDL file")
    validate_cmd.add_argument("wsdl", help="path to the WSDL file")
    validate_cmd.set_defaults(handler=cmd_validate)

    quality_cmd = sub.add_parser("quality-check",
                                 help="parse and validate a quality file")
    quality_cmd.add_argument("quality", help="path to the quality file")
    quality_cmd.set_defaults(handler=cmd_quality_check)

    figures_cmd = sub.add_parser(
        "figures", help="regenerate evaluation tables (fast subset)")
    figures_cmd.add_argument(
        "names", nargs="*",
        choices=["fig4", "table1", "headline", "remoteviz", "sizes"],
        help="which tables (default: table1 remoteviz sizes)")
    figures_cmd.set_defaults(handler=cmd_figures)

    serve_cmd = sub.add_parser(
        "serve", help="run the demo echo service on a real port")
    serve_cmd.add_argument("--port", type=int, default=0)
    serve_cmd.add_argument("--requests", type=int, default=0,
                           help="exit after N requests (0 = forever)")
    serve_cmd.add_argument("--wire", default="auto",
                           choices=["auto", "native", "compact"],
                           help="PBIO wire representation policy "
                                "(default: %(default)s)")
    serve_cmd.set_defaults(handler=cmd_serve)

    fleet_cmd = sub.add_parser(
        "serve-fleet",
        help="run the echo service on a prefork reactor fleet (one port, "
             "N worker processes)")
    fleet_cmd.add_argument("--port", type=int, default=0)
    fleet_cmd.add_argument("--workers", type=int, default=0,
                           help="worker processes (0 = os.cpu_count())")
    fleet_cmd.add_argument("--control-port", type=int, default=0,
                           help="fleet /healthz control port (0 = any)")
    fleet_cmd.add_argument("--requests", type=int, default=0,
                           help="exit after N fleet-wide requests "
                                "(0 = forever)")
    fleet_cmd.set_defaults(handler=cmd_serve_fleet)

    loadgen_cmd = sub.add_parser(
        "loadgen",
        help="drive multi-process load at a server and write a "
             "LOADGEN_report.json + HTML report")
    from .bench.loadgen import add_arguments as _loadgen_arguments
    _loadgen_arguments(loadgen_cmd)
    loadgen_cmd.set_defaults(handler=cmd_loadgen)

    xserve_cmd = sub.add_parser(
        "extract-serve",
        help="host the resumable dataset-extraction service "
             "(see docs/extraction.md)")
    xserve_cmd.add_argument("--port", type=int, default=0)
    xserve_cmd.add_argument("--workers", type=int, default=1,
                            help="worker processes; >1 runs a prefork "
                                 "fleet (default: 1)")
    xserve_cmd.add_argument("--control-port", type=int, default=0,
                            help="fleet /healthz control port (0 = any)")
    xserve_cmd.add_argument("--records", type=int, default=100_000,
                            help="dataset records (default: %(default)s)")
    xserve_cmd.add_argument("--seed", type=int, default=1234)
    xserve_cmd.add_argument("--page-records", type=int, default=256,
                            dest="page_records",
                            help="default page size in records")
    xserve_cmd.add_argument("--pages", type=int, default=0,
                            help="exit after N pages served (0 = forever)")
    xserve_cmd.add_argument("--wire", default="auto",
                            choices=["auto", "native", "compact"],
                            help="PBIO wire representation policy "
                                 "(default: %(default)s)")
    xserve_cmd.set_defaults(handler=cmd_extract_serve)

    extract_cmd = sub.add_parser(
        "extract",
        help="run a checkpointed extraction job against an "
             "extract-serve target")
    extract_cmd.add_argument("--target", required=True,
                             metavar="HOST:PORT",
                             help="extract-serve address")
    extract_cmd.add_argument("--checkpoint", required=True,
                             help="checkpoint file (created on first run, "
                                  "resumed from afterwards)")
    extract_cmd.add_argument("--job-id", default="cli-extract",
                             dest="job_id")
    extract_cmd.add_argument("--page-records", type=int, default=256,
                             dest="page_records")
    extract_cmd.add_argument("--depth", type=int, default=8,
                             help="pipeline depth for page fetches")
    extract_cmd.add_argument("--out", default=None, metavar="JSON",
                             help="write the job report as JSON")
    extract_cmd.set_defaults(handler=cmd_extract)

    return parser


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_compile(args: argparse.Namespace) -> int:
    from .wsdl import WsdlCompiler, WsdlError

    try:
        with open(args.wsdl) as fh:
            compiler = WsdlCompiler.from_text(fh.read())
    except WsdlError as exc:
        print(f"WSDL error: {exc}", file=sys.stderr)
        return 1
    quality_note = ""
    if args.quality:
        from .core import parse_quality_file, QualityFileError
        with open(args.quality) as fh:
            quality_text = fh.read()
        try:
            policy = parse_quality_file(quality_text)
        except QualityFileError as exc:
            print(f"quality file error: {exc}", file=sys.stderr)
            return 1
        quality_note = (f"\n_QUALITY_TEXT = {quality_text!r}"
                        f"  # monitored attribute: {policy.attribute}\n")
    else:
        quality_note = "\n_QUALITY_TEXT = None\n"

    source = (f'"""Stubs generated by repro-binq from {args.wsdl}."""\n\n'
              f"from repro.pbio import FormatRegistry\n"
              f"_REGISTRY = FormatRegistry()\n"
              f"{quality_note}\n"
              + _registry_bootstrap(compiler)
              + "\n\n" + compiler.generate_client_source()
              + "\n\n" + compiler.generate_server_source())
    if args.out == "-":
        print(source)
    else:
        with open(args.out, "w") as fh:
            fh.write(source)
        interface = compiler.compile()
        print(f"wrote {args.out}: {len(interface.operations)} operations, "
              f"{len(compiler.registry)} formats")
    return 0


def _registry_bootstrap(compiler) -> str:
    """Source that re-registers every format into the stub's registry."""
    from .wsdl.compiler import WsdlCompiler  # noqa: F401 (doc reference)
    compiler.compile()
    lines = ["# format definitions (from the WSDL types/messages)",
             "from repro.pbio import Format as _Format"]
    for fmt in compiler.registry.formats():
        blob = fmt.to_wire()
        lines.append(f"_REGISTRY.register(_Format.from_wire({blob!r}))")
    return "\n".join(lines)


def cmd_validate(args: argparse.Namespace) -> int:
    from .wsdl import WsdlError, parse_wsdl

    with open(args.wsdl) as fh:
        text = fh.read()
    try:
        document = parse_wsdl(text)
    except WsdlError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    ops = document.all_operations()
    print(f"OK: service {document.name!r}, {len(document.types)} types, "
          f"{len(document.messages)} messages, {len(ops)} operations")
    for op in ops:
        print(f"  {op.name}({op.input_message}) -> {op.output_message}")
    return 0


def cmd_quality_check(args: argparse.Namespace) -> int:
    from .core import QualityFileError, parse_quality_file

    with open(args.quality) as fh:
        text = fh.read()
    try:
        policy = parse_quality_file(text)
    except QualityFileError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"OK: attribute {policy.attribute!r}, history {policy.history}, "
          f"{len(policy.rules)} rules")
    for rule in policy.rules:
        handler = policy.handler_for(rule.message_type) or "(projection)"
        print(f"  [{rule.lo:g}, {rule.hi:g}) -> {rule.message_type} "
              f"via {handler}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .bench import figures, print_table

    names = args.names or ["table1", "remoteviz", "sizes"]
    if "sizes" in names:
        costs = figures.array_workloads(sizes=[1000, 10000], repeat=1)
        print_table(
            ["workload", "PBIO B", "XML B", "XML/PBIO"],
            [[c.label, c.pbio_bytes, c.xml_bytes,
              c.xml_bytes / c.pbio_bytes] for c in costs],
            title="Representation sizes (arrays)")
    if "fig4" in names:
        link = figures.LINKS["100Mbps"]()
        rows = figures.fig4_rows("structs", repeat=1)
        print_table(
            ["workload", "Sun RPC (ms)", "SOAP-bin (ms)"],
            [[r.label, r.overall("sunrpc", link) * 1e3,
              r.overall("soapbin", link) * 1e3] for r in rows],
            title="Fig. 4b — nested structs")
    if "table1" in names:
        rows = figures.table1_rows(repeat=2)
        print_table(
            ["protocol", "size B", "events/s"],
            [[r["protocol"], r["size_bytes"], r["events_per_sec"]]
             for r in rows],
            title="Table I — airline event rates (ADSL)")
    if "headline" in names:
        result = figures.headline_improvement(repeat=1)
        print_table(
            ["link", "improvement"],
            [[name, result[name]["factor"]] for name in figures.LINKS],
            title="Headline — 1 MiB message improvement")
    if "remoteviz" in names:
        result = figures.remoteviz_response(repeat=3)
        print_table(
            ["metric", "value"],
            [["response (us)", result["response_time_s"] * 1e6],
             ["SVG bytes", result["svg_bytes"]]],
            title="Remote visualization (100 Mbps)")
    return 0


def _build_echo_service(wire: str = "auto"):
    """The quickstart echo service (fresh registry + dispatcher)."""
    from .core import SoapBinService
    from .pbio import Format, FormatRegistry

    registry = FormatRegistry()
    req = Format.from_dict("EchoRequest", {"data": "float64[]",
                                           "tag": "string"})
    res = Format.from_dict("EchoResponse", {"data": "float64[]",
                                            "tag": "string",
                                            "count": "int32"})
    registry.register(req)
    registry.register(res)
    service = SoapBinService(registry, wire=wire)
    service.add_operation(
        "Echo", req, res,
        lambda p: {"data": p["data"], "tag": p["tag"],
                   "count": len(p["data"])})
    return service


def cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .transport import serve_endpoint

    service = _build_echo_service(args.wire)
    server = serve_endpoint(service.endpoint, port=args.port)
    print(f"Echo service (binary + XML SOAP, wire={args.wire}) "
          f"on {server.url}")
    try:
        while True:
            if args.requests and server.requests_served >= args.requests:
                break
            time.sleep(0.05)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.close()
    print(f"served {server.requests_served} requests")
    return 0


def cmd_serve_fleet(args: argparse.Namespace) -> int:
    import time

    from .serving import FleetServer
    from .transport import endpoint_http_handler

    def handler_factory(ctx):
        # Runs inside the forked worker: each worker builds a fresh
        # service (own registry, own sessions) and learns client formats
        # through the normal announcement handshake.
        return endpoint_http_handler(_build_echo_service().endpoint)

    fleet = FleetServer(handler_factory,
                        workers=args.workers or None,
                        port=args.port,
                        control_port=args.control_port)
    served = 0
    try:
        if not fleet.wait_ready(15.0):
            print("error: fleet workers never became ready",
                  file=sys.stderr)
            return 1
        host, port = fleet.address
        chost, cport = fleet.control_address
        print(f"Echo fleet: {fleet.workers} workers on "
              f"http://{host}:{port}")
        print(f"Fleet /healthz on http://{chost}:{cport}/healthz")
        while True:
            served = fleet.aggregate()["requests_served"]
            if args.requests and served >= args.requests:
                break
            time.sleep(0.05)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        fleet.close()
    print(f"served {served} requests across {fleet.workers} workers")
    return 0


def cmd_extract_serve(args: argparse.Namespace) -> int:
    import time

    from .apps.extract import ExtractService
    from .serving import AdmissionController, LoadQualityCoupling

    def build_app():
        return ExtractService(total=args.records, seed=args.seed,
                              page_records=args.page_records,
                              wire=args.wire)

    if args.workers > 1:
        from .serving import FleetServer
        from .transport import endpoint_http_handler

        def factory(ctx):
            # forked worker: fresh service; stateless cursors mean any
            # worker (including a post-crash respawn) serves any page
            app = build_app()
            admission = AdmissionController()
            coupling = LoadQualityCoupling(app.service.quality, admission,
                                           fleet_view=ctx.fleet_view)
            return (endpoint_http_handler(app.endpoint),
                    {"admission": admission, "load_coupling": coupling,
                     "quality_stats": app.quality_stats})

        fleet = FleetServer(factory, workers=args.workers, port=args.port,
                            control_port=args.control_port)
        served = 0
        try:
            if not fleet.wait_ready(20.0):
                print("error: fleet workers never became ready",
                      file=sys.stderr)
                return 1
            host, port = fleet.address
            chost, cport = fleet.control_address
            print(f"Extraction fleet: {fleet.workers} workers, "
                  f"{args.records} records on http://{host}:{port}")
            print(f"Fleet /healthz + /metrics on http://{chost}:{cport}")
            while True:
                served = fleet.aggregate().get("extract_pages_served", 0)
                if args.pages and served >= args.pages:
                    break
                time.sleep(0.05)
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            fleet.close()
        print(f"served {served} pages across {fleet.workers} workers")
        return 0

    from .transport import serve_endpoint
    app = build_app()
    admission = AdmissionController()
    coupling = LoadQualityCoupling(app.service.quality, admission)
    server = serve_endpoint(app.endpoint, port=args.port, admission=admission,
                            load_coupling=coupling,
                            quality_stats=app.quality_stats)
    print(f"Extraction service ({args.records} records) on {server.url}")
    try:
        while True:
            if args.pages and app.counters["pages_served"] >= args.pages:
                break
            time.sleep(0.05)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.close()
    print(f"served {app.counters['pages_served']} pages")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    import json

    from .apps.extract_client import CheckpointError, JobError, JobRunner
    from .transport import HttpChannel

    host, _, port_text = args.target.rpartition(":")
    try:
        address = (host or "127.0.0.1", int(port_text))
    except ValueError:
        print(f"error: --target must be HOST:PORT, got {args.target!r}",
              file=sys.stderr)
        return 2
    channel = HttpChannel(address, depth=args.depth)
    try:
        runner = JobRunner(channel, args.checkpoint, job_id=args.job_id,
                           page_records=args.page_records)
        report = runner.run()
    except (JobError, CheckpointError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        channel.close()
    resumed = " (resumed)" if report.resumed else ""
    print(f"extracted {report.records}/{report.total} records in "
          f"{report.pages} pages{resumed}: digest {report.digest}, "
          f"{report.pages_degraded} degraded, {report.retries} retries, "
          f"verified={report.verified}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if report.verified else 1


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .bench.loadgen import (config_from_args, print_failures,
                                print_summary, serve_echo, write_report)

    cfg = config_from_args(args)
    if args.serve_only:
        return serve_echo(cfg, port=args.port)
    report = write_report(cfg, args.out)
    print_summary(report)
    return 1 if print_failures(report) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
