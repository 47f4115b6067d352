"""Tests for the command-line interface."""

import threading

import pytest

from repro.cli import main

WSDL = """<?xml version="1.0"?>
<wsdl:definitions name="cli_service" targetNamespace="urn:t:cli"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:tns="urn:t:cli">
  <wsdl:message name="AddRequest">
    <wsdl:part name="a" type="xsd:int"/>
    <wsdl:part name="b" type="xsd:int"/>
  </wsdl:message>
  <wsdl:message name="AddResponse">
    <wsdl:part name="sum" type="xsd:int"/>
  </wsdl:message>
  <wsdl:portType name="CliPortType">
    <wsdl:operation name="Add">
      <wsdl:input message="tns:AddRequest"/>
      <wsdl:output message="tns:AddResponse"/>
    </wsdl:operation>
  </wsdl:portType>
</wsdl:definitions>
"""

QUALITY = "attribute rtt\nhistory 2\n0 0.5 - AddResponse\n"


@pytest.fixture()
def wsdl_file(tmp_path):
    path = tmp_path / "service.wsdl"
    path.write_text(WSDL)
    return str(path)


@pytest.fixture()
def quality_file(tmp_path):
    path = tmp_path / "policy.q"
    path.write_text(QUALITY)
    return str(path)


class TestValidate:
    def test_valid(self, wsdl_file, capsys):
        assert main(["validate", wsdl_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "Add(AddRequest) -> AddResponse" in out

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.wsdl"
        path.write_text("<nope/>")
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/does/not/exist.wsdl"]) == 1


class TestQualityCheck:
    def test_valid(self, quality_file, capsys):
        assert main(["quality-check", quality_file]) == 0
        out = capsys.readouterr().out
        assert "attribute 'rtt'" in out
        assert "AddResponse" in out

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.q"
        path.write_text("not a rule line\n")
        assert main(["quality-check", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestCompile:
    def test_to_stdout(self, wsdl_file, capsys):
        assert main(["compile", wsdl_file]) == 0
        out = capsys.readouterr().out
        assert "class CliServiceClient" in out
        assert "class CliServiceSkeleton" in out

    def test_to_file_and_import(self, wsdl_file, quality_file, tmp_path,
                                capsys):
        out_path = tmp_path / "stubs.py"
        assert main(["compile", wsdl_file, "--quality", quality_file,
                     "-o", str(out_path)]) == 0
        assert "1 operations" in capsys.readouterr().out

        # the generated file is real, importable Python
        namespace = {}
        exec(compile(out_path.read_text(), str(out_path), "exec"),
             namespace)
        skeleton_cls = namespace["CliServiceSkeleton"]
        client_cls = namespace["CliServiceClient"]

        class Impl(skeleton_cls):
            def add(self, params):
                return {"sum": params["a"] + params["b"]}

        service = Impl().create_service()
        assert service.quality is not None  # quality file was baked in
        from repro.transport import DirectChannel
        client = client_cls(DirectChannel(service.endpoint))
        assert client.add(a=20, b=22) == {"sum": 42}

    def test_bad_quality_file(self, wsdl_file, tmp_path, capsys):
        bad = tmp_path / "bad.q"
        bad.write_text("zzz\n")
        assert main(["compile", wsdl_file, "--quality", str(bad)]) == 1


class TestFigures:
    def test_default_subset(self, capsys):
        assert main(["figures", "sizes"]) == 0
        out = capsys.readouterr().out
        assert "Representation sizes" in out
        assert "XML/PBIO" in out

    def test_table1(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "SOAP-bin" in capsys.readouterr().out

    def test_remoteviz(self, capsys):
        assert main(["figures", "remoteviz"]) == 0
        assert "SVG bytes" in capsys.readouterr().out


class TestServe:
    def test_serves_requests_then_exits(self, capsys):
        from repro.http11 import parse_address  # noqa: F401

        result = {}

        def run():
            result["code"] = main(["serve", "--requests", "1"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        # scrape the URL from stdout (retry until the banner appears)
        import re
        import time

        from repro.pbio import Format, FormatRegistry
        from repro.core import SoapBinClient
        from repro.transport import HttpChannel

        deadline = time.time() + 5
        url = None
        while time.time() < deadline and url is None:
            out = capsys.readouterr().out
            match = re.search(r"http://[\d.]+:\d+", out)
            if match:
                url = match.group()
            else:
                time.sleep(0.02)
        assert url is not None, "server banner never appeared"

        registry = FormatRegistry()
        req = Format.from_dict("EchoRequest", {"data": "float64[]",
                                               "tag": "string"})
        res = Format.from_dict("EchoResponse", {"data": "float64[]",
                                                "tag": "string",
                                                "count": "int32"})
        registry.register(req)
        registry.register(res)
        with HttpChannel(url) as channel:
            client = SoapBinClient(channel, registry)
            out = client.call("Echo", {"data": [1.0], "tag": "cli"},
                              req, res)
            assert out["count"] == 1
        thread.join(timeout=5)
        assert result.get("code") == 0

    def test_wire_compact_round_trip(self, capsys):
        """`serve --wire compact` answers a compact-capable client in
        the compact representation end to end."""
        import re
        import time

        from repro.core import SoapBinClient
        from repro.pbio import Format, FormatRegistry
        from repro.transport import HttpChannel

        result = {}

        def run():
            result["code"] = main(["serve", "--requests", "2",
                                   "--wire", "compact"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.time() + 5
        url = None
        while time.time() < deadline and url is None:
            out = capsys.readouterr().out
            match = re.search(r"http://[\d.]+:\d+", out)
            if match:
                url = match.group()
                assert "wire=compact" in out
            else:
                time.sleep(0.02)
        assert url is not None, "server banner never appeared"

        registry = FormatRegistry()
        req = Format.from_dict("EchoRequest", {"data": "float64[]",
                                               "tag": "string"})
        res = Format.from_dict("EchoResponse", {"data": "float64[]",
                                                "tag": "string",
                                                "count": "int32"})
        registry.register(req)
        registry.register(res)
        with HttpChannel(url) as channel:
            client = SoapBinClient(channel, registry, wire="compact")
            for _ in range(2):
                out = client.call("Echo", {"data": [1.0, 2.0],
                                           "tag": "wire"}, req, res)
                assert out["count"] == 2
        # both directions carried compact payloads
        assert client.session.stats.compact_sent >= 1
        assert client.session.stats.compact_received >= 1
        thread.join(timeout=5)
        assert result.get("code") == 0

    def test_serve_rejects_unknown_wire_mode(self, capsys):
        assert main(["serve", "--wire", "gzip"]) == 2
        err = capsys.readouterr().err
        assert "wire" in err
        assert "Traceback" not in err


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "compile" in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "repro-binq" in capsys.readouterr().out


class TestUsageErrors:
    """Operator-facing failure mode: a typo'd invocation exits non-zero
    with a one-line pointer at ``--help`` — never a raw traceback."""

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--help" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_flag(self, capsys):
        assert main(["serve", "--warp-speed", "9"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["validate"]) == 2
        err = capsys.readouterr().err
        assert "wsdl" in err
        assert "Traceback" not in err
