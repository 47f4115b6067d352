"""WSDL: parsing, emission and the stub-generating compiler.

The entry point mirrors the original system's pipeline — WSDL (plus an
optional quality file) in, stubs out::

    from repro.wsdl import WsdlCompiler, parse_wsdl

    compiler = WsdlCompiler.from_text(wsdl_text)
    stubs = compiler.load_stubs(quality_text)
    client = stubs["Client"](channel)           # one method per operation
    skeleton_cls = stubs["Skeleton"]            # subclass + implement
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "compiler": ["WsdlCompiler", "CompiledInterface", "CompiledOperation"],
    "emit": ["emit_wsdl"],
    "errors": ["WsdlError", "SchemaError", "CompileError"],
    "model": ["WsdlMessage", "WsdlOperation", "WsdlPortType", "WsdlDocument"],
    "parser": ["parse_wsdl"],
    "schema": ["parse_schema_types", "parse_complex_type",
               "resolve_type_name"],
})
