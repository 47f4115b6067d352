"""The import graph follows the one layer order in ``docs/architecture.md``.

Every ``import`` statement under ``src/repro`` is walked with ``ast``,
function-level ones included: a module may import from its own package
and from packages on earlier lines of the documented order, nothing
else.  Imports inside ``if TYPE_CHECKING:`` blocks never run; the few
that point upward are listed by name below, so a new one fails until it
is listed.  Two subprocess checks pin what a cold start loads, and two
more the import-time side effects the lazy facades must keep.
"""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ARCHITECTURE = ROOT / "docs" / "architecture.md"

#: ``if TYPE_CHECKING:`` imports allowed to point upward:
#: importing module -> the modules it names there.
TYPE_CHECKING_EXEMPT = {
    "repro.http11.server": {"repro.serving.admission",
                            "repro.serving.coupling"},
}

#: The only modules that may import ``repro.netsim`` (the simulator).
NETSIM_IMPORTERS = ("repro.transport.sim", "repro.apps.", "repro.bench.",
                    "repro.netsim.")


def documented_layers():
    """``{unit: rank}`` from the fenced block under "## Layer order"."""
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("## Layer order", 1)[1]
    block = section.split("```", 2)[1]
    ranks = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0].split()
        if not line:
            continue
        rank = int(line[0])
        for unit in line[1:]:
            assert unit not in ranks, f"{unit} listed twice"
            ranks[unit] = rank
    return ranks


def module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def unit_of(module):
    """The layer unit a module belongs to: its package under ``repro``,
    or the top-level module itself (``clock``, ``channel``, ``cli``)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def type_checking_nodes(tree):
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
                node.test):
            for child in node.body:
                skipped.update(id(n) for n in ast.walk(child))
    return skipped


def imports():
    """``(importer, imported module, line, under TYPE_CHECKING)`` for every
    import statement in the package.  ``from X import name`` counts as an
    import of ``X.name`` when that is a module, else of ``X``."""
    modules = {module_name(p) for p in PACKAGE.rglob("*.py")}
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        importer = module_name(path)
        is_package = path.name == "__init__.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        guarded = type_checking_nodes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = importer.split(".")
                    if not is_package:
                        base = base[:-1]
                    base = base[:len(base) - (node.level - 1)]
                    source = ".".join(base + [node.module] if node.module
                                      else base)
                else:
                    source = node.module
                targets = [f"{source}.{alias.name}"
                           if f"{source}.{alias.name}" in modules else source
                           for alias in node.names]
            else:
                continue
            for target in targets:
                if target == "repro" or target.startswith("repro."):
                    out.append((importer, target, node.lineno,
                                id(node) in guarded))
    return out


def test_layer_order_names_every_package_once():
    ranks = documented_layers()
    units = {unit_of(module_name(p)) for p in PACKAGE.rglob("*.py")}
    units.discard("")
    assert units == set(ranks)


def test_no_import_points_up_the_layer_order():
    ranks = documented_layers()
    upward = []
    for importer, target, line, guarded in imports():
        here, there = unit_of(importer), unit_of(target)
        if there == "" or here == there:
            continue            # the root package, or within a package
        if here == "":          # repro/__init__.py: the helper only
            if there != "_lazy":
                upward.append(f"{importer}:{line} imports {target}")
            continue
        if ranks[there] < ranks[here]:
            continue
        if guarded and target in TYPE_CHECKING_EXEMPT.get(importer, ()):
            continue
        upward.append(f"{importer}:{line} imports {target} "
                      f"(layer {ranks[here]} -> {ranks[there]})")
    assert upward == []


def test_type_checking_exemptions_are_still_used():
    used = defaultdict(set)
    for importer, target, _line, guarded in imports():
        if guarded:
            used[importer].add(target)
    for importer, targets in TYPE_CHECKING_EXEMPT.items():
        assert targets <= used[importer], importer


def test_no_cycle_between_packages():
    graph = defaultdict(set)
    for importer, target, _line, guarded in imports():
        here, there = unit_of(importer), unit_of(target)
        if not guarded and here != there:
            graph[here].add(there)
    state = {}

    def visit(unit, path):
        state[unit] = "open"
        for nxt in sorted(graph[unit]):
            if state.get(nxt) == "open":
                pytest.fail("package cycle: "
                            + " -> ".join(path[path.index(nxt):] + [nxt]))
            if nxt not in state:
                visit(nxt, path + [nxt])
        state[unit] = "done"

    for unit in sorted(graph):
        if unit not in state:
            visit(unit, [unit])


def test_netsim_is_imported_only_by_the_simulator_users():
    importers = {importer for importer, target, _line, _g in imports()
                 if unit_of(target) == "netsim"}
    assert importers
    assert [m for m in sorted(importers)
            if not m.startswith(NETSIM_IMPORTERS)] == []


def loaded_by(code):
    """The ``repro`` modules a fresh interpreter has loaded after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    probe = (code + "\nimport sys\n"
             "print(' '.join(sorted(m for m in sys.modules "
             "if m == 'repro' or m.startswith('repro.'))))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_repro_loads_no_package():
    assert loaded_by("import repro") == ["repro", "repro._lazy"]


def test_a_server_loads_no_layer_it_does_not_serve_through():
    loaded = loaded_by("from repro.transport import serve_endpoint\n"
                       "from repro.core import SoapBinService")
    unused = {"apps", "bench", "cli", "echo", "netsim", "sunrpc", "wsdl"}
    assert [m for m in loaded if unit_of(m) in unused] == []
    assert "repro.core.binservice" in loaded


def test_soap_import_installs_the_xml_planner():
    assert loaded_by(
        "from repro.pbio import FormatRegistry, PbioError\n"
        "registry = FormatRegistry()\n"
        "try:\n"
        "    registry.xlate\n"
        "except PbioError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('xlate without repro.soap')\n"
        "import repro.soap\n"
        "from repro.soap.xlate import XlatePlanner\n"
        "assert isinstance(registry.xlate, XlatePlanner)\n"
        "assert registry.xlate in registry._compilers\n")


def test_compress_facade_builds_the_whole_codec_table():
    assert loaded_by(
        "from repro.compress import codec_names\n"
        "assert codec_names() == ['lzss', 'zlib'], codec_names()\n")


def test_every_facade_name_resolves():
    """``__all__`` of every package names something importable."""
    failures = []
    for path in sorted(PACKAGE.rglob("__init__.py")):
        name = module_name(path)
        package = __import__(name, fromlist=["__all__"])
        for attr in package.__all__:
            try:
                getattr(package, attr)
            except AttributeError as exc:
                failures.append(f"{name}.{attr}: {exc}")
        assert set(package.__all__) <= set(dir(package)), name
    assert failures == []
