"""Lint: no public name in ``src/`` that only tests reach.

Every public module-level function or class under ``src/repro``, and
every public method of a public class, must be referenced from
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` outside its
own definition.  A module-level name is reached by a bare name, an
attribute, or a string constant that names it (``getattr`` targets,
perfbench hook paths).  A method or property is reached only by an
attribute or a string: a local variable or function that shares its
name (a ``lows`` array beside a ``lows`` property) reaches
nothing.  Imports and ``__all__`` entries are not references:
re-exporting a name reaches nothing.

The match is still by name, so a method that shares its name with a
reached method of another class (``save``, ``describe``, ``score``)
passes; such a collision remains a hand check.  The lint catches entry
points that nothing calls, not every dead override.

A name that only tests use, on purpose, is listed in :data:`KEEP` with
the reason; a kept class keeps its methods.  A keep entry whose name is
gone or has gained a caller fails too, so the list stays exact.
"""

import ast
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")
_NAME_PATH = re.compile(r"[A-Za-z_][\w.:]*")

#: Public names no caller reaches, kept for the tests that use them.
KEEP = {
    "repro.circuit.devices.Mosfet.operating_region":
        "oracle: the op-amp design test checks every transistor of the "
        "bias point is in saturation",
    "repro.circuit.devices.Sine":
        "circuit builder for the transient tests",
    "repro.circuit.devices.Pwl":
        "circuit builder for the transient tests",
    "repro.circuit.netlist.Circuit.current_source":
        "circuit builder for the DC and transient-clock tests",
    "repro.circuit.netlist.Circuit.vccs":
        "circuit builder for the controlled-source and batch tests",
    "repro.circuit.netlist.Circuit.diode":
        "circuit builder for the DC, transient and batch tests",
    "repro.mems.mechanics.resonant_frequency":
        "analytic oracle the simulated accelerometer is checked against",
    "repro.mems.mechanics.quality_factor_analytic":
        "analytic oracle the simulated accelerometer is checked against",
    "repro.mems.mechanics.sense_capacitance":
        "analytic oracle the mechanics tests check against",
    "repro.mems.specs.fit_second_order":
        "the public face of the MEMS fit that its golden and oracle "
        "tests pin",
    "repro.learn.columns.KernelColumnCache.max_blocks":
        "observed by the column-cache eviction tests",
    "repro.learn.columns.KernelColumnCache.n_cached_blocks":
        "observed by the column-cache eviction tests",
    "repro.learn.model_selection.cross_val_score":
        "the cold per-configuration reference every grid-search score "
        "is compared against (test_model_selection.py)",
    "repro.learn.svm.SVC.get_params":
        "the estimator protocol the SVC and grid-search tests check",
    "repro.runtime.simulation.instance_streams":
        "the spawned seed tree instance_streams_range is checked "
        "against",
    "repro.service.registry.ArtifactRegistry.resident_keys":
        "observed by the registry's LRU-bound tests",
    "repro.service.cluster.ClusterService.kill_worker":
        "fault injection for the crash-recovery and retry tests",
    "repro.chaos.inject.FaultInjector":
        "seeded fault injection for the chaos tests",
    "repro.chaos.inject.FaultInjector.n_fired":
        "seeded fault injection for the chaos tests",
    "repro.chaos.inject.FaultPlan.kill_schedule":
        "seeded fault injection for the chaos tests",
    "repro.chaos.inject.corrupt_file":
        "seeded fault injection for the chaos and repair tests",
    "repro.telemetry.core.Telemetry.current_span":
        "observed by the span-nesting tests",
    "repro.telemetry.core.NullTelemetry.current_span":
        "the no-op twin of Telemetry.current_span",
}


def public_definitions(tree, module):
    """``{qualified name: (bare name, is a method)}`` of a module's API."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        found["{}.{}".format(module, node.name)] = (node.name, False)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not sub.name.startswith("_")):
                    found["{}.{}.{}".format(module, node.name,
                                            sub.name)] = (sub.name, True)
    return found


def referenced_names(tree):
    """``(bare names, attribute and string names)`` a module uses.

    Both leave out the names of the definitions enclosing the use.
    """
    bare, dotted = set(), set()

    def visit(node, enclosing):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            return
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            bare.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute):
            dotted.update({node.attr} - enclosing)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _NAME_PATH.fullmatch(node.value)):
            dotted.update(set(re.split(r"[.:]", node.value)) - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return bare, dotted


def reached(definitions, bare, dotted):
    """The qualified names in ``definitions`` that some use reaches."""
    return {q for q, (name, method) in definitions.items()
            if name in dotted or (not method and name in bare)}


@functools.lru_cache(maxsize=None)
def _census():
    """``(public definitions, the ones non-test code reaches)``."""
    src = ROOT / "src"
    definitions = {}
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        definitions.update(public_definitions(
            ast.parse(path.read_text(), filename=str(path)), module))
    bare, dotted = set(), set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            names = referenced_names(
                ast.parse(path.read_text(), filename=str(path)))
            bare |= names[0]
            dotted |= names[1]
    return definitions, reached(definitions, bare, dotted)


def test_every_public_name_has_a_caller_or_a_keep_reason():
    definitions, hit = _census()
    assert len(definitions) > 500
    unreached = sorted(
        q for q in definitions
        if q not in hit and q not in KEEP
        and q.rpartition(".")[0] not in KEEP)
    assert not unreached, (
        "public names that only tests reach; delete them (and their "
        "tests) or give a reason in KEEP: {}".format(", ".join(unreached)))


def test_keep_entries_name_existing_unreached_definitions():
    definitions, hit = _census()
    stale = sorted(q for q in KEEP if q not in definitions or q in hit)
    assert not stale, "KEEP entries that are gone or now reached: {}".format(
        ", ".join(stale))


def test_census_counts_uses_not_imports_or_own_body():
    source = (
        "from pkg import imported\n"
        "__all__ = ['exported']\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def caller(obj):\n"
        "    getattr(obj, 'by_string')\n"
        "    return obj.method(plain_name, 'pkg.mod:Cls.hooked')\n")
    bare, dotted = referenced_names(ast.parse(source))
    assert {"method", "by_string", "hooked", "Cls"} <= dotted
    assert "plain_name" in bare
    assert not {"imported", "exported", "recursive"} & (bare | dotted)
    # A local named like a method does not reach it; a bare name does
    # reach a module-level function.
    module = (
        "class Spec:\n"
        "    def lows(self):\n"
        "        return 0\n"
        "    def highs(self):\n"
        "        return 1\n"
        "def lows_of(spec):\n"
        "    return spec\n")
    caller = (
        "def bounds(spec):\n"
        "    lows = lows_of(spec)\n"
        "    return lows, spec.highs()\n")
    definitions = public_definitions(ast.parse(module), "pkg")
    hit = reached(definitions, *referenced_names(ast.parse(caller)))
    assert hit == {"pkg.lows_of", "pkg.Spec.highs"}
