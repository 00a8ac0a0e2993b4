"""Every public top-level def or class in src/vcmbench, and every public
method or property of a top-level class, has a caller in src/.

A top-level name counts as used where some module under src/ loads it,
as a bare name or as an attribute; a method or property only where one
loads it as an attribute, so a local variable of the same name keeps
nothing alive. Imports are not uses, so a re-export from a package
__init__ keeps nothing alive either. The few entry points that only the
acceptance suite calls are listed in ENTRY_POINTS.

Every VcmError subclass in errors.py carries data (defines __init__) or is
listed in DATA_FREE_ERRORS with the reason it exists apart from its base.

Every name that the benchmark's tracer (perfbench/tracing.py, BOUNDARIES)
wraps where it is called still resolves, experiment._process_item still
takes the job's item, qp and scale where the tracer reads them, and every
call of the entropy coder passes its bytes first and positionally, where
the tracer reads entropy.bytes_in.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from vcmbench.pipeline import experiment

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vcmbench"

# Library calls that the acceptance criteria exercise and no command makes.
ENTRY_POINTS = {
    "raw_size_bits",  # criterion 4: 32/8/2-bit size ratios
    "pack_multiscale",  # criterion 6: multiscale packing is a bijection
}

# Error classes that carry no data, and why each is more than its base's message.
DATA_FREE_ERRORS = {
    "InputError": "base class: exit code 2",
    "ExternalToolError": "base class: exit code 3",
    "CorruptStream": "caught by type: a damaged payload never passes silently",
    "DegenerateCurve": "report tag: report.json's bd_table rows name the class",
    "NoOverlap": "report tag: report.json's bd_table rows name the class",
}


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _surface():
    """(definition -> (defining file, name), definition -> names whose loads use it).

    Methods and properties are keyed Class.name, and only attribute loads
    use them; a top-level definition is also used by a bare-name load.
    """
    defined, names, attrs = {}, set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if _public(node):
                defined[node.name] = (path.relative_to(SRC), node.name)
            if isinstance(node, ast.ClassDef):
                for member in filter(_public, node.body):
                    defined[f"{node.name}.{member.name}"] = (path.relative_to(SRC), member.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    used = {key: attrs if "." in key else names | attrs for key in defined}
    return defined, used


def test_every_public_definition_has_a_caller():
    defined, used = _surface()
    unused = sorted(
        f"{path}: {key}"
        for key, (path, name) in defined.items()
        if name not in used[key] and key not in ENTRY_POINTS
    )
    assert unused == []


def test_entry_points_are_defined_and_uncalled():
    # a listed name that gained a caller, or is gone, leaves the list
    defined, used = _surface()
    assert {n for n in ENTRY_POINTS if n in defined and n not in used[n]} == ENTRY_POINTS


def _data_free_errors() -> set[str]:
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def is_error(name):
        return name == "VcmError" or any(
            isinstance(b, ast.Name) and b.id in classes and is_error(b.id)
            for b in classes[name].bases
        )

    def carries_data(node):
        return any(isinstance(m, ast.FunctionDef) and m.name == "__init__" for m in node.body)

    return {name for name, node in classes.items()
            if name != "VcmError" and is_error(name) and not carries_data(node)}


def test_every_error_class_carries_data_or_is_listed():
    assert sorted(_data_free_errors() - DATA_FREE_ERRORS.keys()) == []


def test_listed_error_classes_exist_and_carry_no_data():
    # a listed class that is gone, or gained an __init__, leaves the list
    assert sorted(DATA_FREE_ERRORS.keys() - _data_free_errors()) == []


def _traced_boundaries(monkeypatch) -> list:
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # a name the tracer cannot find leaves its per-layer metrics out, and the
    # benchmark's own self-tests are not tier-1
    boundaries = _traced_boundaries(monkeypatch)
    assert boundaries
    missing = [(module, name) for module, name, *_ in boundaries
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    # the tracer's job attributes are the item, qp and scale of args[1:4]
    params = list(inspect.signature(experiment._process_item).parameters)
    assert params[:4] == ["manifest", "item", "qp", "scale"]


def test_every_entropy_call_passes_its_bytes_positionally():
    # the tracer's entropy.bytes_in is len(args[0]) of encode_bytes and decode_bytes
    calls = []
    for path in (SRC / "featurecodec" / "stream.py", SRC / "pipeline" / "codec.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("encode_bytes", "decode_bytes")):
                calls.append((path.name, node.func.id, node))
    assert {(file, name) for file, name, _ in calls} == {
        ("stream.py", "encode_bytes"), ("stream.py", "decode_bytes"), ("codec.py", "encode_bytes"),
    }
    by_keyword = [(file, name, node.lineno) for file, name, node in calls
                  if not node.args or isinstance(node.args[0], ast.Starred)]
    assert by_keyword == []
