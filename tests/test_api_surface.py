"""Every public top-level def or class in src/vcmbench, and every public
method or property of a top-level class, has a caller in src/.

A name counts as used where some module under src/ loads it: as a bare
name or as an attribute. Imports are not uses, so a re-export from a
package __init__ keeps nothing alive. The few entry points that only the
acceptance suite calls are listed in ENTRY_POINTS.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vcmbench"

# Library calls that the acceptance criteria exercise and no command makes.
ENTRY_POINTS = {
    "raw_size_bits",  # criterion 4: 32/8/2-bit size ratios
    "pack_multiscale",  # criterion 6: multiscale packing is a bijection
}


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _surface():
    """(public definition -> (defining file, name), names loaded anywhere).

    Methods and properties are keyed Class.name; any load of the bare
    name counts as their use.
    """
    defined, used = {}, set()
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
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_public_definition_has_a_caller():
    defined, used = _surface()
    unused = sorted(
        f"{path}: {key}"
        for key, (path, name) in defined.items()
        if name not in used and key not in ENTRY_POINTS
    )
    assert unused == []


def test_entry_points_are_defined_and_uncalled():
    # a listed name that gained a caller, or is gone, leaves the list
    defined, used = _surface()
    assert {n for n in ENTRY_POINTS if n in defined and n not in used} == ENTRY_POINTS
