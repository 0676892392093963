"""No public API that only tests use.

Every public function, class and method defined at the top level of a
module under ``src/eesampler`` must be referenced by name, as a variable or
an attribute, in ``src/``, ``demos/`` or ``bench/``. Imports and strings do
not count: a re-export is not a use, and the bench tracer names its targets
as strings. The scan is by name alone: a def counts as used when any def of
its name is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the only public defs that no program code calls, each with why it stays
ALLOWED = {
    "state_space.DensityLadder.log_density":
        "counted by the bench's state_space.log_density_per_step; the moves "
        "call log_densities",
}


def public_defs():
    """(module.qualified name, bare name) of every top-level public function
    and class, and of every public method of such a class."""
    for path in sorted((ROOT / "src" / "eesampler").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def referenced_names():
    """Every variable and attribute name read or written in program code."""
    names = set()
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_def_is_used_outside_the_tests():
    names = referenced_names()
    unused = sorted(qualified for qualified, name in public_defs() if name not in names)
    only_tests = [qualified for qualified in unused if qualified not in ALLOWED]
    assert not only_tests, f"public defs that only tests reach: {only_tests}"
    # an allowed def that is gone, or is used now, leaves the list
    assert unused == sorted(ALLOWED), f"stale allow-list entries: {set(ALLOWED) - set(unused)}"
