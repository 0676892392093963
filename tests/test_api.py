"""No public API that only tests use.

Every public function, class and method defined at the top level of a
module under ``src/eesampler`` must be referenced by name, as a variable or
an attribute, in ``src/``, ``demos/`` or ``bench/``. Imports and strings do
not count: a re-export is not a use, and the bench tracer names its targets
as strings. The scan is by name alone: a def counts as used when any def of
its name is.

The same holds for parameters: every parameter with a default, of a public
function, method or ``__init__`` (a dataclass's generated one included),
must be passed, by keyword or by position, by some call in that program
code. A call of a class passes the parameters of its ``__init__``, and
``self`` (or ``cls``) is not counted but for a static method. A def whose
name appears in program code other than as a call's callee (an alias such
as ``step = kernels.mh_step``) counts as passing every parameter. A
``field(init=False)`` of a dataclass is no parameter.
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

# the only defaulted parameters that no program code passes, each with why
# it stays
ALLOWED_PARAMETERS = {}


def public_defs():
    """(module.qualified name, bare name) of every top-level public function
    and class, and of every public method of such a class."""
    for qualified, name, _ in _defs():
        if not name.startswith("_"):
            yield qualified, name


def _defs():
    """(module.qualified name, bare name, node) of every top-level function
    and class whose name is public, and of every method of such a class."""
    for path in sorted((ROOT / "src" / "eesampler").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, item


def _program_trees():
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield ast.parse(path.read_text())


def referenced_names():
    """Every variable and attribute name read or written in program code."""
    names = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _keyword(call, name):
    """The value of keyword `name` in `call`, or None."""
    return next((kw.value for kw in call.keywords if kw.arg == name), None)


def _dataclass_fields(node):
    """(field, position) of each defaulted field of a ``@dataclass`` class:
    a parameter of its generated ``__init__``, at its place among the
    fields that ``__init__`` takes. A ``field(init=False)`` is none."""
    if not any(_name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
               for dec in node.decorator_list):
        return
    position = 0
    for item in node.body:
        if not isinstance(item, ast.AnnAssign):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            init = _keyword(value, "init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = any(_keyword(value, k) for k in ("default", "default_factory"))
        else:
            defaulted = value is not None
        if defaulted:
            yield item.target.id, position
        position += 1


def defaulted_parameters():
    """(module.qualified def, parameter, bare def name, position) of every
    parameter with a default of a public function, method or ``__init__``,
    generated ``__init__``s of dataclasses included; position is None for a
    keyword-only parameter. The def of a class's ``__init__`` is named by
    its class."""
    for qualified, name, node in _defs():
        if isinstance(node, ast.ClassDef):
            for parameter, position in _dataclass_fields(node):
                yield qualified, parameter, name, position
            continue
        owner, _, method = qualified.rpartition(".")
        if method == "__init__":
            qualified, name = owner, owner.rpartition(".")[2]
        elif name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        is_method = qualified.count(".") == 2 or method == "__init__"
        static = any(_name(dec) == "staticmethod" for dec in node.decorator_list)
        skip = int(is_method and not static)
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield qualified, arg.arg, name, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, arg.arg, name, None


def passed_parameters():
    """The parameters program code passes, as (callee name, keyword) and
    (callee name, position) pairs, and the names it uses other than as a
    call's callee, which pass every parameter of their defs."""
    passed, aliased = set(), set()
    for tree in _program_trees():
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _name(node.func) is None:
                continue
            name = _name(node.func)
            callees.add(id(node.func))
            passed.update((name, i) for i in range(len(node.args)))
            passed.update((name, kw.arg) for kw in node.keywords)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                aliased.add(_name(node))
    return passed, aliased


def test_every_public_def_is_used_outside_the_tests():
    names = referenced_names()
    unused = sorted(qualified for qualified, name in public_defs() if name not in names)
    only_tests = [qualified for qualified in unused if qualified not in ALLOWED]
    assert not only_tests, f"public defs that only tests reach: {only_tests}"
    # an allowed def that is gone, or is used now, leaves the list
    assert unused == sorted(ALLOWED), f"stale allow-list entries: {set(ALLOWED) - set(unused)}"


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    passed, aliased = passed_parameters()
    unpassed = sorted(
        f"{qualified}({parameter})"
        for qualified, parameter, name, position in defaulted_parameters()
        if name not in aliased and not {(name, parameter), (name, position)} & passed
    )
    only_tests = [p for p in unpassed if p not in ALLOWED_PARAMETERS]
    assert not only_tests, f"defaulted parameters that only tests pass: {only_tests}"
    assert unpassed == sorted(ALLOWED_PARAMETERS), (
        f"stale allow-list entries: {set(ALLOWED_PARAMETERS) - set(unpassed)}"
    )
