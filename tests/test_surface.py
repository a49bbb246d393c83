"""Every name the package defines has a caller inside the package, every
record field is read in it, and every name a module imports is read in it.
Input errors are raised only where a file or flag value enters.

A function, class or method that only tests reach is dead surface: its
last src/ caller went, and the tests that still call it keep it alive.
Private module-level helpers count too; only dunder names are exempt.
A dataclass or NamedTuple field that src/ never reads is carried for
nothing the same way, and so is an import that nothing reads, left over
from a deleted caller. These checks fail the suite when one is left behind.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import protprompt
from protprompt.errors import ConfigError, DataError

# public names with no src/ caller, each with why it stays
UNCALLED = {
    "numerics.add": "perfbench/test_perfbench.py:57 asserts that the tracer wraps it",
}

# record fields with no attribute read in src/, each with why it stays
UNREAD = {}

# modules that only ever see values a reader, argparse or RunConfig.validate
# has checked
BELOW_THE_GATES = ("metrics", "model", "numerics", "objectives")
# their functions that raise a ConfigError or DataError, each with why
INPUT_ERROR_RAISERS = {}


def _modules():
    """(short name, module, parsed source) of every package module."""
    for info in pkgutil.iter_modules(protprompt.__path__):
        mod = importlib.import_module(f"protprompt.{info.name}")
        yield info.name, mod, ast.parse(inspect.getsource(mod))


def _own_classes(mod):
    return [(name, obj) for name, obj in vars(mod).items()
            if inspect.isclass(obj) and obj.__module__ == mod.__name__]


def _references(short: str, tree: ast.Module) -> set[str]:
    """'module.name' for every read of a package module's name in tree.

    A bare name counts in its own module, outside its own top-level
    definition, and in a module that imports it by `from .module import`;
    an attribute counts on a name bound by `from . import module`.
    """
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = f"{node.module}.{alias.name}"
    refs = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                refs.add(imported.get(node.id, f"{short}.{node.id}"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                refs.add(f"{modules[node.value.id]}.{node.attr}")
    return refs


def test_every_public_src_name_has_a_src_caller():
    # a module-level function or class, private ones included, needs a
    # reference outside its own definition; a public method needs an
    # attribute read of its name anywhere in src/, since the type behind an
    # attribute is unknown
    defined, methods, refs, attrs = set(), {}, set(), set()
    for short, mod, tree in _modules():
        refs |= _references(short, tree)
        attrs.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
        for name, obj in vars(mod).items():
            if name.startswith("__") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                defined.add(f"{short}.{name}")
        for name, cls in _own_classes(mod):
            methods.update(
                (f"{short}.{name}.{attr}", attr) for attr, raw in vars(cls).items()
                if not attr.startswith("_") and (inspect.isfunction(raw) or isinstance(
                    raw, (classmethod, staticmethod, property))))
    dead = (defined - refs) | {full for full, attr in methods.items() if attr not in attrs}
    assert sorted(dead) == sorted(UNCALLED)


def test_every_record_field_is_read_in_src():
    # a dataclass or NamedTuple field needs an attribute read (not a write)
    # of its name anywhere in src/, the rule methods follow. A read on the
    # bare name args does not count: argparse destinations are named after
    # config keys and record fields, so such a read would hide a field.
    fields, reads = {}, set()
    for short, mod, tree in _modules():
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                     and not (isinstance(node.value, ast.Name) and node.value.id == "args"))
        for name, cls in _own_classes(mod):
            if dataclasses.is_dataclass(cls):
                names = [f.name for f in dataclasses.fields(cls)]
            else:  # a NamedTuple's fields; () for any other class
                names = getattr(cls, "_fields", ()) if issubclass(cls, tuple) else ()
            fields.update((f"{short}.{name}.{field}", field) for field in names)
    unread = {full for full, field in fields.items() if field not in reads}
    assert sorted(unread) == sorted(UNREAD)


def test_every_src_import_is_read():
    # a module-level import binds names (`import a.b` binds a); each must be
    # read as a name somewhere in its module. __future__ imports bind none.
    unread = []
    for path in sorted(Path(protprompt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in sorted(bound - read)]
    assert unread == []


def _raised_names(node, scope: str):
    """(scope.qualname of the enclosing def, raised name) of each raise of
    a bare or module-qualified name, called or not, under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raised_names(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name):
                yield scope, (exc.id,)
            elif isinstance(exc, ast.Attribute) and isinstance(exc.value, ast.Name):
                yield scope, (exc.value.id, exc.attr)
        yield from _raised_names(child, scope)


def test_only_gates_raise_input_errors():
    # a file or flag value is checked once, where it enters; below the
    # readers only contract, shape and numerics errors are raised
    raisers = set()
    for short, mod, tree in _modules():
        if short not in BELOW_THE_GATES:
            continue
        for scope, path in _raised_names(tree, short):
            exc = mod
            for part in path:
                exc = getattr(exc, part, None)
            if inspect.isclass(exc) and issubclass(exc, (ConfigError, DataError)):
                raisers.add(scope)
    assert sorted(raisers) == sorted(INPUT_ERROR_RAISERS)
