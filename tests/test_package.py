"""Package surface: every function and method in src has a caller.

A top-level function or class method of src/chromheap whose name is
read by no src code, in no __all__ and in no tracer table of
benchmarks/child.py is reached by nothing but the tests. Such a name
moves into the tests, unless it is public API, listed below with its
reason. Uses are read off the src syntax trees: a function is used
where a Name or an Attribute node reads it, a method only where an
Attribute node does (a local variable of the same name is no call), and
an attribute of an imported module (json.dump) is no use of a method of
the same name. So a name that only a comment or a docstring mentions
counts as unused.

The value records are namedtuple subclasses, so no src class writes
its own freezing or pickling (__setattr__, __delattr__, __reduce__).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chromheap"

ALLOWED = {
    "Heap.sink_count": "public statistic of an exported class, next to Heap.sinks",
    "QPoly.is_integral": "public predicate of an exported class, like is_nonnegative",
    "UnitIntervalOrder.blow_up": "public blow-up of an order by a type, the scaling law's side",
    "UnitIntervalOrder.dyck_path": "the Dyck path encoding, exported with DyckPath",
    "UnitIntervalOrder.from_dyck": "the Dyck path decoding, exported with DyckPath",
    "_Parser.error": "argparse's hook, which ArgumentParser.parse_args calls on a usage error",
}


def _tracer_names() -> set:
    """The attribute names wrapped by the SPANS, YIELDS and CALLS tables
    of benchmarks/child.py, read without importing it."""
    tree = ast.parse((ROOT / "benchmarks" / "child.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "YIELDS", "CALLS") for t in node.targets
        ):
            names |= {entry[1].split(".")[-1] for entry in ast.literal_eval(node.value)}
    return names


def _uncalled() -> list:
    defs = []  # (qualified name, name, whether a method)
    names, attrs = set(), set()  # read as a variable, as an attribute
    exported = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node.name, False))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{f.name}", f.name, True)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
        modules = {  # names bound by import statements: json.dump is no use of a dump
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for a in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id in modules
            ):
                attrs.add(node.attr)
    skip = exported | _tracer_names()
    return sorted(
        qualname
        for qualname, name, method in defs
        if name not in attrs | (set() if method else names)
        and name not in skip  # exported or traced
        and not (name.startswith("__") and name.endswith("__"))  # called by the language
    )


def test_every_src_name_has_a_caller_or_a_reason():
    assert _uncalled() == sorted(ALLOWED)


def test_no_src_class_hand_writes_freezing_or_pickling():
    hand_written = [
        f"{path.stem}.{node.name}.{f.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef)
        and f.name in ("__setattr__", "__delattr__", "__reduce__")
    ]
    assert hand_written == []


def test_every_export_resolves_on_first_access():
    """chromheap imports each export from its module on first access, so
    every name of __all__ must resolve, be listed by dir() and be bound
    by import *, and any other name must raise AttributeError."""
    import chromheap

    for name in chromheap.__all__:
        value = getattr(chromheap, name)
        assert getattr(value, "__name__", name) == name, name
    assert set(chromheap.__all__) <= set(dir(chromheap))
    namespace = {}
    exec("from chromheap import *", namespace)
    assert set(chromheap.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(chromheap, name) for name in chromheap.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        chromheap.no_such_name
