"""Package surface: every function and method in src has a caller.

A top-level function or class method of src/chromheap whose name appears
on no other src line, in no __all__ and in no tracer table of
benchmarks/child.py is reached by nothing but the tests. Such a name
moves into the tests, unless it is public API, listed below with its
reason. The scan matches whole words, so a name in a comment or a
docstring counts as a use, and it misses dead code named there.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chromheap"

ALLOWED = {
    "Heap.sink_count": "public statistic of an exported class, next to Heap.sinks",
    "QPoly.is_integral": "public predicate of an exported class, like is_nonnegative",
    "UnitIntervalOrder.blow_up": "public blow-up of an order by a type, the scaling law's side",
    "UnitIntervalOrder.dyck_path": "the Dyck path encoding, exported with DyckPath",
    "UnitIntervalOrder.from_dyck": "the Dyck path decoding, exported with DyckPath",
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
    lines = []  # (file, line number, text) of every src line
    defs = []  # (qualified name, name, file, line number)
    exported = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines += [(path, i, line) for i, line in enumerate(text.splitlines(), 1)]
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((node.name, node.name, path, node.lineno))
            elif isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{f.name}", f.name, path, f.lineno)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                ]
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= set(ast.literal_eval(node.value))
    skip = exported | _tracer_names()
    out = []
    for qualname, name, path, lineno in defs:
        if name.startswith("__") and name.endswith("__") or name in skip:
            continue  # called by the language, exported or traced
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(t) for p, i, t in lines if (p, i) != (path, lineno)):
            out.append(qualname)
    return sorted(out)


def test_every_src_name_has_a_caller_or_a_reason():
    assert _uncalled() == sorted(ALLOWED)
