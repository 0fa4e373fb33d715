"""Every function the benchmark's span tracer rebinds must exist.

``perfbench/tracer.py`` wraps functions by name, so a refactor that drops
or renames one of them breaks a traced benchmark run. The ``TRACED`` table
is read from the file as a literal, without importing or changing it.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_table() -> dict[str, list[str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_is_a_module_function():
    table = traced_table()
    assert table, "TRACED is empty"
    missing = []
    for module, names in table.items():
        home = importlib.import_module(f"edm_atlas.{module}")
        for name in names:
            fn = getattr(home, name, None)
            if not (inspect.isfunction(fn) and fn.__module__ == home.__name__):
                missing.append(f"edm_atlas.{module}.{name}")
    assert missing == []
