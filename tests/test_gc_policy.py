"""The library never changes the process-wide garbage collector.

repro runs inside other programs (notebooks, the job server's workers,
policy-training loops), so a collector setting made here would change
theirs.  Cutting collector cost is done by allocating fewer long-lived
objects per round, not by tuning ``gc``.  Read-only queries such as
``gc.get_stats`` stay allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = {"disable", "freeze", "set_threshold"}


def gc_calls(path):
    """``(line, name)`` of every forbidden ``gc`` function a module uses,
    however it was imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module_names = {"gc"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gc":
                    module_names.add(alias.asname or "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            for alias in node.names:
                if alias.name in FORBIDDEN or alias.name == "*":
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORBIDDEN
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
        ):
            found.append((node.lineno, node.attr))
    return found


def test_no_module_tunes_the_collector():
    offenders = {
        str(path.relative_to(SRC)): calls
        for path in sorted(SRC.rglob("*.py"))
        if (calls := gc_calls(path))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import gc\ngc.disable()\n", [(2, "disable")]),
        ("import gc as collector\ncollector.freeze()\n", [(2, "freeze")]),
        ("from gc import set_threshold\n", [(1, "set_threshold")]),
        ("import gc\nstats = gc.get_stats()\n", []),
    ],
)
def test_the_guard_sees_every_import_form(tmp_path, source, expected):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert gc_calls(path) == expected
