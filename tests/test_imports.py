"""Every name a ``ccsynth`` module imports is used there.

The exceptions are the names ``perfbench/tracer.py`` wraps by looking
them up on that module (its ``WRAPPED`` table), which stay bound even
where the module itself no longer calls them.  ``__init__.py`` imports
to re-export and is not checked.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ccsynth"


def tracer_wrapped() -> dict[str, set[str]]:
    """``WRAPPED`` of the tracer, read from its source: module -> names."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPPED"]:
            return {
                key.id: {ast.literal_eval(v) for v in value.elts}
                for key, value in zip(node.value.keys, node.value.values)
            }
    raise AssertionError("perfbench/tracer.py defines no WRAPPED table")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_flagged():
    source = "from .synthesis import PairSetFamily, synthesize\nsynthesize()\n"
    assert unused_imports(source) == ["PairSetFamily"]


def test_tracer_finds_every_name_it_wraps():
    for module, names in tracer_wrapped().items():
        mod = importlib.import_module(f"ccsynth.{module}")
        assert [n for n in sorted(names) if not callable(getattr(mod, n, None))] == []


def test_modules_import_only_what_they_use_or_the_tracer_wraps():
    wrapped = tracer_wrapped()
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text(encoding="utf-8"))
        extra = [n for n in unused if n not in wrapped.get(path.stem, ())]
        if extra:
            found[path.name] = extra
    assert found == {}
