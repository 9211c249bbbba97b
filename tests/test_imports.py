"""Every name a ``ccsynth`` module imports is used there, every
parameter of a ``ccsynth`` function is read by it, every top-level
definition of the package is read outside its own definition, and
every public function of ``ccsynth.testkit`` has a caller outside the
tests, and every public function of ``ccsynth.automata`` but the
one-call constructor ``make_automaton`` has a caller in the package or
the benchmark.

The exceptions are the names ``perfbench/tracer.py`` wraps by looking
them up on that module (its ``WRAPPED`` table), which stay bound even
where the module itself no longer calls them.  ``__init__.py`` imports
to re-export and is not checked.  Test oracles live in
``tests/oracles.py``; ``testkit`` ships only what the CLI or the
benchmark runs, and ``automata`` no walk that only tests call.
"""

import ast
import importlib
from collections import Counter
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


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter its function never reads,
    in its own body or in a function nested there."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        nodes = (n for stmt in body for n in ast.walk(stmt))
        read = {n.id for n in nodes if isinstance(n, ast.Name)}
        name = getattr(fn, "name", "<lambda>")
        out += [f"{name}.{p}" for p in params if p not in read]
    return out


def test_unused_parameters_are_flagged():
    source = (
        "def f(a, b, *rest, c, **kw):\n"
        "    def inner():\n"
        "        return b\n"
        "    return a, inner, lambda x, y: y\n"
    )
    assert unused_parameters(source) == ["f.c", "f.rest", "f.kw", "<lambda>.x"]


def test_functions_read_every_parameter():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        unused = unused_parameters(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert found == {}


def names_read(tree: ast.AST) -> set[str]:
    """Names a syntax tree reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def names_used(path: Path) -> set[str]:
    """Names a source file reads, bare or as an attribute."""
    return names_read(ast.parse(path.read_text(encoding="utf-8")))


def defined_names(stmt: ast.stmt) -> list[str]:
    """The function, class or constant a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unread_definitions(package: Path, readers: list[Path]) -> list[str]:
    """``module.name`` for each top-level function, class or constant of
    ``package`` that no other top-level statement of the package reads,
    no file of ``readers`` reads and the package's ``__all__`` does not
    list.  Dunder names are not checked."""
    statements = [
        (path.stem, stmt)
        for path in sorted(package.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [names_read(stmt) for _, stmt in statements]
    # How many top-level statements read each name.
    readers_of = Counter(name for names in reads for name in names)
    outside = set().union(*map(names_used, readers))
    for _, stmt in statements:
        if defined_names(stmt) == ["__all__"]:
            outside |= set(ast.literal_eval(stmt.value))
    return [
        f"{module}.{name}"
        for (module, stmt), own in zip(statements, reads)
        for name in defined_names(stmt)
        if not name.startswith("__")
        and name not in outside
        and readers_of[name] == (name in own)
    ]


def test_unread_definitions_are_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text('__all__ = ["api"]\n')
    (tmp_path / "a.py").write_text(
        "CAP = 1\nLIMIT = 2\n"
        "def api(cap=CAP):\n    return api\n"
        "def _dead():\n    return _dead\n"
        "class Used:\n    pass\n"
    )
    reader = tmp_path / "reader.txt"
    reader.write_text("from a import Used\nUsed()\n")
    assert unread_definitions(tmp_path, [reader]) == ["a.LIMIT", "a._dead"]


def test_every_definition_is_read():
    readers = sorted((ROOT / "perfbench").glob("*.py"))
    assert unread_definitions(PACKAGE, readers) == []


def test_testkit_ships_only_what_the_cli_or_the_benchmark_calls():
    tree = ast.parse((PACKAGE / "testkit.py").read_text(encoding="utf-8"))
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    callers = [PACKAGE / "cli.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*map(names_used, callers))
    assert {"random_instance", "enumerate_subsupervisors"} <= public
    assert public - used == set()


def uncalled_functions(path: Path, callers: list[Path]) -> set[str]:
    """Public top-level functions of ``path`` that no other top-level
    statement of ``path`` and no file of ``callers`` reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set().union(*map(names_used, callers))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in used
        and not any(node.name in names_read(s) for s in tree.body if s is not node)
    }


def test_uncalled_functions_are_flagged(tmp_path):
    (tmp_path / "m.py").write_text(
        "def api():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def dead():\n    return dead\n"
        "def _private():\n    pass\n"
    )
    reader = tmp_path / "reader.txt"
    reader.write_text("from m import api\napi()\n")
    assert uncalled_functions(tmp_path / "m.py", [reader]) == {"dead"}


def test_automata_ships_only_what_the_package_or_the_benchmark_calls():
    # ``make_automaton`` is the one-call constructor for library users.
    others = ("__init__.py", "automata.py")
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in others]
    callers += sorted((ROOT / "perfbench").glob("*.py"))
    uncalled = uncalled_functions(PACKAGE / "automata.py", callers)
    assert uncalled - {"make_automaton"} == set()
