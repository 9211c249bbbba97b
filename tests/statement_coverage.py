"""List the statements of the ``ccsynth`` package that the test suite never runs.

Run from the repository root (it takes a few minutes):

    PYTHONPATH=src python tests/statement_coverage.py

The script runs ``pytest tests`` in this process under ``sys.settrace``
and ``threading.settrace``, recording line events only in frames whose
code lies in the package.  A statement is an ``ast.stmt`` other than a
definition, a class, an import or a docstring; it ran when a line event
fell on one of its own lines (for a compound statement, the lines of
its header).  Every statement that never ran is printed as
``file:line: source``.  The exit status is 1 if one of them is not in
``EXEMPT``, and 0 otherwise.  Apart from pytest it needs only the
standard library, not the coverage package.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

# (file, first source line) of the statements no in-process test can run:
# the broken-pipe branch of ``run_command`` (``test_cli`` runs it in a
# subprocess), the body of ``main`` and the call under the ``__main__``
# guard.
EXEMPT = {
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
    ("cli.py", "sys.exit(run_command(sys.argv[1:]))"),
    ("cli.py", "main()"),
}

SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(tree: ast.Module) -> list[tuple[int, range]]:
    """The first line of each statement, in source order, with the lines
    whose line events show it ran: a simple statement's own lines, a
    compound one's header lines (those before its first nested part)."""
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and is_docstring(node.body[0])
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if id(node) in docstrings:
            continue
        nested = [
            child.lineno
            for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.stmt, ast.excepthandler))
        ]
        last = min(nested) - 1 if nested else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(out, key=lambda s: s[0])


def main() -> int:
    package = Path(importlib.util.find_spec("ccsynth").origin).parent
    prefix = str(package) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename.startswith(prefix):
            hits.setdefault(filename, set())
            return local
        return None

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        stmts = statements(ast.parse(source))
        total += len(stmts)
        for first, span in stmts:
            if ran.isdisjoint(span):
                missed.append((path.name, first, lines[first - 1].strip()))
    for name, first, source in missed:
        print(f"{name}:{first}: {source}")
    unexpected = [m for m in missed if (m[0], m[2]) not in EXEMPT]
    print(
        f"{total - len(missed)} of {total} statements ran; {len(missed)} missed, "
        f"{len(unexpected)} of them not exempt (pytest exit status {int(status)})"
    )
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
