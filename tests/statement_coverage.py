"""List the statements of the ``ccsynth`` package that the test suite never
runs, and the branches it only ever takes one way.

Run from the repository root (it takes a few minutes):

    PYTHONPATH=src python tests/statement_coverage.py

The script runs ``pytest tests`` in this process under ``sys.settrace``
and ``threading.settrace``, recording line arcs (a frame's previous
line event, or 0 on entry, to its next line event, or 0 on return) only
in frames whose code lies in the package.  A statement is an
``ast.stmt`` other than a definition, a class, an import or a
docstring; it ran when a line event fell on one of its own lines (for a
compound statement, the lines of its header).  Every statement that
never ran is printed as ``file:line: source``.

A branch is a statement-level ``if`` or ``while`` other than
``while True:``.  Its condition was true when an arc left its condition
lines for a line of its first body statement (the whole span of that
statement: a multi-line one may report its first line event on a later
line), and false when an arc left them for any other line.  Every
branch whose condition was never both is printed as
``file:line: source [never true]`` or ``[never false]``.

The exit status is 1 if a listed statement or branch is not in
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

# (file, first source line) of the statements and branches no in-process
# test can run: the broken-pipe branch of ``run_command`` (``test_cli``
# runs it in a subprocess), the body of ``main``, and the ``__main__``
# guard and the call under it.
EXEMPT = {
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"),
    ("cli.py", "sys.exit(run_command(sys.argv[1:]))"),
    ("cli.py", 'if __name__ == "__main__":'),
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


def branches(tree: ast.Module) -> list[tuple[int, range, range]]:
    """The first line of each ``if`` and ``while`` statement but
    ``while True:``, with its condition lines and the lines of its first
    body statement."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.While)):
            continue
        if isinstance(node.test, ast.Constant) and node.test.value is True:
            continue
        body = node.body[0]
        out.append(
            (
                node.lineno,
                range(node.lineno, node.test.end_lineno + 1),
                range(body.lineno, body.end_lineno + 1),
            )
        )
    return sorted(out, key=lambda b: b[0])


def one_way(arcs: set[tuple[int, int]], condition: range, body: range) -> str | None:
    """How a branch went only one way by the arcs of its file: "never
    true" (also when never reached) or "never false"; None if both."""
    targets = {b for a, b in arcs if a in condition and b not in condition}
    if not any(b in body for b in targets):
        return "never true"
    if all(b in body for b in targets):
        return "never false"
    return None


def main() -> int:
    package = Path(importlib.util.find_spec("ccsynth").origin).parent
    prefix = str(package) + "/"
    arcs: dict[str, set[tuple[int, int]]] = {}

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = arcs.setdefault(filename, set())
        prev = 0

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                seen.add((prev, frame.f_lineno))
                prev = frame.f_lineno
            elif event == "return":
                seen.add((prev, 0))
            return local

        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    partial = []
    total = total_branches = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        file_arcs = arcs.get(str(path), set())
        ran = {b for _, b in file_arcs}
        stmts = statements(tree)
        total += len(stmts)
        for first, span in stmts:
            if ran.isdisjoint(span):
                missed.append((path.name, first, lines[first - 1].strip()))
        ifs = branches(tree)
        total_branches += len(ifs)
        for first, condition, body in ifs:
            way = one_way(file_arcs, condition, body)
            if way:
                partial.append((path.name, first, lines[first - 1].strip(), way))
    for name, first, source in missed:
        print(f"{name}:{first}: {source}")
    for name, first, source, way in partial:
        print(f"{name}:{first}: {source} [{way}]")
    unexpected = [m for m in missed if (m[0], m[2]) not in EXEMPT]
    one_sided = [b for b in partial if (b[0], b[2]) not in EXEMPT]
    print(
        f"{total - len(missed)} of {total} statements ran; {len(missed)} missed, "
        f"{len(unexpected)} of them not exempt (pytest exit status {int(status)})"
    )
    print(
        f"{total_branches - len(partial)} of {total_branches} branches went both "
        f"ways; {len(partial)} did not, {len(one_sided)} of them not exempt"
    )
    return 1 if unexpected or one_sided else 0


if __name__ == "__main__":
    sys.exit(main())
