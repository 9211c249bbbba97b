"""Line-oriented automaton files and DOT export.

Format (whitespace separated, ``#`` starts a comment):

    event <name> [uncontrollable] [required]
    state <name> [initial]
    trans <src> <event> <dst>

One automaton per file; events and states must be declared before a
``trans`` line uses them.  Serialization is canonical: events and states
in declaration order, transitions sorted; parsing a serialized automaton
reproduces it exactly: ``Automaton`` refuses a name that is not one
token at construction.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path

from .automata import Alphabet, Automaton, successor_entry
from .errors import ParseError


def _error(lineno: int, line: str, index: int, message: str) -> ParseError:
    """``message`` located at token ``index`` of ``line`` (1-based column)."""
    i = 0
    for _ in range(index + 1):
        while line[i].isspace():
            i += 1
        start = i
        while i < len(line) and not line[i].isspace():
            i += 1
    return ParseError(lineno, start + 1, message)


def parse_automaton(text: str) -> Automaton:
    """Read one automaton, mapping names to indices as lines are read.

    ``trans`` lines fill the successor table directly, so the result is
    built by ``Automaton.from_table`` with no named transition stored;
    each entry is sorted and its duplicates dropped, as the named
    constructor would.
    """
    events: list[str] = []
    uncontrollable: set[str] = set()
    required: set[str] = set()
    states: list[str] = []
    initial: list[str] = []
    event_index: dict[str, int] = {}
    state_index: dict[str, int] = {}
    # table[event][state]: target indices in file order
    table: list[list[list[int]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # ``str.split()`` breaks at exactly the characters ``isspace``
        # accepts, so ``_error`` recovers the columns it drops.
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "trans":
            if len(tokens) != 4:
                raise _error(
                    lineno, raw, 0, "trans directive needs source, event and target"
                )
            _, src, ev, dst = tokens
            si = state_index.get(src)
            if si is None:
                raise _error(lineno, raw, 1, f"unknown state {src!r}")
            k = event_index.get(ev)
            if k is None:
                raise _error(lineno, raw, 2, f"unknown event {ev!r}")
            di = state_index.get(dst)
            if di is None:
                raise _error(lineno, raw, 3, f"unknown state {dst!r}")
            table[k][si].append(di)
        elif head == "event":
            if len(tokens) < 2:
                raise _error(lineno, raw, 0, "event directive needs a name")
            name = tokens[1]
            if name in event_index:
                raise _error(lineno, raw, 1, f"event {name!r} declared twice")
            event_index[name] = len(events)
            events.append(name)
            table.append([[] for _ in states])
            for i in range(2, len(tokens)):
                attr = tokens[i]
                if attr == "uncontrollable":
                    uncontrollable.add(name)
                elif attr == "required":
                    required.add(name)
                else:
                    raise _error(lineno, raw, i, f"unknown event attribute {attr!r}")
        elif head == "state":
            if len(tokens) < 2:
                raise _error(lineno, raw, 0, "state directive needs a name")
            name = tokens[1]
            if name in state_index:
                raise _error(lineno, raw, 1, f"state {name!r} declared twice")
            state_index[name] = len(states)
            states.append(name)
            for row in table:
                row.append([])
            for i in range(2, len(tokens)):
                attr = tokens[i]
                if attr == "initial":
                    initial.append(name)
                else:
                    raise _error(lineno, raw, i, f"unknown state attribute {attr!r}")
        else:
            raise _error(lineno, raw, 0, f"unknown directive {head!r}")

    last = text.count("\n") + 1
    if not initial:
        raise ParseError(last, 1, "no initial state declared")
    return Automaton.from_table(
        Alphabet(tuple(events), frozenset(uncontrollable), frozenset(required)),
        states,
        [list(map(successor_entry, row)) for row in table],
        initial,
    )


# Lines joined per write in ``save_automaton``: few enough to keep the
# text of a large automaton out of memory, enough to keep writes few.
_LINES_PER_WRITE = 1024


def _serialized_lines(a: Automaton):
    """The lines of ``serialize_automaton(a)``, newline included."""
    for ev in a.alphabet.events:
        attrs = ""
        if ev in a.alphabet.uncontrollable:
            attrs += " uncontrollable"
        if ev in a.alphabet.required:
            attrs += " required"
        yield f"event {ev}{attrs}\n"
    initial = set(a.initial)
    for s in a.states:
        yield f"state {s} initial\n" if s in initial else f"state {s}\n"
    # The successor table, walked in the order of ``a.transitions``
    # without building a triple per edge.
    states = a.states
    for src, rows in zip(states, zip(*a.successor_table)):
        for ev, targets in zip(a.alphabet.events, rows):
            for j in targets:
                yield f"trans {src} {ev} {states[j]}\n"


def serialize_automaton(a: Automaton) -> str:
    return "".join(_serialized_lines(a))


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(a: Automaton) -> str:
    """GraphViz rendering: initial states doubled, uncontrollable edges dashed."""
    lines = ["digraph automaton {", "  rankdir=LR;"]
    initial = set(a.initial)
    for s in a.states:
        shape = "doublecircle" if s in initial else "circle"
        lines.append(f"  {_quote(s)} [shape={shape}];")
    for src, ev, dst in a.transitions:
        style = ' style=dashed' if ev in a.alphabet.uncontrollable else ""
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(ev)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_automaton(path: str | Path) -> Automaton:
    """Parse the file at ``path``; a UTF-8 byte-order mark is skipped."""
    return parse_automaton(Path(path).read_text(encoding="utf-8-sig"))


def save_automaton(a: Automaton, path: str | Path) -> None:
    """Write ``serialize_automaton(a)`` in chunks of lines, never as one string."""
    lines = _serialized_lines(a)
    chunk = "".join(islice(lines, _LINES_PER_WRITE))
    with open(path, "w", encoding="utf-8") as fh:
        while chunk:
            fh.write(chunk)
            chunk = "".join(islice(lines, _LINES_PER_WRITE))
