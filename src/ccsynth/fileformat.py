"""Line-oriented automaton files and DOT export.

Format (whitespace separated, ``#`` starts a comment):

    event <name> [uncontrollable] [required]
    state <name> [initial]
    trans <src> <event> <dst>

One automaton per file; events and states must be declared before a
``trans`` line uses them.  Serialization is canonical: events and states
in declaration order, transitions sorted; parsing a serialized automaton
reproduces it exactly.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path

from .automata import Alphabet, Automaton, validate_automaton
from .errors import ParseError


def _tokenize(line: str) -> list[tuple[int, str]]:
    """(1-based column, token) pairs, comment stripped."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    out = []
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        j = i
        while j < len(line) and not line[j].isspace():
            j += 1
        out.append((i + 1, line[i:j]))
        i = j
    return out


def parse_automaton(text: str) -> Automaton:
    events: list[str] = []
    uncontrollable: set[str] = set()
    required: set[str] = set()
    states: list[str] = []
    initial: list[str] = []
    transitions: list[tuple[str, str, str]] = []
    seen_events: set[str] = set()
    seen_states: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        col0, head = tokens[0]
        args = tokens[1:]
        if head == "event":
            if not args:
                raise ParseError(lineno, col0, "event directive needs a name")
            coln, name = args[0]
            if name in seen_events:
                raise ParseError(lineno, coln, f"event {name!r} declared twice")
            seen_events.add(name)
            events.append(name)
            for colx, attr in args[1:]:
                if attr == "uncontrollable":
                    uncontrollable.add(name)
                elif attr == "required":
                    required.add(name)
                else:
                    raise ParseError(lineno, colx, f"unknown event attribute {attr!r}")
        elif head == "state":
            if not args:
                raise ParseError(lineno, col0, "state directive needs a name")
            coln, name = args[0]
            if name in seen_states:
                raise ParseError(lineno, coln, f"state {name!r} declared twice")
            seen_states.add(name)
            states.append(name)
            for colx, attr in args[1:]:
                if attr == "initial":
                    initial.append(name)
                else:
                    raise ParseError(lineno, colx, f"unknown state attribute {attr!r}")
        elif head == "trans":
            if len(args) != 3:
                raise ParseError(
                    lineno, col0, "trans directive needs source, event and target"
                )
            (csrc, src), (cev, ev), (cdst, dst) = args
            if src not in seen_states:
                raise ParseError(lineno, csrc, f"unknown state {src!r}")
            if ev not in seen_events:
                raise ParseError(lineno, cev, f"unknown event {ev!r}")
            if dst not in seen_states:
                raise ParseError(lineno, cdst, f"unknown state {dst!r}")
            transitions.append((src, ev, dst))
        else:
            raise ParseError(lineno, col0, f"unknown directive {head!r}")

    last = text.count("\n") + 1
    if not initial:
        raise ParseError(last, 1, "no initial state declared")
    a = Automaton(
        alphabet=Alphabet(tuple(events), frozenset(uncontrollable), frozenset(required)),
        states=tuple(states),
        transitions=tuple(transitions),
        initial=tuple(initial),
    )
    validate_automaton(a)
    return a


# Lines joined per write in ``save_automaton``: few enough to keep the
# text of a large automaton out of memory, enough to keep writes few.
_LINES_PER_WRITE = 1024


def _serialized_lines(a: Automaton):
    """The lines of ``serialize_automaton(a)``, newline included."""
    if not (a.alphabet.events or a.states):
        yield "\n"
        return
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
    for src, ev, dst in a.transitions:
        yield f"trans {src} {ev} {dst}\n"


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
    return parse_automaton(Path(path).read_text(encoding="utf-8"))


def save_automaton(a: Automaton, path: str | Path) -> None:
    """Write ``serialize_automaton(a)`` in chunks of lines, never as one string."""
    lines = _serialized_lines(a)
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := "".join(islice(lines, _LINES_PER_WRITE)):
            fh.write(chunk)
