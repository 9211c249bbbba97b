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


# Each declaring directive and its attributes, in written order; an attribute
# is named after the field that holds its names (``Alphabet``, ``Automaton``).
DECLARATIONS = {"event": ("uncontrollable", "required"), "state": ("initial",)}


def parse_automaton(text: str) -> Automaton:
    """Read one automaton, mapping names to indices as lines are read.

    ``trans`` lines fill the successor table directly, so the result is
    built by ``Automaton.from_table`` with no named transition stored;
    each entry is sorted and its duplicates dropped, as the named
    constructor would.
    """
    index: dict[str, dict[str, int]] = {head: {} for head in DECLARATIONS}
    marked: dict[str, dict[str, list[str]]] = {head: {} for head in DECLARATIONS}
    event_index, state_index = index["event"], index["state"]
    table: list[list[list[int]]] = []  # [event][state]: targets in file order

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
            continue
        declared = index.get(head)
        if declared is None:
            raise _error(lineno, raw, 0, f"unknown directive {head!r}")
        if len(tokens) < 2:
            raise _error(lineno, raw, 0, f"{head} directive needs a name")
        name = tokens[1]
        if name in declared:
            raise _error(lineno, raw, 1, f"{head} {name!r} declared twice")
        declared[name] = len(declared)
        if declared is event_index:
            table.append([[] for _ in state_index])
        else:
            for row in table:
                row.append([])
        for i in range(2, len(tokens)):
            if tokens[i] not in DECLARATIONS[head]:
                raise _error(lineno, raw, i, f"unknown {head} attribute {tokens[i]!r}")
            marked[head].setdefault(tokens[i], []).append(name)

    if not marked["state"]:
        # One past the last line, counted as the loop above counts lines.
        last = len((text + "\0").splitlines())
        raise ParseError(last, 1, "no initial state declared")
    alphabet = Alphabet(tuple(event_index), **marked["event"])
    rows = [list(map(successor_entry, row)) for row in table]
    return Automaton.from_table(alphabet, state_index, rows, **marked["state"])


# Lines joined per write in ``save_automaton``: few enough to keep the
# text of a large automaton out of memory, enough to keep writes few.
_LINES_PER_WRITE = 1024


def _serialized_lines(a: Automaton):
    """The lines of ``serialize_automaton(a)``, newline included."""
    owners = {"event": (a.alphabet, a.alphabet.events), "state": (a, a.states)}
    for head, (owner, names) in owners.items():
        marks = [(f" {attr}", set(getattr(owner, attr))) for attr in DECLARATIONS[head]]
        for name in names:
            yield f"{head} {name}{''.join([m for m, has in marks if name in has])}\n"
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
    """Parse the UTF-8 file at ``path``, skipping a byte-order mark."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lines = (exc.object[: exc.start].decode() + "\0").splitlines()
        bad = f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
        raise ParseError(len(lines), len(lines[-1]), bad) from None
    return parse_automaton(text)


def save_automaton(a: Automaton, path: str | Path) -> None:
    """Write ``serialize_automaton(a)`` in chunks of lines, never as one string."""
    lines = _serialized_lines(a)
    chunk = "".join(islice(lines, _LINES_PER_WRITE))
    with open(path, "w", encoding="utf-8") as fh:
        while chunk:
            fh.write(chunk)
            chunk = "".join(islice(lines, _LINES_PER_WRITE))
