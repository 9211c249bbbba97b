"""Core automaton model: alphabets, successor tables, synchronous products.

All values are immutable after construction; every operation is a pure
function returning fresh values, so instances are safe to share freely.
State ids are opaque strings; dense integer indices are assigned in
declaration order, which fixes every iteration order in the package and
makes all derived outputs deterministic.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    AlphabetMismatch,
    DuplicateStateId,
    EmptyInitialSet,
    UnknownEvent,
    UnknownState,
    ValidationError,
)

Transition = tuple[str, str, str]
_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", ":": "\\:"})


class ProductState(NamedTuple):
    """Component pair behind a synchronous-product state."""

    left: str
    right: str


@dataclass(frozen=True)
class Alphabet:
    """Finite event set partitioned into controllable and uncontrollable
    events, with a distinguished subset of required events.

    ``controllable`` is derived: it is exactly ``events`` minus
    ``uncontrollable``, so the two always partition the alphabet.
    """

    events: tuple[str, ...]
    uncontrollable: frozenset[str] = frozenset()
    required: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "uncontrollable", frozenset(self.uncontrollable))
        object.__setattr__(self, "required", frozenset(self.required))
        require_tokens("event", self.events)
        seen = set()
        for name in self.events:
            if name in seen:
                raise ValidationError(f"duplicate event name {name!r}")
            seen.add(name)
        for name in self.uncontrollable - seen:
            raise UnknownEvent(f"uncontrollable event {name!r} not in alphabet")
        for name in self.required - seen:
            raise UnknownEvent(f"required event {name!r} not in alphabet")

    @property
    def controllable(self) -> frozenset[str]:
        return frozenset(self.events) - self.uncontrollable

    @cached_property
    def _event_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.events)}


SuccessorTable = tuple[tuple[tuple[int, ...], ...], ...]


class Transitions(Sequence):
    """Read-only (source, event, target) view of a successor table.

    ``table[event][state]`` holds ascending target state indices.  The
    view iterates in the automaton's normal form, sorted by (source,
    event, target) index, names each triple only as it is read, and is
    equal to, and hashes like, the tuple of those triples.  Its length
    is counted once, when first asked for.  Indexing builds that tuple,
    O(E) per call; the package itself only iterates.
    """

    def __init__(self, states: tuple[str, ...], events: tuple[str, ...], table):
        self.states, self.events = states, events
        self.table: SuccessorTable = tuple(map(tuple, table))

    @cached_property
    def _len(self) -> int:
        return sum(len(targets) for row in self.table for targets in row)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        states, events = self.states, self.events
        for src, rows in zip(states, zip(*self.table)):
            for ev, targets in zip(events, rows):
                for j in targets:
                    yield src, ev, states[j]

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Transitions) and (self.states, self.events) == (
            other.states,
            other.events,
        ):
            return self.table == other.table
        if isinstance(other, (tuple, Transitions)):
            return self._len == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(self))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Automaton:
    """Nondeterministic automaton: states, labeled transitions and a
    nonempty set of initial states.

    Every automaton stores its integer successor table, and
    ``transitions`` is the ``Transitions`` view of it: the sorted,
    duplicate-free tuple of named triples, so two automata describing
    the same structure compare equal regardless of the order in which
    transitions were supplied.  Named triples are converted once, at
    construction; a view over the same states and events is kept as
    given, and ``from_table`` builds the view directly.  Construction
    runs ``validate_automaton``, so an automaton that exists is valid.
    ``state_index`` maps each state to its declaration index.
    ``pair_of`` carries component information on synchronous products
    and never takes part in equality.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: Sequence[Transition]
    initial: tuple[str, ...]
    pair_of: Mapping[str, ProductState] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        states = tuple(self.states)
        sidx = {s: i for i, s in enumerate(states)}
        big = len(sidx)
        init = sorted(set(self.initial), key=lambda s: (sidx.get(s, big), s))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "initial", tuple(init))
        object.__setattr__(self, "state_index", sidx)
        trans = self.transitions
        if not (
            isinstance(trans, Transitions)
            and trans.states == states
            and trans.events == self.alphabet.events
        ):
            trans = Transitions(states, self.alphabet.events, _named_table(self, trans))
        object.__setattr__(self, "transitions", trans)
        validate_automaton(self)

    @classmethod
    def from_table(
        cls,
        alphabet: Alphabet,
        states: Iterable[str],
        successor_table,
        initial: Iterable[str],
        pair_of: Mapping[str, ProductState] | None = None,
    ) -> "Automaton":
        """Automaton over ``successor_table[event][state]``, whose entries
        are ascending tuples of target state indices."""
        states = tuple(states)
        return cls(
            alphabet,
            states,
            Transitions(states, alphabet.events, successor_table),
            tuple(initial),
            pair_of,
        )

    # -- indexed views -------------------------------------------------

    @property
    def successor_table(self) -> SuccessorTable:
        """Successor indices, ``successor_table[event][state]``.

        Indices follow event and state declaration order and each entry
        is ascending, like ``successors``.  The relation checks and the
        product run on this table instead of on named transitions.
        """
        return self.transitions.table

    def _targets(self, state: str, event: str) -> tuple[int, ...]:
        i = self.state_index.get(state)
        k = self.alphabet._event_index.get(event)
        if i is None or k is None:
            return ()
        return self.successor_table[k][i]

    def successors(self, state: str, event: str) -> tuple[str, ...]:
        """Targets of ``state --event-->``, in state declaration order."""
        return tuple(map(self.states.__getitem__, self._targets(state, event)))

    def enables(self, state: str, event: str) -> bool:
        return bool(self._targets(state, event))

    @property
    def n_states(self) -> int:
        return len(self.states)

    def event_table(self, what: str, k: int) -> list:
        """Per-state table ``what`` of event index ``k``, built on first use
        and kept: successors as a bit mask (``"succ_masks"``), or
        predecessors as a bit mask (``"pred_masks"``) or an ascending
        index list (``"preds"``).  Callers must not change it."""
        tables = self.__dict__.setdefault("_event_tables", {})
        if (what, k) not in tables:
            tables[what, k] = build_event_table(what, self.successor_table[k])
        return tables[what, k]


def successor_entry(targets: list[int]) -> tuple[int, ...]:
    """A successor-table entry: ``targets`` ascending, without repeats."""
    return tuple(sorted(set(targets))) if len(targets) > 1 else tuple(targets)


def build_event_table(what: str, row: Sequence[tuple[int, ...]]) -> list:
    """``Automaton.event_table`` of one successor-table row."""
    if what == "succ_masks":
        return [sum(1 << j for j in targets) for targets in row]
    if what == "pred_masks":
        masks = [0] * len(row)
        for i, targets in enumerate(row):
            for j in targets:
                masks[j] |= 1 << i
        return masks
    preds: list[list[int]] = [[] for _ in row]
    for i, targets in enumerate(row):
        for j in targets:
            preds[j].append(i)
    return preds


def _named_table(a: Automaton, transitions: Iterable) -> list:
    """The successor table of named ``(source, event, target)`` triples
    over ``a``'s states and alphabet, each entry a ``successor_entry``.

    An undeclared name raises in ``validate_automaton``'s order: an
    empty initial set first, then an undeclared event, then an
    undeclared source or target, each named at the first offending
    triple in normal form.
    """
    sidx, eidx = a.state_index, a.alphabet._event_index
    triples = tuple(transitions)
    table = [[[] for _ in a.states] for _ in eidx]
    try:
        for src, ev, dst in triples:
            table[eidx[ev]][sidx[src]].append(sidx[dst])
    except KeyError:
        if not a.initial:
            validate_automaton(a)
        big = len(sidx) + len(eidx)
        faulty = sorted(
            (sidx.get(t[0], big), eidx.get(t[1], big), sidx.get(t[2], big), t)
            for t in map(tuple, triples)
            if not (t[0] in sidx and t[1] in eidx and t[2] in sidx)
        )
        src, ev, dst = next((f for f in faulty if f[1] == big), faulty[0])[-1]
        if ev not in eidx:
            raise UnknownEvent(f"transition event {ev!r} not in alphabet") from None
        side, name = ("target", dst) if src in sidx else ("source", src)
        raise UnknownState(f"transition {side} {name!r} not a declared state") from None
    return [list(map(successor_entry, row)) for row in table]


def require_tokens(what: str, names: Sequence[str]) -> None:
    """Raise ``ValidationError`` for the first name that a file line
    would not read back as one token: empty, or holding whitespace or
    ``#``.  One test over the joined names decides the common case."""
    joined = "".join(names)
    if all(names) and joined.split() == [joined] and "#" not in joined:
        return
    for name in names:
        if name.split() != [name] or "#" in name:
            raise ValidationError(f"{what} name {name!r} is not one file token")


def validate_automaton(a: Automaton) -> None:
    """Raise the first violated structural invariant, or return None.

    Checks, in order: nonempty initial set, transition events declared,
    transition endpoints and initial states declared, state ids unique,
    state names one file token each (``require_tokens``).
    ``Automaton`` runs it at construction; the transition checks are made
    while named transitions are converted to the successor table, which
    refers to declared states and events only.
    """
    if not a.initial:
        raise EmptyInitialSet("initial state set is empty")
    for s in a.initial:
        if s not in a.state_index:
            raise UnknownState(f"initial state {s!r} not a declared state")
    if len(a.state_index) != len(a.states):
        seen: set[str] = set()
        for s in a.states:
            if s in seen:
                raise DuplicateStateId(f"state id {s!r} declared twice")
            seen.add(s)
    require_tokens("state", a.states)


def require_same_alphabet(a: Automaton, b: Automaton) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            "operands must share one alphabet (same events, attributes and order)"
        )


def product_state_id(left: str, right: str) -> str:
    return f"({left},{right})"


def escaped(names: Iterable[str]) -> list[str]:
    """Each name with ``\\``, ``,`` and ``:`` escaped by a backslash, so
    ids joined from escaped names with those separators never collide."""
    return [n.translate(_ESCAPES) for n in names]


def product_walk(left, right, n_right: int, order: list[int], table=None):
    """Walk the synchronous product of two successor tables on pair codes.

    The pair of left state ``l`` and right state ``r`` has code
    ``l * n_right + r``.  ``order`` holds the codes to start from and
    grows, in discovery order, with every code reached; each code is
    yielded before it is expanded, so a caller may stop the walk early.
    With a ``table``, expanding the i-th code appends its ascending
    successor positions in ``order`` to ``table[k]`` for each event k.
    """
    index = {p: i for i, p in enumerate(order)}
    i = 0
    while i < len(order):
        yield order[i]
        l, r = divmod(order[i], n_right)
        for k, (lrow, rrow) in enumerate(zip(left, right)):
            targets = []
            rs = rrow[r]
            for l1 in lrow[l]:
                base = l1 * n_right
                for r1 in rs:
                    j = index.get(base + r1)
                    if j is None:
                        j = index[base + r1] = len(order)
                        order.append(base + r1)
                    targets.append(j)
            if table is not None:
                targets.sort()
                table[k].append(tuple(targets))
        i += 1


def sync_product(s: Automaton, g: Automaton) -> Automaton:
    """Synchronous composition: both factors move together on every event.

    State set is the reachable part of the cartesian product; initial
    states are all pairs of initials.  The result's ``pair_of`` maps
    each product state id back to its component pair.

    Runs ``product_walk`` on integer pair codes ``y * |g| + x``.  States
    are numbered in discovery order, and the walk fills the product's
    successor table directly, so no named transition is built.  If two
    states would share an id, every id is built from ``escaped``
    component names instead.
    """
    require_same_alphabet(s, g)
    ng = g.n_states
    si, gi = s.state_index, g.state_index
    order = [si[y] * ng + gi[x] for y in s.initial for x in g.initial]
    n_roots = len(order)
    table: list[list[tuple[int, ...]]] = [[] for _ in s.alphabet.events]
    for _ in product_walk(s.successor_table, g.successor_table, ng, order, table):
        pass
    pairs = [ProductState(s.states[p // ng], g.states[p % ng]) for p in order]
    names = [product_state_id(*pair) for pair in pairs]
    if len(set(names)) < len(names):
        ys, xs = escaped(s.states), escaped(g.states)
        names = [product_state_id(ys[p // ng], xs[p % ng]) for p in order]
    return Automaton.from_table(
        s.alphabet, names, table, names[:n_roots], pair_of=dict(zip(names, pairs))
    )


def is_deterministic(a: Automaton) -> bool:
    """One initial state and at most one successor per (state, event)."""
    if len(a.initial) != 1:
        return False
    return all(len(targets) <= 1 for row in a.successor_table for targets in row)


def make_automaton(
    events: Iterable[str],
    states: Iterable[str],
    transitions: Iterable[Transition],
    initial: Iterable[str],
    *,
    uncontrollable: Iterable[str] = (),
    required: Iterable[str] = (),
) -> Automaton:
    """Build an automaton, alphabet included, in one call."""
    return Automaton(
        alphabet=Alphabet(tuple(events), frozenset(uncontrollable), frozenset(required)),
        states=tuple(states),
        transitions=transitions,
        initial=tuple(initial),
    )
