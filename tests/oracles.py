"""Oracles of the test suite: slow, named reimplementations of the
production engines.

Relations by pair-by-pair refinement over named transitions, products
and admissibility over named states, file parsing by the
character-by-character tokenizer, family obligation masks by named
successor lookups, the family check member by member, supervisors by
assembly over the materialized closure, and automaton isomorphism by
backtracking.  None of them ships with the package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace

from ccsynth.automata import (
    Alphabet,
    Automaton,
    ProductState,
    product_state_id,
    require_same_alphabet,
    validate_automaton,
)
from ccsynth.errors import NotAFamily, ParseError, UniverseMismatch
from ccsynth.relations import (
    ADMISSIBILITY,
    BACKWARD,
    FORWARD,
    Counterexample,
    RefineResult,
    RelationKind,
    _Deletion,
)
from ccsynth.synthesis import (
    PairSetFamily,
    SupervisorAutomaton,
    _FamilyContext,
    _maximal,
    _submasks,
    downward_closure,
    member_state_id,
)
from ccsynth.testkit import member_passes

@dataclass
class PairwiseRefineResult:
    """``refine``'s result as the pair-by-pair engine builds it: named
    alive pairs and every deletion reason, built eagerly."""

    left: Automaton
    right: Automaton
    alive: set[tuple[str, str]]
    reasons: dict[tuple[str, str], _Deletion] = field(default_factory=dict)
    deletions: int = 0

    # The cascade walk and the relation read only ``alive`` and ``reasons``.
    relation = RefineResult.relation
    root_cause = RefineResult.root_cause


def pairwise_refine(
    a: Automaton, b: Automaton, kind: RelationKind
) -> PairwiseRefineResult:
    """``refine`` one pair at a time over tables read from named transitions.

    Same scan order, FIFO re-queue and first-violated clause as the bit-row
    engine; the oracle for it, deletion times and candidates included.
    """
    require_same_alphabet(a, b)
    events = a.alphabet.events
    for ev in kind.forward_events | kind.backward_events:
        if ev not in a.alphabet._event_index:
            raise UniverseMismatch(f"kind references event {ev!r} outside the alphabet")
    na, nb = a.n_states, b.n_states
    ai, bi = a.state_index, b.state_index
    fwd = [k for k, ev in enumerate(events) if ev in kind.forward_events]
    bwd = [k for k, ev in enumerate(events) if ev in kind.backward_events]
    deps = sorted(set(fwd) | set(bwd))

    def tables(aut, index, nst):
        succ = [[() for _ in range(nst)] for _ in events]
        pred = [[[] for _ in range(nst)] for _ in events]
        for src, ev, dst in aut.transitions:
            k, si, di = aut.alphabet._event_index[ev], index[src], index[dst]
            succ[k][si] += (di,)
            pred[k][di].append(si)
        return succ, pred

    succ_a, pred_a = tables(a, ai, na)
    succ_b, pred_b = tables(b, bi, nb)

    n = na * nb
    alive = bytearray([1]) * n
    reasons: dict[int, _Deletion] = {}
    clock = 0
    queue: deque[int] = deque()
    queued = bytearray(n)

    def check(pid: int):
        xi, zi = divmod(pid, nb)
        for k in fwd:
            zs = succ_b[k][zi]
            for x1 in succ_a[k][xi]:
                base = x1 * nb
                if not any(alive[base + z1] for z1 in zs):
                    return FORWARD, k, x1, tuple(base + z1 for z1 in zs)
        for k in bwd:
            xs = succ_a[k][xi]
            for z1 in succ_b[k][zi]:
                if not any(alive[x1 * nb + z1] for x1 in xs):
                    return BACKWARD, k, z1, tuple(x1 * nb + z1 for x1 in xs)
        return None

    def kill(pid: int, hit) -> None:
        nonlocal clock
        clause, k, succ_state, cands = hit
        alive[pid] = 0
        succ_name = a.states[succ_state] if clause == FORWARD else b.states[succ_state]
        reasons[pid] = _Deletion(
            clause,
            events[k],
            succ_name,
            clock,
            tuple((a.states[c // nb], b.states[c % nb]) for c in cands),
        )
        clock += 1
        xi, zi = divmod(pid, nb)
        for kk in deps:
            for px in pred_a[kk][xi]:
                base = px * nb
                for pz in pred_b[kk][zi]:
                    q = base + pz
                    if alive[q] and not queued[q]:
                        queued[q] = 1
                        queue.append(q)

    for pid in range(n):
        hit = check(pid)
        if hit is not None:
            kill(pid, hit)
    while queue:
        pid = queue.popleft()
        queued[pid] = 0
        if not alive[pid]:
            continue
        hit = check(pid)
        if hit is not None:
            kill(pid, hit)

    alive_pairs = {
        (a.states[pid // nb], b.states[pid % nb]) for pid in range(n) if alive[pid]
    }
    named_reasons = {
        (a.states[pid // nb], b.states[pid % nb]): d for pid, d in reasons.items()
    }
    return PairwiseRefineResult(a, b, alive_pairs, named_reasons, deletions=clock)


def named_sync_product(s: Automaton, g: Automaton, *, full: bool = False) -> Automaton:
    """``sync_product`` over named pairs, normalized by the generic sort.

    The oracle for the integer product and its canonical emission.
    """
    require_same_alphabet(s, g)
    roots = [(y, x) for y in s.initial for x in g.initial]
    if full:
        order = [(y, x) for y in s.states for x in g.states]
    else:
        order = list(roots)
        seen = set(order)
        queue = deque(order)
        while queue:
            y, x = queue.popleft()
            for ev in s.alphabet.events:
                for y1 in s.successors(y, ev):
                    for x1 in g.successors(x, ev):
                        if (y1, x1) not in seen:
                            seen.add((y1, x1))
                            order.append((y1, x1))
                            queue.append((y1, x1))
    names = {pair: product_state_id(*pair) for pair in order}
    present = set(order)
    transitions = [
        (names[(y, x)], ev, names[(y1, x1)])
        for (y, x) in order
        for ev in s.alphabet.events
        for y1 in s.successors(y, ev)
        for x1 in g.successors(x, ev)
        if (y1, x1) in present
    ]
    return Automaton(
        alphabet=s.alphabet,
        states=tuple(names[p] for p in order),
        transitions=tuple(transitions),
        initial=tuple(names[p] for p in roots if p in present),
        pair_of={names[p]: ProductState(*p) for p in order},
    )


def named_is_admissible(
    s: Automaton, g: Automaton
) -> tuple[bool, Counterexample | None]:
    """``is_admissible`` by BFS over named product states; its oracle."""
    require_same_alphabet(s, g)
    unc = [ev for ev in g.alphabet.events if ev in g.alphabet.uncontrollable]
    queue = deque((y, x) for y in s.initial for x in g.initial)
    seen = set(queue)
    while queue:
        y, x = queue.popleft()
        for ev in unc:
            if g.enables(x, ev) and not s.enables(y, ev):
                return False, Counterexample(
                    kind=ADMISSIBILITY, left=y, right=x, event=ev
                )
        for ev in g.alphabet.events:
            for y1 in s.successors(y, ev):
                for x1 in g.successors(x, ev):
                    if (y1, x1) not in seen:
                        seen.add((y1, x1))
                        queue.append((y1, x1))
    return True, None


def _reference_tokenize(line: str) -> list[tuple[int, str]]:
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


def reference_parse_automaton(text: str) -> Automaton:
    """``parse_automaton`` with its former character-by-character
    tokenizer, which keeps every token's column; oracle for the
    split-based parser."""
    events: list[str] = []
    uncontrollable: set[str] = set()
    required: set[str] = set()
    states: list[str] = []
    initial: list[str] = []
    transitions: list[tuple[str, str, str]] = []
    seen_events: set[str] = set()
    seen_states: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _reference_tokenize(raw)
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


def named_family_context(
    g: Automaton, r: Automaton, universe: tuple[tuple[str, str], ...]
) -> SimpleNamespace:
    """Obligation masks built one pair and one named successor at a time.

    The oracle for the context built from per-state universe masks:
    every mask is assembled from a lookup of each candidate pair.  The
    namespace holds ``_FamilyContext``'s fields ``index``,
    ``uc_events``, ``req_events``, ``forward``, ``backward``,
    ``istate_masks`` and ``initial_mask``.
    """
    require_same_alphabet(g, r)
    index: dict[tuple[str, str], int] = {}
    for i, (x, z) in enumerate(universe):
        if x not in g.state_index or z not in r.state_index:
            raise UniverseMismatch(f"pair ({x!r}, {z!r}) outside the automata")
        index[(x, z)] = i

    def mask(pairs) -> int:
        m = 0
        for p in pairs:
            i = index.get(p)
            if i is not None:
                m |= 1 << i
        return m

    ab = g.alphabet
    forward: list[dict[str, list[int]]] = []
    backward: list[dict[str, list[tuple[str, int]]]] = []
    for x, z in universe:
        fwd: dict[str, list[int]] = {}
        bwd: dict[str, list[tuple[str, int]]] = {}
        for ev in ab.events:
            xs = g.successors(x, ev)
            zs = r.successors(z, ev)
            if xs:
                fwd[ev] = [mask((x1, z1) for z1 in zs) for x1 in xs]
            if ev in ab.required and zs:
                bwd[ev] = [(z1, mask((x1, z1) for x1 in xs)) for z1 in zs]
        forward.append(fwd)
        backward.append(bwd)
    return SimpleNamespace(
        index=index,
        uc_events=[e for e in ab.events if e in ab.uncontrollable],
        req_events=[e for e in ab.events if e in ab.required],
        forward=forward,
        backward=backward,
        istate_masks=[mask((x0, z0) for z0 in r.initial) for x0 in g.initial],
        initial_mask=mask((x0, z0) for x0 in g.initial for z0 in r.initial),
    )


def pairwise_is_controllability_family(
    e: PairSetFamily, g: Automaton, r: Automaton
) -> bool:
    """The family conditions checked member by member over all of ``e``.

    Quadratic in the number of members; the oracle for the antichain
    check in ``is_controllability_family``.
    """
    ctx = _FamilyContext(g, r, e.universe)
    if not any(ctx.istate(w) for w in e.members):
        return False
    members = sorted(e.members)
    return all(member_passes(ctx, w, members) for w in members)


def submask_edge_targets(
    ctx: _FamilyContext, chain: list[int], w: int, ev: str
) -> list[int]:
    """Successors of member ``w`` under ``ev`` by brute enumeration.

    Every nonempty submask of a chain member inside the pairs that
    ``w``'s paired moves reach, kept when it matches all of ``w``'s
    moves; the oracle for the hitting-set enumeration in assembly.
    """
    post = 0
    for i in ctx.bits(w):
        x, z = ctx.universe[i]
        zs = ctx.r.successors(z, ev)
        for x1 in ctx.g.successors(x, ev):
            for z1 in zs:
                j = ctx.index.get((x1, z1))
                if j is not None:
                    post |= 1 << j
    cand: set[int] = set()
    for m in chain:
        cand.update(_submasks(post & m))
    cand.discard(0)
    return sorted(t for t in cand if ctx.match(w, ev, t))


def closure_supervisor(
    e: PairSetFamily, g: Automaton, r: Automaton, *, reachable_only: bool = True
) -> SupervisorAutomaton:
    """Supervisor assembled over the materialized downward closure of ``e``.

    Checks the family pairwise, names states from the closure and finds
    successors by submask enumeration; the oracle for
    ``build_supervisor``, which works from the antichain alone.
    """
    if not pairwise_is_controllability_family(e, g, r):
        raise NotAFamily("input does not satisfy the controllability conditions")
    closure = downward_closure(e)
    ctx = _FamilyContext(g, r, closure.universe)
    chain = _maximal(closure.members)
    initial = sorted(
        w for w in closure.members if w & ~ctx.initial_mask == 0 and ctx.istate(w)
    )
    if not initial:
        raise NotAFamily("no member realizes the initial condition")
    events = g.alphabet.events
    if reachable_only:
        order, edges = list(initial), []
        seen, queue = set(order), deque(order)
        while queue:
            w = queue.popleft()
            for ev in events:
                for t in submask_edge_targets(ctx, chain, w, ev):
                    edges.append((w, ev, t))
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
                        queue.append(t)
    else:
        order = sorted(closure.members)
        edges = [
            (w, ev, t)
            for w in order
            for ev in events
            for t in submask_edge_targets(ctx, chain, w, ev)
        ]
    names = {w: member_state_id(closure.pairs_of(w)) for w in order}
    aut = Automaton(
        alphabet=g.alphabet,
        states=tuple(names[w] for w in order),
        transitions=tuple((names[a], ev, names[b]) for a, ev, b in edges),
        initial=tuple(names[w] for w in initial),
    )
    return SupervisorAutomaton(
        automaton=aut, members={names[w]: closure.pairs_of(w) for w in order}
    )


def isomorphic(a: Automaton, b: Automaton) -> bool:
    """Exact isomorphism over shared alphabets (backtracking; small inputs)."""
    if a.alphabet != b.alphabet or a.n_states != b.n_states:
        return False
    if len(a.transitions) != len(b.transitions) or len(a.initial) != len(b.initial):
        return False
    b_initial = set(b.initial)
    b_trans = set(b.transitions)
    a_out = {
        s: sorted(
            (ev, len(a.successors(s, ev)))
            for ev in a.alphabet.events
            if a.successors(s, ev)
        )
        for s in a.states
    }
    b_out = {
        s: sorted(
            (ev, len(b.successors(s, ev)))
            for ev in b.alphabet.events
            if b.successors(s, ev)
        )
        for s in b.states
    }

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str, y: str) -> bool:
        if (x in set(a.initial)) != (y in b_initial):
            return False
        if a_out[x] != b_out[y]:
            return False
        for ev in a.alphabet.events:
            for x1 in a.successors(x, ev):
                if x1 in mapping and (y, ev, mapping[x1]) not in b_trans:
                    return False
        for x0, y0 in mapping.items():
            for ev in a.alphabet.events:
                if (x0, ev, x) in a.transitions and (y0, ev, y) not in b_trans:
                    return False
                if (x, ev, x0) in a.transitions and (y, ev, y0) not in b_trans:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == len(a.states):
            image = {(mapping[s], ev, mapping[t]) for s, ev, t in a.transitions}
            return image == b_trans
        x = a.states[i]
        for y in b.states:
            if y in used or not consistent(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return extend(0)
