"""Oracles of the test suite: slow, named reimplementations of the
production engines.

Relations by pair-by-pair refinement over named transitions and by
exhaustive enumeration of pair sets, the match predicate over named
transitions, products, admissibility and uniformity over named
states, file parsing by the character-by-character tokenizer, family
obligation masks by named successor lookups, the filtering step and
the family check member by member, the antichain pass scanning pairs
before events, the universe pairs a common string reaches by a
breadth-first search, supervisors by assembly over the materialized
closure, supervisor variants by filtering named transitions, language
inclusion by a subset construction, up to a bound or exhaustively,
admissibility at trace level by a subset construction, the states one
string reaches and the reachable part of an automaton, small
supervisors by enumeration, and automaton isomorphism by backtracking.
None of them ships with the package.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from types import SimpleNamespace

from ccsynth.automata import (
    Alphabet,
    Automaton,
    ProductState,
    product_state_id,
    require_same_alphabet,
)
from ccsynth.errors import (
    CapExceeded,
    NotAFamily,
    ParseError,
    UniverseMismatch,
    UnknownEvent,
)
from ccsynth.relations import (
    ADMISSIBILITY,
    BACKWARD,
    FORWARD,
    Counterexample,
    PairRelation,
    RelationKind,
    Step,
)
from ccsynth.synthesis import (
    PairSetFamily,
    SupervisorAutomaton,
    _maximal,
    _submasks,
    downward_closure,
    member_state_id,
    pairs_universe,
    verify_solution,
)


@dataclass
class _Deletion:
    clause: str
    event: str
    successor: str
    time: int
    candidates: tuple[tuple[str, str], ...]


@dataclass
class PairwiseRefineResult:
    """``refine``'s result as the pair-by-pair engine builds it: the
    relation converted from named alive pairs and every deletion reason,
    built eagerly."""

    alive: PairRelation
    reasons: dict[tuple[str, str], _Deletion] = field(default_factory=dict)
    deletions: int = 0

    def _deletion_time(self, pair) -> int:
        return self.reasons[pair].time

    def root_cause(self, pair: tuple[str, str]) -> Counterexample:
        """Walk the named cascade from ``pair``, following the earliest
        death among each step's candidates, to a rootless deletion."""
        chain: list[Step] = []
        current = pair
        while True:
            d = self.reasons[current]
            chain.append(Step(current[0], current[1], d.clause, d.event, d.successor))
            if not d.candidates:
                break
            current = min(d.candidates, key=self._deletion_time)
        root = chain[-1]
        return Counterexample(
            kind=root.clause,
            left=root.left,
            right=root.right,
            event=root.event,
            successor=root.successor,
            chain=tuple(chain),
        )


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

    alive_pairs = [
        (a.states[pid // nb], b.states[pid % nb]) for pid in range(n) if alive[pid]
    ]
    named_reasons = {
        (a.states[pid // nb], b.states[pid % nb]): d for pid, d in reasons.items()
    }
    return PairwiseRefineResult(
        PairRelation(a, b, alive_pairs), named_reasons, deletions=clock
    )


BRUTE_PAIR_CAP = 9


def brute_greatest_relation(
    a: Automaton, b: Automaton, kind: RelationKind, cap: int = BRUTE_PAIR_CAP
) -> PairRelation:
    """Union of every relation satisfying the kind's clauses.

    Enumerates all subsets of the pair universe, so the universe is
    capped (callers may raise the cap for a known-small instance).
    Union closure of the clauses makes this exactly the greatest
    relation, independently of the deletion algorithm.
    """
    pairs = [(x, z) for x in a.states for z in b.states]
    n = len(pairs)
    if n > cap:
        raise CapExceeded(n, cap, "brute-force pair universe")
    events = a.alphabet.events
    fwd = [ev for ev in events if ev in kind.forward_events]
    bwd = [ev for ev in events if ev in kind.backward_events]

    def satisfies(rel: set[tuple[str, str]]) -> bool:
        for x, z in rel:
            for ev in fwd:
                for x1 in a.successors(x, ev):
                    if not any((x1, z1) in rel for z1 in b.successors(z, ev)):
                        return False
            for ev in bwd:
                for z1 in b.successors(z, ev):
                    if not any((x1, z1) in rel for x1 in a.successors(x, ev)):
                        return False
        return True

    union: set[tuple[str, str]] = set()
    for mask in range(1 << n):
        rel = {pairs[i] for i in range(n) if mask >> i & 1}
        if satisfies(rel):
            union |= rel
    return PairRelation(a, b, frozenset(union))


def match_predicate(w: PairRelation, event: str, w2: PairRelation) -> bool:
    """Does every move of a ``w`` pair under ``event`` land in ``w2``?

    True iff for every (x, z) in ``w`` and every x --event--> x' there is
    some z --event--> z' with (x', z') in ``w2``.
    """
    if (w.left, w.right) != (w2.left, w2.right):
        raise UniverseMismatch("both relations must range over the same automata")
    g, r = w.left, w.right
    for x, z in w:
        for x1 in g.successors(x, event):
            if not any((x1, z1) in w2 for z1 in r.successors(z, event)):
                return False
    return True


def named_sync_product(s: Automaton, g: Automaton) -> Automaton:
    """``sync_product`` over named pairs, normalized by the generic sort.

    The oracle for the integer product and its canonical emission.
    """
    require_same_alphabet(s, g)
    roots = [(y, x) for y in s.initial for x in g.initial]
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
    transitions = [
        (names[(y, x)], ev, names[(y1, x1)])
        for (y, x) in order
        for ev in s.alphabet.events
        for y1 in s.successors(y, ev)
        for x1 in g.successors(x, ev)
    ]
    return Automaton(
        alphabet=s.alphabet,
        states=tuple(names[p] for p in order),
        transitions=tuple(transitions),
        initial=tuple(names[p] for p in roots),
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


def trace_controllable(s: Automaton, g: Automaton) -> bool:
    """Admissibility at trace level, by a subset construction; the
    reference that ``is_admissible`` is compared against.

    For every string and uncontrollable event e: if the plant can
    continue with e after the string, every supervisor state the string
    reaches must enable e.  Explores the pairs (plant reach set,
    supervisor reach set) of common strings, uncapped: worst-case
    exponential.
    """
    require_same_alphabet(s, g)
    unc = [ev for ev in g.alphabet.events if ev in g.alphabet.uncontrollable]
    start = (frozenset(g.initial), frozenset(s.initial))
    queue = deque([start])
    seen = {start}
    while queue:
        xs, ys = queue.popleft()
        for ev in unc:
            plant_can = any(g.enables(x, ev) for x in xs)
            if plant_can and not all(s.enables(y, ev) for y in ys):
                return False
        for ev in g.alphabet.events:
            xs1 = frozenset(t for x in xs for t in g.successors(x, ev))
            ys1 = frozenset(t for y in ys for t in s.successors(y, ev))
            if not xs1 or not ys1:
                # Dead plant side leaves nothing to demand; dead
                # supervisor side leaves nothing to blame.
                continue
            nxt = (xs1, ys1)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def named_is_uniform(phi: PairRelation, g: Automaton, r: Automaton) -> bool:
    """``is_uniform`` by a breadth-first walk over named quadruples.

    Quantifies over quadruples (x1, x2, z1, z2) whose components are all
    reachable by one common string (computed as reachability of the
    4-fold synchronous product): whenever (x1, z1) and (x2, z2) are in
    ``phi``, z1 enables a required event and x2 takes it, some move of z2
    must cover x2's move inside ``phi``.
    """
    if (phi.left, phi.right) != (g, r):
        raise UniverseMismatch("relation must range over exactly (g, r)")
    req = [ev for ev in g.alphabet.events if ev in g.alphabet.required]
    roots = {
        (x1, x2, z1, z2)
        for x1 in g.initial
        for x2 in g.initial
        for z1 in r.initial
        for z2 in r.initial
    }
    queue = deque(sorted(roots))
    seen = set(roots)
    while queue:
        quad = queue.popleft()
        x1, x2, z1, z2 = quad
        if (x1, z1) in phi and (x2, z2) in phi:
            for ev in req:
                if not r.enables(z1, ev):
                    continue
                for x2p in g.successors(x2, ev):
                    if not any((x2p, z2p) in phi for z2p in r.successors(z2, ev)):
                        return False
        for ev in g.alphabet.events:
            for a1 in g.successors(x1, ev):
                for a2 in g.successors(x2, ev):
                    for b1 in r.successors(z1, ev):
                        for b2 in r.successors(z2, ev):
                            nxt = (a1, a2, b1, b2)
                            if nxt not in seen:
                                seen.add(nxt)
                                queue.append(nxt)
    return True


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

    last = len((text + "\0").splitlines())
    if not initial:
        raise ParseError(last, 1, "no initial state declared")
    return Automaton(
        alphabet=Alphabet(tuple(events), frozenset(uncontrollable), frozenset(required)),
        states=tuple(states),
        transitions=tuple(transitions),
        initial=tuple(initial),
    )


def named_family_context(
    g: Automaton, r: Automaton, universe: tuple[tuple[str, str], ...]
) -> SimpleNamespace:
    """Obligation masks built one pair and one named successor at a time.

    The oracle for the context built from per-state universe masks:
    every mask is assembled from a lookup of each candidate pair, and
    kept per pair in ``pair_forward[i][ev]`` and ``pair_backward[i][ev]``.
    Grouped by event, they give ``_FamilyContext``'s tables ``forward``
    and ``backward``; the namespace also holds its fields ``uc_events``,
    ``istate_masks`` and ``initial_mask``, and the match predicate
    (``match``, ``good_mask``) read off the per-pair lists.
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
    pair_forward: list[dict[str, list[int]]] = []
    pair_backward: list[dict[str, list[int]]] = []
    for x, z in universe:
        fwd: dict[str, list[int]] = {}
        bwd: dict[str, list[int]] = {}
        for ev in ab.events:
            xs = g.successors(x, ev)
            zs = r.successors(z, ev)
            if xs:
                fwd[ev] = [mask((x1, z1) for z1 in zs) for x1 in xs]
            if ev in ab.required and zs:
                bwd[ev] = [mask((x1, z1) for x1 in xs) for z1 in zs]
        pair_forward.append(fwd)
        pair_backward.append(bwd)
    n = len(universe)
    forward, backward = {}, {}
    for ev in ab.events:
        free = sum(1 << i for i in range(n) if ev not in pair_forward[i])
        obliged = [(1 << i, f[ev]) for i, f in enumerate(pair_forward) if ev in f]
        forward[ev] = (free, obliged)
        answered = [(1 << i, b[ev]) for i, b in enumerate(pair_backward) if ev in b]
        if answered:
            backward[ev] = answered
    good: dict[tuple[str, int], int] = {}

    def good_mask(ev: str, t: int) -> int:
        if (ev, t) not in good:
            good[ev, t] = sum(
                1 << i
                for i, f in enumerate(pair_forward)
                if all(t & ob for ob in f.get(ev, ()))
            )
        return good[ev, t]

    istate_masks = [mask((x0, z0) for z0 in r.initial) for x0 in g.initial]
    return SimpleNamespace(
        g=g,
        r=r,
        universe=tuple(universe),
        n=n,
        full=(1 << n) - 1,
        uc_events=[e for e in ab.events if e in ab.uncontrollable],
        pair_forward=pair_forward,
        pair_backward=pair_backward,
        forward=forward,
        backward=backward,
        istate_masks=istate_masks,
        initial_mask=mask((x0, z0) for x0 in g.initial for z0 in r.initial),
        good_mask=good_mask,
        match=lambda w, ev, t: w & ~good_mask(ev, t) == 0,
        istate=lambda w: all(w & m for m in istate_masks),
        bits=lambda w: [i for i in range(n) if w >> i & 1],
    )


def member_passes(ctx: SimpleNamespace, w: int, candidates) -> bool:
    """Both filtering conditions for member ``w`` against candidate targets.

    Condition one: for every uncontrollable event some candidate matches
    ``w``'s moves.  Condition two: every required specification move out
    of a ``w`` pair is answered by a plant move into some candidate that
    also matches all of ``w``'s moves.  ``ctx`` is a
    ``named_family_context``.
    """
    return reference_violation_children(ctx, w, candidates) is None


def reference_violation_children(ctx: SimpleNamespace, w: int, chain: list[int]):
    """``_violation_children`` pair by pair over a ``named_family_context``.

    None if ``w`` passes both conditions against ``chain``.  Otherwise
    the pairs of ``w`` are scanned in bit order, each with its required
    events, and every backward obligation is tested against the chain
    one member at a time; the first violation found yields the children.
    The oracle for the per-event scan, whose first violation may differ
    but whose children equally cover every passing subset of ``w``.
    """
    for ev in ctx.uc_events:
        if not any(ctx.match(w, ev, t) for t in chain):
            return [w & ctx.good_mask(ev, t) for t in chain]
    for i in ctx.bits(w):
        for ev, obligations in ctx.pair_backward[i].items():
            for ob in obligations:
                if not any(t & ob and ctx.match(w, ev, t) for t in chain):
                    children = [w & ~(1 << i)]
                    children.extend(
                        w & ctx.good_mask(ev, t) for t in chain if t & ob
                    )
                    return children
    return None


def reference_antichain_pass(ctx: SimpleNamespace, chain: list[int]) -> list[int]:
    """``_antichain_pass`` over ``reference_violation_children``, exploring
    every candidate, including those inside a survivor."""
    survivors: list[int] = []
    seen: set[int] = set()
    stack = sorted(chain)
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        children = reference_violation_children(ctx, w, chain)
        if children is None:
            survivors.append(w)
        else:
            for c in children:
                if c not in seen:
                    stack.append(c)
    return _maximal(survivors)


def reference_fixpoint(g: Automaton, r: Automaton) -> tuple[list[int], int]:
    """Antichain and iteration count of the greatest fixpoint, by
    ``reference_antichain_pass`` over the named context of the (uncapped)
    pair universe; the oracle for ``family_fixpoint``."""
    ctx = named_family_context(g, r, tuple(pairs_universe(g, r)))
    chain, iterations = [ctx.full], 0
    while True:
        iterations += 1
        nxt = reference_antichain_pass(ctx, chain)
        if nxt == chain:
            return chain, iterations
        chain = nxt


def reachable_universe_pairs(universe: PairRelation) -> frozenset[tuple[str, str]]:
    """The pairs of ``universe`` that a common string reaches from an
    initial-by-initial pair of it while staying inside it, by
    breadth-first search over named pairs: each step follows a plant
    move and a specification move on the same event."""
    g, r = universe.left, universe.right
    start = [(x0, z0) for x0 in g.initial for z0 in r.initial if (x0, z0) in universe]
    seen = set(start)
    queue = deque(start)
    while queue:
        x, z = queue.popleft()
        for ev in g.alphabet.events:
            for x1 in g.successors(x, ev):
                for z1 in r.successors(z, ev):
                    if (x1, z1) in universe and (x1, z1) not in seen:
                        seen.add((x1, z1))
                        queue.append((x1, z1))
    return frozenset(seen)


def f_step(e: PairSetFamily, g: Automaton, r: Automaton) -> PairSetFamily:
    """One filtering pass: keep members whose obligations ``e`` can answer.

    Targets are quantified over ``e`` exactly as given, one member at a
    time; the oracle for the antichain passes of ``family_fixpoint``.
    """
    ctx = named_family_context(g, r, tuple(e.universe))
    members = sorted(e.members)
    keep = [w for w in members if member_passes(ctx, w, members)]
    return PairSetFamily(e.universe, frozenset(keep))


def pairwise_is_controllability_family(
    e: PairSetFamily, g: Automaton, r: Automaton
) -> bool:
    """The family conditions checked member by member over all of ``e``.

    Quadratic in the number of members; the oracle for the antichain
    check in ``is_controllability_family``.
    """
    ctx = named_family_context(g, r, tuple(e.universe))
    if not any(ctx.istate(w) for w in e.members):
        return False
    members = sorted(e.members)
    return all(member_passes(ctx, w, members) for w in members)


def submask_edge_targets(
    ctx: SimpleNamespace, chain: list[int], w: int, ev: str
) -> list[int]:
    """Successors of member ``w`` under ``ev`` by brute enumeration.

    Every nonempty submask of a chain member inside the pairs that
    ``w``'s paired moves reach, kept when it matches all of ``w``'s
    moves; the oracle for the hitting-set enumeration in assembly.
    ``ctx`` is a ``named_family_context``.
    """
    pairs = ctx.universe
    index = {p: i for i, p in enumerate(pairs)}
    post = 0
    for i in ctx.bits(w):
        x, z = pairs[i]
        zs = ctx.r.successors(z, ev)
        for x1 in ctx.g.successors(x, ev):
            for z1 in zs:
                j = index.get((x1, z1))
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
    ctx = named_family_context(g, r, tuple(closure.universe))
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


def bounded_language_included(a: Automaton, b: Automaton, bound: int | None) -> bool:
    """Is every trace of ``a`` of length at most ``bound`` one of ``b``?

    Explores pairs (state of a, subset of b's states) level by level,
    for ``bound`` levels or until no new pair is reached.  With ``bound``
    None it explores until no new pair is reached, which decides
    language inclusion exactly: a pair whose subset side goes empty
    witnesses a trace of ``a`` that ``b`` cannot follow.
    """
    require_same_alphabet(a, b)
    b0 = frozenset(b.initial)
    frontier = [(x, b0) for x in a.initial]
    seen = set(frontier)
    for _ in itertools.count() if bound is None else range(bound):
        if not frontier:
            break
        nxt = []
        for x, bs in frontier:
            for ev in a.alphabet.events:
                for x1 in a.successors(x, ev):
                    bs1 = frozenset(t for z in bs for t in b.successors(z, ev))
                    if not bs1:
                        return False
                    if (x1, bs1) not in seen:
                        seen.add((x1, bs1))
                        nxt.append((x1, bs1))
        frontier = nxt
    return True


def reach(a: Automaton, sequence: Sequence[str]) -> frozenset[str]:
    """States reachable from some initial state via exactly ``sequence``."""
    for ev in sequence:
        if ev not in a.alphabet._event_index:
            raise UnknownEvent(f"event {ev!r} not in alphabet")
    current = frozenset(a.initial)
    for ev in sequence:
        current = frozenset(t for s in current for t in a.successors(s, ev))
    return current


def reachable_part(a: Automaton) -> Automaton:
    """Restriction of ``a`` to states reachable from its initial set."""
    table = a.successor_table
    seen = [False] * a.n_states
    stack = [a.state_index[s] for s in a.initial]
    for i in stack:
        seen[i] = True
    while stack:
        i = stack.pop()
        for row in table:
            for j in row[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
    keep = [i for i, s in enumerate(seen) if s]
    # Renumbering in declaration order keeps every entry ascending.
    new = {i: n for n, i in enumerate(keep)}
    states = [a.states[i] for i in keep]
    kept = set(states)
    return Automaton.from_table(
        a.alphabet,
        states,
        [[tuple(map(new.__getitem__, row[i])) for i in keep] for row in table],
        a.initial,
        pair_of=None
        if a.pair_of is None
        else {s: p for s, p in a.pair_of.items() if s in kept},
    )


def small_automata(alphabet: Alphabet, n: int):
    """Every automaton with states t0 .. t(n-1) over ``alphabet``: each
    nonempty initial set with each successor table, in a fixed order."""
    states = tuple(f"t{i}" for i in range(n))
    subsets = [tuple(j for j in range(n) if m >> j & 1) for m in range(1 << n)]
    width = len(alphabet.events) * n
    for init in subsets[1:]:
        for entries in itertools.product(subsets, repeat=width):
            table = [entries[k : k + n] for k in range(0, width, n)]
            yield Automaton.from_table(
                alphabet, states, table, [states[j] for j in init]
            )


def small_solutions(
    g: Automaton,
    r: Automaton,
    max_states: int,
    sample: int | None = None,
    seed: int = 0,
):
    """The automata of at most ``max_states`` states over the alphabet
    that ``verify_solution`` accepts as supervisors for (g, r).

    Built by enumeration alone, so it owes nothing to the synthesis
    code.  With ``sample``, every one-state automaton is tried but only
    a seeded sample of ``sample`` automata of each larger size.
    """
    rng = random.Random(seed)
    for n in range(1, max_states + 1):
        candidates = list(small_automata(g.alphabet, n))
        if sample is not None and n > 1:
            candidates = rng.sample(candidates, min(sample, len(candidates)))
        for t in candidates:
            if verify_solution(t, g, r).overall:
                yield t


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


def named_subsupervisors(s: SupervisorAutomaton | Automaton, limit: int):
    """Variants of a supervisor with nonempty transition subsets removed,
    each rebuilt from the tuple of its remaining named triples.

    The oracle for ``enumerate_subsupervisors``, which drops entries
    from a copy of the successor table: bit i of the deletion mask is
    the i-th triple in normal form, and masks ascend from 1.
    """
    aut = s.automaton if isinstance(s, SupervisorAutomaton) else s
    triples = tuple(aut.transitions)
    for mask in range(1, min(limit + 1, 1 << len(triples))):
        keep = tuple(t for i, t in enumerate(triples) if not mask >> i & 1)
        yield Automaton(aut.alphabet, aut.states, keep, aut.initial)
