"""Brute-force oracles and reproducible random instances.

Everything here exists to check the production algorithms from an
independent direction: relations by exhaustive enumeration and by
pair-by-pair refinement over named transitions, products and
admissibility over named states, families by the member-by-member
filtering step, supervisors by pruning and by assembly over the
materialized closure, instances by seeded generation that replays
exactly.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator

from .automata import (
    Alphabet,
    Automaton,
    ProductState,
    product_state_id,
    require_same_alphabet,
    validate_automaton,
)
from .errors import CapExceeded, NotAFamily, UniverseMismatch
from .relations import (
    ADMISSIBILITY,
    BACKWARD,
    FORWARD,
    Counterexample,
    PairRelation,
    RefineResult,
    RelationKind,
    _Deletion,
)
from .synthesis import (
    PairSetFamily,
    SupervisorAutomaton,
    _FamilyContext,
    _maximal,
    _submasks,
    downward_closure,
    member_state_id,
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
    for x, z in w.pairs:
        for x1 in g.successors(x, event):
            if not any((x1, z1) in w2.pairs for z1 in r.successors(z, event)):
                return False
    return True


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


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one reproducible random (plant, specification) pair."""

    g_states: int = 3
    r_states: int = 3
    events: int = 2
    uncontrollable_fraction: float = 0.5
    required_fraction: float = 0.5
    density: float = 0.3
    seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if self.g_states < 1 or self.r_states < 1 or self.events < 1:
            raise ValueError("state and event counts must be at least 1")
        for frac in (self.uncontrollable_fraction, self.required_fraction, self.density):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")


def _random_structure(
    rng: random.Random,
    prefix: str,
    n: int,
    alphabet: Alphabet,
    density: float,
    deterministic: bool,
) -> Automaton:
    states = [f"{prefix}{i}" for i in range(n)]
    transitions = []
    for s in states:
        for ev in alphabet.events:
            if deterministic:
                if rng.random() < density:
                    transitions.append((s, ev, rng.choice(states)))
            else:
                for t in states:
                    if rng.random() < density:
                        transitions.append((s, ev, t))
    if deterministic:
        initial = [states[0]]
    else:
        initial = [s for s in states if rng.random() < 0.25]
        if not initial:
            initial = [states[0]]
    return Automaton(
        alphabet=alphabet,
        states=tuple(states),
        transitions=tuple(transitions),
        initial=tuple(initial),
    )


def random_instance(spec: InstanceSpec) -> tuple[Automaton, Automaton]:
    """Reproducible random plant and specification over one alphabet."""
    rng = random.Random(spec.seed)
    events = tuple(f"e{i}" for i in range(spec.events))
    n_unc = round(spec.uncontrollable_fraction * spec.events)
    n_req = round(spec.required_fraction * spec.events)
    uncontrollable = frozenset(rng.sample(events, n_unc))
    required = frozenset(rng.sample(events, n_req))
    alphabet = Alphabet(events, uncontrollable, required)
    g = _random_structure(rng, "x", spec.g_states, alphabet, spec.density, spec.deterministic)
    r = _random_structure(rng, "z", spec.r_states, alphabet, spec.density, spec.deterministic)
    validate_automaton(g)
    validate_automaton(r)
    return g, r


def member_passes(ctx: _FamilyContext, w: int, candidates) -> bool:
    """Both filtering conditions for member ``w`` against candidate targets.

    Condition one: for every uncontrollable event some candidate matches
    ``w``'s moves.  Condition two: every required specification move out
    of a ``w`` pair is answered by a plant move into some candidate that
    also matches all of ``w``'s moves.
    """
    for ev in ctx.uc_events:
        if not any(ctx.match(w, ev, t) for t in candidates):
            return False
    for i in ctx.bits(w):
        for ev, obligations in ctx.backward[i].items():
            for _z1, ob in obligations:
                if not any(t & ob and ctx.match(w, ev, t) for t in candidates):
                    return False
    return True


def f_step(e: PairSetFamily, g: Automaton, r: Automaton) -> PairSetFamily:
    """One filtering pass: keep members whose obligations ``e`` can answer.

    Targets are quantified over ``e`` exactly as given, one member at a
    time; the oracle for the antichain passes of ``family_fixpoint``.
    """
    ctx = _FamilyContext(g, r, e.universe)
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


def enumerate_subsupervisors(
    s: SupervisorAutomaton | Automaton, limit: int
) -> Iterator[Automaton]:
    """Variants of a supervisor with nonempty transition subsets removed.

    Deletion subsets are enumerated in increasing binary order over the
    transition list, up to ``limit`` variants; used to probe maximality.
    """
    aut = s.automaton if isinstance(s, SupervisorAutomaton) else s
    k = len(aut.transitions)
    produced = 0
    for mask in range(1, 1 << k):
        if produced >= limit:
            return
        keep = tuple(t for i, t in enumerate(aut.transitions) if not mask >> i & 1)
        yield replace(aut, transitions=keep, pair_of=None)
        produced += 1


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
