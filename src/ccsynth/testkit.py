"""Brute-force oracles and reproducible random instances.

Everything here exists to check the production algorithms from an
independent direction: relations by exhaustive enumeration, supervisors
by pruning and by assembly over the materialized closure, instances by
seeded generation that replays exactly.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator

from .automata import Alphabet, Automaton, validate_automaton
from .errors import CapExceeded, NotAFamily
from .relations import PairRelation, RelationKind
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
    return all(ctx.member_passes(w, members) for w in members)


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
