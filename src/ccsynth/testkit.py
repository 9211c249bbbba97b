"""Reproducible random instances and the brute-force checks the library
exports.

Random instances come from seeded generation that replays exactly.  The
checks probe the production algorithms from an independent direction:
relations by exhaustive enumeration, the match predicate over named
transitions, families by the member-by-member filtering step and
maximality by pruning supervisor transitions.  The test suite's other
oracles live in ``tests/oracles.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .automata import Alphabet, Automaton
from .errors import CapExceeded, UniverseMismatch
from .relations import PairRelation, RelationKind
from .synthesis import PairSetFamily, SupervisorAutomaton, _FamilyContext

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
    # table[event][state], filled state by state as the draws come
    table = [[()] * n for _ in alphabet.events]
    for i in range(n):
        for row in table:
            if deterministic:
                if rng.random() < density:
                    row[i] = (rng.randrange(n),)
            else:
                # A list, not a generator: a generator per entry raised the
                # peak RSS of perfbench's decide set-up by ~0.6 MB.
                row[i] = tuple([j for j in range(n) if rng.random() < density])
    if deterministic:
        initial = [states[0]]
    else:
        initial = [s for s in states if rng.random() < 0.25]
        if not initial:
            initial = [states[0]]
    return Automaton.from_table(alphabet, states, table, initial)


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
            for ob in obligations:
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


def enumerate_subsupervisors(
    s: SupervisorAutomaton | Automaton, limit: int
) -> Iterator[Automaton]:
    """Variants of a supervisor with nonempty transition subsets removed.

    Deletion subsets are enumerated in increasing binary order over the
    transition list, up to ``limit`` variants; used to probe maximality.
    Each variant drops its entries from a copy of the successor table.
    """
    aut = s.automaton if isinstance(s, SupervisorAutomaton) else s
    base = aut.successor_table
    # (event, source, target) indices of the transitions, in their order
    edges = [
        (k, i, j)
        for i in range(aut.n_states)
        for k, row in enumerate(base)
        for j in row[i]
    ]
    for mask in range(1, min(limit + 1, 1 << len(edges))):
        table = [list(row) for row in base]
        for bit in range(mask.bit_length()):
            if mask >> bit & 1:
                k, i, j = edges[bit]
                table[k][i] = tuple(t for t in table[k][i] if t != j)
        yield Automaton.from_table(aut.alphabet, aut.states, table, aut.initial)
