"""Controllability-set algebra and supervisor synthesis.

Solvability of the control problem is equivalent to the existence of a
*controllability family*: a set E of pair sets W (each pairing plant
states with specification states) such that

* (istate) some member pairs every initial plant state with an initial
  specification state;
* (uc-forward) every member has, for each uncontrollable event, a member
  all its matched moves can land in (the match predicate);
* (required-backward) every required specification move out of a paired
  state is matched by a plant move landing, together with the rest of
  the member's moves, in some member.

Families are filtered by a monotone step that keeps the members
satisfying both conditions against the family; its greatest fixpoint
over the powerset of an admissible pair universe decides solvability,
and the supervisor automaton built from that fixpoint is the maximally
permissive solution.

Representation: members are fixed-width bit masks over the pairs of
the universe relation, in its (plant index, specification index)
order.  The fixpoint is driven by the family's antichain of maximal
members, which is sound because every iterate is closed downward (the
match predicate shrinks with its first argument and grows with its
third); the antichain engine is cross-checked against plain member
enumeration in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import or_

# perfbench/tracer.py wraps names by getattr on this module (e.g.
# ``is_admissible``, unused here), so every imported name stays bound.
from .automata import (
    Automaton,
    escaped,
    is_deterministic,
    require_same_alphabet,
    sync_product,
)
from .errors import CapExceeded, NotAFamily, NotCcSimulation, UniverseMismatch
from .relations import (
    ISTATE,
    Counterexample,
    PairRelation,
    RefineResult,
    RelationKind,
    _bits,
    clauses_hold,
    holds,
    initial_cascade,
    initial_condition,
    initial_counterexample,
    is_admissible,
    product_admissibility,
    refine,
    unpaired_initial,
)

Pair = tuple[str, str]

DEFAULT_UNIVERSE_CAP = 20


@dataclass(frozen=True)
class PairSetFamily:
    """A set of subsets of a fixed universe relation.

    ``universe`` is a ``PairRelation`` over the plant and the
    specification; bit i of a member stands for its i-th pair in the
    relation's (plant index, specification index) order.  Membership is
    exact set equality and members are deduplicated by construction.
    """

    universe: PairRelation
    members: frozenset[int]

    def __post_init__(self):
        if not isinstance(self.universe, PairRelation):
            raise UniverseMismatch(
                "universe must be a relation over the plant and the specification"
            )
        object.__setattr__(self, "members", frozenset(self.members))
        full = (1 << len(self.universe)) - 1
        for m in self.members:
            if m & ~full:
                raise UniverseMismatch("member mask exceeds the universe")

    @staticmethod
    def over(g: Automaton, r: Automaton, sets) -> "PairSetFamily":
        """Family of the given pair sets, over the relation of their union."""
        sets = [frozenset(map(tuple, w)) for w in sets]
        universe = PairRelation(g, r, (p for w in sets for p in w))
        bit = {p: 1 << i for i, p in enumerate(universe)}
        members = frozenset(sum(map(bit.__getitem__, w)) for w in sets)
        return PairSetFamily(universe, members)

    @cached_property
    def _pairs(self) -> tuple[Pair, ...]:
        return tuple(self.universe)

    def pairs_of(self, mask: int) -> tuple[Pair, ...]:
        return tuple(p for i, p in enumerate(self._pairs) if mask >> i & 1)

    def member_sets(self) -> frozenset[frozenset[Pair]]:
        return frozenset(frozenset(self.pairs_of(m)) for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


def _submasks(base: int):
    sub = base
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & base


def _maximal(masks) -> list[int]:
    out: list[int] = []
    for m in sorted(set(masks), key=lambda v: (-v.bit_count(), v)):
        if not any(m | o == o for o in out):
            out.append(m)
    return sorted(out)


class _FamilyContext:
    """Index tables and obligation masks for one universe relation.

    The plant g and the specification r are the relation's ``left`` and
    ``right``.  Built from one universe mask per state, read off the
    relation's rows: ``row[x]`` holds the pairs whose plant state is x
    and ``col[z]`` those whose specification state is z.  Under an
    event, the pairs a specification state z can move to are the OR of
    ``col`` over z's successors, so the forward obligation of a plant
    move x --ev--> x1 at (x, z) is ``row[x1]`` masked by it, and the
    backward obligation of a specification move z --ev--> z1 is
    ``col[z1]`` masked by the OR of ``row`` over x's successors.  Only
    the successor tables and the rows are read; no pair is named.
    """

    def __init__(self, universe: PairRelation):
        g, r = universe.left, universe.right
        require_same_alphabet(g, r)
        self.g, self.r, self.universe = g, r, universe
        row = [0] * g.n_states
        col = [0] * r.n_states
        codes: list[tuple[int, int]] = []
        for xi, zs in enumerate(universe.rows):
            for zi in _bits(zs):
                bit = 1 << len(codes)
                row[xi] |= bit
                col[zi] |= bit
                codes.append((xi, zi))
        self.n = len(codes)
        self.full = (1 << self.n) - 1
        ab = g.alphabet
        self.uc_events = [e for e in ab.events if e in ab.uncontrollable]
        # forward[ev]: (the pairs with no plant move under ev, [(bit, masks)]
        # for the others), one mask per plant move x --ev--> x' holding the
        # universe pairs (x', z') that a matching specification move reaches.
        self.forward: dict[str, tuple[int, list[tuple[int, list[int]]]]] = {}
        # backward[ev], for the required events under which some pair has
        # a specification move: (bit, obligations), one mask per move
        # z --ev--> z' holding the universe pairs (x', z') with x --ev--> x'.
        self.backward: dict[str, list[tuple[int, list[int]]]] = {}
        for ev, gk, rk in zip(ab.events, g.successor_table, r.successor_table):
            colk = [0] * r.n_states
            for zi, zs in enumerate(rk):
                for z1 in zs:
                    colk[zi] |= col[z1]
            required = ev in ab.required
            free, forward, backward = 0, [], []
            for i, (xi, zi) in enumerate(codes):
                xs = gk[xi]
                if xs:
                    forward.append((1 << i, [row[x1] & colk[zi] for x1 in xs]))
                else:
                    free |= 1 << i
                if required and rk[zi]:
                    rx = 0
                    for x1 in xs:
                        rx |= row[x1]
                    backward.append((1 << i, [rx & col[z1] for z1 in rk[zi]]))
            self.forward[ev] = (free, forward)
            if backward:
                self.backward[ev] = backward
        gi, ri = g.state_index, r.state_index
        initial_col = reduce(or_, (col[ri[z0]] for z0 in r.initial), 0)
        self.istate_masks = [row[gi[x0]] & initial_col for x0 in g.initial]
        self.initial_mask = reduce(or_, self.istate_masks, 0)
        self._good_cache: dict[tuple[str, int], int] = {}

    def good_mask(self, ev: str, target: int) -> int:
        """Pairs whose forward obligations under ``ev`` land in ``target``."""
        key = (ev, target)
        cached = self._good_cache.get(key)
        if cached is None:
            cached, obliged = self.forward[ev]
            for bit, obs in obliged:
                if all(map(target.__and__, obs)):
                    cached |= bit
            self._good_cache[key] = cached
        return cached

    def istate(self, w: int) -> bool:
        return all(w & m for m in self.istate_masks)

    def obligations(self, w: int, ev: str) -> set[int]:
        """Forward-obligation masks of ``w``'s pairs under ``ev``.

        A target matches ``w``'s moves exactly when it meets every one
        of them, and their union is the set of pairs ``w``'s moves reach.
        """
        return {ob for bit, obs in self.forward[ev][1] if w & bit for ob in obs}


def _universe_refinement(g: Automaton, r: Automaton) -> RefineResult:
    return refine(g, r, RelationKind.ucr_simulation(g.alphabet))


def pairs_universe(g: Automaton, r: Automaton) -> PairRelation:
    """Admissible search space for family members.

    The union of any controllability family satisfies the uncontrollable-
    forward and required-backward clauses, so every member lies inside
    the greatest relation closed under them: the relation ``refine``
    returns, which names its pairs in (plant index, specification index)
    order.
    """
    return _universe_refinement(g, r).alive


def downward_closure(e: PairSetFamily) -> PairSetFamily:
    """All subsets of all members (closure under taking subsets)."""
    out: set[int] = set()
    for m in sorted(e.members, key=lambda v: -v.bit_count()):
        if m in out:
            continue
        out.update(_submasks(m))
    return PairSetFamily(e.universe, frozenset(out))


def is_controllability_family(e: PairSetFamily) -> bool:
    """Check of the family conditions, quantified over ``e`` itself.

    Only the antichain A of ``e``'s maximal members is examined, and the
    answer is the same as for the pairwise check over all of ``e``,
    whether or not ``e`` is downward closed.  ``istate`` is upward
    closed, so some member satisfies it iff some maximal one does.  The
    match predicate shrinks with its first argument and grows with its
    third, and a smaller member carries fewer backward obligations, so
    a member passes against ``e`` iff the maximal member above it passes
    against A.  The cost is O(|A|^2) instead of O(|e|^2).
    """
    return _is_family(_FamilyContext(e.universe), _maximal(e.members))


def _is_family(ctx: _FamilyContext, chain: list[int]) -> bool:
    """The family conditions on the antichain ``chain``, against itself."""
    if not any(ctx.istate(w) for w in chain):
        return False
    return all(_violation_children(ctx, w, chain) is None for w in chain)


def _antichain_pass(ctx: _FamilyContext, chain: list[int]) -> list[int]:
    """Maximal members surviving one filtering pass of the closed family.

    Candidate members are explored top down; when one violates a
    condition, every surviving subset must avoid that violation, which
    yields a small set of strictly smaller children covering all of them.
    Passing is closed downward, so a candidate inside a survivor is skipped.
    """
    survivors: list[int] = []
    seen: set[int] = set()
    stack = sorted(chain)
    while stack:
        w = stack.pop()
        if w in seen or any(w | s == s for s in survivors):
            continue
        seen.add(w)
        children = _violation_children(ctx, w, chain)
        if children is None:
            survivors.append(w)
        else:
            stack.extend(c for c in children if c not in seen)
    return _maximal(survivors)


def _violation_children(ctx: _FamilyContext, w: int, chain: list[int]):
    """None if ``w`` passes both conditions; else strictly smaller subsets
    jointly covering every passing subset of ``w``."""
    for ev in ctx.uc_events:
        goods = [ctx.good_mask(ev, t) for t in chain]
        if all(w & ~good for good in goods):
            # A passing subset must fit below some target's good set.
            return [w & good for good in goods]
    for ev, obliged in ctx.backward.items():
        goods = [ctx.good_mask(ev, t) for t in chain]
        # A backward obligation is answered iff it meets a chain member
        # that matches w's moves, so it is tested against their OR.
        matched = 0
        for t, good in zip(chain, goods):
            if w & ~good == 0:
                matched |= t
        for bit, obs in obliged:
            if w & bit:
                for ob in obs:
                    if not ob & matched:
                        return [w & ~bit] + [
                            w & good for t, good in zip(chain, goods) if t & ob
                        ]
    return None


@dataclass
class _FamilyFixpoint:
    ctx: _FamilyContext
    antichain: list[int]
    iterations: int
    universe_refinement: RefineResult

    def solvable(self) -> bool:
        # The istate condition only demands containment of pairs, so it
        # holds for some member iff it holds for some maximal member.
        return any(self.ctx.istate(m) for m in self.antichain)


def family_fixpoint(
    g: Automaton, r: Automaton, cap: int | None = None
) -> _FamilyFixpoint:
    """Greatest fixpoint of the filtering step over the full powerset.

    Tracked by its antichain of maximal members; the full powerset start
    is downward closed and every pass preserves closure, so the antichain
    determines the family exactly.
    """
    if cap is None:
        cap = DEFAULT_UNIVERSE_CAP
    res = _universe_refinement(g, r)
    size = len(res.alive)
    if size > cap:
        raise CapExceeded(size, cap)
    ctx = _FamilyContext(res.alive)
    chain = [ctx.full]
    iterations = 0
    while True:
        iterations += 1
        nxt = _antichain_pass(ctx, chain)
        if nxt == chain:
            return _FamilyFixpoint(ctx, chain, iterations, res)
        chain = nxt


def greatest_family(
    g: Automaton, r: Automaton, cap: int | None = None
) -> PairSetFamily:
    """The greatest fixpoint, materialized member by member."""
    fix = family_fixpoint(g, r, cap)
    return downward_closure(PairSetFamily(fix.ctx.universe, frozenset(fix.antichain)))


def is_solvable(g: Automaton, r: Automaton, cap: int | None = None) -> bool:
    """Does any fixpoint member pair all initial plant states with initials?"""
    return family_fixpoint(g, r, cap).solvable()


def solvability_counterexample(fix: _FamilyFixpoint) -> Counterexample | None:
    """Explain an unsolvable instance.

    If some initial plant state has every initial pairing eliminated from
    the pair universe, the relation-level deletion cascade names the
    clause that killed it.  Otherwise no antichain member meets every
    istate mask, and the first plant state at which none is left is named:
    either no member pairs it with an initial specification state, or
    none does so together with the initial plant states before it.
    """
    if fix.solvable():
        return None
    res = fix.universe_refinement
    hit = unpaired_initial(res.alive)
    if hit:
        return initial_cascade(res, hit, "no admissible pairing for initial state")
    initial = fix.ctx.g.initial
    remaining = list(fix.antichain)
    for x0idx, x0 in enumerate(initial):
        mask = fix.ctx.istate_masks[x0idx]
        remaining = [m for m in remaining if m & mask]
        if not remaining:
            if any(m & mask for m in fix.antichain):
                earlier = ", ".join(initial[:x0idx])
                note = f"no family member pairs it together with {earlier}"
            else:
                note = "every family member pairing it fails the fixpoint conditions"
            return Counterexample(kind=ISTATE, left=x0, note=note)


@dataclass(frozen=True)
class SupervisorAutomaton:
    """Automaton whose states are family members, with the member map."""

    automaton: Automaton
    members: dict[str, tuple[Pair, ...]]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the two independent solution conditions."""

    admissible: bool
    cc_simulated: bool
    admissibility_counterexample: Counterexample | None = None
    cc_counterexample: Counterexample | None = None

    @property
    def overall(self) -> bool:
        return self.admissible and self.cc_simulated


@dataclass(frozen=True)
class SynthesisOutcome:
    """What ``synthesize`` found: the fixpoint the verdict rests on and,
    when solvable, the supervisor, verified lazily through ``report``.
    The fixpoint is kept as its antichain; ``greatest_family`` builds
    the downward closure."""

    fixpoint: _FamilyFixpoint
    supervisor: SupervisorAutomaton | None = None

    @property
    def solvable(self) -> bool:
        return self.supervisor is not None

    @cached_property
    def report(self) -> VerificationReport | None:
        """``verify_solution`` on the supervisor, run on first read.

        Verification takes most of the time and memory of a large
        synthesis, so a caller can write the supervisor out first.  The
        supervisor's members are passed as the witness: the paper's
        sufficiency construction.  They only spare the refinement when
        they pass the clause sweep, so a synthesis bug that corrupts
        them costs time, never a wrong verdict.
        """
        if self.supervisor is None:
            return None
        ctx = self.fixpoint.ctx
        sup = self.supervisor
        return verify_solution(sup.automaton, ctx.g, ctx.r, witness=sup.members)


def member_state_id(pairs) -> str:
    return "W{" + ",".join(f"{x}:{z}" for x, z in pairs) + "}"


def _hitting_sets(chain: list[int], obs) -> list[int]:
    """Nonzero submasks of the chain members that meet every mask in
    ``obs``, inside the union of ``obs``; ascending.

    With ``obs = ctx.obligations(w, ev)`` these are the successors of
    member ``w`` under ``ev``: closure members inside the pairs ``w``'s
    moves reach that match all of those moves.
    """
    post = reduce(or_, obs, 0)
    cand: set[int] = set()
    for m in chain:
        base = post & m
        if not all(map(base.__and__, obs)):
            continue
        # The nonzero submasks of base, walked inline: this loop is where
        # assembly spends its time.
        t = base
        while t:
            if all(map(t.__and__, obs)):
                cand.add(t)
            t = (t - 1) & base
    return sorted(cand)


def _assemble_supervisor(ctx: _FamilyContext, chain: list[int]) -> SupervisorAutomaton:
    # Initial supervisor states: members that meet every initial plant
    # state's pairs with initial specification states (the istate
    # condition), inside those pairs.
    initial = _hitting_sets(chain, ctx.istate_masks)
    family = PairSetFamily(ctx.universe, frozenset(chain))
    events = ctx.g.alphabet.events
    order = list(initial)
    position = {w: i for i, w in enumerate(order)}
    # Edge targets depend on a member and event only through the forward
    # obligations, so they are found once per set of obligations, and
    # moves with equal obligations share one tuple of target indices.
    memo: dict[frozenset[int], tuple[int, ...]] = {}
    table: list[list[tuple[int, ...]]] = [[] for _ in events]
    # Members are expanded in state order, so each appends its own row;
    # the members found along the way are queued at the end of ``order``.
    i = 0
    while i < len(order):
        w = order[i]
        for k, ev in enumerate(events):
            key = frozenset(ctx.obligations(w, ev))
            targets = memo.get(key)
            if targets is None:
                masks = _hitting_sets(chain, key)
                for t in masks:
                    if t not in position:
                        position[t] = len(order)
                        order.append(t)
                targets = memo[key] = tuple(sorted(map(position.__getitem__, masks)))
            table[k].append(targets)
        i += 1
    pairs = [family.pairs_of(w) for w in order]
    names = [member_state_id(p) for p in pairs]
    if len(set(names)) < len(names):
        # Some state name holds a separator: escape every one, once.
        xs, zs = (dict(zip(a.states, escaped(a.states))) for a in (ctx.g, ctx.r))
        names = [member_state_id((xs[x], zs[z]) for x, z in p) for p in pairs]
    aut = Automaton.from_table(
        ctx.g.alphabet, names, table, [names[position[w]] for w in initial]
    )
    return SupervisorAutomaton(automaton=aut, members=dict(zip(names, pairs)))


def build_supervisor(e: PairSetFamily) -> SupervisorAutomaton:
    """Supervisor automaton over the downward closure of ``e``.

    States are closure members; initial states are the members that
    realize the istate condition inside initial-by-initial pairs; there
    is a transition W --ev--> W' when some paired move realizes ``ev``,
    W' matches all of W's moves, and W' stays inside the pairs reachable
    by W's moves.  Only the part reachable from the initial members is
    kept: S‖G never visits any other member.

    Everything works from the antichain of ``e``'s maximal members: the
    family check is exact on it (see ``is_controllability_family``), and
    the closure members needed as states are generated as submasks of
    it while walking, so the closure itself is never materialized.
    """
    ctx = _FamilyContext(e.universe)
    chain = _maximal(e.members)
    if not _is_family(ctx, chain):
        raise NotAFamily("input does not satisfy the controllability conditions")
    return _assemble_supervisor(ctx, chain)


def extract_family(s: Automaton, g: Automaton, r: Automaton) -> PairSetFamily:
    """Family read off the greatest covariant-contravariant simulation.

    Each supervisor state y contributes the set of (plant, specification)
    pairs that the greatest such simulation of ``sync_product(s, g)`` by
    ``r`` relates at reachable product states (y, x).
    """
    prod = sync_product(s, g)
    ok, phi = holds(prod, r, RelationKind.cc_simulation(r.alphabet))
    if not ok:
        raise NotCcSimulation(phi.describe())
    assert prod.pair_of is not None
    theta: dict[str, set[Pair]] = {y: set() for y in s.states}
    for pid, z in phi:
        comp = prod.pair_of[pid]
        theta[comp.left].add((comp.right, z))
    return PairSetFamily.over(g, r, [frozenset(v) for v in theta.values()])


def _witness_relation(
    s: Automaton, g: Automaton, r: Automaton, prod: Automaton, witness
) -> PairRelation | None:
    """Φ = {((y, x), z) : (x, z) ∈ witness[y]} over ``prod``'s states.

    ``prod`` is ``sync_product(s, g)``; each product state's row is read
    through ``prod.pair_of``.  A supervisor state the witness leaves out
    gets empty rows.  None when the witness names a supervisor, plant or
    specification state that ``s``, ``g`` or ``r`` does not declare.
    """
    si, gi, ri = s.state_index, g.state_index, r.state_index
    # (supervisor state, plant state) -> its specification states' mask
    cols: dict[tuple[str, str], int] = {}
    for y, pairs in witness.items():
        if y not in si:
            return None
        for x, z in pairs:
            if x not in gi or z not in ri:
                return None
            cols[y, x] = cols.get((y, x), 0) | 1 << ri[z]
    pair_of = prod.pair_of
    rows = [cols.get(pair_of[name], 0) for name in prod.states]
    return PairRelation.from_rows(prod, r, rows)


def verify_solution(
    s: Automaton,
    g: Automaton,
    r: Automaton,
    witness: Mapping[str, Iterable[Pair]] | None = None,
) -> VerificationReport:
    """Independent membership test for candidate supervisors.

    Checks admissibility and the covariant-contravariant simulation of
    the supervised system by the specification; shares nothing with the
    family machinery.  One product walk answers admissibility, and its
    counterexample is read off the product.

    ``witness`` maps supervisor states to pairs of plant and
    specification states, as ``SupervisorAutomaton.members`` does.  When
    given, the relation Φ = {((y, x), z) : (x, z) ∈ witness[y]} is
    checked against the simulation's clauses in one sweep over its bit
    rows (``clauses_hold``), and against its initial condition.  A
    relation that passes lies inside the greatest simulation, wherever
    it came from, so its pass proves the simulation and no refinement
    runs.  A witness whose Φ is not a simulation fails these checks, so
    a wrong witness can only cause a fallback to the refinement, never
    a wrong "yes".  A witness naming undeclared states falls back too,
    as does a call without a witness.

    The refinement decides the simulation and names its counterexample
    off the deletion log.  Verdicts and counterexamples are those of
    ``is_admissible`` and ``holds`` on their own, with or without a
    witness.
    """
    require_same_alphabet(g, r)
    prod = sync_product(s, g)
    kind = RelationKind.cc_simulation(r.alphabet)
    admissible, acx = product_admissibility(prod, g)
    phi = None if witness is None else _witness_relation(s, g, r, prod, witness)
    if phi is not None and clauses_hold(phi, kind) and initial_condition(phi):
        ccx = None
    else:
        ccx = initial_counterexample(refine(prod, r, kind), kind)
    return VerificationReport(
        admissible=admissible,
        cc_simulated=ccx is None,
        admissibility_counterexample=acx,
        cc_counterexample=ccx,
    )


def synthesize(g: Automaton, r: Automaton, cap: int | None = None) -> SynthesisOutcome:
    """Decide solvability and build the maximally permissive supervisor.

    When solvable, the supervisor built from the greatest fixpoint
    simulates every other solution's supervised behavior; the outcome's
    ``report`` re-verifies it through the independent membership test
    when it is read.  The outcome keeps the fixpoint's antichain and
    builds no downward closure.  The supervisor is the reachable part,
    as in ``build_supervisor``.  The fixpoint is a controllability
    family by construction, so it is assembled without a family check.
    """
    fix = family_fixpoint(g, r, cap)
    if not fix.solvable():
        return SynthesisOutcome(fix)
    return SynthesisOutcome(fix, _assemble_supervisor(fix.ctx, fix.antichain))


def deterministic_fastpath(g: Automaton, r: Automaton) -> bool | None:
    """Shortcut valid only when both automata are deterministic.

    There, solvability coincides with the one-shot relation check with
    uncontrollable-forward, required-backward and initial conditions.
    Returns None otherwise; nondeterminism breaks the shortcut.
    """
    if not (is_deterministic(g) and is_deterministic(r)):
        return None
    return unpaired_initial(pairs_universe(g, r)) is None


def bisimilarity_solvable(g: Automaton, r: Automaton, cap: int | None = None) -> bool:
    """Solvability of the two-sided (bisimilarity) control problem.

    Runs the family fixpoint with every event required, then demands that
    the initial-by-initial members jointly cover every initial
    specification state.
    """
    require_same_alphabet(g, r)
    ab = g.alphabet
    forced = replace(ab, required=frozenset(ab.events))
    g2 = replace(g, alphabet=forced, pair_of=None)
    r2 = replace(r, alphabet=forced, pair_of=None)
    fix = family_fixpoint(g2, r2, cap)
    if not fix.solvable():
        return False
    ctx = fix.ctx
    chain = PairSetFamily(ctx.universe, frozenset(fix.antichain))
    covered: set[str] = set()
    for m in fix.antichain:
        core = m & ctx.initial_mask
        if ctx.istate(core):
            covered.update(z for _, z in chain.pairs_of(core))
    return covered == set(r.initial)
