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

Representation: members are fixed-width bit masks over a deterministic
pair universe.  The fixpoint is driven by the family's antichain of
maximal members, which is sound because every iterate is closed
downward (the match predicate shrinks with its first argument and grows
with its third); the antichain engine is cross-checked against plain
member enumeration in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

# perfbench/tracer.py wraps names by getattr on this module (e.g.
# ``is_admissible``, unused here), so every imported name stays bound.
from .automata import (
    Automaton,
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
    holds,
    initial_cascade,
    initial_counterexample,
    is_admissible,
    is_cc_simulation,
    product_admissibility,
    refine,
)

Pair = tuple[str, str]

DEFAULT_UNIVERSE_CAP = 20


@dataclass(frozen=True)
class PairSetFamily:
    """A set of subsets of a fixed, ordered pair universe.

    Members are bit masks over ``universe`` indices; membership is exact
    set equality and members are deduplicated by construction.
    """

    universe: tuple[Pair, ...]
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "universe", tuple(tuple(p) for p in self.universe))
        object.__setattr__(self, "members", frozenset(self.members))
        if len(set(self.universe)) != len(self.universe):
            raise UniverseMismatch("universe pairs must be unique")
        full = (1 << len(self.universe)) - 1
        for m in self.members:
            if m & ~full:
                raise UniverseMismatch("member mask exceeds the universe")

    @staticmethod
    def from_pair_sets(universe, sets) -> "PairSetFamily":
        universe = tuple(tuple(p) for p in universe)
        index = {p: i for i, p in enumerate(universe)}
        members = set()
        for w in sets:
            mask = 0
            for p in w:
                p = tuple(p)
                if p not in index:
                    raise UniverseMismatch(f"pair {p!r} not in the universe")
                mask |= 1 << index[p]
            members.add(mask)
        return PairSetFamily(universe, frozenset(members))

    @staticmethod
    def over(g: Automaton, r: Automaton, sets) -> "PairSetFamily":
        """Family over the union of the given sets, ordered by state indices."""
        pairs = sorted(
            {tuple(p) for w in sets for p in w},
            key=lambda p: (g.state_index[p[0]], r.state_index[p[1]]),
        )
        return PairSetFamily.from_pair_sets(tuple(pairs), sets)

    def pairs_of(self, mask: int) -> tuple[Pair, ...]:
        return tuple(p for i, p in enumerate(self.universe) if mask >> i & 1)

    def member_sets(self) -> frozenset[frozenset[Pair]]:
        return frozenset(frozenset(self.pairs_of(m)) for m in self.members)

    def contains_set(self, pairs) -> bool:
        return frozenset(tuple(p) for p in pairs) in self.member_sets()

    def union_pairs(self) -> frozenset[Pair]:
        mask = 0
        for m in self.members:
            mask |= m
        return frozenset(self.pairs_of(mask))

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
    """Index tables and obligation masks for one (g, r, universe) triple.

    Built from one universe mask per state: ``row[x]`` holds the pairs
    whose plant state is x and ``col[z]`` those whose specification
    state is z.  Under an event, the pairs a specification state z can
    move to are the OR of ``col`` over z's successors, so the forward
    obligation of a plant move x --ev--> x1 at (x, z) is ``row[x1]``
    masked by it, and the backward obligation of a specification move
    z --ev--> z1 is ``col[z1]`` masked by the OR of ``row`` over x's
    successors.  Only the successor tables are read.
    """

    def __init__(self, g: Automaton, r: Automaton, universe: tuple[Pair, ...]):
        require_same_alphabet(g, r)
        self.g, self.r = g, r
        self.universe = tuple(universe)
        self.n = len(self.universe)
        self.full = (1 << self.n) - 1
        self.index: dict[Pair, int] = {}
        gi, ri = g.state_index, r.state_index
        row = [0] * g.n_states
        col = [0] * r.n_states
        codes: list[tuple[int, int]] = []
        for i, (x, z) in enumerate(self.universe):
            xi, zi = gi.get(x), ri.get(z)
            if xi is None or zi is None:
                raise UniverseMismatch(f"pair ({x!r}, {z!r}) outside the automata")
            self.index[(x, z)] = i
            row[xi] |= 1 << i
            col[zi] |= 1 << i
            codes.append((xi, zi))
        ab = g.alphabet
        self.uc_events = [e for e in ab.events if e in ab.uncontrollable]
        self.req_events = [e for e in ab.events if e in ab.required]
        # forward[i][ev]: one mask per plant move x --ev--> x', holding the
        # universe pairs (x', z') that a matching specification move reaches.
        self.forward: list[dict[str, list[int]]] = [{} for _ in codes]
        # backward[i][ev]: one (z', mask) per specification move z --ev--> z',
        # the mask holding universe pairs (x', z') with x --ev--> x'.
        self.backward: list[dict[str, list[tuple[str, int]]]] = [{} for _ in codes]
        # _obliged[ev]: (pairs with no forward obligation under ev, and
        # (bit, obligations) for each pair with some), for ``good_mask``.
        self._obliged: dict[str, tuple[int, list[tuple[int, list[int]]]]] = {}
        zname = r.states
        for ev, gk, rk in zip(ab.events, g.successor_table, r.successor_table):
            colk = [0] * r.n_states
            for zi, zs in enumerate(rk):
                for z1 in zs:
                    colk[zi] |= col[z1]
            required = ev in ab.required
            free, obliged = 0, []
            for i, (xi, zi) in enumerate(codes):
                xs = gk[xi]
                if xs:
                    cz = colk[zi]
                    obs = self.forward[i][ev] = [row[x1] & cz for x1 in xs]
                    obliged.append((1 << i, obs))
                else:
                    free |= 1 << i
                if required and rk[zi]:
                    rx = 0
                    for x1 in xs:
                        rx |= row[x1]
                    self.backward[i][ev] = [(zname[z1], rx & col[z1]) for z1 in rk[zi]]
            self._obliged[ev] = (free, obliged)
        initial_col = 0
        for z0 in r.initial:
            initial_col |= col[ri[z0]]
        self.istate_masks = [row[gi[x0]] & initial_col for x0 in g.initial]
        self.initial_mask = 0
        for m in self.istate_masks:
            self.initial_mask |= m
        self._good_cache: dict[tuple[str, int], int] = {}

    bits = staticmethod(_bits)

    def good_mask(self, ev: str, target: int) -> int:
        """Pairs whose forward obligations under ``ev`` land in ``target``."""
        key = (ev, target)
        cached = self._good_cache.get(key)
        if cached is None:
            cached, obliged = self._obliged[ev]
            for bit, obs in obliged:
                if all(map(target.__and__, obs)):
                    cached |= bit
            self._good_cache[key] = cached
        return cached

    def match(self, w: int, ev: str, target: int) -> bool:
        return w & ~self.good_mask(ev, target) == 0

    def istate(self, w: int) -> bool:
        return all(w & m for m in self.istate_masks)

    def obligations(self, w: int, ev: str) -> set[int]:
        """Forward-obligation masks of ``w``'s pairs under ``ev``.

        ``match(w, ev, t)`` holds exactly when ``t`` meets every one of
        them, and their union is the set of pairs ``w``'s moves reach.
        """
        return {ob for i in self.bits(w) for ob in self.forward[i].get(ev, ())}


def universe_kind(alphabet) -> RelationKind:
    return RelationKind(
        alphabet.uncontrollable, alphabet.required, False, False, "ucr-clauses"
    )


def _universe_refinement(g: Automaton, r: Automaton) -> RefineResult:
    return refine(g, r, universe_kind(g.alphabet))


def pairs_universe(g: Automaton, r: Automaton) -> tuple[Pair, ...]:
    """Admissible search space for family members.

    The union of any controllability family satisfies the uncontrollable-
    forward and required-backward clauses, so every member lies inside
    the greatest relation closed under them.  Returned in deterministic
    (plant index, specification index) order.
    """
    return tuple(_universe_refinement(g, r).alive)


def downward_closure(e: PairSetFamily) -> PairSetFamily:
    """All subsets of all members (closure under taking subsets)."""
    out: set[int] = set()
    for m in sorted(e.members, key=lambda v: -v.bit_count()):
        if m in out:
            continue
        out.update(_submasks(m))
    return PairSetFamily(e.universe, frozenset(out))


def is_controllability_family(e: PairSetFamily, g: Automaton, r: Automaton) -> bool:
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
    return _is_family(_FamilyContext(g, r, e.universe), _maximal(e.members))


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
    """
    survivors: list[int] = []
    seen: set[int] = set()
    stack = sorted(chain)
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        children = _violation_children(ctx, w, chain)
        if children is None:
            survivors.append(w)
        else:
            for c in children:
                if c not in seen:
                    stack.append(c)
    return _maximal(survivors)


def _violation_children(ctx: _FamilyContext, w: int, chain: list[int]):
    """None if ``w`` passes both conditions; else strictly smaller subsets
    jointly covering every passing subset of ``w``."""
    for ev in ctx.uc_events:
        if not any(ctx.match(w, ev, t) for t in chain):
            # A passing subset must fit below some target's good set.
            return [w & ctx.good_mask(ev, t) for t in chain]
    for i in ctx.bits(w):
        for ev, obligations in ctx.backward[i].items():
            for _z1, ob in obligations:
                if not any(t & ob and ctx.match(w, ev, t) for t in chain):
                    children = [w & ~(1 << i)]
                    children.extend(
                        w & ctx.good_mask(ev, t) for t in chain if t & ob
                    )
                    return children
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

    def materialize(self) -> PairSetFamily:
        return downward_closure(
            PairSetFamily(self.ctx.universe, frozenset(self.antichain))
        )


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
    universe = tuple(res.alive)
    if len(universe) > cap:
        raise CapExceeded(len(universe), cap)
    ctx = _FamilyContext(g, r, universe)
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
    return family_fixpoint(g, r, cap).materialize()


def is_solvable(g: Automaton, r: Automaton, cap: int | None = None) -> bool:
    """Does any fixpoint member pair all initial plant states with initials?"""
    return family_fixpoint(g, r, cap).solvable()


def solvability_counterexample(
    g: Automaton, r: Automaton, fix: _FamilyFixpoint
) -> Counterexample | None:
    """Explain an unsolvable instance.

    If some initial plant state has every initial pairing eliminated from
    the pair universe, the relation-level deletion cascade names the
    clause that killed it; otherwise the failure is the family-level
    istate condition.
    """
    if fix.solvable():
        return None
    res = fix.universe_refinement
    for x0 in g.initial:
        cands = [(x0, z0) for z0 in r.initial]
        if not any(c in res.alive for c in cands):
            return initial_cascade(
                res, cands, f"no admissible pairing for initial state {x0}"
            )
    remaining = list(fix.antichain)
    for x0idx, x0 in enumerate(g.initial):
        mask = fix.ctx.istate_masks[x0idx]
        remaining = [m for m in remaining if m & mask]
        if not remaining:
            return Counterexample(
                kind=ISTATE,
                left=x0,
                note="every family member pairing it fails the fixpoint conditions",
            )
    return None


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
    """What ``synthesize`` found: the verdict, the fixpoint it rests on
    and, when solvable, the supervisor and its verification report."""

    solvable: bool
    fixpoint: _FamilyFixpoint
    supervisor: SupervisorAutomaton | None = None

    @cached_property
    def family(self) -> PairSetFamily:
        """The greatest fixpoint, materialized on first read."""
        return self.fixpoint.materialize()

    @cached_property
    def report(self) -> VerificationReport | None:
        """``verify_solution`` on the supervisor, run on first read.

        Verification takes most of the time and memory of a large
        synthesis, so a caller can write the supervisor out first.
        """
        if self.supervisor is None:
            return None
        ctx = self.fixpoint.ctx
        return verify_solution(self.supervisor.automaton, ctx.g, ctx.r)

    @property
    def iterations(self) -> int:
        return self.fixpoint.iterations


def member_state_id(pairs) -> str:
    return "W{" + ",".join(f"{x}:{z}" for x, z in pairs) + "}"


def _initial_members(ctx: _FamilyContext, chain: list[int]) -> list[int]:
    # Initial supervisor states: members inside initial-by-initial pairs
    # that still realize the istate condition.
    cand: set[int] = set()
    for m in chain:
        cand.update(_submasks(m & ctx.initial_mask))
    return sorted(w for w in cand if ctx.istate(w))


def _hitting_sets(chain: list[int], obs) -> list[int]:
    """Nonzero submasks of the chain members that meet every mask in
    ``obs``, inside the union of ``obs``; ascending.

    With ``obs = ctx.obligations(w, ev)`` these are the successors of
    member ``w`` under ``ev``: closure members inside the pairs ``w``'s
    moves reach that match all of those moves.
    """
    post = 0
    for ob in obs:
        post |= ob
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


def _assemble_supervisor(
    ctx: _FamilyContext, chain: list[int], *, reachable_only: bool
) -> SupervisorAutomaton:
    initial = _initial_members(ctx, chain)
    if not initial:
        raise NotAFamily("no member realizes the initial condition")
    family = PairSetFamily(ctx.universe, frozenset(chain))
    events = ctx.g.alphabet.events
    if reachable_only:
        order = list(initial)
    else:
        order = sorted(downward_closure(family).members)
    position = {w: i for i, w in enumerate(order)}
    # Edge targets depend on a member and event only through the forward
    # obligations, so they are found once per set of obligations, and
    # moves with equal obligations share one tuple of target indices.
    memo: dict[frozenset[int], tuple[int, ...]] = {}
    table: list[list[tuple[int, ...]]] = [[] for _ in events]
    # Members are expanded in state order, so each appends its own row;
    # when reachable_only, the members found along the way are queued
    # at the end of ``order``.
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
    aut = Automaton.from_table(
        ctx.g.alphabet, names, table, [names[position[w]] for w in initial]
    )
    return SupervisorAutomaton(automaton=aut, members=dict(zip(names, pairs)))


def build_supervisor(
    e: PairSetFamily,
    g: Automaton,
    r: Automaton,
    *,
    reachable_only: bool = True,
) -> SupervisorAutomaton:
    """Supervisor automaton over the downward closure of ``e``.

    States are closure members; initial states are the members that
    realize the istate condition inside initial-by-initial pairs; there
    is a transition W --ev--> W' when some paired move realizes ``ev``,
    W' matches all of W's moves, and W' stays inside the pairs reachable
    by W's moves.  By default only the part reachable from the initial
    members is kept.

    Everything works from the antichain of ``e``'s maximal members: the
    family check is exact on it (see ``is_controllability_family``), and
    the closure members needed as states are generated as submasks of
    it while walking.  The closure itself is materialized only when
    ``reachable_only=False`` asks for every member.
    """
    ctx = _FamilyContext(g, r, e.universe)
    chain = _maximal(e.members)
    if not _is_family(ctx, chain):
        raise NotAFamily("input does not satisfy the controllability conditions")
    return _assemble_supervisor(ctx, chain, reachable_only=reachable_only)


def extract_family(
    s: Automaton,
    g: Automaton,
    r: Automaton,
    phi: PairRelation | None = None,
) -> PairSetFamily:
    """Family read off a covariant-contravariant simulation witness.

    Each supervisor state y contributes the set of (plant, specification)
    pairs that ``phi`` relates at reachable product states (y, x).  When
    ``phi`` is omitted the greatest witness is computed; a supplied
    relation is verified first.
    """
    prod = sync_product(s, g)
    kind = RelationKind.cc_simulation(r.alphabet)
    if phi is None:
        ok, result = holds(prod, r, kind)
        if not ok:
            raise NotCcSimulation(result.describe())
        phi = result
    else:
        if (phi.left, phi.right) != (prod, r):
            raise UniverseMismatch(
                "relation must range over the supervised system and the specification"
            )
        if not is_cc_simulation(prod, r, phi):
            raise NotCcSimulation("supplied relation violates a clause")
    assert prod.pair_of is not None
    theta: dict[str, set[Pair]] = {y: set() for y in s.states}
    for pid, z in phi.pairs:
        comp = prod.pair_of[pid]
        theta[comp.left].add((comp.right, z))
    return PairSetFamily.over(g, r, [frozenset(v) for v in theta.values()])


def verify_solution(s: Automaton, g: Automaton, r: Automaton) -> VerificationReport:
    """Independent membership test for candidate supervisors.

    Checks admissibility and the covariant-contravariant simulation of
    the supervised system by the specification; shares nothing with the
    family machinery.  One product walk and one refinement answer both
    conditions, passing or failing: admissibility and its counterexample
    are read off the product, and the simulation's initial condition and
    its counterexample off the refinement, which names states only when
    it failed.  The counterexamples are those of ``is_admissible`` and
    ``holds`` on their own.
    """
    require_same_alphabet(s, g)
    require_same_alphabet(g, r)
    prod = sync_product(s, g)
    kind = RelationKind.cc_simulation(r.alphabet)
    admissible, acx = product_admissibility(prod, g)
    ccx = initial_counterexample(refine(prod, r, kind), kind)
    return VerificationReport(
        admissible=admissible,
        cc_simulated=ccx is None,
        admissibility_counterexample=acx,
        cc_counterexample=ccx,
    )


def synthesize(
    g: Automaton, r: Automaton, cap: int | None = None, *, reachable_only: bool = True
) -> SynthesisOutcome:
    """Decide solvability and build the maximally permissive supervisor.

    When solvable, the supervisor built from the greatest fixpoint
    simulates every other solution's supervised behavior; the outcome's
    ``report`` re-verifies it through the independent membership test
    when it is read.  The outcome keeps the fixpoint's antichain; its
    downward closure is built only when ``family`` is read, or as
    supervisor states when ``reachable_only=False`` keeps every member
    (as in ``build_supervisor``).  The fixpoint is a controllability
    family by construction, so it is assembled without a family check.
    """
    fix = family_fixpoint(g, r, cap)
    if not fix.solvable():
        return SynthesisOutcome(False, fix)
    supervisor = _assemble_supervisor(
        fix.ctx, fix.antichain, reachable_only=reachable_only
    )
    return SynthesisOutcome(True, fix, supervisor)


def deterministic_fastpath(g: Automaton, r: Automaton) -> bool | None:
    """Shortcut valid only when both automata are deterministic.

    There, solvability coincides with the one-shot relation check with
    uncontrollable-forward, required-backward and initial conditions.
    Returns None otherwise; nondeterminism breaks the shortcut.
    """
    if not (is_deterministic(g) and is_deterministic(r)):
        return None
    ok, _ = holds(g, r, RelationKind.ucr_simulation(g.alphabet))
    return ok


def bisimilarity_solvable(g: Automaton, r: Automaton, cap: int | None = None) -> bool:
    """Solvability of the two-sided (bisimilarity) control problem.

    Runs the family fixpoint with every event required, then demands that
    the initial-by-initial members jointly cover every initial
    specification state.
    """
    ab = g.alphabet
    forced = replace(ab, required=frozenset(ab.events))
    g2 = replace(g, alphabet=forced, pair_of=None)
    r2 = replace(r, alphabet=forced, pair_of=None)
    fix = family_fixpoint(g2, r2, cap)
    if not fix.solvable():
        return False
    ctx = fix.ctx
    covered: set[str] = set()
    for m in fix.antichain:
        core = m & ctx.initial_mask
        if ctx.istate(core):
            covered.update(ctx.universe[i][1] for i in ctx.bits(core))
    return covered == set(r.initial)
