"""Parameterized forward/backward simulation engine.

One refinement loop instantiates every behavioral preorder used by the
synthesis pipeline.  A *kind* selects which events carry a forward
obligation (moves of the left automaton must be matched by the right),
which carry a backward obligation (moves of the right automaton must be
matched by the left), and which initial-state conditions apply:

===============  ==============  ===============  ========================
kind             forward events  backward events  initial conditions
===============  ==============  ===============  ========================
simulation       all             none             left-to-right
cc-simulation    all             required         left-to-right
bisimulation     all             all              both directions
uc-simulation    uncontrollable  none             left-to-right
ucr-simulation   uncontrollable  required         left-to-right
===============  ==============  ===============  ========================

Relations satisfying a kind's forward/backward clauses are closed under
union, so a unique greatest one exists; it is computed by deleting
violating pairs from the full product until stable.  Deletions are
logged so that a failed check can be explained by walking the deletion
cascade down to a pair whose obligation has no candidate witness at all.

Representation: the engine works on state indices and the automata's
shared successor tables.  The relation is one int bit row of right
states per left state, so a clause test is a mask operation instead of
a loop over successor pairs (the bit-parallel idea of Henzinger,
Henzinger & Kopke, FOCS 1995, with the pair-by-pair deletion order
kept).  Each deletion is logged as a tuple of integers; state names,
``_Deletion`` records and their candidate pairs are built only for the
pairs a counterexample looks up, so a check that holds names nothing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Set
from dataclasses import dataclass, replace

from .automata import Automaton, require_same_alphabet, sync_product
from .errors import CapExceeded, UniverseMismatch

FORWARD = "forward"
BACKWARD = "backward"
ADMISSIBILITY = "admissibility"
ISTATE = "istate"


@dataclass(frozen=True)
class RelationKind:
    """Clause selection for the greatest-relation computation."""

    forward_events: frozenset[str]
    backward_events: frozenset[str] = frozenset()
    check_initial: bool = True
    check_inverse_initial: bool = False
    name: str = "custom"

    @staticmethod
    def simulation(alphabet) -> "RelationKind":
        return RelationKind(frozenset(alphabet.events), frozenset(), True, False, "sim")

    @staticmethod
    def cc_simulation(alphabet) -> "RelationKind":
        return RelationKind(
            frozenset(alphabet.events), alphabet.required, True, False, "ccsim"
        )

    @staticmethod
    def bisimulation(alphabet) -> "RelationKind":
        # A single relation whose forward clause holds in both directions
        # is exactly one that is a simulation alongside its inverse.
        return RelationKind(
            frozenset(alphabet.events), frozenset(alphabet.events), True, True, "bisim"
        )

    @staticmethod
    def uc_simulation(alphabet) -> "RelationKind":
        return RelationKind(alphabet.uncontrollable, frozenset(), True, False, "ucsim")

    @staticmethod
    def ucr_simulation(alphabet) -> "RelationKind":
        return RelationKind(
            alphabet.uncontrollable, alphabet.required, True, False, "ucrsim"
        )

    @staticmethod
    def simulation_wrt(events) -> "RelationKind":
        return RelationKind(frozenset(events), frozenset(), True, False, "sim-wrt")

    @staticmethod
    def named(name: str, alphabet) -> "RelationKind":
        factories = {
            "sim": RelationKind.simulation,
            "ccsim": RelationKind.cc_simulation,
            "bisim": RelationKind.bisimulation,
            "ucsim": RelationKind.uc_simulation,
            "ucrsim": RelationKind.ucr_simulation,
        }
        try:
            return factories[name](alphabet)
        except KeyError:
            raise ValueError(f"unknown relation kind {name!r}") from None


@dataclass(frozen=True)
class PairRelation:
    """A set of (state of ``left``, state of ``right``) pairs."""

    left: Automaton
    right: Automaton
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for x, z in self.pairs:
            if x not in self.left.state_index:
                raise UniverseMismatch(f"state {x!r} not in the left automaton")
            if z not in self.right.state_index:
                raise UniverseMismatch(f"state {z!r} not in the right automaton")

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> tuple[tuple[str, str], ...]:
        li, ri = self.left.state_index, self.right.state_index
        return tuple(sorted(self.pairs, key=lambda p: (li[p[0]], ri[p[1]])))


@dataclass(frozen=True)
class Step:
    """One link of a deletion cascade: the obligation that had no witness."""

    left: str
    right: str
    clause: str
    event: str
    successor: str


@dataclass(frozen=True)
class Counterexample:
    """Why a check failed: the root violation plus the cascade to it.

    ``kind`` names the violated clause.  For relation checks it is the
    clause of the cascade's root (``forward`` or ``backward``); the
    chain starts at the pair demanded by the failed initial condition.
    """

    kind: str
    left: str
    right: str | None = None
    event: str | None = None
    successor: str | None = None
    chain: tuple[Step, ...] = ()
    note: str = ""

    def describe(self) -> str:
        if self.kind == FORWARD:
            head = (
                f"forward clause fails at ({self.left}, {self.right}): "
                f"{self.left} --{self.event}--> {self.successor} has no matching move "
                f"from {self.right}"
            )
        elif self.kind == BACKWARD:
            head = (
                f"backward clause fails at ({self.left}, {self.right}): "
                f"{self.right} --{self.event}--> {self.successor} is required but "
                f"{self.left} cannot match it"
            )
        elif self.kind == ADMISSIBILITY:
            head = (
                f"admissibility fails at ({self.left}, {self.right}): plant enables "
                f"uncontrollable {self.event} but the supervisor refuses it"
            )
        elif self.kind == ISTATE:
            head = f"no controllability family member covers initial state {self.left}"
        else:
            head = f"{self.kind} clause fails at ({self.left}, {self.right})"
        return head if not self.note else f"{head} [{self.note}]"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "left": self.left,
            "right": self.right,
            "event": self.event,
            "successor": self.successor,
            "chain": [
                {
                    "left": s.left,
                    "right": s.right,
                    "clause": s.clause,
                    "event": s.event,
                    "successor": s.successor,
                }
                for s in self.chain
            ],
            "note": self.note,
            "message": self.describe(),
        }


@dataclass
class _Deletion:
    clause: str
    event: str
    successor: str
    time: int
    candidates: tuple[tuple[str, str], ...]


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pair_indices(left: Automaton, right: Automaton, pair) -> tuple[int, int] | None:
    """State indices of a named pair; None for anything else."""
    if not isinstance(pair, tuple) or len(pair) != 2:
        return None
    try:
        return left.state_index[pair[0]], right.state_index[pair[1]]
    except (KeyError, TypeError):
        return None


class AlivePairs(Set):
    """Named, read-only view of the pairs a refinement kept.

    Membership and size read the bit rows directly; iteration names the
    pairs in (left index, right index) order.  The view holds the
    automata and the rows, not the refinement, so it keeps no cycle
    alive.
    """

    def __init__(self, left: Automaton, right: Automaton, rows: list[int]):
        self._left, self._right, self._rows = left, right, rows

    def __contains__(self, pair) -> bool:
        ij = _pair_indices(self._left, self._right, pair)
        return ij is not None and bool(self._rows[ij[0]] >> ij[1] & 1)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def __iter__(self):
        xs, zs = self._left.states, self._right.states
        for xi, row in enumerate(self._rows):
            for zi in _bits(row):
                yield xs[xi], zs[zi]


class DeletionReasons(Mapping):
    """Named, read-only view of a refinement's deletion log.

    Maps each deleted pair to its ``_Deletion`` record, in deletion
    order.  A record, with its state names and candidate witnesses, is
    built only when its pair is looked up, and then kept; size and
    membership name nothing.  Like ``AlivePairs``, it holds the log,
    not the refinement.
    """

    def __init__(self, left: Automaton, right: Automaton, log: list):
        self._left, self._right, self._log = left, right, log
        self._named: dict[int, _Deletion] = {}
        self._time: dict[int, int] | None = None

    def _log_time(self, pair) -> int | None:
        ij = _pair_indices(self._left, self._right, pair)
        if ij is None:
            return None
        if self._time is None:
            self._time = {entry[0]: t for t, entry in enumerate(self._log)}
        return self._time.get(ij[0] * self._right.n_states + ij[1])

    def __contains__(self, pair) -> bool:
        return self._log_time(pair) is not None

    def __getitem__(self, pair) -> _Deletion:
        time = self._log_time(pair)
        if time is None:
            raise KeyError(pair)
        d = self._named.get(time)
        if d is None:
            d = self._named[time] = self._name(time)
        return d

    def _name(self, time: int) -> _Deletion:
        """The record of log entry ``time``."""
        a, b = self._left, self._right
        xs, zs = a.states, b.states
        pid, clause, k, succ = self._log[time]
        xi, zi = divmod(pid, b.n_states)
        if clause == FORWARD:
            cands = tuple((xs[succ], zs[z1]) for z1 in b.successor_table[k][zi])
            name = xs[succ]
        else:
            cands = tuple((xs[x1], zs[succ]) for x1 in a.successor_table[k][xi])
            name = zs[succ]
        return _Deletion(clause, a.alphabet.events[k], name, time, cands)

    def __len__(self) -> int:
        return len(self._log)

    def __iter__(self):
        xs, zs, nb = self._left.states, self._right.states, self._right.n_states
        for pid, *_ in self._log:
            xi, zi = divmod(pid, nb)
            yield xs[xi], zs[zi]


class RefineResult:
    """Greatest relation for a kind's clauses, with its deletion log.

    ``rows[x]`` is the bit mask of right states still related to left
    state ``x``.  Each deletion is logged as integers, in deletion order,
    as (pair code ``x * |right| + z``, clause, event index, successor
    index); ``reasons`` names a deletion, with its candidate witnesses,
    only when its pair is looked up.
    """

    def __init__(self, left: Automaton, right: Automaton, rows: list[int], log: list):
        self.left, self.right = left, right
        self.rows = rows
        self._log = log
        self.deletions = len(log)
        self.alive = AlivePairs(left, right, rows)
        self.reasons = DeletionReasons(left, right, log)

    def relation(self) -> PairRelation:
        return PairRelation(self.left, self.right, frozenset(self.alive))

    def root_cause(self, pair: tuple[str, str]) -> Counterexample:
        """Walk the deletion cascade from ``pair`` to an intrinsic violation."""
        chain: list[Step] = []
        current = pair
        while True:
            d = self.reasons[current]
            chain.append(Step(current[0], current[1], d.clause, d.event, d.successor))
            if not d.candidates:
                break
            # Every candidate was already dead when this pair was deleted;
            # following the earliest death keeps the walk strictly
            # decreasing in time, so it terminates at a rootless deletion.
            current = min(d.candidates, key=lambda c: self.reasons[c].time)
        root = chain[-1]
        return Counterexample(
            kind=root.clause,
            left=root.left,
            right=root.right,
            event=root.event,
            successor=root.successor,
            chain=tuple(chain),
        )


def refine(a: Automaton, b: Automaton, kind: RelationKind) -> RefineResult:
    """Delete clause-violating pairs from the full product until stable.

    One scan in fixed pair-index order seeds a FIFO worklist; a deleted
    pair re-queues exactly the pairs whose clauses could have used it as
    a witness.  Fully deterministic, and the result is the unique
    greatest clause-closed relation regardless of processing order.

    The relation is held as one bit row of right states per left state,
    so the forward clause for a move x --e--> x1 is one ``&`` of x1's row
    with z's successor mask, and the backward clause tests z's
    successors against the OR of the rows of x's successors.  A deletion
    re-queues one chunk per predecessor row, a left state with a mask of
    right states, whose bits are then checked in ascending order.  Pairs
    are checked, deleted and re-queued in the same order as a
    pair-by-pair scan, so deletion times, clauses and counterexamples do
    not depend on the representation.
    """
    require_same_alphabet(a, b)
    events = a.alphabet.events
    for ev in kind.forward_events | kind.backward_events:
        if ev not in a.alphabet._event_index:
            raise UniverseMismatch(f"kind references event {ev!r} outside the alphabet")
    na, nb = a.n_states, b.n_states
    fwd = [k for k, ev in enumerate(events) if ev in kind.forward_events]
    bwd = [k for k, ev in enumerate(events) if ev in kind.backward_events]
    deps = sorted(set(fwd) | set(bwd))

    succ_a, succ_b = a.successor_table, b.successor_table
    succ_mask_b = [[sum(1 << z for z in zs) for zs in row] for row in succ_b]
    # Predecessors under the events a deletion can matter for: ascending
    # left indices, and right-state masks.
    pred_a = {k: [[] for _ in range(na)] for k in deps}
    pred_mask_b = {k: [0] * nb for k in deps}
    for k in deps:
        for xi, xs in enumerate(succ_a[k]):
            for x1 in xs:
                pred_a[k][x1].append(xi)
        for zi, zs in enumerate(succ_b[k]):
            for z1 in zs:
                pred_mask_b[k][z1] |= 1 << zi

    rows = [(1 << nb) - 1] * na
    queued = [0] * na
    log: list[tuple[int, str, int, int]] = []
    queue: deque[tuple[int, int]] = deque()
    push = queue.append
    fwd_tables = [(k, succ_a[k], succ_mask_b[k]) for k in fwd]
    bwd_tables = [(k, succ_a[k], succ_mask_b[k]) for k in bwd]
    pred_tables = [(pred_a[k], pred_mask_b[k]) for k in deps]

    def check(xi: int, zi: int):
        for k, sa, smb in fwd_tables:
            zs = smb[zi]
            for x1 in sa[xi]:
                if not rows[x1] & zs:
                    return FORWARD, k, x1
        for k, sa, smb in bwd_tables:
            zs = smb[zi]
            if zs:
                covered = 0
                for x1 in sa[xi]:
                    covered |= rows[x1]
                missing = zs & ~covered
                if missing:
                    return BACKWARD, k, (missing & -missing).bit_length() - 1
        return None

    def kill(xi: int, zi: int, hit) -> None:
        rows[xi] &= ~(1 << zi)
        log.append((xi * nb + zi, *hit))
        for pa, pmb in pred_tables:
            pz = pmb[zi]
            if not pz:
                continue
            for px in pa[xi]:
                new = pz & rows[px] & ~queued[px]
                if new:
                    queued[px] |= new
                    push((px, new))

    for xi in range(na):
        for zi in range(nb):
            hit = check(xi, zi)
            if hit is not None:
                kill(xi, zi, hit)
    # Each bit leaves ``queued`` just before its pair is checked, as it
    # would if it were queued on its own, so a deletion inside a chunk
    # re-queues exactly the pairs a pair-by-pair queue would, in the
    # same order.
    pop = queue.popleft
    while queue:
        xi, chunk = pop()
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            queued[xi] ^= low
            if rows[xi] & low:
                zi = low.bit_length() - 1
                hit = check(xi, zi)
                if hit is not None:
                    kill(xi, zi, hit)

    return RefineResult(a, b, rows, log)


def greatest_relation(a: Automaton, b: Automaton, kind: RelationKind) -> PairRelation:
    """Largest relation closed under the kind's forward/backward clauses.

    Well defined because these clauses are preserved under union of
    relations; the initial-state conditions play no role here.
    """
    return refine(a, b, kind).relation()


def clause_violations(
    rel: PairRelation, kind: RelationKind
) -> list[tuple[tuple[str, str], str, str, str]]:
    """All forward/backward clause violations of ``rel`` against itself.

    Empty iff ``rel`` satisfies the kind's clauses; used to confirm that
    refinement output is a fixed point and to vet user-supplied relations.
    """
    a, b = rel.left, rel.right
    out = []
    for x, z in rel.sorted_pairs():
        for ev in a.alphabet.events:
            if ev in kind.forward_events:
                for x1 in a.successors(x, ev):
                    if not any((x1, z1) in rel.pairs for z1 in b.successors(z, ev)):
                        out.append(((x, z), FORWARD, ev, x1))
            if ev in kind.backward_events:
                for z1 in b.successors(z, ev):
                    if not any((x1, z1) in rel.pairs for x1 in a.successors(x, ev)):
                        out.append(((x, z), BACKWARD, ev, z1))
    return out


def initial_condition(phi: PairRelation) -> bool:
    """Every left-initial state is paired with some right-initial state."""
    return all(
        any((x0, z0) in phi.pairs for z0 in phi.right.initial)
        for x0 in phi.left.initial
    )


def inverse_initial_condition(phi: PairRelation) -> bool:
    return all(
        any((x0, z0) in phi.pairs for x0 in phi.left.initial)
        for z0 in phi.right.initial
    )


def initial_cascade(res: RefineResult, cands, note: str) -> Counterexample:
    """Cascade of an initial state that lost every candidate pairing.

    Every pair in ``cands`` was deleted; the earliest-deleted one is
    traced, so the cascade is deterministic, and ``note`` is attached.
    """
    first = min(cands, key=lambda c: res.reasons[c].time)
    return replace(res.root_cause(first), note=note)


def initial_counterexample(
    res: RefineResult, kind: RelationKind
) -> Counterexample | None:
    """The kind's initial-state conditions, read off a refinement.

    Returns None when they hold; otherwise the deletion cascade of the
    first initial state that lost every pairing.  Reads only
    ``res.left``, ``res.right``, ``res.alive`` and ``res.reasons``.
    """
    a, b = res.left, res.right
    if kind.check_initial:
        for x0 in a.initial:
            if not any((x0, z0) in res.alive for z0 in b.initial):
                return initial_cascade(
                    res,
                    [(x0, z0) for z0 in b.initial],
                    f"no pairing survives for initial state {x0}",
                )
    if kind.check_inverse_initial:
        for z0 in b.initial:
            if not any((x0, z0) in res.alive for x0 in a.initial):
                return initial_cascade(
                    res,
                    [(x0, z0) for x0 in a.initial],
                    f"no pairing survives for specification initial state {z0}",
                )
    return None


def holds(
    a: Automaton, b: Automaton, kind: RelationKind
) -> tuple[bool, PairRelation | Counterexample]:
    """Decide whether ``a`` is related to ``b`` under ``kind``.

    Computes the greatest clause-closed relation, then applies the
    kind's initial-state conditions.  Returns the witnessing relation on
    success, otherwise a counterexample naming the failing clause.
    """
    res = refine(a, b, kind)
    cx = initial_counterexample(res, kind)
    if cx is not None:
        return False, cx
    return True, res.relation()


def is_admissible(
    s: Automaton, g: Automaton
) -> tuple[bool, Counterexample | None]:
    """May the supervisor never refuse an uncontrollable move of the plant?

    True iff at every reachable product state (y, x), every uncontrollable
    event enabled by the plant at x is enabled by the product.  The
    counterexample is the first violating (y, x, event) in BFS order.
    """
    return product_admissibility(sync_product(s, g), g)


def product_admissibility(
    prod: Automaton, g: Automaton
) -> tuple[bool, Counterexample | None]:
    """Admissibility of a supervisor ``s`` read off ``prod = sync_product(s, g)``.

    The product numbers its reachable states in BFS order and takes an
    event exactly where both factors move, so the violation reported is
    the first product state at which the plant enables an uncontrollable
    event that the product does not take, with the first such event.
    """
    require_same_alphabet(prod, g)
    events = g.alphabet.events
    unc = [k for k, ev in enumerate(events) if ev in g.alphabet.uncontrollable]
    gs, ps = g.successor_table, prod.successor_table
    # Uncontrollable events each plant state enables, by its name.
    demanded = {x: [k for k in unc if gs[k][i]] for i, x in enumerate(g.states)}
    pair_of = prod.pair_of
    for i, name in enumerate(prod.states):
        pair = pair_of[name]
        for k in demanded[pair.right]:
            if not ps[k][i]:
                return False, Counterexample(
                    kind=ADMISSIBILITY,
                    left=pair.left,
                    right=pair.right,
                    event=events[k],
                )
    return True, None


DEFAULT_SUBSET_PAIR_CAP = 100_000


def is_state_controllable(
    s: Automaton, g: Automaton, cap: int = DEFAULT_SUBSET_PAIR_CAP
) -> bool:
    """Trace-level admissibility over reach sets.

    For every string s and uncontrollable event e: if the plant can
    continue with e after s, every supervisor state reachable by s must
    enable e.  Explored by simultaneous subset construction over pairs
    (plant reach set, supervisor reach set); the frontier is capped
    because the construction is worst-case exponential.
    """
    require_same_alphabet(s, g)
    unc = [ev for ev in g.alphabet.events if ev in g.alphabet.uncontrollable]
    start = (frozenset(g.initial), frozenset(s.initial))
    queue = deque([start])
    seen = {start}
    explored = 0
    while queue:
        xs, ys = queue.popleft()
        explored += 1
        if explored > cap:
            raise CapExceeded(explored, cap, "subset-pair frontier")
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


def is_uniform(phi: PairRelation, g: Automaton, r: Automaton) -> bool:
    """Can per-string slices of ``phi`` serve as matching witnesses?

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
        if (x1, z1) in phi.pairs and (x2, z2) in phi.pairs:
            for ev in req:
                if not r.enables(z1, ev):
                    continue
                for x2p in g.successors(x2, ev):
                    if not any(
                        (x2p, z2p) in phi.pairs for z2p in r.successors(z2, ev)
                    ):
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


def is_cc_simulation(s_times_g: Automaton, r: Automaton, phi: PairRelation) -> bool:
    """Is ``phi`` a covariant-contravariant simulation from ``s_times_g`` to ``r``?"""
    if (phi.left, phi.right) != (s_times_g, r):
        return False
    kind = RelationKind.cc_simulation(r.alphabet)
    if clause_violations(phi, kind):
        return False
    return initial_condition(phi)
