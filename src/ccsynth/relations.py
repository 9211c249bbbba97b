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
A relation given from elsewhere is checked against the same clauses by
one sweep over its rows (``clauses_hold``), with no deletion.

Representation: the engine works on state indices and the automata's
shared successor tables.  The relation is one int bit row of right
states per left state, so a clause test is a mask operation instead of
a loop over successor pairs (the bit-parallel idea of Henzinger,
Henzinger & Kopke, FOCS 1995, with the pair-by-pair deletion order
kept); ``PairRelation`` holds such rows.  Each deletion is logged as a
tuple of integers; a counterexample names only the steps of the
cascade it walks, so a check that holds names nothing.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Set
from dataclasses import dataclass, replace
from functools import reduce
from operator import and_, or_

from .automata import Automaton, product_walk, require_same_alphabet, sync_product
from .errors import UniverseMismatch

FORWARD = "forward"
BACKWARD = "backward"
ADMISSIBILITY = "admissibility"
ISTATE = "istate"


@dataclass(frozen=True)
class RelationKind:
    """Clause selection for the greatest-relation computation.

    A check under any kind demands the left-initial condition;
    ``check_inverse_initial`` adds the right-initial one.
    """

    forward_events: frozenset[str]
    backward_events: frozenset[str] = frozenset()
    check_inverse_initial: bool = False

    @staticmethod
    def simulation(alphabet) -> "RelationKind":
        return RelationKind(frozenset(alphabet.events))

    @staticmethod
    def cc_simulation(alphabet) -> "RelationKind":
        return RelationKind(frozenset(alphabet.events), alphabet.required)

    @staticmethod
    def bisimulation(alphabet) -> "RelationKind":
        # A single relation whose forward clause holds in both directions
        # is exactly one that is a simulation alongside its inverse.
        events = frozenset(alphabet.events)
        return RelationKind(events, events, True)

    @staticmethod
    def uc_simulation(alphabet) -> "RelationKind":
        return RelationKind(alphabet.uncontrollable)

    @staticmethod
    def ucr_simulation(alphabet) -> "RelationKind":
        return RelationKind(alphabet.uncontrollable, alphabet.required)

    @staticmethod
    def named(name: str, alphabet) -> "RelationKind":
        try:
            return NAMED_KINDS[name](alphabet)
        except KeyError:
            raise ValueError(f"unknown relation kind {name!r}") from None


# The kinds ``RelationKind.named`` builds, by name: the CLI's ``--kind``.
NAMED_KINDS = {
    "sim": RelationKind.simulation,
    "ccsim": RelationKind.cc_simulation,
    "bisim": RelationKind.bisimulation,
    "ucsim": RelationKind.uc_simulation,
    "ucrsim": RelationKind.ucr_simulation,
}


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
            # A step's instance dict holds its fields, in order, as strings.
            "chain": [dict(vars(s)) for s in self.chain],
            "note": self.note,
            "message": self.describe(),
        }


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


class PairRelation(Set):
    """A read-only set of (state of ``left``, state of ``right``) pairs.

    ``rows[x]`` is the bit mask of right states paired with left state
    ``x``.  Built from named pairs, converted once, or by ``refine``
    from its rows (``from_rows``), naming nothing.  Iteration names the
    pairs in (left index, right index) order.  Equal to a plain set of
    the same named pairs, and hashes like it.  It holds the automata
    and the rows, not a refinement, so it keeps no cycle alive.
    """

    def __init__(self, left: Automaton, right: Automaton, pairs):
        li, ri = left.state_index, right.state_index
        rows = [0] * left.n_states
        for x, z in pairs:
            if x not in li:
                raise UniverseMismatch(f"state {x!r} not in the left automaton")
            if z not in ri:
                raise UniverseMismatch(f"state {z!r} not in the right automaton")
            rows[li[x]] |= 1 << ri[z]
        self.left, self.right, self.rows = left, right, tuple(rows)

    @classmethod
    def from_rows(cls, left: Automaton, right: Automaton, rows) -> "PairRelation":
        rel = cls.__new__(cls)
        rel.left, rel.right, rel.rows = left, right, tuple(rows)
        return rel

    def __contains__(self, pair) -> bool:
        ij = _pair_indices(self.left, self.right, pair)
        return ij is not None and bool(self.rows[ij[0]] >> ij[1] & 1)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __iter__(self):
        xs, zs = self.left.states, self.right.states
        for xi, row in enumerate(self.rows):
            for zi in _bits(row):
                yield xs[xi], zs[zi]

    def __eq__(self, other) -> bool:
        if isinstance(other, PairRelation):
            same = (self.left, self.right) == (other.left, other.right)
            return same and self.rows == other.rows
        return Set.__eq__(self, other)

    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"PairRelation({list(self)!r})"


class RefineResult:
    """Greatest relation for a kind's clauses, with its deletion log.

    ``alive`` is the relation, over the refinement's bit rows.  Each
    deletion is logged as integers, in deletion order, as (pair code
    ``x * |right| + z``, clause, event index, successor index).
    """

    def __init__(self, left: Automaton, right: Automaton, rows: list[int], log: list):
        self.deletions = len(log)
        self.alive = PairRelation.from_rows(left, right, rows)
        self._log = log
        self._times: dict[int, int] | None = None

    def _time(self, code: int) -> int:
        """Deletion time of pair code ``code``; KeyError if it survived."""
        if self._times is None:
            self._times = {entry[0]: t for t, entry in enumerate(self._log)}
        return self._times[code]

    def _deletion_time(self, pair) -> int:
        """Deletion time of a named pair; KeyError if it was not deleted."""
        ij = _pair_indices(self.alive.left, self.alive.right, pair)
        if ij is None:
            raise KeyError(pair)
        return self._time(ij[0] * self.alive.right.n_states + ij[1])

    def root_cause(self, pair: tuple[str, str]) -> Counterexample:
        """Walk the deletion cascade from ``pair`` to an intrinsic violation.

        The walk runs on pair codes: each step's candidate witnesses are
        read from the successor tables, and only the steps are named.
        """
        a, b = self.alive.left, self.alive.right
        nb, events = b.n_states, a.alphabet.events
        chain: list[Step] = []
        time = self._deletion_time(pair)
        while True:
            code, clause, k, succ = self._log[time]
            xi, zi = divmod(code, nb)
            if clause == FORWARD:
                cands = [succ * nb + z1 for z1 in b.successor_table[k][zi]]
                name = a.states[succ]
            else:
                cands = [x1 * nb + succ for x1 in a.successor_table[k][xi]]
                name = b.states[succ]
            chain.append(Step(a.states[xi], b.states[zi], clause, events[k], name))
            if not cands:
                break
            # Every candidate was already dead when this pair was deleted;
            # following the earliest death keeps the walk strictly
            # decreasing in time, so it terminates at a rootless deletion.
            time = min(map(self._time, cands))
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
    not depend on the representation.  The masks and predecessor lists
    are the automata's own ``event_table``s, so repeated checks against
    one automaton build them once.
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

    succ_a = a.successor_table
    rows = [(1 << nb) - 1] * na
    queued = [0] * na
    log: list[tuple[int, str, int, int]] = []
    queue: deque[tuple[int, int]] = deque()
    push = queue.append
    fwd_tables = [(k, succ_a[k], b.event_table("succ_masks", k)) for k in fwd]
    bwd_tables = [(k, succ_a[k], b.event_table("succ_masks", k)) for k in bwd]
    # Predecessors under the events a deletion can matter for: ascending
    # left indices, and right-state masks.
    pred_tables = [
        (a.event_table("preds", k), b.event_table("pred_masks", k)) for k in deps
    ]

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
    return refine(a, b, kind).alive


def clause_violations(
    rel: PairRelation, kind: RelationKind
) -> list[tuple[tuple[str, str], str, str, str]]:
    """All forward/backward clause violations of ``rel`` against itself.

    Empty iff ``rel`` satisfies the kind's clauses.  Names every
    violation, pair by pair: tests hold refinement output and
    ``clauses_hold`` to it, and the benchmark's manifest script vets its
    witnesses with it.
    """
    a, b = rel.left, rel.right
    out = []
    for x, z in rel:
        for ev in a.alphabet.events:
            if ev in kind.forward_events:
                for x1 in a.successors(x, ev):
                    if not any((x1, z1) in rel for z1 in b.successors(z, ev)):
                        out.append(((x, z), FORWARD, ev, x1))
            if ev in kind.backward_events:
                for z1 in b.successors(z, ev):
                    if not any((x1, z1) in rel for x1 in a.successors(x, ev)):
                        out.append(((x, z), BACKWARD, ev, z1))
    return out


def clauses_hold(rel: PairRelation, kind: RelationKind) -> bool:
    """Does ``rel`` satisfy the kind's forward and backward clauses?

    The same answer as ``clause_violations(rel, kind) == []``, from one
    sweep over the bit rows: nothing is deleted, queued or named.  Per
    forward event, ``good[x1]`` holds the right states with a move into
    ``x1``'s row, so a left state's moves are matched when its row lies
    inside ``good`` of each successor.  Per backward event, the right
    states a row's states move to (``need``) must lie in the OR of the
    rows of the left state's successors.  Rows repeat, so ``good`` and
    ``need`` are computed once per distinct row.
    """
    a, b, rows = rel.left, rel.right, rel.rows
    require_same_alphabet(a, b)
    live = [(xi, row) for xi, row in enumerate(rows) if row]
    distinct = set(rows)
    for k, (ev, sa) in enumerate(zip(a.alphabet.events, a.successor_table)):
        forward, backward = ev in kind.forward_events, ev in kind.backward_events
        if not (forward or backward):
            continue
        smb = b.event_table("succ_masks", k)
        if forward:
            moving = [(1 << zi, m) for zi, m in enumerate(smb) if m]
            good_of = {v: sum(bit for bit, m in moving if m & v) for v in distinct}
            good = list(map(good_of.__getitem__, rows))
            for xi, row in live:
                if reduce(and_, map(good.__getitem__, sa[xi]), row) != row:
                    return False
        if backward:
            need = {v: reduce(or_, map(smb.__getitem__, _bits(v)), 0) for v in distinct}
            for xi, row in live:
                if need[row] & ~reduce(or_, map(rows.__getitem__, sa[xi]), 0):
                    return False
    return True


def unpaired_initial(rel: PairRelation, inverse: bool = False):
    """The first initial state that ``rel`` pairs with no initial state.

    Scans the left automaton's initial states, or the right one's when
    ``inverse``, on the bit rows.  Returns None when each is paired;
    otherwise the state and the pairs that would have paired it.
    """
    a, b = rel.left, rel.right
    rows = [rel.rows[a.state_index[x0]] for x0 in a.initial]
    bits = [1 << b.state_index[z0] for z0 in b.initial]
    if inverse:
        for z0, bit in zip(b.initial, bits):
            if not any(row & bit for row in rows):
                return z0, [(x0, z0) for x0 in a.initial]
    else:
        for x0, row in zip(a.initial, rows):
            if not any(row & bit for bit in bits):
                return x0, [(x0, z0) for z0 in b.initial]
    return None


def initial_condition(phi: PairRelation) -> bool:
    """Every left-initial state is paired with some right-initial state."""
    return unpaired_initial(phi) is None


def inverse_initial_condition(phi: PairRelation) -> bool:
    return unpaired_initial(phi, inverse=True) is None


def initial_cascade(res: RefineResult, unpaired, note: str) -> Counterexample:
    """Cascade of an initial state that lost every candidate pairing.

    ``unpaired`` is what ``unpaired_initial`` found: the state and its
    candidate pairs, every one deleted.  The earliest-deleted one is
    traced, so the cascade is deterministic, and ``note``, followed by
    the state, is attached.
    """
    state, cands = unpaired
    first = min(cands, key=res._deletion_time)
    return replace(res.root_cause(first), note=f"{note} {state}")


def initial_counterexample(
    res: RefineResult, kind: RelationKind
) -> Counterexample | None:
    """The kind's initial-state conditions, read off a refinement.

    Returns None when they hold; otherwise the deletion cascade of the
    first initial state that lost every pairing.  Reads only
    ``res.alive`` and, on failure, its deletion cascade.
    """
    hit = unpaired_initial(res.alive)
    if hit:
        return initial_cascade(res, hit, "no pairing survives for initial state")
    hit = kind.check_inverse_initial and unpaired_initial(res.alive, inverse=True)
    if hit:
        note = "no pairing survives for specification initial state"
        return initial_cascade(res, hit, note)
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
    return True, res.alive


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


def is_uniform(phi: PairRelation) -> bool:
    """Can per-string slices of ``phi`` serve as matching witnesses?

    ``phi`` pairs the states of a plant g (``phi.left``) with those of a
    specification r (``phi.right``).  Quantifies over quadruples
    (x1, x2, z1, z2) whose components are all reachable by one common
    string: the states of the synchronous product of g x g with r x r,
    which ``product_walk`` walks on integer codes and hands over as
    they are reached.  Whenever (x1, z1) and (x2, z2) are in ``phi``,
    z1 enables a required event and x2 takes it, some move of z2 must
    cover x2's move inside ``phi``.
    """
    g, r = phi.left, phi.right
    require_same_alphabet(g, r)
    if not any(phi.rows):  # no quadruple can fire the clause
        return True
    squares = []
    for a in (g, r):
        n, succ = a.n_states, a.successor_table
        init = [a.state_index[p] for p in a.initial]
        order, table = [p * n + q for p in init for q in init], [[] for _ in succ]
        for _ in product_walk(succ, succ, n, order, table):
            pass
        squares.append((n, order, table))
    (ng, gg, gg_table), (nr, rr, rr_table) = squares
    rows, gs, rs = phi.rows, g.successor_table, r.successor_table
    req = [k for k, ev in enumerate(g.alphabet.events) if ev in g.alphabet.required]
    covers = {k: r.event_table("succ_masks", k) for k in req}
    n_rr, r_roots = len(rr), len(r.initial) ** 2
    roots = [i * n_rr + j for i in range(len(g.initial) ** 2) for j in range(r_roots)]
    for code in product_walk(gg_table, rr_table, n_rr, roots):
        (x1, x2), (z1, z2) = divmod(gg[code // n_rr], ng), divmod(rr[code % n_rr], nr)
        if not (rows[x1] >> z1 & 1 and rows[x2] >> z2 & 1):
            continue
        for k in req:
            if rs[k][z1]:
                mask = covers[k][z2]
                if not all(rows[x] & mask for x in gs[k][x2]):
                    return False
    return True
