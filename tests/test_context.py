"""The family context built from universe masks against the named builder.

``_FamilyContext`` builds its obligation masks from one universe mask
per plant and per specification state and reads only successor tables,
and keeps each in one per-event table.  Every field is compared with
``oracles.named_family_context``, which builds the masks pair by pair
from named successors and groups them by event, and ``good_mask`` with
a per-pair test of the forward obligations.  The family fixpoint, the
family check and supervisor assembly are shown to make no named
successor query at all, and the fixpoint and its verdict name no pair.
"""

import random

import pytest

from ccsynth import (
    Automaton,
    PairRelation,
    UniverseMismatch,
    build_supervisor,
    is_controllability_family,
    pairs_universe,
)
from ccsynth.synthesis import (
    PairSetFamily,
    _FamilyContext,
    family_fixpoint,
    solvability_counterexample,
)
from ccsynth.testkit import InstanceSpec, random_instance

from instances import (
    DIAMOND_FAMILY,
    FORKED_FAMILY,
    diamond_g,
    diamond_r,
    forked_g,
    forked_r,
    ladder_g,
    ladder_r,
    scanner_g,
    scanner_r,
)
from oracles import named_family_context
from test_acceptance import sweep

FIELDS = (
    "uc_events",
    "forward",
    "backward",
    "istate_masks",
    "initial_mask",
)


def worked_instances():
    return [
        (scanner_g(), scanner_r()),
        (scanner_g(()), scanner_r(())),
        (diamond_g(), diamond_r()),
        (ladder_g(), ladder_r()),
        (forked_g(), forked_r()),
    ]


def r9_like(count, base_seed):
    """Draws of the R9 distribution: 4-5 states, 3-4 events, dense."""
    rng = random.Random(base_seed)
    for i in range(count):
        yield random_instance(
            InstanceSpec(
                g_states=rng.choice((4, 5)),
                r_states=rng.choice((4, 5)),
                events=rng.choice((3, 4)),
                uncontrollable_fraction=0.34,
                required_fraction=0.34,
                density=rng.uniform(0.30, 0.35),
                seed=base_seed + i,
            )
        )


def c08_sweep():
    return list(sweep(60, 130_000, g_states=3, r_states=3, events=2))


def universes(g, r, rng):
    """The pruned universe, the full product, and a random part of it,
    each a relation, so their bits follow state index order."""
    full = [(x, z) for x in g.states for z in r.states]
    part = rng.sample(full, rng.randint(0, len(full)))
    return [pairs_universe(g, r), PairRelation(g, r, full), PairRelation(g, r, part)]


def assert_same_context(g, r, universe):
    got = _FamilyContext(universe)
    want = named_family_context(g, r, tuple(universe))
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    # Equal dicts hide key order; the per-event scans walk it.
    assert list(got.forward) == list(want.forward) == list(g.alphabet.events)
    assert list(got.backward) == list(want.backward)
    assert set(got.backward) <= g.alphabet.required
    return got, want


def test_context_fields_agree_with_named_builder():
    rng = random.Random(8)
    cases = worked_instances() + c08_sweep() + list(r9_like(40, 900_000))
    obliged = backward = 0
    for g, r in cases:
        for universe in universes(g, r, rng):
            got, _ = assert_same_context(g, r, universe)
            obliged += sum(len(table) for _, table in got.forward.values())
            backward += sum(map(len, got.backward.values()))
    assert obliged > 1000 and backward > 500


def test_context_rejects_pairs_outside_the_automata():
    g, r = diamond_g(), diamond_r()
    foreign = [(("nowhere", r.states[0]), "left"), ((g.states[0], "nowhere"), "right")]
    for pair, side in foreign:
        bad = (pair,)
        with pytest.raises(UniverseMismatch):
            named_family_context(g, r, bad)
        message = f"^state 'nowhere' not in the {side} automaton$"
        with pytest.raises(UniverseMismatch, match=message):
            PairRelation(g, r, bad)
        with pytest.raises(UniverseMismatch, match=message):
            PairSetFamily.over(g, r, [DIAMOND_FAMILY[0] | {pair}])
    # A family's universe is a relation, which names the plant and the
    # specification; plain pairs name neither.
    pairs = pairs_universe(g, r)
    for universe in (tuple(pairs), frozenset(pairs), list(pairs), None):
        with pytest.raises(UniverseMismatch, match="^universe must be a relation"):
            PairSetFamily(universe, frozenset())
    # A member is a mask over the relation's pairs, and no wider.
    with pytest.raises(UniverseMismatch, match="^member mask exceeds the universe$"):
        PairSetFamily(pairs, {1 << len(pairs)})


def test_good_mask_agrees_with_per_pair_check():
    rng = random.Random(11)
    cases = worked_instances() + c08_sweep()[:30] + list(r9_like(20, 910_000))
    nonzero = partial = 0
    for g, r in cases:
        for universe in universes(g, r, rng):
            ctx = _FamilyContext(universe)
            named = named_family_context(g, r, tuple(universe))
            targets = [0, ctx.full] + [rng.randint(0, ctx.full) for _ in range(12)]
            for ev in g.alphabet.events:
                for t in targets:
                    want = sum(
                        1 << i
                        for i in range(ctx.n)
                        if all(t & ob for ob in named.pair_forward[i].get(ev, ()))
                    )
                    assert ctx.good_mask(ev, t) == want
                    # the cached answer is the same
                    assert ctx.good_mask(ev, t) == want
                    nonzero += want != 0
                    partial += 0 < want < ctx.full
    assert nonzero > 1000 and partial > 500


def test_family_code_makes_no_named_successor_query(monkeypatch):
    worked = [
        (diamond_g(), diamond_r(), DIAMOND_FAMILY),
        (forked_g(), forked_r(), FORKED_FAMILY),
    ]
    families = [PairSetFamily.over(g, r, sets) for g, r, sets in worked]
    cases = worked_instances() + c08_sweep()

    def no_successors(self, state, event):
        raise AssertionError("named successor query")

    monkeypatch.setattr(Automaton, "successors", no_successors)
    for g, r in cases:
        fix = family_fixpoint(g, r)
        if fix.solvable():
            chain = frozenset(fix.antichain)
            families.append(PairSetFamily(fix.ctx.universe, chain))
    for e in families:
        assert is_controllability_family(e)
        build_supervisor(e)
    assert len(families) >= 15
    with pytest.raises(AssertionError, match="named successor"):
        diamond_g().successors("x0", diamond_g().alphabet.events[0])


def test_fixpoint_and_verdict_name_no_pair(monkeypatch):
    """The fixpoint and its verdict read the universe relation's rows
    only; on a solvable instance, so does the counterexample search."""
    cases = worked_instances() + c08_sweep()

    def no_names(self):
        raise AssertionError("pair named")

    monkeypatch.setattr(PairRelation, "__iter__", no_names)
    solvable = 0
    for g, r in cases:
        fix = family_fixpoint(g, r)
        if fix.solvable():
            assert solvability_counterexample(fix) is None
            solvable += 1
    assert solvable >= 20
    with pytest.raises(AssertionError, match="pair named"):
        list(pairs_universe(diamond_g(), diamond_r()))
