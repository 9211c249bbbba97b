"""The integer-indexed verification path against the named code it replaced.

``refine`` runs on bit rows, ``sync_product`` and ``is_admissible`` on
integer pair codes over one shared successor table, and ``Automaton``
keeps canonical transitions without sorting them again.  Each is compared
with the named, pair-by-pair oracle kept in ``oracles``.
"""

import gc
import json
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsynth import (
    Alphabet,
    Automaton,
    CcsynthError,
    RelationKind,
    holds,
    is_admissible,
    save_automaton,
    sync_product,
    synthesize,
    validate_automaton,
    verify_solution,
)
from ccsynth import relations, synthesis
from ccsynth.cli import run_command
from ccsynth.synthesis import (
    _assemble_supervisor,
    family_fixpoint,
    universe_kind,
)
from ccsynth.testkit import InstanceSpec, random_instance

from helpers import random_alphabet, random_automaton
from instances import diamond_g, diamond_r, scanner_g, scanner_r, scanner_s
from oracles import named_is_admissible, named_sync_product, pairwise_refine

KINDS = ("sim", "ccsim", "bisim", "ucsim", "ucrsim")


def random_pairs(count, seed):
    """Seeded automaton pairs over one alphabet, sizes and densities varied."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = random_alphabet(rng, 1 + i % 4)
        na, nb = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.1, 0.2, 0.35, 0.5))
        a = random_automaton(alphabet, na, density, rng, prefix="x")
        b = random_automaton(alphabet, nb, density, rng, prefix="z")
        yield a, b


def kinds_for(alphabet):
    return [RelationKind.named(k, alphabet) for k in KINDS] + [universe_kind(alphabet)]


def assert_same_refinement(a, b, kind):
    got, want = relations.refine(a, b, kind), pairwise_refine(a, b, kind)
    assert got.alive == want.alive
    assert len(got.alive) == len(want.alive)
    assert got.deletions == want.deletions
    assert got.reasons.keys() == want.reasons.keys()
    assert list(got.reasons) == list(want.reasons)
    for pair, d in want.reasons.items():
        e = got.reasons[pair]
        assert (e.clause, e.event, e.successor, e.time, e.candidates) == (
            d.clause,
            d.event,
            d.successor,
            d.time,
            d.candidates,
        ), pair


def oracle_holds(monkeypatch, a, b, kind):
    with monkeypatch.context() as m:
        m.setattr(relations, "refine", pairwise_refine)
        return relations.holds(a, b, kind)


def assert_same_verdict(monkeypatch, a, b, kind):
    ok, result = holds(a, b, kind)
    ok_o, result_o = oracle_holds(monkeypatch, a, b, kind)
    assert ok == ok_o
    if ok:
        assert result.pairs == result_o.pairs
    else:
        assert result.to_json() == result_o.to_json()


def test_refine_agrees_with_pairwise_oracle(monkeypatch):
    for a, b in random_pairs(250, 31):
        for kind in kinds_for(a.alphabet):
            assert_same_refinement(a, b, kind)
            assert_same_verdict(monkeypatch, a, b, kind)


def test_refine_agrees_on_products_and_worked_examples(monkeypatch):
    # Products reach the backward clause through many successors at once,
    # and the worked examples pin the counterexamples the tests name.
    cases = [(scanner_g(), scanner_r()), (diamond_g(), diamond_r())]
    cases.append((sync_product(scanner_s(), scanner_g()), scanner_r()))
    for seed in range(12):
        g, r = random_instance(InstanceSpec(4, 3, 3, density=0.35, seed=seed))
        cases.append((g, r))
        cases.append((sync_product(g, g), r))
    for a, b in cases:
        for kind in kinds_for(a.alphabet):
            assert_same_refinement(a, b, kind)
            assert_same_verdict(monkeypatch, a, b, kind)


def assert_same_product(s, g, full):
    got, want = sync_product(s, g, full=full), named_sync_product(s, g, full=full)
    assert got == want
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert got.initial == want.initial
    assert got.pair_of == want.pair_of
    assert list(got.pair_of) == list(want.pair_of)
    # The table the product walk leaves behind equals one read off its
    # transitions.
    assert got.successor_table == want.successor_table


def assert_canonical(aut):
    """Transitions read in the normal form, and the automaton rebuilt
    from them is its equal twin, with an equal hash."""
    triples = tuple(aut.transitions)
    sidx, eidx = aut.state_index, aut.alphabet._event_index
    key = lambda t: (sidx[t[0]], eidx[t[1]], sidx[t[2]])
    assert triples == tuple(sorted(set(triples), key=key))
    twin = Automaton(aut.alphabet, aut.states, triples, aut.initial)
    assert twin.transitions == triples
    assert aut == twin and twin == aut
    assert hash(aut) == hash(twin)


def test_sync_product_agrees_with_named_oracle():
    for s, g in random_pairs(150, 77):
        for full in (False, True):
            assert_same_product(s, g, full)
            assert_same_product(g, s, full)
    assert_same_product(scanner_s(), scanner_g(), False)
    # The product must come out in the normal form.
    for s, g in random_pairs(150, 77):
        for full in (False, True):
            assert_canonical(sync_product(s, g, full=full))


def test_supervisors_are_assembled_in_canonical_order():
    # Seeds 8, 9 and 27 of the 3x3 draws reach earlier members out of
    # mask order.
    specs = [InstanceSpec(3, 2, 2, density=0.4, seed=seed) for seed in range(30)]
    specs += [InstanceSpec(3, 3, 2, density=0.4, seed=seed) for seed in (8, 9, 27)]
    for g, r in [(diamond_g(), diamond_r())] + [random_instance(s) for s in specs]:
        fix = family_fixpoint(g, r)
        if not fix.solvable():
            continue
        for reachable_only in (True, False):
            sup = _assemble_supervisor(
                fix.ctx, fix.antichain, reachable_only=reachable_only
            )
            assert_canonical(sup.automaton)


def test_is_admissible_agrees_with_named_oracle():
    verdicts = set()
    for s, g in random_pairs(300, 5):
        got = is_admissible(s, g)
        assert got == named_is_admissible(s, g)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_successor_table_matches_named_successors():
    for a, _ in random_pairs(40, 9):
        for k, ev in enumerate(a.alphabet.events):
            for i, x in enumerate(a.states):
                names = tuple(a.states[j] for j in a.successor_table[k][i])
                assert names == a.successors(x, ev)


def _oracle_key(a_states, events):
    sidx = {s: i for i, s in enumerate(a_states)}
    eidx = {e: i for i, e in enumerate(events)}
    big = len(sidx) + len(eidx) + 1
    return lambda t: (sidx.get(t[0], big), eidx.get(t[1], big), sidx.get(t[2], big), t)


def _error_class(a):
    try:
        validate_automaton(a)
    except CcsynthError as exc:
        return type(exc)
    return None


STATES = ("s0", "s1", "s2", "s3")
EVENTS = ("e0", "e1", "e2")


@st.composite
def transition_inputs(draw):
    n_states = draw(st.integers(1, len(STATES)))
    n_events = draw(st.integers(1, len(EVENTS)))
    states, events = STATES[:n_states], EVENTS[:n_events]
    # Undeclared names appear only when asked for.
    ghosts = draw(st.booleans())
    state_pool = states + (("ghost",) if ghosts else ())
    event_pool = events + (("nope",) if ghosts else ())
    state, event = st.sampled_from(state_pool), st.sampled_from(event_pool)
    triple = st.tuples(state, event, state)
    base = draw(st.lists(triple, max_size=20))
    given_order = draw(st.permutations(base))
    dups = draw(st.lists(st.sampled_from(base), max_size=5)) if base else []
    as_lists = draw(st.booleans())
    supplied = [list(t) if as_lists else t for t in list(given_order) + dups]
    return states, events, supplied


@settings(max_examples=300, deadline=None)
@given(transition_inputs())
def test_canonical_fast_path_matches_generic_sort(inputs):
    states, events, supplied = inputs
    alphabet = Alphabet(events)
    key = _oracle_key(states, events)
    canonical = tuple(sorted(set(map(tuple, supplied)), key=key))
    ref = Automaton(alphabet, states, canonical, (states[0],))
    got = Automaton(alphabet, states, supplied, (states[0],))
    assert got == ref
    assert Automaton(alphabet, states, iter(supplied), (states[0],)) == ref
    assert got.transitions == ref.transitions == canonical
    assert all(type(t) is tuple for t in got.transitions)
    assert _error_class(got) is _error_class(ref)


def test_canonical_input_is_kept_as_given():
    a = scanner_g()
    again = Automaton(a.alphabet, a.states, a.transitions, a.initial)
    assert again.transitions is a.transitions


class _CountingDeletion(relations._Deletion):
    built = 0
    times: list[int] = []

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)
        type(self).times.append(self.time)


def test_nothing_is_named_on_success(monkeypatch):
    monkeypatch.setattr(relations, "_Deletion", _CountingDeletion)
    _CountingDeletion.built = 0
    g, r = diamond_g(), diamond_r()
    outcome = synthesize(g, r)
    sup = outcome.supervisor.automaton
    assert outcome.report.overall and verify_solution(sup, g, r).overall
    # The passing check did delete pairs; none of them was named.
    kind = RelationKind.cc_simulation(r.alphabet)
    assert relations.refine(sync_product(sup, g), r, kind).deletions > 0
    assert _CountingDeletion.built == 0

    prod = sync_product(scanner_s(), scanner_g())
    res = relations.refine(prod, scanner_r(), RelationKind.cc_simulation(prod.alphabet))
    assert res.deletions > 0 and _CountingDeletion.built == 0

    ok, cx = holds(prod, scanner_r(), RelationKind.cc_simulation(prod.alphabet))
    assert not ok
    assert _CountingDeletion.built > 0
    pinned = ("(y2,x3)", "z2", "cancel", "z4")
    assert (cx.left, cx.right, cx.event, cx.successor) == pinned
    assert (cx.chain[0].left, cx.chain[0].right) == ("(y0,x0)", "z0")


def test_alive_view_supports_len_membership_and_index_order():
    g, r = scanner_g(), scanner_r()
    res = relations.refine(g, r, RelationKind.simulation(g.alphabet))
    pairs = list(res.alive)
    assert len(res.alive) == len(pairs) == len(set(pairs))
    assert all(p in res.alive for p in pairs)
    assert ("nowhere", "z0") not in res.alive
    gi, ri = g.state_index, r.state_index
    assert pairs == sorted(pairs, key=lambda p: (gi[p[0]], ri[p[1]]))
    assert isinstance(res.deletions, int)


SCANNER_UNSOLVABLE = {
    "kind": "backward",
    "left": "x3",
    "right": "z2",
    "event": "cancel",
    "successor": "z4",
    "chain": [
        {"left": "x0", "right": "z0", "clause": "forward", "event": "start",
         "successor": "x1"},
        {"left": "x1", "right": "z1", "clause": "forward", "event": "scan",
         "successor": "x3"},
        {"left": "x3", "right": "z2", "clause": "backward", "event": "cancel",
         "successor": "z4"},
    ],
    "note": "no admissible pairing for initial state x0",
    "message": "backward clause fails at (x3, z2): z2 --cancel--> z4 is required "
    "but x3 cannot match it [no admissible pairing for initial state x0]",
}


def test_unsolvable_verdict_names_only_the_pairs_it_reads(
    tmp_path, monkeypatch, capsys
):
    g, r = scanner_g(), scanner_r()
    save_automaton(g, tmp_path / "G.aut")
    save_automaton(r, tmp_path / "R.aut")
    monkeypatch.setattr(relations, "_Deletion", _CountingDeletion)
    _CountingDeletion.built, _CountingDeletion.times = 0, []
    argv = ["solvable", str(tmp_path / "G.aut"), str(tmp_path / "R.aut"), "--json"]
    assert run_command(argv) == 1
    assert json.loads(capsys.readouterr().out)["counterexample"] == SCANNER_UNSOLVABLE

    # Read: the initial pairings, each step of the cascade and the
    # candidates its earliest-death choice compares.
    want = pairwise_refine(g, r, universe_kind(g.alphabet))
    read = {(x0, z0) for x0 in g.initial for z0 in r.initial}
    for step in SCANNER_UNSOLVABLE["chain"]:
        read |= set(want.reasons[(step["left"], step["right"])].candidates)
    assert sorted(_CountingDeletion.times) == sorted(want.reasons[p].time for p in read)
    assert _CountingDeletion.built == len(read) < want.deletions


NAMES = ("x0", "x1", "x2", "z0", "z1", "z2", "nowhere", None, 0, ())
name_probe = st.sampled_from(NAMES)
probes = st.one_of(
    name_probe,
    st.tuples(name_probe),
    st.tuples(name_probe, name_probe),
    st.tuples(name_probe, name_probe, name_probe),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(probes, max_size=30))
def test_views_answer_like_frozen_copies(seed, drawn):
    g, r = random_instance(InstanceSpec(3, 3, 2, density=0.4, seed=seed))
    for kind in kinds_for(g.alphabet):
        res = relations.refine(g, r, kind)
        frozen = relations.refine(g, r, kind)
        alive, reasons = frozenset(frozen.alive), dict(frozen.reasons)
        malformed = [("x0",), None, ("x0", "z0", "z0")]
        for probe in drawn + list(alive) + list(reasons) + malformed:
            assert (probe in res.alive) == (probe in alive), probe
            assert (probe in res.reasons) == (probe in reasons), probe
            if probe in reasons:
                assert res.reasons[probe] == reasons[probe]
            else:
                with pytest.raises(KeyError):
                    res.reasons[probe]
        assert len(res.reasons) == len(reasons) == res.deletions
        assert list(res.reasons) == list(reasons)
        assert res.reasons == reasons and reasons == res.reasons


class _ChunkLog(deque):
    """``refine``'s queue, counting pushes that re-queue bits of the
    chunk being processed."""

    requeued = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.current = None

    def popleft(self):
        self.current = super().popleft()
        return self.current

    def append(self, chunk):
        if self.current and self.current[0] == chunk[0] and self.current[1] & chunk[1]:
            type(self).requeued += 1
        super().append(chunk)


def looping_pairs(count, seed):
    """Automata with self-loops on most states against dense,
    nondeterministic chains that run into dead ends, in both orders.

    A dead end kills its predecessors one after another, and a pair
    that passed its check while a later bit of its chunk was alive is
    re-queued when that bit dies: bits of the chunk being processed go
    back on the queue.
    """
    rng = random.Random(seed)
    for i in range(count):
        alphabet = random_alphabet(rng, 1 + i % 3)
        a = random_automaton(alphabet, rng.randint(2, 8), 0.2, rng, prefix="x")
        loops = tuple(
            (s, ev, s) for s in a.states for ev in alphabet.events if rng.random() < 0.8
        )
        a = Automaton(alphabet, a.states, a.transitions + loops, a.initial)
        zs = [f"z{j}" for j in range(rng.randint(3, 8))]
        density = rng.choice((0.5, 0.7))
        chain = tuple(
            (zs[p], ev, zs[q])
            for p in range(len(zs))
            for ev in alphabet.events
            for q in range(p + 1, len(zs))
            if rng.random() < density
        )
        b = Automaton(alphabet, tuple(zs), chain, (zs[0],))
        yield (a, b) if i % 2 == 0 else (b, a)


def test_chunked_queue_keeps_pairwise_order(monkeypatch):
    monkeypatch.setattr(relations, "deque", _ChunkLog)
    _ChunkLog.requeued = 0
    deleted = 0
    for a, b in looping_pairs(150, 47):
        for kind in kinds_for(a.alphabet):
            assert_same_refinement(a, b, kind)
            assert_same_verdict(monkeypatch, a, b, kind)
            deleted += relations.refine(a, b, kind).deletions
    assert deleted > 1000
    assert _ChunkLog.requeued > 100


def test_dropped_refinement_is_freed_without_gc(monkeypatch):
    refs = []
    real = synthesis.refine

    def tracking(a, b, kind):
        res = real(a, b, kind)
        refs.append(weakref.ref(res))
        return res

    g, r = diamond_g(), diamond_r()
    sup = synthesize(g, r).supervisor.automaton
    gc.collect()
    gc.disable()
    try:
        monkeypatch.setattr(synthesis, "refine", tracking)
        assert verify_solution(sup, g, r).overall
        # A failing check names its deletions, which the views keep.
        report = verify_solution(scanner_s(), scanner_g(), scanner_r())
        assert report.cc_counterexample is not None
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]

        res = relations.refine(g, r, RelationKind.bisimulation(g.alphabet))
        assert res.deletions and list(res.alive) is not None
        res.root_cause(next(iter(res.reasons)))
        alive, reasons = res.alive, res.reasons
        ref = weakref.ref(res)
        del res
        assert ref() is None
        # the views outlive the refinement
        assert len(reasons) > 0 and len(alive) == len(list(alive))
    finally:
        gc.enable()
