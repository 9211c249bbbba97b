import dataclasses
import random
from collections import Counter

import pytest

from ccsynth import (
    AlphabetMismatch,
    Counterexample,
    InstanceSpec,
    PairRelation,
    RelationKind,
    UniverseMismatch,
    deterministic_fastpath,
    greatest_relation,
    holds,
    initial_condition,
    is_admissible,
    is_deterministic,
    is_uniform,
    make_automaton,
    pairs_universe,
    random_instance,
    sync_product,
)
from ccsynth import automata, relations
from ccsynth.relations import clause_violations, inverse_initial_condition

from instances import (
    SCANNER_EVENTS,
    SCANNER_UNCONTROLLABLE,
    diamond_g,
    diamond_r,
    forked_g,
    forked_r,
    ladder_g,
    ladder_r,
    scanner_g,
    scanner_r,
    scanner_s,
)
from oracles import match_predicate, named_is_uniform, trace_controllable

# Frozen by the exhaustive-enumeration oracle (see test_properties for the
# live comparison): the greatest relation with uncontrollable-forward and
# required-backward clauses on the ladder instance.
LADDER_UCR_RELATION = frozenset(
    {("x0", "z0"), ("x0", "z2"), ("x1", "z1"), ("x2", "z2"), ("x3", "z2")}
)


def rel(g, r, pairs):
    return PairRelation(g, r, frozenset(pairs))


# --- match predicate ---------------------------------------------------


def test_match_diamond_uncontrollable_step():
    g, r = diamond_g(), diamond_r()
    assert match_predicate(
        rel(g, r, {("x1", "z1")}), "uc1", rel(g, r, {("x2", "z2"), ("x3", "z3")})
    )


def test_match_empty_is_vacuous():
    g, r = scanner_g(), scanner_r()
    for ev in g.alphabet.events:
        assert match_predicate(rel(g, r, ()), ev, rel(g, r, ()))


def test_match_scanner_scan_fails_without_third_branch():
    g, r = scanner_g(), scanner_r()
    assert not match_predicate(
        rel(g, r, {("x1", "z1")}), "scan", rel(g, r, {("x2", "z2")})
    )
    assert match_predicate(
        rel(g, r, {("x1", "z1")}), "scan", rel(g, r, {("x2", "z2"), ("x3", "z2")})
    )


def test_match_universe_mismatch():
    g, r = scanner_g(), scanner_r()
    other = rel(diamond_g(), diamond_r(), ())
    with pytest.raises(UniverseMismatch):
        match_predicate(rel(g, r, ()), "scan", other)


def test_match_monotone_in_target_antitone_in_source():
    g, r = diamond_g(), diamond_r()
    pairs = [(x, z) for x in g.states for z in r.states]
    rng = random.Random(17)
    for _ in range(150):
        w = frozenset(p for p in pairs if rng.random() < 0.3)
        v = frozenset(p for p in w if rng.random() < 0.6)
        w1 = frozenset(p for p in pairs if rng.random() < 0.3)
        w2 = w1 | frozenset(p for p in pairs if rng.random() < 0.2)
        ev = rng.choice(g.alphabet.events)
        if match_predicate(rel(g, r, w), ev, rel(g, r, w1)):
            assert match_predicate(rel(g, r, v), ev, rel(g, r, w1))
            assert match_predicate(rel(g, r, w), ev, rel(g, r, w2))


# --- greatest_relation --------------------------------------------------


def test_ladder_ucr_relation_frozen_value():
    g, r = ladder_g(), ladder_r()
    out = greatest_relation(g, r, RelationKind.ucr_simulation(g.alphabet))
    assert out == LADDER_UCR_RELATION
    # the hand-built witness must be contained in the greatest relation
    assert {("x0", "z0"), ("x1", "z1"), ("x3", "z2")} <= out
    assert repr(out) == (
        "PairRelation([('x0', 'z0'), ('x0', 'z2'), ('x1', 'z1'), ('x2', 'z2'), "
        "('x3', 'z2')])"
    )


def test_greatest_relation_contains_identity_on_same_automaton():
    g = scanner_g()
    out = greatest_relation(g, g, RelationKind.simulation(g.alphabet))
    assert {(s, s) for s in g.states} <= out


def test_greatest_relation_is_fixed_point():
    g, r = scanner_g(), scanner_r()
    for kind in (
        RelationKind.simulation(g.alphabet),
        RelationKind.cc_simulation(g.alphabet),
        RelationKind.bisimulation(g.alphabet),
        RelationKind.uc_simulation(g.alphabet),
        RelationKind.ucr_simulation(g.alphabet),
    ):
        out = greatest_relation(g, r, kind)
        assert clause_violations(out, kind) == []


def test_scanner_cc_relation_excludes_losing_branch():
    g, r, s = scanner_g(), scanner_r(), scanner_s()
    prod = sync_product(s, g)
    out = greatest_relation(prod, r, RelationKind.cc_simulation(r.alphabet))
    assert ("(y2,x3)", "z2") not in out
    assert not initial_condition(out)


# --- initial conditions --------------------------------------------------


def test_initial_condition_ladder():
    g, r = ladder_g(), ladder_r()
    out = greatest_relation(g, r, RelationKind.ucr_simulation(g.alphabet))
    assert initial_condition(out)


def test_initial_condition_empty_relation_false():
    g, r = ladder_g(), ladder_r()
    assert not initial_condition(rel(g, r, ()))


def test_initial_condition_two_initials():
    a = make_automaton(("e",), ("p", "q"), (), ("p", "q"))
    b = make_automaton(("e",), ("u",), (), ("u",))
    assert initial_condition(rel(a, b, {("p", "u"), ("q", "u")}))
    assert not initial_condition(rel(a, b, {("p", "u")}))
    assert inverse_initial_condition(rel(a, b, {("p", "u")}))


# --- holds ---------------------------------------------------------------


def test_holds_scanner_cc_fails_with_cancel_required():
    g, r, s = scanner_g(), scanner_r(), scanner_s()
    prod = sync_product(s, g)
    ok, cx = holds(prod, r, RelationKind.cc_simulation(r.alphabet))
    assert not ok
    assert cx.kind == "backward"
    assert (cx.left, cx.right, cx.event, cx.successor) == ("(y2,x3)", "z2", "cancel", "z4")
    # cascade starts at the failing initial pairing
    assert (cx.chain[0].left, cx.chain[0].right) == ("(y0,x0)", "z0")


def test_holds_scanner_plain_simulation():
    g, r, s = scanner_g(), scanner_r(), scanner_s()
    prod = sync_product(s, g)
    ok, witness = holds(prod, r, RelationKind.simulation(r.alphabet))
    assert ok
    assert ("(y2,x3)", "z2") in witness


def test_holds_bisimulation_reflexive():
    g = scanner_g()
    ok, witness = holds(g, g, RelationKind.bisimulation(g.alphabet))
    assert ok
    assert {(s, s) for s in g.states} <= witness


def test_holds_ladder_ucr_true():
    g, r = ladder_g(), ladder_r()
    ok, _ = holds(g, r, RelationKind.ucr_simulation(g.alphabet))
    assert ok


def test_holds_bisimulation_inverse_initial_failure():
    # the mute side is simulated by the looping side but not conversely;
    # the failure surfaces through the second initial condition
    a = make_automaton(("e",), ("p",), (), ("p",))
    b = make_automaton(("e",), ("z0", "z1"), (("z1", "e", "z1"),), ("z0", "z1"))
    ok_sim, _ = holds(a, b, RelationKind.simulation(a.alphabet))
    assert ok_sim
    ok_bis, cx = holds(a, b, RelationKind.bisimulation(a.alphabet))
    assert not ok_bis
    assert cx.kind == "backward"
    assert (cx.left, cx.right, cx.event) == ("p", "z1", "e")
    assert "z1" in cx.note


def test_simulation_wrt_restricted_events():
    # only the restricted event carries a forward obligation
    a = make_automaton(("a", "b"), ("p", "q"), (("p", "a", "q"), ("p", "b", "q")), ("p",))
    b = make_automaton(("a", "b"), ("u", "v"), (("u", "a", "v"),), ("u",))
    ok_full, _ = holds(a, b, RelationKind.simulation(a.alphabet))
    ok_a, _ = holds(a, b, RelationKind(frozenset({"a"})))
    assert not ok_full
    assert ok_a


def test_unknown_kind_name_and_foreign_kind_event_raise():
    g = ladder_g()
    with pytest.raises(ValueError, match="^unknown relation kind 'nope'$"):
        RelationKind.named("nope", g.alphabet)
    with pytest.raises(
        UniverseMismatch, match="^kind references event 'zz' outside the alphabet$"
    ):
        relations.refine(g, g, RelationKind(frozenset({"zz"})))


def test_counterexample_of_another_kind_names_its_pair():
    cx = Counterexample(kind="other", left="a", right="b")
    assert cx.describe() == "other clause fails at (a, b)"


# --- admissibility -------------------------------------------------------


def test_scanner_supervisor_admissible():
    ok, cx = is_admissible(scanner_s(), scanner_g())
    assert ok and cx is None


def test_universal_supervisor_admissible():
    uni = make_automaton(
        SCANNER_EVENTS,
        ("u",),
        tuple(("u", ev, "u") for ev in SCANNER_EVENTS),
        ("u",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=("cancel",),
    )
    ok, _ = is_admissible(uni, scanner_g())
    assert ok


def test_supervisor_refusing_scan_not_admissible():
    bad = make_automaton(
        SCANNER_EVENTS,
        ("y0", "y1"),
        (("y0", "start", "y1"),),
        ("y0",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=("cancel",),
    )
    ok, cx = is_admissible(bad, scanner_g())
    assert not ok
    assert cx.kind == "admissibility"
    assert (cx.left, cx.right, cx.event) == ("y1", "x1", "scan")


# --- state-controllability -----------------------------------------------


def test_state_controllability_matches_admissibility_on_scanner():
    g = scanner_g()
    assert trace_controllable(scanner_s(), g) and is_admissible(scanner_s(), g)[0]
    bad = make_automaton(
        SCANNER_EVENTS,
        ("y0", "y1"),
        (("y0", "start", "y1"),),
        ("y0",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=("cancel",),
    )
    assert not trace_controllable(bad, g) and not is_admissible(bad, g)[0]


def test_state_controllability_universal_supervisor():
    uni = make_automaton(
        SCANNER_EVENTS,
        ("u",),
        tuple(("u", ev, "u") for ev in SCANNER_EVENTS),
        ("u",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=("cancel",),
    )
    assert trace_controllable(uni, scanner_g())
    assert is_admissible(uni, scanner_g()) == (True, None)


# --- uniformity ------------------------------------------------------------


def test_forked_union_not_uniform():
    from instances import FORKED_FAMILY

    g, r = forked_g(), forked_r()
    union = frozenset(p for w in FORKED_FAMILY for p in w)
    assert not is_uniform(rel(g, r, union))


def test_deterministic_self_relation_uniform():
    r = ladder_r()
    out = greatest_relation(r, r, RelationKind.ucr_simulation(r.alphabet))
    assert is_uniform(out)


def test_empty_relation_uniform():
    g, r = forked_g(), forked_r()
    assert is_uniform(rel(g, r, ()))


def test_uniform_alphabet_mismatch():
    g = make_automaton(("a", "b"), ("p",), (), ("p",))
    r = make_automaton(("b", "a"), ("p",), (), ("p",))
    with pytest.raises(AlphabetMismatch):
        is_uniform(rel(g, r, [("p", "p")]))


def test_uniform_on_state_names_with_commas():
    # The product id "(a,b,a)" would name both ("a,b", "a") and ("a", "b,a");
    # uniformity walks integer codes and names no product state.
    g = make_automaton(
        ("e",),
        ("a", "a,b", "b,a"),
        [("a", "e", "a"), ("a", "e", "a,b"), ("a", "e", "b,a")],
        ("a",),
        required=("e",),
    )
    diagonal = rel(g, g, [(x, x) for x in g.states])
    for phi, verdict in ((pairs_universe(g, g), False), (diagonal, True)):
        assert is_uniform(phi) is named_is_uniform(phi, g, g) is verdict


def test_repeated_refines_build_each_table_once(monkeypatch):
    built = Counter()
    build = automata.build_event_table

    def counting(what, row):
        built[what] += 1
        return build(what, row)

    monkeypatch.setattr(automata, "build_event_table", counting)
    g = scanner_g()
    sg = sync_product(scanner_s(), g)
    kind = RelationKind.simulation(g.alphabet)
    n_events = len(g.alphabet.events)
    first = relations.refine(sg, sg, kind)
    assert built == {"succ_masks": n_events, "pred_masks": n_events, "preds": n_events}
    built.clear()
    # A new left automaton against the same right one: only its own
    # predecessor lists are built, and the same relation comes out.
    twin = dataclasses.replace(sg, pair_of=None)
    assert relations.refine(twin, sg, kind).alive.rows == first.alive.rows
    assert built == {"preds": n_events}
    built.clear()
    assert relations.refine(twin, sg, kind).alive.rows == first.alive.rows
    assert holds(twin, sg, kind)[0]
    assert built == {}


def test_uniform_on_an_empty_relation_walks_nothing(monkeypatch):
    # 30 states each and an empty universe: the walk would reach 900 x 898
    # quadruples, none of which can fire the clause.
    spec = InstanceSpec(
        g_states=30,
        r_states=30,
        events=3,
        density=0.08,
        uncontrollable_fraction=0.34,
        required_fraction=0.5,
        seed=6,
    )
    g, r = random_instance(spec)
    empty = pairs_universe(g, r)
    assert len(empty) == 0
    small = pairs_universe(diamond_g(), diamond_r())

    def no_walk(*args, **kwargs):
        raise AssertionError("product walked")

    monkeypatch.setattr(relations, "product_walk", no_walk)
    assert is_uniform(empty)
    assert is_uniform(PairRelation(diamond_g(), diamond_r(), ()))
    with pytest.raises(AssertionError, match="product walked"):
        is_uniform(small)


def test_uniformity_and_fastpath_agree_with_the_named_references():
    # is_uniform against the named quadruple walk, on a random relation and
    # on the universe relation of each draw; deterministic_fastpath against
    # the one-shot ucr-simulation check it stands for.
    rng = random.Random(180_000)
    uniform, fast = Counter(), Counter()
    for i in range(600):
        spec = InstanceSpec(
            g_states=1 + i % 4,
            r_states=1 + (i // 4) % 4,
            events=1 + i % 3,
            uncontrollable_fraction=(i % 5) / 4,
            required_fraction=0.25 + (i % 4) / 4,
            density=0.2 + (i % 4) * 0.1,
            seed=180_000 + i,
            deterministic=i % 3 == 0,
        )
        g, r = random_instance(spec)
        pairs = [(x, z) for x in g.states for z in r.states]
        drawn = rel(g, r, [p for p in pairs if rng.random() < 0.7])
        for source, phi in (("drawn", drawn), ("universe", pairs_universe(g, r))):
            verdict = is_uniform(phi)
            assert verdict == named_is_uniform(phi, g, r), (i, source)
            uniform[source, verdict] += 1
        expected = None
        if is_deterministic(g) and is_deterministic(r):
            expected = holds(g, r, RelationKind.ucr_simulation(g.alphabet))[0]
        assert deterministic_fastpath(g, r) is expected, i
        fast[expected] += 1
    assert all(uniform[s, v] for s in ("drawn", "universe") for v in (True, False))
    assert all(fast[v] for v in (True, False, None))
