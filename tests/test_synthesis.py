from dataclasses import replace
from random import Random

import pytest

from ccsynth import (
    AlphabetMismatch,
    CapExceeded,
    InstanceSpec,
    NotAFamily,
    NotCcSimulation,
    PairRelation,
    RelationKind,
    bisimilarity_solvable,
    build_supervisor,
    deterministic_fastpath,
    downward_closure,
    extract_family,
    greatest_family,
    holds,
    initial_condition,
    is_admissible,
    is_controllability_family,
    is_solvable,
    make_automaton,
    pairs_universe,
    random_instance,
    sync_product,
    synthesize,
    verify_solution,
)
from ccsynth.relations import clause_violations
from ccsynth.synthesis import PairSetFamily, family_fixpoint, solvability_counterexample

from instances import (
    DIAMOND_EVENTS,
    DIAMOND_FAMILY,
    DIAMOND_REQUIRED,
    DIAMOND_UNCONTROLLABLE,
    FORKED_FAMILY,
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
    separator_instance,
    separator_product,
)
from oracles import f_step, isomorphic, named_is_admissible

LADDER_UNIVERSE = (
    ("x0", "z0"),
    ("x0", "z2"),
    ("x1", "z1"),
    ("x2", "z2"),
    ("x3", "z2"),
)


# --- pairs_universe ---------------------------------------------------


def test_ladder_universe_frozen_value():
    assert tuple(pairs_universe(ladder_g(), ladder_r())) == LADDER_UNIVERSE


def test_universe_without_transitions_removes_required_enablers():
    g = make_automaton(
        ("a", "b"), ("p", "q"), (), ("p",), uncontrollable=("a",), required=("b",)
    )
    r = make_automaton(
        ("a", "b"),
        ("u", "v"),
        (("u", "b", "v"),),
        ("u",),
        uncontrollable=("a",),
        required=("b",),
    )
    # u enables the required b, which the transition-free plant cannot match
    assert tuple(pairs_universe(g, r)) == (("p", "v"), ("q", "v"))


def test_universe_full_when_no_constraints():
    g = make_automaton(("a",), ("p", "q"), (("p", "a", "q"),), ("p",))
    r = make_automaton(("a",), ("u", "v"), (), ("u",))
    assert len(pairs_universe(g, r)) == 4


# --- f_step ------------------------------------------------------------


def test_f_step_keeps_empty_member():
    g, r = ladder_g(), ladder_r()
    fam = PairSetFamily(pairs_universe(g, r), frozenset({0}))
    assert f_step(fam, g, r).members == frozenset({0})


def test_f_step_diamond_closure_is_fixpoint():
    g, r = diamond_g(), diamond_r()
    closure = downward_closure(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    assert f_step(closure, g, r).members == closure.members


def test_f_step_iteration_removes_initial_pair_members_on_ladder():
    g, r = ladder_g(), ladder_r()
    universe = pairs_universe(g, r)
    e = PairSetFamily(universe, frozenset(range(1 << len(universe))))
    while True:
        nxt = f_step(e, g, r)
        if nxt.members == e.members:
            break
        e = nxt
    bit = LADDER_UNIVERSE.index(("x0", "z0"))
    assert not any(m >> bit & 1 for m in e.members)
    assert e.members == greatest_family(g, r).members


# --- downward closure ----------------------------------------------------


def test_diamond_closure_exact():
    g, r = diamond_g(), diamond_r()
    e = PairSetFamily.over(g, r, DIAMOND_FAMILY)
    closure = downward_closure(e)
    expected = set(DIAMOND_FAMILY) | {
        frozenset({("x2", "z2")}),
        frozenset({("x3", "z3")}),
        frozenset(),
    }
    assert closure.member_sets() == frozenset(expected)


def two_state_relation(pairs):
    """Relation between two transition-free automata on states a, c and b, d."""
    left = make_automaton(("e",), ("a", "c"), (), ("a",))
    right = make_automaton(("e",), ("b", "d"), (), ("b",))
    return PairRelation(left, right, pairs)


def test_closure_of_singleton_empty_member():
    fam = PairSetFamily(two_state_relation({("a", "b")}), frozenset({0}))
    assert downward_closure(fam).members == frozenset({0})


def test_closure_of_two_element_member_has_four_subsets():
    universe = two_state_relation({("a", "b"), ("c", "d")})
    fam = PairSetFamily(universe, frozenset({0b11}))
    assert downward_closure(fam).members == frozenset({0b00, 0b01, 0b10, 0b11})


# --- is_controllability_family -------------------------------------------


def test_diamond_family_is_controllability_family():
    g, r = diamond_g(), diamond_r()
    assert is_controllability_family(PairSetFamily.over(g, r, DIAMOND_FAMILY))


def test_forked_family_is_controllability_family():
    g, r = forked_g(), forked_r()
    assert is_controllability_family(PairSetFamily.over(g, r, FORKED_FAMILY))


def test_family_of_only_empty_member_fails_istate():
    g, r = diamond_g(), diamond_r()
    fam = PairSetFamily(pairs_universe(g, r), frozenset({0}))
    assert not is_controllability_family(fam)


# --- greatest_family / is_solvable ----------------------------------------


def test_diamond_fixpoint_contains_handbuilt_family_closure():
    g, r = diamond_g(), diamond_r()
    closure = downward_closure(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    fam = greatest_family(g, r)
    assert closure.member_sets() <= fam.member_sets()
    assert f_step(fam, g, r).members == fam.members


def test_scanner_unsolvable_with_cancel_required():
    assert not is_solvable(scanner_g(), scanner_r())


def test_diamond_solvable():
    assert is_solvable(diamond_g(), diamond_r())


def test_ladder_unsolvable_despite_relation():
    g, r = ladder_g(), ladder_r()
    ok, _ = holds(g, r, RelationKind.ucr_simulation(g.alphabet))
    assert ok
    assert not is_solvable(g, r)


def test_scanner_without_required_events_solvable():
    g, r = scanner_g(()), scanner_r(())
    fam = greatest_family(g, r)
    union = PairRelation(g, r, frozenset().union(*fam.member_sets()))
    kind = RelationKind.uc_simulation(g.alphabet)
    assert clause_violations(union, kind) == []
    assert initial_condition(union)
    assert is_solvable(g, r)


def test_solvability_counterexample_scanner():
    g, r = scanner_g(), scanner_r()
    fix = family_fixpoint(g, r)
    cx = solvability_counterexample(fix)
    assert cx.kind == "backward"
    assert (cx.left, cx.right, cx.event) == ("x3", "z2", "cancel")


def test_solvability_counterexample_family_level_on_ladder():
    g, r = ladder_g(), ladder_r()
    fix = family_fixpoint(g, r)
    cx = solvability_counterexample(fix)
    # the pairing exists in the universe; the family fixpoint kills it
    assert cx.kind == "istate"
    assert cx.left == "x0"


def test_istate_counterexample_names_a_joint_failure():
    spec = InstanceSpec(
        5, 4, 2, 0.5091781701648932, 0.8259067882174111, 0.16063836842403972, 8634
    )
    fix = family_fixpoint(*random_instance(spec))
    assert fix.ctx.g.initial == ("x0", "x2")
    # Some member pairs x2 with an initial specification state, but none
    # pairs x0 and x2 together.
    x0_mask, x2_mask = fix.ctx.istate_masks
    assert any(m & x2_mask for m in fix.antichain)
    assert not any(m & x0_mask and m & x2_mask for m in fix.antichain)
    cx = solvability_counterexample(fix)
    assert (cx.kind, cx.left) == ("istate", "x2")
    assert cx.note == "no family member pairs it together with x0"


def test_istate_counterexample_names_a_state_no_member_pairs():
    spec = InstanceSpec(
        3, 2, 2, 0.2747780141262147, 0.44245094403501006, 0.3645433756321331, 2513
    )
    fix = family_fixpoint(*random_instance(spec))
    assert fix.ctx.g.initial == ("x0", "x2")
    # A member pairs x0; none pairs x2 with an initial specification state.
    x0_mask, x2_mask = fix.ctx.istate_masks
    assert any(m & x0_mask for m in fix.antichain)
    assert not any(m & x2_mask for m in fix.antichain)
    cx = solvability_counterexample(fix)
    assert (cx.kind, cx.left) == ("istate", "x2")
    assert cx.note == "every family member pairing it fails the fixpoint conditions"


def test_cap_exceeded_reports_universe_size():
    g, r = diamond_g(), diamond_r()
    with pytest.raises(CapExceeded) as exc:
        greatest_family(g, r, cap=3)
    assert exc.value.size == 12
    assert "12" in str(exc.value)


# --- build_supervisor -------------------------------------------------------


def expected_diamond_supervisor():
    return make_automaton(
        DIAMOND_EVENTS,
        ("W0", "W1", "W2", "W3"),
        (
            ("W0", "c", "W1"),
            ("W1", "uc1", "W2"),
            ("W2", "l", "W3"),
            ("W2", "uc1", "W3"),
            ("W3", "uc2", "W0"),
        ),
        ("W0",),
        uncontrollable=DIAMOND_UNCONTROLLABLE,
        required=DIAMOND_REQUIRED,
    )


def expected_diamond_product():
    return make_automaton(
        DIAMOND_EVENTS,
        ("P0", "P1", "P2", "P3", "P4"),
        (
            ("P0", "c", "P1"),
            ("P1", "uc1", "P2"),
            ("P1", "uc1", "P3"),
            ("P2", "l", "P4"),
            ("P2", "uc1", "P4"),
            ("P3", "l", "P4"),
            ("P4", "uc2", "P0"),
        ),
        ("P0",),
        uncontrollable=DIAMOND_UNCONTROLLABLE,
        required=DIAMOND_REQUIRED,
    )


def test_diamond_supervisor_matches_expected_automaton():
    g, r = diamond_g(), diamond_r()
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    assert sup.automaton.n_states == 4
    assert isomorphic(sup.automaton, expected_diamond_supervisor())
    assert sup.automaton.initial == ("W{x0:z0}",)
    assert sup.members["W{x2:z2,x3:z3}"] == (("x2", "z2"), ("x3", "z3"))


def test_diamond_supervised_system_matches_expected_product():
    g, r = diamond_g(), diamond_r()
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    prod = sync_product(sup.automaton, g)
    assert prod.n_states == 5
    assert isomorphic(prod, expected_diamond_product())


def test_build_supervisor_rejects_non_family():
    g, r = ladder_g(), ladder_r()
    fam = PairSetFamily(pairs_universe(g, r), frozenset({0}))
    with pytest.raises(NotAFamily):
        build_supervisor(fam)


# --- extract_family -----------------------------------------------------


def test_extract_family_scanner_without_required():
    g, r, s = scanner_g(()), scanner_r(()), scanner_s(())
    fam = extract_family(s, g, r)
    assert frozenset({("x2", "z2"), ("x3", "z2")}) in fam.member_sets()
    assert is_controllability_family(fam)


def test_extract_family_universal_supervisor_diamond_no_required():
    g0 = diamond_g()
    g = make_automaton(
        DIAMOND_EVENTS,
        g0.states,
        g0.transitions,
        g0.initial,
        uncontrollable=DIAMOND_UNCONTROLLABLE,
    )
    r0 = diamond_r()
    r = make_automaton(
        DIAMOND_EVENTS,
        r0.states,
        r0.transitions,
        r0.initial,
        uncontrollable=DIAMOND_UNCONTROLLABLE,
    )
    uni = make_automaton(
        DIAMOND_EVENTS,
        ("u",),
        tuple(("u", ev, "u") for ev in DIAMOND_EVENTS),
        ("u",),
        uncontrollable=DIAMOND_UNCONTROLLABLE,
    )
    fam = extract_family(uni, g, r)
    # one supervisor state contributes exactly one member
    assert len(fam) == 1


def test_extract_family_unreachable_supervisor_state_contributes_empty():
    g, r = scanner_g(()), scanner_r(())
    s0 = scanner_s(())
    s = make_automaton(
        SCANNER_EVENTS,
        s0.states + ("orphan",),
        s0.transitions,
        s0.initial,
        uncontrollable=SCANNER_UNCONTROLLABLE,
    )
    fam = extract_family(s, g, r)
    assert frozenset() in fam.member_sets()


def test_extract_family_rejects_non_cc_simulation():
    g, r, s = scanner_g(), scanner_r(), scanner_s()
    with pytest.raises(NotCcSimulation):
        extract_family(s, g, r)


# --- verify_solution -------------------------------------------------------


def test_verify_scanner_supervisor_fails_on_required_cancel():
    rep = verify_solution(scanner_s(), scanner_g(), scanner_r())
    assert rep.admissible
    assert not rep.cc_simulated
    assert not rep.overall
    cx = rep.cc_counterexample
    assert (cx.left, cx.right, cx.event) == ("(y2,x3)", "z2", "cancel")


def test_verify_diamond_family_supervisor_passes():
    g, r = diamond_g(), diamond_r()
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    rep = verify_solution(sup.automaton, g, r)
    assert rep.overall


def test_verify_mute_supervisor_not_admissible():
    g = make_automaton(
        ("u",), ("p", "q"), (("p", "u", "q"),), ("p",), uncontrollable=("u",)
    )
    r = make_automaton(("u",), ("a",), (("a", "u", "a"),), ("a",), uncontrollable=("u",))
    mute = make_automaton(("u",), ("m",), (), ("m",), uncontrollable=("u",))
    rep = verify_solution(mute, g, r)
    assert not rep.admissible
    assert rep.admissibility_counterexample.event == "u"


# --- synthesize -------------------------------------------------------------


def test_synthesize_diamond():
    out = synthesize(diamond_g(), diamond_r())
    assert out.solvable
    assert out.report is not None and out.report.overall
    assert out.supervisor is not None


def test_synthesize_scanner_unsolvable():
    out = synthesize(scanner_g(), scanner_r())
    assert not out.solvable
    assert out.supervisor is None
    assert out.report is None


def test_synthesize_scanner_without_required_dominates_mirror_supervisor():
    g, r, s = scanner_g(()), scanner_r(()), scanner_s(())
    out = synthesize(g, r)
    assert out.solvable
    lhs = sync_product(s, g)
    rhs = sync_product(out.supervisor.automaton, g)
    ok, _ = holds(lhs, rhs, RelationKind.simulation(g.alphabet))
    assert ok


# --- deterministic fast path -----------------------------------------------


def test_fastpath_on_identical_deterministic_automaton():
    r = scanner_r()
    assert deterministic_fastpath(r, r) is True


def test_fastpath_absent_for_nondeterministic_plant():
    assert deterministic_fastpath(ladder_g(), ladder_r()) is None
    assert deterministic_fastpath(scanner_g(), scanner_r()) is None


def test_fastpath_false_when_required_move_missing():
    g = make_automaton(("l",), ("a",), (), ("a",), required=("l",))
    r = make_automaton(("l",), ("b0", "b1"), (("b0", "l", "b1"),), ("b0",), required=("l",))
    assert deterministic_fastpath(g, r) is False
    assert is_solvable(g, r) is False


# --- bisimilarity solvability ------------------------------------------------


def test_bisimilarity_solvable_on_self():
    g = make_automaton(("e",), ("a0",), (("a0", "e", "a0"),), ("a0",))
    assert bisimilarity_solvable(g, g)


def test_bisimilarity_unsolvable_scanner():
    assert not bisimilarity_solvable(scanner_g(), scanner_r())


def test_bisimilarity_fails_on_uncoverable_initial():
    g = make_automaton(("e",), ("x0",), (), ("x0",))
    r = make_automaton(("e",), ("z0", "z1"), (("z1", "e", "z1"),), ("z0", "z1"))
    assert not bisimilarity_solvable(g, r)


def loops(events, **attrs):
    """One state with a self-loop under each event."""
    edges = [("q", e, "q") for e in events]
    return make_automaton(events, ("q",), edges, ("q",), **attrs)


def test_bisimilarity_refuses_mismatched_attributes():
    # ``a`` is uncontrollable in the plant but controllable in the
    # specification: no verdict, as from ``is_solvable``.
    g, r = loops(("a", "b"), uncontrollable=("a",)), loops(("a", "b"))
    with pytest.raises(AlphabetMismatch):
        is_solvable(g, r)
    with pytest.raises(AlphabetMismatch):
        bisimilarity_solvable(g, r)


def test_bisimilarity_refuses_other_event_names():
    with pytest.raises(AlphabetMismatch):
        bisimilarity_solvable(loops(("a", "b")), loops(("a", "c")))


def test_bisimilarity_solvable_matches_the_synthesized_supervisor():
    # With every event required, an instance is bisimilarity-solvable
    # iff it is solvable and the supervised plant is bisimilar to the
    # specification.
    verdicts, partial_cores = [], 0
    for seed in range(300):
        rng = Random(seed)
        spec = InstanceSpec(
            rng.randint(1, 3),
            rng.randint(1, 3),
            rng.randint(1, 2),
            rng.random(),
            rng.random(),
            0.15 + 0.5 * rng.random(),
            seed,
        )
        g, r = random_instance(spec)
        forced = replace(g.alphabet, required=frozenset(g.alphabet.events))
        g2 = replace(g, alphabet=forced, pair_of=None)
        r2 = replace(r, alphabet=forced, pair_of=None)
        out = synthesize(g2, r2, cap=9)
        expected = out.solvable and holds(
            sync_product(out.supervisor.automaton, g2), r2, RelationKind.bisimulation(forced)
        )[0]
        assert bisimilarity_solvable(g, r, cap=9) == expected, spec
        verdicts.append(expected)
        # Solvable draws with an antichain member whose initial-by-initial
        # core misses some initial plant state.
        ctx = out.fixpoint.ctx
        partial_cores += out.solvable and any(
            not ctx.istate(m & ctx.initial_mask) for m in out.fixpoint.antichain
        )
    assert sum(verdicts) == 129
    assert partial_cores == 17


# --- state ids holding separators ------------------------------------------


def test_colliding_member_ids_are_escaped():
    g, r = separator_instance()
    out = synthesize(g, r)
    sup = out.supervisor
    assert sup.members["W{x1:z0,x1:z1}"] == (("x1", "z0"), ("x1", "z1"))
    assert sup.members["W{x1:z0\\,x1\\:z1}"] == (("x1", "z0,x1:z1"),)
    assert out.report.overall
    # Every id is escaped; here only the renamed state's ids change.
    plain = synthesize(*random_instance(InstanceSpec(3, 3, 2, seed=9))).supervisor
    escaped = "z0\\,x1\\:z1"
    assert sup.automaton.states == tuple(
        name.replace("z2", escaped) for name in plain.automaton.states
    )
    assert plain.automaton.states[3] == "W{x1:z2}"


def test_colliding_product_ids_are_escaped():
    s, g = separator_product()
    prod = sync_product(s, g)
    assert prod.pair_of == {
        "(a\\,b,a)": ("a,b", "a"),
        "(a,b\\,a)": ("a", "b,a"),
    }
    assert is_admissible(s, g) == named_is_admissible(s, g) == (True, None)
    assert verify_solution(s, g, g).overall
    # Without a collision, product ids stay unescaped.
    diamond = sync_product(diamond_g(), diamond_g())
    assert all(name == f"({p.left},{p.right})" for name, p in diamond.pair_of.items())


def test_separator_member_ids_that_collide_nowhere_stay_unescaped():
    g, r = separator_instance("z2:\\")
    out = synthesize(g, r)
    plain = synthesize(*random_instance(InstanceSpec(3, 3, 2, seed=9))).supervisor
    assert out.supervisor.automaton.states == tuple(
        name.replace("z2", "z2:\\") for name in plain.automaton.states
    )
    assert out.supervisor.members["W{x1:z2:\\}"] == (("x1", "z2:\\"),)
    assert out.report.overall


def test_separator_product_ids_that_collide_nowhere_stay_unescaped():
    s = make_automaton(("e",), ("a,b", "c"), (("a,b", "e", "c"), ("c", "e", "a,b")), ("a,b",))
    g = make_automaton(("e",), ("a", "b:\\"), (("a", "e", "b:\\"), ("b:\\", "e", "a")), ("a",))
    prod = sync_product(s, g)
    assert prod.states == ("(a,b,a)", "(c,b:\\)")
    assert prod.pair_of == {"(a,b,a)": ("a,b", "a"), "(c,b:\\)": ("c", "b:\\")}
