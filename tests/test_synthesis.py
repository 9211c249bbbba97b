import pytest

from ccsynth import (
    CapExceeded,
    NotAFamily,
    NotCcSimulation,
    PairRelation,
    RelationKind,
    bisimilarity_solvable,
    build_supervisor,
    deterministic_fastpath,
    downward_closure,
    extract_family,
    f_step,
    greatest_family,
    holds,
    initial_condition,
    is_controllability_family,
    is_solvable,
    make_automaton,
    pairs_universe,
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
)
from oracles import isomorphic

LADDER_UNIVERSE = (
    ("x0", "z0"),
    ("x0", "z2"),
    ("x1", "z1"),
    ("x2", "z2"),
    ("x3", "z2"),
)


# --- pairs_universe ---------------------------------------------------


def test_ladder_universe_frozen_value():
    assert pairs_universe(ladder_g(), ladder_r()) == LADDER_UNIVERSE


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
    assert pairs_universe(g, r) == (("p", "v"), ("q", "v"))


def test_universe_full_when_no_constraints():
    g = make_automaton(("a",), ("p", "q"), (("p", "a", "q"),), ("p",))
    r = make_automaton(("a",), ("u", "v"), (), ("u",))
    assert len(pairs_universe(g, r)) == 4


# --- f_step ------------------------------------------------------------


def test_f_step_keeps_empty_member():
    g, r = ladder_g(), ladder_r()
    fam = PairSetFamily(LADDER_UNIVERSE, frozenset({0}))
    assert f_step(fam, g, r).members == frozenset({0})


def test_f_step_diamond_closure_is_fixpoint():
    g, r = diamond_g(), diamond_r()
    closure = downward_closure(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    assert f_step(closure, g, r).members == closure.members


def test_f_step_iteration_removes_initial_pair_members_on_ladder():
    g, r = ladder_g(), ladder_r()
    e = PairSetFamily(LADDER_UNIVERSE, frozenset(range(1 << len(LADDER_UNIVERSE))))
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


def test_closure_of_singleton_empty_member():
    fam = PairSetFamily((("a", "b"),), frozenset({0}))
    assert downward_closure(fam).members == frozenset({0})


def test_closure_of_two_element_member_has_four_subsets():
    fam = PairSetFamily((("a", "b"), ("c", "d")), frozenset({0b11}))
    assert downward_closure(fam).members == frozenset({0b00, 0b01, 0b10, 0b11})


# --- is_controllability_family -------------------------------------------


def test_diamond_family_is_controllability_family():
    g, r = diamond_g(), diamond_r()
    assert is_controllability_family(PairSetFamily.over(g, r, DIAMOND_FAMILY), g, r)


def test_forked_family_is_controllability_family():
    g, r = forked_g(), forked_r()
    assert is_controllability_family(PairSetFamily.over(g, r, FORKED_FAMILY), g, r)


def test_family_of_only_empty_member_fails_istate():
    g, r = diamond_g(), diamond_r()
    fam = PairSetFamily(pairs_universe(g, r), frozenset({0}))
    assert not is_controllability_family(fam, g, r)


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
    union = PairRelation(g, r, fam.union_pairs())
    kind = RelationKind.uc_simulation(g.alphabet)
    assert clause_violations(union, kind) == []
    assert initial_condition(union)
    assert is_solvable(g, r)


def test_solvability_counterexample_scanner():
    g, r = scanner_g(), scanner_r()
    fix = family_fixpoint(g, r)
    cx = solvability_counterexample(g, r, fix)
    assert cx.kind == "backward"
    assert (cx.left, cx.right, cx.event) == ("x3", "z2", "cancel")


def test_solvability_counterexample_family_level_on_ladder():
    g, r = ladder_g(), ladder_r()
    fix = family_fixpoint(g, r)
    cx = solvability_counterexample(g, r, fix)
    # the pairing exists in the universe; the family fixpoint kills it
    assert cx.kind == "istate"
    assert cx.left == "x0"


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
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY), g, r)
    assert sup.automaton.n_states == 4
    assert isomorphic(sup.automaton, expected_diamond_supervisor())
    assert sup.automaton.initial == ("W{x0:z0}",)
    assert sup.members["W{x2:z2,x3:z3}"] == (("x2", "z2"), ("x3", "z3"))


def test_diamond_supervised_system_matches_expected_product():
    g, r = diamond_g(), diamond_r()
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY), g, r)
    prod = sync_product(sup.automaton, g)
    assert prod.n_states == 5
    assert isomorphic(prod, expected_diamond_product())


def test_full_supervisor_keeps_unreachable_members():
    from ccsynth import reachable_part

    g, r = diamond_g(), diamond_r()
    e = PairSetFamily.over(g, r, DIAMOND_FAMILY)
    sup = build_supervisor(e, g, r, reachable_only=False)
    assert sup.automaton.n_states == 7
    reachable = build_supervisor(e, g, r)
    assert set(reachable.automaton.states) <= set(sup.automaton.states)
    # trimming the full construction recovers exactly the reachable part
    assert set(reachable_part(sup.automaton).states) == set(reachable.automaton.states)


def test_build_supervisor_rejects_non_family():
    g, r = ladder_g(), ladder_r()
    fam = PairSetFamily(LADDER_UNIVERSE, frozenset({0}))
    with pytest.raises(NotAFamily):
        build_supervisor(fam, g, r)


# --- extract_family -----------------------------------------------------


def test_extract_family_scanner_without_required():
    g, r, s = scanner_g(()), scanner_r(()), scanner_s(())
    fam = extract_family(s, g, r)
    assert fam.contains_set({("x2", "z2"), ("x3", "z2")})
    assert is_controllability_family(fam, g, r)


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
    assert fam.contains_set(())


def test_extract_family_rejects_non_cc_simulation():
    g, r, s = scanner_g(), scanner_r(), scanner_s()
    with pytest.raises(NotCcSimulation):
        extract_family(s, g, r)


def test_extract_family_verifies_supplied_relation():
    g, r, s = scanner_g(()), scanner_r(()), scanner_s(())
    prod = sync_product(s, g)
    bogus = PairRelation(prod, r, frozenset({("(y0,x0)", "z1")}))
    with pytest.raises(NotCcSimulation):
        extract_family(s, g, r, bogus)


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
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY), g, r)
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
