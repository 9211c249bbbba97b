import pytest

from ccsynth import (
    CapExceeded,
    RelationKind,
    build_supervisor,
    enumerate_subsupervisors,
    make_automaton,
    serialize_automaton,
)
from ccsynth.synthesis import PairSetFamily
from ccsynth.testkit import InstanceSpec, random_instance

from instances import DIAMOND_FAMILY, diamond_g, diamond_r, ladder_g, ladder_r
from oracles import brute_greatest_relation, isomorphic


def test_brute_relation_on_ladder():
    g, r = ladder_g(), ladder_r()
    out = brute_greatest_relation(g, r, RelationKind.ucr_simulation(g.alphabet), cap=12)
    assert out == {
        ("x0", "z0"),
        ("x0", "z2"),
        ("x1", "z1"),
        ("x2", "z2"),
        ("x3", "z2"),
    }


def test_brute_relation_vacuous_backward_kind():
    a = make_automaton(("e",), ("p", "q"), (), ("p",), uncontrollable=("e",))
    b = make_automaton(("e",), ("u",), (), ("u",), uncontrollable=("e",))
    out = brute_greatest_relation(a, b, RelationKind.uc_simulation(a.alphabet))
    assert out == {("p", "u"), ("q", "u")}


def test_brute_relation_self_loop_bisimulation():
    a = make_automaton(("e",), ("s",), (("s", "e", "s"),), ("s",))
    out = brute_greatest_relation(a, a, RelationKind.bisimulation(a.alphabet))
    assert out == {("s", "s")}


def test_brute_relation_cap():
    g, r = ladder_g(), ladder_r()
    with pytest.raises(CapExceeded):
        brute_greatest_relation(g, r, RelationKind.simulation(g.alphabet))


# --- random instances --------------------------------------------------------


def test_generator_deterministic():
    spec = InstanceSpec(g_states=4, r_states=3, events=3, seed=1)
    g1, r1 = random_instance(spec)
    g2, r2 = random_instance(spec)
    assert serialize_automaton(g1) == serialize_automaton(g2)
    assert serialize_automaton(r1) == serialize_automaton(r2)


def test_generator_density_zero_is_transition_free():
    g, r = random_instance(InstanceSpec(density=0.0, seed=3))
    assert g.transitions == () and r.transitions == ()


def test_generator_required_fraction_zero():
    g, _ = random_instance(InstanceSpec(required_fraction=0.0, seed=5))
    assert g.alphabet.required == frozenset()


def test_generator_deterministic_flag_yields_deterministic_automata():
    from ccsynth import is_deterministic

    for seed in range(10):
        g, r = random_instance(
            InstanceSpec(g_states=4, r_states=4, events=3, seed=seed, deterministic=True)
        )
        assert is_deterministic(g) and is_deterministic(r)


def test_generator_rejects_bad_spec():
    with pytest.raises(ValueError):
        InstanceSpec(g_states=0)
    with pytest.raises(ValueError):
        InstanceSpec(density=1.5)


# --- sub-supervisor enumeration ----------------------------------------------


def test_subsupervisors_counting():
    g, r = diamond_g(), diamond_r()
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    k = len(sup.automaton.transitions)
    variants = list(enumerate_subsupervisors(sup, 1 << 20))
    assert len(variants) == (1 << k) - 1
    assert all(len(v.transitions) < k for v in variants)


def test_subsupervisors_limit_zero():
    g, r = diamond_g(), diamond_r()
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    assert list(enumerate_subsupervisors(sup, 0)) == []


def test_subsupervisors_include_single_edge_deletions():
    g, r = diamond_g(), diamond_r()
    sup = build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    required_edge = ("W{x2:z2,x3:z3}", "l", "W{x4:z4}")
    assert required_edge in sup.automaton.transitions
    seen_without = False
    for v in enumerate_subsupervisors(sup, 100):
        if required_edge not in v.transitions and len(v.transitions) == len(
            sup.automaton.transitions
        ) - 1:
            seen_without = True
    assert seen_without


# --- isomorphism helper -------------------------------------------------------


def test_isomorphic_detects_renaming():
    a = make_automaton(("e",), ("p", "q"), (("p", "e", "q"),), ("p",))
    b = make_automaton(("e",), ("u", "v"), (("u", "e", "v"),), ("u",))
    c = make_automaton(("e",), ("u", "v"), (("u", "e", "v"),), ("v",))
    assert isomorphic(a, b)
    assert not isomorphic(a, c)


def test_isomorphic_requires_same_shape():
    a = make_automaton(("e",), ("p", "q"), (("p", "e", "q"),), ("p",))
    b = make_automaton(("e",), ("p", "q"), (("p", "e", "q"), ("q", "e", "p")), ("p",))
    assert not isomorphic(a, b)
