"""Cross-cutting properties checked on seeded random instances.

The big 200-instance sweeps required for acceptance live in
test_acceptance; these are broader but smaller probes of the same laws
plus the laws without an acceptance criterion of their own.
"""

import random

from ccsynth import (
    PairRelation,
    RelationKind,
    build_supervisor,
    downward_closure,
    extract_family,
    greatest_family,
    greatest_relation,
    holds,
    is_admissible,
    is_controllability_family,
    is_solvable,
    is_uniform,
    sync_product,
    synthesize,
    verify_solution,
)
from ccsynth.relations import clause_violations
from ccsynth.synthesis import PairSetFamily, pairs_universe
from ccsynth.testkit import InstanceSpec, enumerate_subsupervisors, random_instance

from helpers import projection_consistent, random_alphabet, random_automaton
from instances import DIAMOND_FAMILY, diamond_g, diamond_r, scanner_g, scanner_r
from oracles import bounded_language_included, f_step, trace_controllable

ALL_KINDS = ("sim", "ccsim", "bisim", "ucsim", "ucrsim")


def kinds_for(alphabet):
    return {
        "sim": RelationKind.simulation(alphabet),
        "ccsim": RelationKind.cc_simulation(alphabet),
        "bisim": RelationKind.bisimulation(alphabet),
        "ucsim": RelationKind.uc_simulation(alphabet),
        "ucrsim": RelationKind.ucr_simulation(alphabet),
    }


def spec_stream(count, base_seed, **overrides):
    for i in range(count):
        params = dict(
            g_states=1 + i % 4,
            r_states=1 + (i // 2) % 4,
            events=1 + i % 3,
            uncontrollable_fraction=(i % 4) / 3,
            required_fraction=(i % 5) / 4,
            density=0.2 + (i % 4) * 0.1,
            seed=base_seed + i,
        )
        params.update(overrides)
        yield random_instance(InstanceSpec(**params))


def test_union_closure_every_satisfying_relation_contained():
    # exhaustive over all relations on a small pair universe
    for i, (g, r) in enumerate(spec_stream(25, 9100, g_states=2, r_states=2, events=2)):
        pairs = [(x, z) for x in g.states for z in r.states]
        for name, kind in kinds_for(g.alphabet).items():
            top = greatest_relation(g, r, kind)
            for mask in range(1 << len(pairs)):
                rel = PairRelation(
                    g, r, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
                )
                if not clause_violations(rel, kind):
                    assert rel <= top, (i, name)


def test_preorder_reflexivity():
    for g, r in spec_stream(30, 9200):
        for name, kind in kinds_for(g.alphabet).items():
            if name == "bisim":
                continue
            for a in (g, r):
                ok, _ = holds(a, a, kind)
                assert ok, name


def test_preorder_transitivity():
    rng = random.Random(0)
    for _ in range(60):
        ab = random_alphabet(rng, rng.randint(1, 3))
        a = random_automaton(ab, rng.randint(1, 3), 0.3, rng, "a")
        b = random_automaton(ab, rng.randint(1, 3), 0.3, rng, "b")
        c = random_automaton(ab, rng.randint(1, 3), 0.3, rng, "c")
        for name, kind in kinds_for(ab).items():
            ab_ok, _ = holds(a, b, kind)
            bc_ok, _ = holds(b, c, kind)
            if ab_ok and bc_ok:
                ac_ok, _ = holds(a, c, kind)
                assert ac_ok, name


def test_hierarchy_of_preorders():
    for g, r in spec_stream(80, 9300):
        ks = kinds_for(g.alphabet)
        bis, _ = holds(g, r, ks["bisim"])
        ccs, _ = holds(g, r, ks["ccsim"])
        sim, _ = holds(g, r, ks["sim"])
        assert not (bis and not ccs)
        assert not (ccs and not sim)
        assert not (sim and not bounded_language_included(g, r, None))


def test_ccsim_equals_sim_without_required_events():
    for g, r in spec_stream(40, 9400, required_fraction=0.0):
        ks = kinds_for(g.alphabet)
        assert holds(g, r, ks["ccsim"])[0] == holds(g, r, ks["sim"])[0]


def test_ccsim_equals_bisim_with_all_required_single_initial():
    from dataclasses import replace

    for g, r in spec_stream(40, 9500, required_fraction=1.0):
        r1 = replace(r, initial=(r.initial[0],), pair_of=None)
        ks = kinds_for(g.alphabet)
        assert holds(g, r1, ks["ccsim"])[0] == holds(g, r1, ks["bisim"])[0]


def test_admissibility_equals_state_controllability():
    for g, s in spec_stream(60, 9600):
        adm, _ = is_admissible(s, g)
        assert adm == trace_controllable(s, g)


def test_family_fixpoint_properties():
    for g, r in spec_stream(40, 9700, g_states=3, r_states=3, events=2):
        fam = greatest_family(g, r)
        assert f_step(fam, g, r).members == fam.members
        if is_solvable(g, r):
            assert downward_closure(fam).members == fam.members


def test_antichain_engine_agrees_with_powerset_iteration():
    # the production fixpoint must match plain member-by-member filtering
    # from the full powerset wherever the latter is feasible
    compared = 0
    for g, r in spec_stream(60, 9750, g_states=3, r_states=3):
        universe = pairs_universe(g, r)
        if len(universe) > 10:
            continue
        e = PairSetFamily(universe, frozenset(range(1 << len(universe))))
        while True:
            nxt = f_step(e, g, r)
            if nxt.members == e.members:
                break
            e = nxt
        assert e.members == greatest_family(g, r).members
        compared += 1
    assert compared >= 40


def test_every_extracted_family_lies_inside_fixpoint():
    # valid families arise from verified supervisors; each must embed in
    # the greatest fixpoint over the shared universe
    count = 0
    for g, r in spec_stream(40, 9800, g_states=3, r_states=3, events=2):
        out = synthesize(g, r)
        if not out.solvable:
            continue
        fam = extract_family(out.supervisor.automaton, g, r)
        assert is_controllability_family(fam)
        top = greatest_family(g, r)
        index = {p: i for i, p in enumerate(top.universe)}
        assert set(fam.universe) <= set(top.universe)
        for member in fam.member_sets():
            mask = 0
            for p in member:
                mask |= 1 << index[p]
            assert mask in top.members
        count += 1
    assert count >= 10


def test_supervisor_monotone_in_family():
    g, r = diamond_g(), diamond_r()
    small = PairSetFamily.over(g, r, DIAMOND_FAMILY)
    sup_small = build_supervisor(small)
    out = synthesize(g, r)
    sup_big = out.supervisor
    lhs = sync_product(sup_small.automaton, g)
    rhs = sync_product(sup_big.automaton, g)
    ok, _ = holds(lhs, rhs, RelationKind.simulation(g.alphabet))
    assert ok


def test_projection_invariant_on_random_supervisors():
    for g, r in spec_stream(30, 9900, g_states=3, r_states=3, events=2):
        out = synthesize(g, r)
        if out.solvable:
            assert projection_consistent(out.supervisor, g)


def test_passing_subsupervisors_stay_below_maximal():
    g, r = scanner_g(()), scanner_r(())
    out = synthesize(g, r)
    rhs = sync_product(out.supervisor.automaton, g)
    sim = RelationKind.simulation(g.alphabet)
    for variant in enumerate_subsupervisors(out.supervisor, 60):
        if verify_solution(variant, g, r).overall:
            lhs = sync_product(variant, g)
            ok, _ = holds(lhs, rhs, sim)
            assert ok


def test_universe_restriction_never_loses_family_members():
    # members of any valid family only use universe pairs
    for g, r in spec_stream(30, 10000, g_states=3, r_states=3, events=2):
        out = synthesize(g, r)
        if not out.solvable:
            continue
        fam = extract_family(out.supervisor.automaton, g, r)
        assert set(p for w in fam.member_sets() for p in w) <= set(pairs_universe(g, r))


def test_uniform_relation_with_initial_pairing_implies_solvable():
    hits = 0
    for g, r in spec_stream(150, 10100):
        ok, _ = holds(g, r, RelationKind.ucr_simulation(g.alphabet))
        if not ok:
            continue
        rel = greatest_relation(g, r, RelationKind.ucr_simulation(g.alphabet))
        if is_uniform(rel):
            assert is_solvable(g, r)
            hits += 1
    assert hits >= 50


def test_deterministic_relations_always_uniform():
    for g, r in spec_stream(100, 10200, deterministic=True):
        rel = greatest_relation(g, r, RelationKind.ucr_simulation(g.alphabet))
        assert is_uniform(rel)


def test_arbitrary_passing_supervisors_dominated_by_synthesized():
    # maximality beyond prunings: independently drawn supervisors that
    # pass verification embed in the synthesized supervised behavior
    rng = random.Random(99)
    probes = 0
    for g, r in spec_stream(40, 10300, g_states=3, r_states=3, events=2):
        out = synthesize(g, r)
        if not out.solvable:
            continue
        best = sync_product(out.supervisor.automaton, g)
        sim = RelationKind.simulation(g.alphabet)
        for _ in range(5):
            s = random_automaton(g.alphabet, rng.randint(1, 3), 0.4, rng, "y")
            if verify_solution(s, g, r).overall:
                ok, _ = holds(sync_product(s, g), best, sim)
                assert ok
                probes += 1
    assert probes >= 30
