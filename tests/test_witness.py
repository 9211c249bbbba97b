"""Verification by the synthesized witness, against the refinement.

``verify_solution(s, g, r, witness)`` checks the relation
Φ = {((y, x), z) : (x, z) ∈ witness[y]} with one clause sweep
(``clauses_hold``) and runs the refinement only when Φ fails.  Here the
sweep is compared with the named clause walk it replaces, and every
witnessed verification with the witness-free one: verdicts and both
counterexamples must be equal, whatever the witness.
"""

import random
from collections import Counter

from ccsynth import (
    PairRelation,
    RelationKind,
    enumerate_subsupervisors,
    random_instance,
    sync_product,
    synthesize,
    verify_solution,
)
from ccsynth import synthesis
from ccsynth.relations import (
    NAMED_KINDS,
    clause_violations,
    clauses_hold,
    greatest_relation,
    initial_condition,
)

from helpers import random_alphabet, random_automaton
from instances import (
    diamond_g,
    diamond_r,
    forked_g,
    forked_r,
    scanner_g,
    scanner_r,
    scanner_s,
)
from test_tables import R9, S016, S045, c08_sweep, solvable_supervisors

WORKED = [
    (diamond_g(), diamond_r()),
    (forked_g(), forked_r()),
    (scanner_g(()), scanner_r(())),
]


def random_relations(seed, count):
    """(relation, kind) over random automata: subsets of the greatest
    relation, which often pass, and of all pairs, which often fail."""
    rng = random.Random(seed)
    for i in range(count):
        ab = random_alphabet(rng, 1 + i % 3)
        a = random_automaton(ab, rng.randint(1, 5), rng.choice((0.2, 0.4)), rng, "x")
        b = random_automaton(ab, rng.randint(1, 5), rng.choice((0.2, 0.4)), rng, "z")
        everything = [(x, z) for x in a.states for z in b.states]
        for name, make in NAMED_KINDS.items():
            kind = make(ab)
            for pool in (list(greatest_relation(a, b, kind)), everything):
                keep = rng.choice((0.5, 0.9, 1.0))
                pairs = [p for p in pool if rng.random() < keep]
                yield name, PairRelation(a, b, pairs), kind


def test_clauses_hold_matches_the_named_clause_walk():
    verdicts = Counter()
    for name, rel, kind in random_relations(21, 400):
        got = clauses_hold(rel, kind)
        assert got == (clause_violations(rel, kind) == []), (name, sorted(rel))
        verdicts[name, got] += 1
    for name in NAMED_KINDS:
        assert verdicts[name, True] > 0 and verdicts[name, False] > 0, name


def count_refine(monkeypatch) -> Counter:
    calls = Counter()
    refine = synthesis.refine

    def counting(*args):
        calls["refine"] += 1
        return refine(*args)

    monkeypatch.setattr(synthesis, "refine", counting)
    return calls


def assert_same_report(s, g, r, witness):
    """The witnessed report equals the witness-free one; returns it."""
    plain = verify_solution(s, g, r)
    got = verify_solution(s, g, r, witness=witness)
    assert got == plain
    assert got.admissibility_counterexample == plain.admissibility_counterexample
    assert got.cc_counterexample == plain.cc_counterexample
    return got


def test_every_synthesized_witness_passes_without_a_fallback(monkeypatch):
    """The paper's sufficiency construction, checked on every draw: the
    members of a synthesized supervisor are a simulation witness."""
    calls = count_refine(monkeypatch)
    pairs = WORKED + list(c08_sweep())
    pairs += [random_instance(spec) for spec in (R9, S016, S045)]
    checked = 0
    for g, r, _fix, sup in solvable_supervisors(pairs):
        calls.clear()
        got = verify_solution(sup.automaton, g, r, witness=sup.members)
        assert got.overall and calls["refine"] == 0
        assert got == verify_solution(sup.automaton, g, r)
        checked += 1
    assert checked >= 25


def test_a_wrong_witness_falls_back_to_the_refinement(monkeypatch):
    """The scanner's hand-written supervisor fails the simulation; a
    witness read off its states cannot make it pass, nor can the empty
    witness, which holds every clause and fails only the initial
    condition."""
    calls = count_refine(monkeypatch)
    s, g, r = scanner_s(), scanner_g(), scanner_r()
    read_off = {y: (("x" + y[1:], "z" + y[1:]),) for y in s.states}
    for witness in (read_off, {}):
        calls.clear()
        rep = assert_same_report(s, g, r, witness)
        assert rep.admissible and not rep.cc_simulated
        assert calls["refine"] == 2


def test_subsupervisor_mutants_with_the_parent_witness(monkeypatch):
    calls = count_refine(monkeypatch)
    pairs = [(diamond_g(), diamond_r()), (scanner_g(()), scanner_r(()))]
    pairs += list(c08_sweep())
    seen = Counter()
    for g, r, _fix, sup in solvable_supervisors(pairs, 5_000):
        for mutant in enumerate_subsupervisors(sup, 40):
            calls.clear()
            rep = assert_same_report(mutant, g, r, sup.members)
            # One refinement for the witness-free call; a second one
            # means the parent's witness failed on the mutant.
            seen[rep.cc_simulated, calls["refine"] == 2] += 1
    assert seen[True, False] > 0 and seen[False, True] > 0
    assert seen[True, True] > 0 and seen[False, False] == 0


def perturbed(sup, g, r, rng):
    """The witness with one pair dropped, and with one foreign but
    declared pair added, at a random supervisor state."""
    members = dict(sup.members)
    y = rng.choice(sorted(y for y, pairs in members.items() if pairs))
    pairs = list(members[y])
    dropped = pairs[:]
    del dropped[rng.randrange(len(dropped))]
    foreign = [(x, z) for x in g.states for z in r.states if (x, z) not in pairs]
    yield {**members, y: tuple(dropped)}
    if foreign:
        yield {**members, y: tuple(pairs + [rng.choice(foreign)])}


def test_a_perturbed_witness_gives_the_witness_free_report(monkeypatch):
    calls = count_refine(monkeypatch)
    rng = random.Random(7)
    pairs = WORKED + list(c08_sweep())
    fallbacks = Counter()
    for g, r, _fix, sup in solvable_supervisors(pairs, 5_000):
        for witness in perturbed(sup, g, r, rng):
            calls.clear()
            assert assert_same_report(sup.automaton, g, r, witness).overall
            fallbacks[calls["refine"]] += 1
    # Some perturbations still pass the sweep; the others fall back.
    assert fallbacks[1] > 0 and fallbacks[2] > 0


def test_a_witness_naming_undeclared_states_falls_back(monkeypatch):
    calls = count_refine(monkeypatch)
    g, r = diamond_g(), diamond_r()
    out = synthesize(g, r)
    sup, members = out.supervisor.automaton, out.supervisor.members
    y = sup.states[0]
    (x, z), *rest = members[y]
    undeclared = {
        "supervisor state": {**members, "ghost": ()},
        "plant state": {**members, y: (("ghost", z), *rest)},
        "specification state": {**members, y: ((x, "ghost"), *rest)},
    }
    for what, witness in undeclared.items():
        calls.clear()
        assert assert_same_report(sup, g, r, witness).overall, what
        assert calls["refine"] == 2, what
    calls.clear()
    assert assert_same_report(sup, g, r, members).overall
    assert calls["refine"] == 1


def test_witness_relation_is_the_papers_phi():
    """Φ's rows pair each product state (y, x) with the specification
    states z such that (x, z) is in y's member."""
    g, r = diamond_g(), diamond_r()
    sup = synthesize(g, r).supervisor
    prod = sync_product(sup.automaton, g)
    phi = synthesis._witness_relation(sup.automaton, g, r, prod, sup.members)
    want = {
        (name, z)
        for name, (y, x) in prod.pair_of.items()
        for x1, z in sup.members[y]
        if x1 == x
    }
    assert phi == want
    assert initial_condition(phi)
    assert clauses_hold(phi, RelationKind.cc_simulation(r.alphabet))
