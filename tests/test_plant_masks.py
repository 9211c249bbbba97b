"""The plant states S‖G pairs with each supervisor state.

A state (y, x) of S‖G is reachable exactly when x lies in X_y, the
least set of plant states closed under "x in X_y, y --e--> y1 and
x --e--> x1 give x1 in X_y1" from the initial pairs
(``oracles.plant_masks``).  So admissibility can be read per supervisor
state, with no product: y must enable every uncontrollable event that
some x in X_y enables.  These tests check both facts against
``sync_product`` and ``product_admissibility`` on supervisors that are
admissible and supervisors that are not.

The simulation half is read per supervisor state too: a witness's Φ is
a covariant-contravariant simulation with the initial condition exactly
when, at each y and each x in X_y, the specification states the witness
pairs with x answer the moves of y and x
(``oracles.witness_holds_per_state``).  The last two tests check it against
``verify_solution``'s sweep, on witnesses that pass and witnesses that
fail.
"""

import random
from collections import Counter

from ccsynth import RelationKind, enumerate_subsupervisors, sync_product
from ccsynth.relations import clauses_hold, initial_condition, product_admissibility
from ccsynth.synthesis import _witness_relation

from instances import diamond_g, diamond_r, scanner_g, scanner_r
from oracles import plant_masks, witness_holds_per_state
from test_reachable_universe import manifest_pairs
from test_tables import c08_sweep, solvable_supervisors
from test_witness import added_ghosts, perturbed


def check_plant_masks(cases) -> Counter:
    """Check each (supervisor, plant); count the admissibility verdicts."""
    verdicts = Counter()
    for s, g in cases:
        masks = plant_masks(s, g)
        prod = sync_product(s, g)
        pairs = {
            (y, x)
            for y, m in masks.items()
            for i, x in enumerate(g.states)
            if m >> i & 1
        }
        assert pairs == set(prod.pair_of.values())
        admissible = all(
            s.enables(y, ev)
            for y, x in pairs
            for ev in g.alphabet.uncontrollable
            if g.enables(x, ev)
        )
        assert admissible == product_admissibility(prod, g)[0]
        verdicts[admissible] += 1
    return verdicts


def supervisors_and_mutants(pairs):
    """Each supervisor with its plant, then its first 40 variants."""
    for g, _r, _fix, sup in solvable_supervisors(pairs, 5_000):
        yield sup.automaton, g
        for mutant in enumerate_subsupervisors(sup, 40):
            yield mutant, g


def test_plant_masks_on_supervisors_and_their_mutants():
    pairs = [(diamond_g(), diamond_r()), (scanner_g(()), scanner_r(()))]
    pairs += list(c08_sweep())
    verdicts = check_plant_masks(supervisors_and_mutants(pairs))
    assert verdicts == Counter({True: 455, False: 117})


def test_plant_masks_on_synth_draws_not_bound_by_output():
    pairs = manifest_pairs("synth", lambda expect: "edges" in expect)
    cases = ((sup.automaton, g) for g, _r, _fix, sup in solvable_supervisors(pairs))
    assert check_plant_masks(cases) == Counter({True: 20})


def check_witnesses(cases) -> Counter:
    """Check each (supervisor, plant, specification, witness); count the
    verdicts."""
    verdicts = Counter()
    for s, g, r, witness in cases:
        phi = _witness_relation(sync_product(s, g), r, witness)
        kind = RelationKind.cc_simulation(r.alphabet)
        swept = clauses_hold(phi, kind) and initial_condition(phi)
        assert witness_holds_per_state(s, g, r, witness) == swept
        verdicts[swept] += 1
    return verdicts


def witnesses_of_supervisors_and_mutants(pairs):
    """Each supervisor with its members, its first 40 variants under
    those members, two perturbed witnesses and three with a pair Φ
    cannot place added."""
    rng = random.Random(7)
    for g, r, _fix, sup in solvable_supervisors(pairs, 5_000):
        yield sup.automaton, g, r, sup.members
        for mutant in enumerate_subsupervisors(sup, 40):
            yield mutant, g, r, sup.members
        for witness in perturbed(sup, g, r, rng):
            yield sup.automaton, g, r, witness
        for witness in added_ghosts(sup.members).values():
            yield sup.automaton, g, r, witness


def test_witness_clauses_per_state_on_supervisors_and_their_mutants():
    pairs = [(diamond_g(), diamond_r()), (scanner_g(()), scanner_r(()))]
    pairs += list(c08_sweep())
    verdicts = check_witnesses(witnesses_of_supervisors_and_mutants(pairs))
    assert verdicts == Counter({True: 539, False: 153})


def test_witness_clauses_per_state_on_synth_draws_not_bound_by_output():
    pairs = manifest_pairs("synth", lambda expect: "edges" in expect)
    cases = (
        (sup.automaton, g, r, sup.members)
        for g, r, _fix, sup in solvable_supervisors(pairs)
    )
    assert check_witnesses(cases) == Counter({True: 20})
