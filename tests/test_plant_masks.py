"""The plant states S‖G pairs with each supervisor state.

A state (y, x) of S‖G is reachable exactly when x lies in X_y, the
least set of plant states closed under "x in X_y, y --e--> y1 and
x --e--> x1 give x1 in X_y1" from the initial pairs
(``oracles.plant_masks``).  So admissibility can be read per supervisor
state, with no product: y must enable every uncontrollable event that
some x in X_y enables.  These tests check both facts against
``sync_product`` and ``product_admissibility`` on supervisors that are
admissible and supervisors that are not.
"""

from collections import Counter

from ccsynth import enumerate_subsupervisors, sync_product
from ccsynth.relations import product_admissibility

from instances import diamond_g, diamond_r, scanner_g, scanner_r
from oracles import plant_masks
from test_reachable_universe import manifest_pairs
from test_tables import c08_sweep, solvable_supervisors


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
