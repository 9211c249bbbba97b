"""Maximal permissiveness against an oracle that owes nothing to synthesis.

``verify_solution`` checks only that a supervisor is a solution.  Here
every small solution found by enumeration (``small_solutions``) must
have its supervised system simulated by the synthesized one's: a
maximally permissive supervisor allows whatever any solution allows.
Each draw of the C08 sweep runs every one-state automaton and a seeded
sample of two-state ones.  The same sample must tell two solutions that
are not maximal from the synthesized supervisor, and on a draw the
fixpoint calls unsolvable it must find no solution at all.
"""

from ccsynth import (
    Automaton,
    RelationKind,
    enumerate_subsupervisors,
    holds,
    sync_product,
    synthesize,
    verify_solution,
)

from oracles import small_automata, small_solutions
from test_tables import c08_sweep

# Two-state automata sampled per draw, out of 768 over two events.
SAMPLE = 32


def escaping(solutions, s: Automaton, g: Automaton) -> list[Automaton]:
    """The solutions T whose T ‖ g is not simulated by s ‖ g."""
    kind = RelationKind.simulation(g.alphabet)
    sg = sync_product(s, g)
    return [t for t in solutions if not holds(sync_product(t, g), sg, kind)[0]]


def trimmed(sup) -> Automaton:
    """The supervisor with each row cut to its ⊆-maximal targets: always
    a solution, not always maximal (a ROADMAP dead end)."""
    a = sup.automaton
    members = [frozenset(sup.members[y]) for y in a.states]
    table = [
        [
            tuple(j for j in row[i] if not any(members[j] < members[o] for o in row[i]))
            for i in range(a.n_states)
        ]
        for row in a.successor_table
    ]
    return Automaton.from_table(a.alphabet, a.states, table, a.initial)


def test_small_automata_are_every_automaton():
    g, _ = next(c08_sweep())
    one, two = list(small_automata(g.alphabet, 1)), list(small_automata(g.alphabet, 2))
    assert (len(one), len(two)) == (4, 768)
    assert len(set(two)) == 768
    assert {t.initial for t in two} == {("t0",), ("t1",), ("t0", "t1")}


def test_no_small_solution_escapes_the_synthesized_supervisor():
    caught = {"trimmed": [], "pruned": []}
    solvable = unsolvable = with_solution = 0
    for i, (g, r) in enumerate(c08_sweep()):
        out = synthesize(g, r)
        solutions = list(small_solutions(g, r, 2, sample=SAMPLE, seed=i))
        if not out.solvable:
            # A "no" verdict, checked by enumeration alone.
            assert solutions == []
            unsolvable += 1
            continue
        solvable += 1
        with_solution += bool(solutions)
        sup = out.supervisor
        assert escaping(solutions, sup.automaton, g) == []
        mutant = trimmed(sup)
        assert verify_solution(mutant, g, r).overall
        if escaping(solutions, mutant, g):
            caught["trimmed"].append(i)
        if len(sup.automaton.transitions) > 40:
            continue
        # The first pruning of the supervisor that is still a solution
        # and that some sampled solution escapes.
        for pruned in enumerate_subsupervisors(sup, 64):
            if verify_solution(pruned, g, r).overall and escaping(solutions, pruned, g):
                caught["pruned"].append(i)
                break
    assert (solvable, with_solution, unsolvable) == (24, 22, 36)
    # The trimmed mutant is caught on each of the five draws where some
    # automaton of at most two states, sampled or not, escapes it.
    assert caught["trimmed"] == [35, 42, 45, 50, 56]
    assert caught["pruned"] == [1, 11, 21, 22, 46, 50, 56]
