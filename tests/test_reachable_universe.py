"""The family fixpoint started from the reachable part of the universe.

A supervisor only ever holds pairs that a common string reaches from an
initial-by-initial pair while staying inside the pair universe; call
that set P (``oracles.reachable_universe_pairs``).  On the C08 sweep,
the benchmark's ``decide`` entries within the universe cap and its
``synth`` draws that are not bound by output size, every supervisor
state lies inside P, and the fixpoint started from P instead of from
the whole universe gives the same verdict, the whole-universe antichain
cut down to P, and a byte-identical supervisor.  ``family_fixpoint``
still starts from the whole universe; these tests pin what starting
from P must keep.
"""

import json
from pathlib import Path

from ccsynth import InstanceSpec, random_instance, serialize_automaton
from ccsynth.synthesis import (
    _antichain_pass,
    _assemble_supervisor,
    _maximal,
    family_fixpoint,
)

from oracles import reachable_universe_pairs
from test_tables import c08_sweep

MANIFEST = Path(__file__).resolve().parent.parent / "perfbench" / "manifest.json"


def fixpoint_from(ctx, start: int) -> list[int]:
    """The antichain of the greatest fixpoint below ``start``."""
    chain = [start]
    while True:
        nxt = _antichain_pass(ctx, chain)
        if nxt == chain:
            return chain
        chain = nxt


def compare_reachable_start(pairs) -> tuple[int, int, int, int]:
    """Check each instance; return how many there were, how many have P
    smaller than the universe, how many supervisors were compared and
    how many supervisor states were checked."""
    instances = smaller = compared = states = 0
    for g, r in pairs:
        fix = family_fixpoint(g, r)
        ctx = fix.ctx
        reached = reachable_universe_pairs(ctx.universe)
        p = sum(1 << i for i, pair in enumerate(ctx.universe) if pair in reached)
        chain = fixpoint_from(ctx, p)
        assert any(map(ctx.istate, chain)) == fix.solvable()
        assert chain == _maximal([m & p for m in fix.antichain])
        instances += 1
        smaller += p != ctx.full
        if fix.solvable():
            sup = _assemble_supervisor(ctx, fix.antichain)
            for members in sup.members.values():
                assert reached.issuperset(members)
            states += len(sup.members)
            on_p = _assemble_supervisor(ctx, chain)
            assert serialize_automaton(on_p.automaton) == serialize_automaton(
                sup.automaton
            )
            compared += 1
    return instances, smaller, compared, states


def manifest_pairs(workload: str, keep):
    for entry in json.loads(MANIFEST.read_text(encoding="utf-8"))[workload]:
        if keep(entry["expect"]):
            yield random_instance(InstanceSpec(*entry["spec"]))


def test_reachable_start_on_c08_sweep():
    assert compare_reachable_start(c08_sweep()) == (60, 31, 24, 1569)


def test_reachable_start_on_decide_entries_within_the_cap():
    pairs = manifest_pairs("decide", lambda expect: expect["code"] != 2)
    assert compare_reachable_start(pairs) == (1058, 270, 45, 215)


def test_reachable_start_on_synth_draws_not_bound_by_output():
    # The draws that pin a supervisor size: those that finish, and s034,
    # which is cut in verification.
    pairs = manifest_pairs("synth", lambda expect: "edges" in expect)
    assert compare_reachable_start(pairs) == (20, 8, 20, 2676)
