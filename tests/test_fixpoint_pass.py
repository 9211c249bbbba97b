"""The antichain pass's per-event scan against the pair-by-pair reference.

``_violation_children`` answers a required event's backward obligations
with one OR of the chain members matching the candidate, read from the
context's per-event tables, and ``_antichain_pass`` skips candidates
inside a survivor.  ``oracles.reference_fixpoint`` runs the pass as it
was before, pair by pair over the named context.  A violation found in
another order may yield other children, but every passing subset is
still covered by one, so the antichains and iteration counts agree.
"""

import random

from ccsynth.synthesis import (
    _maximal,
    _submasks,
    _violation_children,
    family_fixpoint,
    pairs_universe,
)
from ccsynth.testkit import InstanceSpec, random_instance

from oracles import (
    member_passes,
    named_family_context,
    reference_fixpoint,
)
from test_antichain import small_instances
from test_context import c08_sweep, r9_like, worked_instances


def wide_draws(seeds):
    """6 x 6 draws whose universe has 21-40 pairs, past the default cap."""
    for seed in seeds:
        spec = InstanceSpec(
            g_states=6,
            r_states=6,
            events=3,
            density=0.35,
            uncontrollable_fraction=0.34,
            required_fraction=0.34,
            seed=seed,
        )
        g, r = random_instance(spec)
        if 21 <= len(pairs_universe(g, r)) <= 40:
            yield g, r


def test_fixpoint_agrees_with_reference_pass():
    cases = worked_instances() + c08_sweep() + list(r9_like(40, 920_000))
    wide = list(wide_draws(range(100)))
    passes = unsolvable = 0
    for g, r in cases + wide:
        fix = family_fixpoint(g, r, cap=40)
        assert (fix.antichain, fix.iterations) == reference_fixpoint(g, r)
        passes += fix.iterations > 1
        unsolvable += not fix.solvable()
    assert len(wide) >= 40
    assert passes >= 30 and unsolvable >= 40


def test_violation_children_cover_every_passing_subset():
    rng = random.Random(13)
    violated = covered = 0
    for g, r, fix in small_instances(120, 340_000):
        ctx = fix.ctx
        named = named_family_context(g, r, tuple(ctx.universe))
        chains = [[ctx.full], fix.antichain]
        chains += [
            _maximal(rng.randint(0, ctx.full) for _ in range(rng.randint(1, 4)))
            for _ in range(3)
        ]
        for chain in chains:
            for w in rng.sample(range(1, ctx.full + 1), min(ctx.full, 16)):
                children = _violation_children(ctx, w, chain)
                passing = [p for p in _submasks(w) if member_passes(named, p, chain)]
                if children is None:
                    assert w in passing
                    continue
                assert w not in passing
                assert all(c | w == w and c != w for c in children)
                for p in passing:
                    assert any(p | c == c for c in children), (w, p, children)
                violated += 1
                covered += len(passing)
    assert violated >= 800 and covered >= 3000
