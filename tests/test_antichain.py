"""Antichain-only supervisor construction against the closure-based code.

``is_controllability_family``, the hitting-set edge targets and
``build_supervisor`` work from a family's maximal members alone.  Each
is compared with the closure-based oracle it replaced (kept in
``oracles``), the paper's whole-closure construction is shown to trim
to ``build_supervisor``'s automaton, and the CLI and library
``synthesize`` are shown to build no closure, the CLI writing the
library's bytes.
"""

import random

from ccsynth import (
    build_supervisor,
    downward_closure,
    is_controllability_family,
    load_automaton,
    save_automaton,
    serialize_automaton,
    synthesize,
)
from ccsynth import synthesis
from ccsynth.cli import run_command
from ccsynth.relations import NAMED_KINDS
from ccsynth.synthesis import (
    PairSetFamily,
    _hitting_sets,
    _maximal,
    family_fixpoint,
)
from ccsynth.testkit import InstanceSpec, random_instance

from instances import (
    DIAMOND_FAMILY,
    FORKED_FAMILY,
    diamond_g,
    diamond_r,
    forked_g,
    forked_r,
    ladder_g,
    ladder_r,
    scanner_g,
    scanner_r,
)
from oracles import (
    closure_supervisor,
    named_family_context,
    pairwise_is_controllability_family,
    reachable_part,
    submask_edge_targets,
)
from test_acceptance import sweep
from test_tables import c08_sweep

MAX_UNIVERSE = 8

WORKED = {
    "scanner": (scanner_g, scanner_r),
    "scanner_free": (lambda: scanner_g(()), lambda: scanner_r(())),
    "diamond": (diamond_g, diamond_r),
    "ladder": (ladder_g, ladder_r),
    "forked": (forked_g, forked_r),
}


def small_instances(count, base_seed):
    """Seeded instances whose pair universe is small enough to enumerate."""
    for i in range(count):
        spec = InstanceSpec(
            g_states=2 + i % 3,
            r_states=2 + (i // 3) % 3,
            events=2 + i % 2,
            uncontrollable_fraction=(i % 4) / 3,
            required_fraction=(i % 5) / 4,
            density=0.25 + (i % 3) * 0.1,
            seed=base_seed + i,
        )
        g, r = random_instance(spec)
        fix = family_fixpoint(g, r, cap=MAX_UNIVERSE + 12)
        if 0 < fix.ctx.n <= MAX_UNIVERSE:
            yield g, r, fix


def random_families(rng, fix, count):
    """Families over the fixpoint's universe, mostly not downward closed.

    Mixes arbitrary masks with the fixpoint's antichain plus a random
    part of its closure, so that both valid and invalid families occur.
    """
    universe, full = fix.ctx.universe, fix.ctx.full
    closure = sorted(downward_closure(PairSetFamily(universe, fix.antichain)).members)
    for k in range(count):
        if k % 3 == 0:
            members = {rng.randint(0, full) for _ in range(rng.randint(1, 5))}
        elif k % 3 == 1:
            members = set(fix.antichain)
            members.update(rng.sample(closure, rng.randint(0, len(closure))))
        else:
            members = set(rng.sample(closure, rng.randint(1, min(len(closure), 6))))
        yield PairSetFamily(universe, frozenset(members))


def test_antichain_family_check_agrees_with_pairwise_check():
    rng = random.Random(2024)
    checked = valid = not_closed = 0
    for g, r, fix in small_instances(120, 310_000):
        for e in random_families(rng, fix, 12):
            expected = pairwise_is_controllability_family(e, g, r)
            assert is_controllability_family(e) == expected
            checked += 1
            valid += expected
            not_closed += downward_closure(e).members != e.members
    assert checked >= 500
    assert valid >= 100
    assert not_closed >= checked // 2


def test_hitting_set_targets_agree_with_submask_enumeration():
    rng = random.Random(77)
    compared = nonempty = 0
    for g, r, fix in small_instances(80, 320_000):
        ctx = fix.ctx
        named = named_family_context(g, r, tuple(ctx.universe))
        chains = [fix.antichain]
        chains += [
            _maximal(rng.randint(0, ctx.full) for _ in range(rng.randint(1, 4)))
            for _ in range(3)
        ]
        for chain in chains:
            for w in rng.sample(range(ctx.full + 1), min(ctx.full + 1, 40)):
                for ev in g.alphabet.events:
                    expected = submask_edge_targets(named, chain, w, ev)
                    assert _hitting_sets(chain, ctx.obligations(w, ev)) == expected
                    compared += 1
                    nonempty += bool(expected)
    assert compared >= 1000
    assert nonempty >= 200


def assert_same_supervisor(actual, expected):
    assert actual.automaton == expected.automaton
    assert actual.members == expected.members
    assert serialize_automaton(actual.automaton) == serialize_automaton(
        expected.automaton
    )


def test_supervisor_agrees_with_closure_assembly():
    rng = random.Random(5)
    built = 0
    families = [
        (PairSetFamily.over(g, r, sets), g, r)
        for g, r, sets in (
            (diamond_g(), diamond_r(), DIAMOND_FAMILY),
            (forked_g(), forked_r(), FORKED_FAMILY),
        )
    ]
    for g, r, fix in small_instances(80, 330_000):
        families.extend((e, g, r) for e in random_families(rng, fix, 4))
    for e, g, r in families:
        if not pairwise_is_controllability_family(e, g, r):
            continue
        assert_same_supervisor(build_supervisor(e), closure_supervisor(e, g, r))
        built += 1
    assert built >= 40


def test_full_closure_construction_trims_to_the_supervisor():
    """The paper's construction over every closure member, cut to its
    reachable part, is ``build_supervisor``'s automaton: the members it
    adds are states that S‖G never visits."""
    g, r = diamond_g(), diamond_r()
    families = [(PairSetFamily.over(g, r, DIAMOND_FAMILY), g, r)]
    draws = [(mk_g(), mk_r()) for mk_g, mk_r in WORKED.values()]
    for g, r in draws + list(c08_sweep()):
        fix = family_fixpoint(g, r)
        # A bound on the closure's size: the full construction writes
        # every member as a state.
        if fix.solvable() and sum(1 << m.bit_count() for m in fix.antichain) <= 4096:
            e = PairSetFamily(fix.ctx.universe, frozenset(fix.antichain))
            families.append((e, g, r))
    for e, g, r in families:
        sup = build_supervisor(e).automaton
        full = closure_supervisor(e, g, r, reachable_only=False).automaton
        trimmed = reachable_part(full)
        assert set(trimmed.states) == set(sup.states)
        assert set(trimmed.initial) == set(sup.initial)
        assert set(trimmed.transitions) == set(sup.transitions)
        assert full.n_states > sup.n_states
    # The diamond family, the three solvable worked examples and 23 of
    # the 24 solvable C08 draws.
    assert len(families) == 27


def test_reachable_cli_synthesis_builds_no_closure(tmp_path, monkeypatch):
    def no_closure(e):
        raise RuntimeError("downward closure materialized")

    monkeypatch.setattr(synthesis, "downward_closure", no_closure)
    solved = 0
    outcomes = []
    for name, (mk_g, mk_r) in WORKED.items():
        outcomes.append(synthesize(mk_g(), mk_r()))
        g, r = str(tmp_path / f"{name}G.aut"), str(tmp_path / f"{name}R.aut")
        save_automaton(mk_g(), g)
        save_automaton(mk_r(), r)
        s, dot = str(tmp_path / f"{name}S.aut"), str(tmp_path / f"{name}S.dot")
        code = run_command(["synthesize", g, r, "-o", s])
        assert code in (0, 1)
        # No subcommand builds a closure, whatever its options.
        commands = [["check", "--kind", kind, g, r] for kind in NAMED_KINDS]
        commands += [["solvable", g, r], ["uniform", g, r]]
        for opt in (["--json"], ["--dot", dot]):
            commands.append(["synthesize", g, r, "-o", s, *opt])
        if code == 0:
            solved += 1
            commands += [["admissible", s, g], ["verify", s, g, r]]
        for argv in commands:
            assert run_command(argv) in (0, 1)
    assert solved == 3
    assert sum(out.solvable for out in outcomes) == 3


def cli_matches_library(g, r, tmp_path, stem):
    g_path, r_path = tmp_path / f"{stem}G.aut", tmp_path / f"{stem}R.aut"
    out = tmp_path / f"{stem}S.aut"
    save_automaton(g, g_path)
    save_automaton(r, r_path)
    g, r = load_automaton(g_path), load_automaton(r_path)
    code = run_command(["synthesize", str(g_path), str(r_path), "-o", str(out)])
    outcome = synthesize(g, r)
    if not outcome.solvable:
        assert code == 1 and not out.exists()
        return False
    assert code == 0
    assert out.read_bytes() == serialize_automaton(
        outcome.supervisor.automaton
    ).encode("utf-8")
    return True


def test_cli_writes_library_supervisor_on_worked_examples(tmp_path):
    solved = [
        name
        for name, (mk_g, mk_r) in WORKED.items()
        if cli_matches_library(mk_g(), mk_r(), tmp_path, name)
    ]
    assert solved == ["scanner_free", "diamond", "forked"]


def test_cli_writes_library_supervisor_on_seeded_sweep(tmp_path):
    # the C08 sweep with two-state specifications, which keeps each
    # supervisor small enough to verify twice (CLI and library)
    solved = sum(
        cli_matches_library(g, r, tmp_path, f"c{i}")
        for i, (g, r) in enumerate(sweep(60, 130_000, g_states=3, r_states=2, events=2))
    )
    assert solved >= 20
