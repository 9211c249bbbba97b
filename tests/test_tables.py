"""Table-backed automata, memoized assembly and name-free verification.

Supervisors and products keep only their integer successor table, and
``transitions`` is a view of it that must behave like the sorted tuple
of named triples it replaces.  Assembly finds edge targets once per
set of obligations, and ``verify_solution`` takes every verdict and
counterexample from one product walk and one refinement, or, given a
witness that passes, from the product walk alone; each is checked here
against the code it replaced.
"""

import dataclasses
import random
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsynth import (
    Alphabet,
    Automaton,
    InstanceSpec,
    enumerate_subsupervisors,
    export_dot,
    is_admissible,
    is_deterministic,
    make_automaton,
    parse_automaton,
    random_instance,
    save_automaton,
    serialize_automaton,
    sync_product,
    synthesize,
    validate_automaton,
    verify_solution,
)
from ccsynth import relations, synthesis
from ccsynth.automata import Transitions
from ccsynth.relations import product_admissibility
from ccsynth.synthesis import (
    PairSetFamily,
    _assemble_supervisor,
    _hitting_sets,
    family_fixpoint,
)

from helpers import random_alphabet, random_automaton
from instances import diamond_g, diamond_r, scanner_g, scanner_r, scanner_s
from oracles import (
    closure_supervisor,
    named_is_admissible,
    named_subsupervisors,
    reachable_part,
)

# Two near-limit draws of the benchmark's ``synth`` pool (s016, s045).
S016 = InstanceSpec(4, 5, 3, 0.34, 0.34, 0.31, 767223550)
S045 = InstanceSpec(4, 4, 3, 0.34, 0.34, 0.314, 648346257)
R9 = InstanceSpec(
    4, 4, 3, density=0.35, uncontrollable_fraction=0.34, required_fraction=0.34, seed=9
)


def c08_sweep(count=60):
    """The parameter sweep of acceptance criterion C08."""
    for i in range(count):
        yield random_instance(
            InstanceSpec(
                g_states=3,
                r_states=3,
                events=2,
                uncontrollable_fraction=(i % 5) / 4,
                required_fraction=(i % 7) / 6,
                density=0.2 + (i % 4) * 0.1,
                seed=130_000 + i,
            )
        )


def solvable_supervisors(pairs, max_edges=None):
    """The assembled supervisor of each solvable pair; with ``max_edges``,
    only those that small (two C08 draws have 56,626 and 136,690 edges)."""
    for g, r in pairs:
        fix = family_fixpoint(g, r)
        if fix.solvable():
            sup = _assemble_supervisor(fix.ctx, fix.antichain)
            if max_edges is None or len(sup.automaton.transitions) <= max_edges:
                yield g, r, fix, sup


# --- the transitions view -----------------------------------------------


def named_twin(aut):
    """The same automaton built from a tuple of named triples, and that
    tuple, read off the successor table without the view."""
    states, table = aut.states, aut.successor_table
    triples = tuple(
        (src, ev, states[j])
        for i, src in enumerate(states)
        for ev, row in zip(aut.alphabet.events, table)
        for j in row[i]
    )
    return Automaton(aut.alphabet, states, triples, aut.initial), triples


def probes(aut, rng):
    """Triples present and absent, undeclared names and wrong shapes."""
    present = rng.sample(list(aut.transitions), min(len(aut.transitions), 20))
    out = present + [list(t) for t in present[:3]] + [t[:2] for t in present[:3]]
    states, events = aut.states, aut.alphabet.events
    for _ in range(10):
        out.append((rng.choice(states), rng.choice(events), rng.choice(states)))
    out += [
        ("ghost", events[0], states[0]),
        (states[0], "nope", states[0]),
        (states[0], events[0], "ghost"),
        (states[0], events[0], states[0], "extra"),
        ([states[0]], events[0], states[0]),
        (),
        "abc",
        None,
        3,
    ]
    return out


def assert_behaves_like_tuple(aut, rng):
    twin, triples = named_twin(aut)
    view = aut.transitions
    assert type(triples) is tuple
    assert len(view) == len(triples)
    assert tuple(view) == triples and list(view) == list(triples)
    for probe in probes(aut, rng):
        assert (probe in view) == (probe in triples), probe
    n = len(triples)
    for i in {0, 1, n // 2, n - 1, -1, -n} & set(range(-n, n)):
        assert view[i] == triples[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    assert view[1:-1:2] == triples[1:-1:2]
    assert view == triples and triples == view
    assert not view != triples
    assert view != triples[:-1] or not triples
    assert view != list(triples)
    if triples:
        src, ev, _ = triples[-1]
        assert view != triples[:-1] + ((src, ev, "ghost"),)
    assert hash(view) == hash(triples)
    assert aut == twin and twin == aut and hash(aut) == hash(twin)
    assert aut.successor_table == twin.successor_table
    assert is_deterministic(aut) == is_deterministic(twin)
    for x in aut.states + ("ghost",):
        for ev in aut.alphabet.events + ("nope",):
            assert aut.successors(x, ev) == twin.successors(x, ev)
            assert aut.enables(x, ev) == twin.enables(x, ev)

    fewer = triples[::2]
    assert dataclasses.replace(aut, transitions=fewer) == dataclasses.replace(
        twin, transitions=fewer
    )
    assert dataclasses.replace(aut, pair_of=None).transitions is view
    # Renumbered states leave the view behind: indices would point wrong.
    flipped = dataclasses.replace(aut, states=aut.states[::-1])
    twin_flipped = dataclasses.replace(twin, states=twin.states[::-1])
    assert flipped == twin_flipped
    assert flipped.successor_table == twin_flipped.successor_table
    assert reachable_part(aut) == reachable_part(twin)
    assert list(enumerate_subsupervisors(aut, 6)) == list(
        enumerate_subsupervisors(twin, 6)
    )
    validate_automaton(aut)
    assert serialize_automaton(aut) == serialize_automaton(twin)
    assert export_dot(aut) == export_dot(twin)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.aut"
        save_automaton(aut, path)
        assert path.read_bytes() == serialize_automaton(twin).encode()


@st.composite
def tables(draw):
    n_states = draw(st.integers(1, 5))
    events = ("e0", "e1", "e2")[: draw(st.integers(1, 3))]
    states = tuple(f"s{i}" for i in range(n_states))
    index = st.integers(0, n_states - 1)
    table = [
        [tuple(sorted(draw(st.sets(index, max_size=n_states)))) for _ in states]
        for _ in events
    ]
    initial = draw(st.lists(st.sampled_from(states), min_size=1, max_size=2))
    return Automaton.from_table(Alphabet(events), states, table, initial)


@settings(max_examples=200, deadline=None)
@given(tables(), st.randoms(use_true_random=False))
def test_transitions_view_behaves_like_the_sorted_tuple(aut, rng):
    assert_behaves_like_tuple(aut, rng)


def test_assembled_supervisors_and_products_behave_like_tuples():
    rng = random.Random(5)
    seen = 0
    pairs = [(diamond_g(), diamond_r())] + list(c08_sweep())
    for g, _r, _fix, sup in solvable_supervisors(pairs, max_edges=5_000):
        assert_behaves_like_tuple(sup.automaton, rng)
        assert_behaves_like_tuple(sync_product(sup.automaton, g), rng)
        seen += 1
    assert seen >= 10
    assert_behaves_like_tuple(sync_product(scanner_s(), scanner_g()), rng)


# --- one representation ---------------------------------------------------


def built_every_way():
    """(how, automaton) for each way the package builds an automaton."""
    g, r = diamond_g(), diamond_r()
    fix = family_fixpoint(g, r)
    sup = _assemble_supervisor(fix.ctx, fix.antichain)
    e = PairSetFamily(fix.ctx.universe, frozenset(fix.antichain))
    full = closure_supervisor(e, g, r, reachable_only=False)
    named = [("q", "b", "p"), ["p", "a", "q"], ("p", "a", "q")]
    yield "make_automaton", make_automaton(("a", "b"), ("p", "q"), named, ("p",))
    yield "Automaton", Automaton(r.alphabet, r.states, r.transitions[::-1], r.initial)
    yield "replace transitions", dataclasses.replace(g, transitions=g.transitions[::2])
    yield "replace states", dataclasses.replace(g, states=g.states[::-1])
    yield "replace pair_of", dataclasses.replace(g, pair_of=None)
    for spec in (R9, dataclasses.replace(R9, deterministic=True)):
        for i, aut in enumerate(random_instance(spec)):
            yield f"random_instance {spec.deterministic} {i}", aut
    yield "parse_automaton", parse_automaton(serialize_automaton(g))
    yield "reachable_part", reachable_part(full.automaton)
    product = sync_product(sup.automaton, g)
    yield "reachable_part of a product", reachable_part(product)
    for i, mutant in enumerate(enumerate_subsupervisors(sup, 3)):
        yield f"enumerate_subsupervisors {i}", mutant
    yield "sync_product", product
    yield "assembly", sup.automaton
    yield "closure_supervisor full", full.automaton
    yield "synthesize", synthesize(g, r).supervisor.automaton


def test_every_automaton_stores_its_successor_table():
    ways = 0
    for how, aut in built_every_way():
        assert type(aut.transitions) is Transitions, how
        assert aut.successor_table is aut.transitions.table, how
        assert (aut.transitions.states, aut.transitions.events) == (
            aut.states,
            aut.alphabet.events,
        ), how
        ways += 1
    assert ways == 19


def test_subsupervisors_match_the_named_enumeration():
    pairs = [(diamond_g(), diamond_r()), (scanner_g(()), scanner_r(()))]
    pairs += list(c08_sweep())
    sizes = Counter()
    for _g, _r, _fix, sup in solvable_supervisors(pairs):
        edges = len(sup.automaton.transitions)
        # The oracle copies every edge per variant, so the two large
        # supervisors (56,626 and 136,690 edges) get few variants.  Past
        # 2**edges - 1 the enumeration runs out of deletion masks.
        limits = (0, 1, 6 if edges > 5_000 else 40)
        for limit in limits + ((1 << edges) + 2,) * (edges <= 8):
            got = list(enumerate_subsupervisors(sup, limit))
            assert got == list(named_subsupervisors(sup, limit)), (edges, limit)
            assert len(got) == min(limit, (1 << edges) - 1)
        sizes[edges <= 8, edges > 5_000] += 1
    assert sizes[True, False] >= 5 and sizes[False, False] >= 5
    assert sizes[False, True] >= 2


# --- memoized assembly ----------------------------------------------------


def assert_assembly_matches_edge_targets(fix, sup):
    ctx, chain, aut = fix.ctx, fix.antichain, sup.automaton
    index = {p: i for i, p in enumerate(ctx.universe)}
    mask_of = {
        name: sum(1 << index[p] for p in pairs)
        for name, pairs in sup.members.items()
    }
    name_of = {m: name for name, m in mask_of.items()}
    assert len(name_of) == aut.n_states
    for name in aut.states:
        for ev in aut.alphabet.events:
            want = sorted(
                (
                    name_of[t]
                    for t in _hitting_sets(chain, ctx.obligations(mask_of[name], ev))
                ),
                key=aut.state_index.__getitem__,
            )
            assert aut.successors(name, ev) == tuple(want), (name, ev)


def test_memoized_assembly_matches_edge_targets():
    pairs = [(diamond_g(), diamond_r())] + list(c08_sweep())
    pairs += [random_instance(S016), random_instance(S045)]
    checked = 0
    for _g, _r, fix, sup in solvable_supervisors(pairs):
        assert_assembly_matches_edge_targets(fix, sup)
        checked += 1
    assert checked >= 10


# --- admissibility read off the product --------------------------------------


def small_mutants(count=40):
    """``enumerate_subsupervisors`` variants of reachable supervisors of
    the worked examples and the C08 sweep, with their plants."""
    pairs = [(diamond_g(), diamond_r()), (scanner_g(()), scanner_r(()))]
    pairs += list(c08_sweep())
    for g, r, _fix, sup in solvable_supervisors(pairs, 5_000):
        for mutant in enumerate_subsupervisors(sup, count):
            yield mutant, g, r


def test_product_admissibility_matches_is_admissible_on_mutants():
    verdicts = Counter()
    for mutant, g, _r in small_mutants():
        got = product_admissibility(sync_product(mutant, g), g)
        assert got == named_is_admissible(mutant, g)
        verdicts[got[0]] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_product_admissibility_matches_is_admissible_on_random_pairs():
    rng = random.Random(11)
    verdicts = Counter()
    for i in range(300):
        alphabet = random_alphabet(rng, 1 + i % 4)
        s = random_automaton(alphabet, rng.randint(1, 6), 0.3, rng, prefix="y")
        g = random_automaton(alphabet, rng.randint(1, 6), 0.3, rng, prefix="x")
        got = product_admissibility(sync_product(s, g), g)
        assert got == named_is_admissible(s, g)
        verdicts[got[0]] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


# --- verify_solution ---------------------------------------------------------


def count_named_checks(monkeypatch) -> Counter:
    """Calls of the checks ``verify_solution`` may make, and relations
    built from named pairs (``PairRelation``) or from rows (``from_rows``)
    and iterated (``iter``), from now on."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    class CountingRelation(relations.PairRelation):
        def __init__(self, *args, **kwargs):
            calls["PairRelation"] += 1
            super().__init__(*args, **kwargs)

        @classmethod
        def from_rows(cls, *args):
            calls["from_rows"] += 1
            return super().from_rows(*args)

        def __iter__(self):
            calls["iter"] += 1
            return super().__iter__()

    monkeypatch.setattr(relations, "PairRelation", CountingRelation)
    for name in ("sync_product", "refine", "is_admissible", "holds"):
        monkeypatch.setattr(synthesis, name, counting(name, getattr(synthesis, name)))
    return calls


def test_passing_verification_names_no_relation(monkeypatch):
    calls = count_named_checks(monkeypatch)
    pairs = [(diamond_g(), diamond_r())] + list(c08_sweep(20))
    checked = 0
    for g, r, _fix, sup in solvable_supervisors(pairs):
        calls.clear()
        assert verify_solution(sup.automaton, g, r).overall
        assert calls == Counter(sync_product=1, refine=1, from_rows=1)
        checked += 1
    assert checked >= 5


def test_failing_verification_keeps_the_named_counterexamples(monkeypatch):
    calls = count_named_checks(monkeypatch)
    rep = verify_solution(scanner_s(), scanner_g(), scanner_r())
    assert rep.admissible and not rep.cc_simulated
    assert calls == Counter(sync_product=1, refine=1, from_rows=1)
    cx = rep.cc_counterexample
    pinned = ("(y2,x3)", "z2", "cancel", "z4")
    assert (cx.left, cx.right, cx.event, cx.successor) == pinned
    assert (cx.chain[0].left, cx.chain[0].right) == ("(y0,x0)", "z0")

    for mutant, g, r in small_mutants():
        calls.clear()
        rep = verify_solution(mutant, g, r)
        if not rep.admissible:
            break
    else:
        raise AssertionError("no inadmissible mutant")
    assert calls == Counter(sync_product=1, refine=1, from_rows=1)
    assert rep.admissibility_counterexample == is_admissible(mutant, g)[1]


def test_passing_synthesized_verification_runs_no_refinement(monkeypatch):
    calls = count_named_checks(monkeypatch)
    pairs = [(diamond_g(), diamond_r())] + list(c08_sweep(20))
    checked = 0
    for g, r in pairs:
        out = synthesize(g, r)
        if not out.solvable:
            continue
        calls.clear()
        assert out.report.overall
        assert calls == Counter(sync_product=1)
        checked += 1
    assert checked >= 5


def test_witnessed_verification_counts_no_product_edge(monkeypatch):
    """The product's edge count is made only when asked for."""
    products = []

    def keep(s, g, **kwargs):
        products.append(sync_product(s, g, **kwargs))
        return products[-1]

    monkeypatch.setattr(synthesis, "sync_product", keep)
    for g, r in [(diamond_g(), diamond_r())] + list(c08_sweep(20)):
        out = synthesize(g, r)
        if out.solvable:
            assert out.report.overall
    assert len(products) >= 5
    assert all("_len" not in vars(prod.transitions) for prod in products)
    edges = products[0].transitions
    assert len(edges) == len(tuple(edges)) and "_len" in vars(edges)


def test_failing_witnessed_verification_makes_the_witness_free_calls(monkeypatch):
    calls = count_named_checks(monkeypatch)
    mutants = (
        (mutant, g, r, sup)
        for g, r, _fix, sup in solvable_supervisors(c08_sweep(), 5_000)
        for mutant in enumerate_subsupervisors(sup, 40)
    )
    for mutant, g, r, sup in mutants:
        calls.clear()
        rep = verify_solution(mutant, g, r, witness=sup.members)
        if not rep.cc_simulated:
            break
    else:
        raise AssertionError("no mutant fails the simulation")
    assert calls == Counter(sync_product=1, refine=1, from_rows=1)
    assert rep.cc_counterexample == verify_solution(mutant, g, r).cc_counterexample


# --- memory ------------------------------------------------------------------

# tracemalloc peak of verify_solution plus save_automaton on R9's
# supervisor (535 states, 37,812 edges) when supervisors and products
# stored one named tuple per edge and the file was written as one string.
NAMED_PEAK_MB = 24.3


def test_verification_and_save_use_under_half_the_named_peak():
    g, r = random_instance(R9)
    fix = family_fixpoint(g, r)
    sup = _assemble_supervisor(fix.ctx, fix.antichain).automaton
    assert (sup.n_states, len(sup.transitions)) == (535, 37_812)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            ok = verify_solution(sup, g, r).overall
            save_automaton(sup, Path(tmp) / "S.aut")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert ok
    assert peak / 2**20 < NAMED_PEAK_MB / 2
