import random

import pytest

from ccsynth import (
    Alphabet,
    AlphabetMismatch,
    Automaton,
    DuplicateStateId,
    EmptyInitialSet,
    UnknownEvent,
    UnknownState,
    ValidationError,
    is_deterministic,
    make_automaton,
    sync_product,
    validate_automaton,
)
from ccsynth.automata import product_state_id

from helpers import random_alphabet, random_automaton
from instances import (
    SCANNER_EVENTS,
    SCANNER_UNCONTROLLABLE,
    diamond_g,
    ladder_g,
    scanner_g,
    scanner_r,
    scanner_s,
)
from oracles import bounded_language_included, reach, reachable_part


def test_scanner_plant_is_valid():
    g = scanner_g()
    assert g.n_states == 5
    assert len(g.transitions) == 8
    validate_automaton(g)


def test_empty_initial_set_rejected():
    with pytest.raises(EmptyInitialSet):
        Automaton(Alphabet(("a",)), ("s",), (("s", "a", "s"),), ())


def test_unknown_event_rejected():
    with pytest.raises(UnknownEvent):
        Automaton(Alphabet(("a",)), ("s",), (("s", "go", "s"),), ("s",))


def test_unknown_state_rejected():
    with pytest.raises(UnknownState):
        Automaton(Alphabet(("a",)), ("s",), (("s", "a", "t"),), ("s",))


# One fault each, with the class and message it raises at construction.
SINGLE_FAULTS = [
    (("s", "t"), [("s", "a", "t")], (), EmptyInitialSet, "initial state set is empty"),
    (
        ("s", "t"),
        [("t", "go", "s"), ("s", "a", "t"), ["s", "go", "t"]],
        ("s",),
        UnknownEvent,
        "transition event 'go' not in alphabet",
    ),
    (
        ("s", "t"),
        [("u", "a", "s"), ("s", "a", "t"), ("s", "a", "u")],
        ("s",),
        UnknownState,
        "transition target 'u' not a declared state",
    ),
    (
        ("s", "t"),
        [("s", "a", "t"), ("u", "a", "s")],
        ("s",),
        UnknownState,
        "transition source 'u' not a declared state",
    ),
    (
        ("s", "t"),
        [("s", "a", "t")],
        ("t", "q", "s"),
        UnknownState,
        "initial state 'q' not a declared state",
    ),
    (
        ("s", "t", "s"),
        [("s", "a", "t")],
        ("s",),
        DuplicateStateId,
        "state id 's' declared twice",
    ),
    # An empty initial set is named before an undeclared transition target.
    (("s",), [("s", "a", "t")], (), EmptyInitialSet, "initial state set is empty"),
]


@pytest.mark.parametrize("states, transitions, initial, error, message", SINGLE_FAULTS)
def test_single_faults_raise_at_construction(
    states, transitions, initial, error, message
):
    alphabet = Alphabet(("a", "b"))
    with pytest.raises(error) as exc:
        Automaton(alphabet, states, transitions, initial)
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        make_automaton(alphabet.events, states, iter(transitions), initial)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "events, uncontrollable, required, error, message",
    [
        (("a", "b", "a"), (), (), ValidationError, "duplicate event name 'a'"),
        (("a",), ("u",), (), UnknownEvent, "uncontrollable event 'u' not in alphabet"),
        (("a",), (), ("q",), UnknownEvent, "required event 'q' not in alphabet"),
    ],
)
def test_alphabet_faults_raise_at_construction(
    events, uncontrollable, required, error, message
):
    with pytest.raises(error) as exc:
        Alphabet(events, uncontrollable, required)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_alphabet_partition():
    ab = scanner_g().alphabet
    assert ab.controllable == {"next"}
    assert ab.controllable | ab.uncontrollable == set(ab.events)
    assert not ab.controllable & ab.uncontrollable


def test_transitions_normalized():
    a = make_automaton(
        ("a", "b"),
        ("p", "q"),
        (("q", "a", "p"), ("p", "b", "q"), ("p", "a", "q"), ("p", "a", "q")),
        ("p",),
    )
    assert a.transitions == (("p", "a", "q"), ("p", "b", "q"), ("q", "a", "p"))
    assert repr(a.transitions) == (
        "(('p', 'a', 'q'), ('p', 'b', 'q'), ('q', 'a', 'p'))"
    )


# --- sync_product ----------------------------------------------------


def test_product_of_supervisor_and_plant():
    prod = sync_product(scanner_s(), scanner_g())
    assert prod.n_states == 5
    # the scan step splits into both plant targets
    assert ("(y1,x1)", "scan", "(y2,x2)") in prod.transitions
    assert ("(y1,x1)", "scan", "(y2,x3)") in prod.transitions
    assert prod.initial == ("(y0,x0)",)
    assert prod.pair_of["(y2,x3)"] == ("y2", "x3")


def test_product_with_universal_supervisor_is_plant():
    g = scanner_g()
    uni = make_automaton(
        SCANNER_EVENTS,
        ("u",),
        tuple(("u", ev, "u") for ev in SCANNER_EVENTS),
        ("u",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=("cancel",),
    )
    prod = sync_product(uni, g)
    assert prod.n_states == g.n_states
    assert {(p[1], ev, q[1]) for (p, ev, q) in
            ((prod.pair_of[s], e, prod.pair_of[t]) for s, e, t in prod.transitions)} == set(
        g.transitions
    )


def test_product_with_mute_supervisor_has_no_moves():
    g = scanner_g()
    mute = make_automaton(
        SCANNER_EVENTS,
        ("m",),
        (),
        ("m",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=("cancel",),
    )
    prod = sync_product(mute, g)
    assert prod.transitions == ()


def test_product_requires_shared_alphabet():
    with pytest.raises(AlphabetMismatch):
        sync_product(scanner_g(), diamond_g())


def test_product_symmetric_up_to_swap():
    rng = random.Random(5)
    for _ in range(25):
        ab = random_alphabet(rng, rng.randint(1, 3))
        a = random_automaton(ab, rng.randint(1, 4), 0.3, rng, "a")
        b = random_automaton(ab, rng.randint(1, 4), 0.3, rng, "b")
        p1 = sync_product(a, b)
        p2 = sync_product(b, a)
        swap = {s: product_state_id(q.right, q.left) for s, q in p2.pair_of.items()}
        assert {swap[s] for s in p2.states} == set(p1.states)
        assert {swap[s] for s in p2.initial} == set(p1.initial)
        assert {(swap[s], e, swap[t]) for s, e, t in p2.transitions} == set(
            p1.transitions
        )


# --- reach -----------------------------------------------------------


def test_reach_scanner_scan_split():
    assert reach(scanner_g(), ["start", "scan"]) == {"x2", "x3"}


def test_reach_empty_sequence_is_initial():
    g = scanner_g()
    assert reach(g, []) == set(g.initial)


def test_reach_ladder():
    assert reach(ladder_g(), ["l", "l1"]) == {"x3"}


def test_reach_unknown_event():
    with pytest.raises(UnknownEvent):
        reach(scanner_g(), ["warp"])


def test_reach_step_consistency():
    rng = random.Random(11)
    for _ in range(20):
        ab = random_alphabet(rng, 2)
        a = random_automaton(ab, rng.randint(1, 4), 0.35, rng)
        seq = [rng.choice(ab.events) for _ in range(rng.randint(0, 4))]
        ev = rng.choice(ab.events)
        stepwise = frozenset(
            t for s in reach(a, seq) for t in a.successors(s, ev)
        )
        assert reach(a, seq + [ev]) == stepwise


# --- reachable_part --------------------------------------------------


def test_reachable_part_drops_disconnected_component():
    a = make_automaton(
        ("a",),
        ("p", "q", "island"),
        (("p", "a", "q"), ("island", "a", "island")),
        ("p",),
    )
    part = reachable_part(a)
    assert part.states == ("p", "q")
    assert ("island", "a", "island") not in part.transitions


def test_reachable_part_identity_when_all_initial():
    a = make_automaton(("a",), ("p", "q"), (), ("p", "q"))
    assert reachable_part(a) == a


def test_reachable_part_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        ab = random_alphabet(rng, 2)
        a = random_automaton(ab, rng.randint(1, 5), 0.25, rng)
        once = reachable_part(a)
        assert reachable_part(once) == once


# --- determinism ------------------------------------------------------


def test_scanner_plant_nondeterministic():
    assert not is_deterministic(scanner_g())


def test_scanner_specification_deterministic():
    assert is_deterministic(scanner_r())


def test_single_state_deterministic():
    assert is_deterministic(make_automaton(("a",), ("s",), (), ("s",)))


def test_two_initial_states_not_deterministic():
    assert not is_deterministic(make_automaton(("a",), ("p", "q"), (), ("p", "q")))


def test_deterministic_reach_is_singleton():
    rng = random.Random(7)
    for _ in range(20):
        ab = random_alphabet(rng, 2)
        a = random_automaton(ab, rng.randint(1, 4), 0.4, rng)
        if not is_deterministic(a):
            continue
        for _ in range(5):
            seq = [rng.choice(ab.events) for _ in range(rng.randint(0, 5))]
            assert len(reach(a, seq)) <= 1


# --- language inclusion -----------------------------------------------


def test_language_inclusion_reflexive():
    g = scanner_g()
    assert bounded_language_included(g, g, None)
    assert bounded_language_included(g, g, 10)


def test_language_inclusion_product_in_specification():
    prod = sync_product(scanner_s(), scanner_g())
    assert bounded_language_included(prod, scanner_r(), None)
    assert bounded_language_included(prod, scanner_r(), 12)


def test_language_inclusion_witness():
    a = make_automaton(("l", "l1"), ("a", "b", "c"), (("a", "l", "b"), ("b", "l1", "c")), ("a",))
    b = make_automaton(("l", "l1"), ("a",), (("a", "l", "a"),), ("a",))
    assert not bounded_language_included(a, b, None)
    assert not bounded_language_included(b, a, None)
    # Level semantics: a's "l l1" is two letters long; b's "l l" too.
    assert not bounded_language_included(a, b, 2)
    assert bounded_language_included(b, a, 1)
    assert not bounded_language_included(b, a, 2)


def test_language_inclusion_default_explores_every_configuration():
    # B follows a^n b for every n except multiples of 12: its a-cycles of
    # lengths 3 and 4 are both at state 0 only then, and b dies there.
    # The shortest trace of A missing from B, a^12 b, is longer than
    # |A| * |B| + 1 = 10 letters.
    cycles = [(3, "c"), (4, "d")]
    states = ["s", "f"] + [f"{p}{i}" for n, p in cycles for i in range(n)]
    moves = [("s", "b", "f"), ("f", "a", "f"), ("f", "b", "f")]
    for n, p in cycles:
        moves.append(("s", "a", f"{p}1"))
        moves += [(f"{p}{i}", "a", f"{p}{(i + 1) % n}") for i in range(n)]
        moves += [(f"{p}{i}", "b", "f") for i in range(1, n)]
    a = make_automaton(("a", "b"), ("x",), (("x", "a", "x"), ("x", "b", "x")), ("x",))
    b = make_automaton(("a", "b"), states, moves, ("s",))
    assert b.n_states == 9
    assert not bounded_language_included(a, b, None)
    assert bounded_language_included(a, b, 12)
    assert not bounded_language_included(a, b, 13)
    assert bounded_language_included(b, a, None)


def test_language_inclusion_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        bounded_language_included(scanner_g(), diamond_g(), None)
