"""The worked instances used throughout the test suite.

Scanner: a check-out scanner plant whose scan step is nondeterministic;
one branch loses the ability to cancel.  The specification insists the
cancel option stays available.

Diamond: plant and specification with a controllable first step, a
nondeterministic uncontrollable split, and one required event; the
instance where synthesis succeeds.

Ladder: two indistinguishable first moves of the plant, only one of
which can continue with the required uncontrollable step; related to
the specification by the one-shot relation check, yet unsolvable.

Forked: an uncontrollable split followed by a required step on both
plant branches but only one specification branch; its natural family is
a controllability family whose union is not uniform.

Separator: a seeded 3x3 draw whose specification state z2 is renamed
``z0,x1:z1``, so two supervisor states would get one id; and a plant
and supervisor whose product states would.
"""

from __future__ import annotations

from ccsynth import Automaton, InstanceSpec, make_automaton, random_instance

SCANNER_EVENTS = ("start", "scan", "put", "cancel", "pay", "next")
SCANNER_UNCONTROLLABLE = ("start", "scan", "put", "cancel", "pay")


def scanner_g(required=("cancel",)) -> Automaton:
    return make_automaton(
        events=SCANNER_EVENTS,
        states=("x0", "x1", "x2", "x3", "x4"),
        transitions=(
            ("x0", "start", "x1"),
            ("x1", "scan", "x2"),
            ("x1", "scan", "x3"),
            ("x2", "cancel", "x4"),
            ("x2", "put", "x4"),
            ("x3", "put", "x4"),
            ("x4", "pay", "x0"),
            ("x4", "next", "x1"),
        ),
        initial=("x0",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=required,
    )


def scanner_r(required=("cancel",)) -> Automaton:
    return make_automaton(
        events=SCANNER_EVENTS,
        states=("z0", "z1", "z2", "z4"),
        transitions=(
            ("z0", "start", "z1"),
            ("z1", "scan", "z2"),
            ("z2", "cancel", "z4"),
            ("z2", "put", "z4"),
            ("z4", "pay", "z0"),
            ("z4", "next", "z1"),
        ),
        initial=("z0",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=required,
    )


def scanner_s(required=("cancel",)) -> Automaton:
    return make_automaton(
        events=SCANNER_EVENTS,
        states=("y0", "y1", "y2", "y4"),
        transitions=(
            ("y0", "start", "y1"),
            ("y1", "scan", "y2"),
            ("y2", "cancel", "y4"),
            ("y2", "put", "y4"),
            ("y4", "pay", "y0"),
            ("y4", "next", "y1"),
        ),
        initial=("y0",),
        uncontrollable=SCANNER_UNCONTROLLABLE,
        required=required,
    )


DIAMOND_EVENTS = ("c", "uc1", "uc2", "l")
DIAMOND_UNCONTROLLABLE = ("uc1", "uc2")
DIAMOND_REQUIRED = ("l",)


def diamond_g() -> Automaton:
    return make_automaton(
        events=DIAMOND_EVENTS,
        states=("x0", "x1", "x2", "x3", "x4"),
        transitions=(
            ("x0", "c", "x1"),
            ("x1", "uc1", "x2"),
            ("x1", "uc1", "x3"),
            ("x2", "l", "x4"),
            ("x2", "uc1", "x4"),
            ("x3", "l", "x4"),
            ("x4", "uc2", "x0"),
        ),
        initial=("x0",),
        uncontrollable=DIAMOND_UNCONTROLLABLE,
        required=DIAMOND_REQUIRED,
    )


def diamond_r() -> Automaton:
    return make_automaton(
        events=DIAMOND_EVENTS,
        states=("z0", "z1", "z2", "z3", "z4"),
        transitions=(
            ("z0", "c", "z1"),
            ("z1", "uc1", "z2"),
            ("z1", "uc1", "z3"),
            ("z2", "l", "z4"),
            ("z2", "uc1", "z4"),
            ("z3", "l", "z4"),
            ("z3", "uc1", "z4"),
            ("z4", "uc2", "z0"),
        ),
        initial=("z0",),
        uncontrollable=DIAMOND_UNCONTROLLABLE,
        required=DIAMOND_REQUIRED,
    )


DIAMOND_FAMILY = (
    frozenset({("x0", "z0")}),
    frozenset({("x1", "z1")}),
    frozenset({("x2", "z2"), ("x3", "z3")}),
    frozenset({("x4", "z4")}),
)


def ladder_g() -> Automaton:
    return make_automaton(
        events=("l", "l1"),
        states=("x0", "x1", "x2", "x3"),
        transitions=(("x0", "l", "x1"), ("x0", "l", "x2"), ("x1", "l1", "x3")),
        initial=("x0",),
        uncontrollable=("l1",),
        required=("l", "l1"),
    )


def ladder_r() -> Automaton:
    return make_automaton(
        events=("l", "l1"),
        states=("z0", "z1", "z2"),
        transitions=(("z0", "l", "z1"), ("z1", "l1", "z2")),
        initial=("z0",),
        uncontrollable=("l1",),
        required=("l", "l1"),
    )


def forked_g() -> Automaton:
    return make_automaton(
        events=("uc", "l"),
        states=("x0", "x1", "x2", "x1'", "x2'"),
        transitions=(
            ("x0", "uc", "x1"),
            ("x0", "uc", "x2"),
            ("x1", "l", "x1'"),
            ("x2", "l", "x2'"),
        ),
        initial=("x0",),
        uncontrollable=("uc",),
        required=("l",),
    )


def forked_r() -> Automaton:
    return make_automaton(
        events=("uc", "l"),
        states=("z0", "z1", "z2", "z1'"),
        transitions=(
            ("z0", "uc", "z1"),
            ("z0", "uc", "z2"),
            ("z1", "l", "z1'"),
        ),
        initial=("z0",),
        uncontrollable=("uc",),
        required=("l",),
    )


FORKED_FAMILY = (
    frozenset({("x0", "z0")}),
    frozenset({("x1", "z1"), ("x2", "z1")}),
    frozenset({("x1'", "z1'"), ("x2'", "z1'")}),
    frozenset({("x2", "z2")}),
)


def separator_instance(name: str = "z0,x1:z1") -> tuple[Automaton, Automaton]:
    """``InstanceSpec(3, 3, 2, seed=9)`` with specification state z2
    renamed ``name``.  By default the supervisor members {(x1, z0), (x1, z1)}
    and {(x1, z0,x1:z1)} both join to ``W{x1:z0,x1:z1}``."""
    g, r = random_instance(InstanceSpec(3, 3, 2, seed=9))
    names = [name if z == "z2" else z for z in r.states]
    return g, Automaton.from_table(r.alphabet, names, r.successor_table, r.initial)


def separator_product() -> tuple[Automaton, Automaton]:
    """Supervisor and plant whose product states ("a,b", "a") and
    ("a", "b,a") both join to ``(a,b,a)``."""
    g = make_automaton(
        ("e",), ("a", "b,a"), (("a", "e", "b,a"), ("b,a", "e", "a")), ("a",)
    )
    s = make_automaton(
        ("e",), ("a,b", "a"), (("a,b", "e", "a"), ("a", "e", "a,b")), ("a,b",)
    )
    return s, g
