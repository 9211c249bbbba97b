"""The public API's call shapes, pinned.

For every callable ``ccsynth`` exports, the parameters it takes: their
names, their kinds (positional-only before ``/``, keyword-only after
``*``) and which have defaults (``=...``; the value is not pinned).
Annotations are left out, since their text varies between Python
versions.  A class that defines no constructor of its own, such as an
exception taking the base class's arguments, is pinned as None.
"""

import inspect

import ccsynth


class _Default:
    def __repr__(self) -> str:
        return "..."


def call_shape(obj) -> str | None:
    """``obj``'s signature as text, without annotations or default values."""
    if isinstance(obj, type) and not any(
        ("__init__" in vars(k) or "__new__" in vars(k))
        and k.__module__.startswith("ccsynth")
        for k in obj.__mro__
    ):
        return None
    sig = inspect.signature(obj)
    params = [
        p.replace(
            annotation=p.empty,
            default=p.empty if p.default is p.empty else _Default(),
        )
        for p in sig.parameters.values()
    ]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


PINNED = {
    "Alphabet": '(events, uncontrollable=..., required=...)',
    "AlphabetMismatch": None,
    "Automaton": '(alphabet, states, transitions, initial, pair_of=...)',
    "CapExceeded": '(size, cap, what=...)',
    "CcsynthError": None,
    "Counterexample": '(kind, left, right=..., event=..., successor=..., chain=..., note=...)',
    "DuplicateStateId": None,
    "EmptyInitialSet": None,
    "InstanceSpec": '(g_states=..., r_states=..., events=..., uncontrollable_fraction=..., required_fraction=..., density=..., seed=..., deterministic=...)',
    "NotAFamily": None,
    "NotCcSimulation": None,
    "PairRelation": '(left, right, pairs)',
    "PairSetFamily": '(universe, members)',
    "ParseError": '(line, col, message)',
    "ProductState": '(left, right)',
    "RelationKind": '(forward_events, backward_events=..., check_inverse_initial=...)',
    "SupervisorAutomaton": '(automaton, members)',
    "SynthesisOutcome": '(fixpoint, supervisor=...)',
    "UniverseMismatch": None,
    "UnknownEvent": None,
    "UnknownState": None,
    "ValidationError": None,
    "VerificationReport": '(admissible, cc_simulated, admissibility_counterexample=..., cc_counterexample=...)',
    "bisimilarity_solvable": '(g, r, cap=...)',
    "build_supervisor": '(e)',
    "deterministic_fastpath": '(g, r)',
    "downward_closure": '(e)',
    "enumerate_subsupervisors": '(s, limit)',
    "export_dot": '(a)',
    "extract_family": '(s, g, r)',
    "greatest_family": '(g, r, cap=...)',
    "greatest_relation": '(a, b, kind)',
    "holds": '(a, b, kind)',
    "initial_condition": '(phi)',
    "is_admissible": '(s, g)',
    "is_controllability_family": '(e)',
    "is_deterministic": '(a)',
    "is_solvable": '(g, r, cap=...)',
    "is_uniform": '(phi)',
    "load_automaton": '(path)',
    "make_automaton": '(events, states, transitions, initial, *, uncontrollable=..., required=...)',
    "pairs_universe": '(g, r)',
    "parse_automaton": '(text)',
    "random_instance": '(spec)',
    "save_automaton": '(a, path)',
    "serialize_automaton": '(a)',
    "sync_product": '(s, g)',
    "synthesize": '(g, r, cap=...)',
    "validate_automaton": '(a)',
    "verify_solution": '(s, g, r, witness=...)',
}


def test_call_shape_shows_names_kinds_and_defaults():
    def f(a, /, b, c=1, *rest, d, e=2, **kw) -> int:
        return 0

    assert call_shape(f) == "(a, /, b, c=..., *rest, d, e=..., **kw)"
    assert call_shape(ccsynth.CcsynthError) is None


def test_public_callables_keep_their_call_shapes():
    exported = {
        name: call_shape(getattr(ccsynth, name))
        for name in ccsynth.__all__
        if callable(getattr(ccsynth, name))
    }
    assert exported == PINNED
