"""Supervisor synthesis for similarity control with required events.

The package decides, for a nondeterministic plant and specification over
a shared alphabet, whether a supervisor exists whose supervised system
is simulated by the specification while also honoring every required
specification move, and synthesizes the maximally permissive such
supervisor when one exists.
"""

from .automata import (
    Alphabet,
    Automaton,
    ProductState,
    is_deterministic,
    make_automaton,
    sync_product,
    validate_automaton,
)
from .errors import (
    AlphabetMismatch,
    CapExceeded,
    CcsynthError,
    DuplicateStateId,
    EmptyInitialSet,
    NotAFamily,
    NotCcSimulation,
    ParseError,
    UniverseMismatch,
    UnknownEvent,
    UnknownState,
    ValidationError,
)
from .fileformat import (
    export_dot,
    load_automaton,
    parse_automaton,
    save_automaton,
    serialize_automaton,
)
from .relations import (
    Counterexample,
    PairRelation,
    RelationKind,
    greatest_relation,
    holds,
    initial_condition,
    is_admissible,
    is_uniform,
)
from .synthesis import (
    DEFAULT_UNIVERSE_CAP,
    PairSetFamily,
    SupervisorAutomaton,
    SynthesisOutcome,
    VerificationReport,
    bisimilarity_solvable,
    build_supervisor,
    deterministic_fastpath,
    downward_closure,
    extract_family,
    greatest_family,
    is_controllability_family,
    is_solvable,
    pairs_universe,
    synthesize,
    verify_solution,
)
from .testkit import InstanceSpec, enumerate_subsupervisors, random_instance

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatch",
    "Automaton",
    "CapExceeded",
    "CcsynthError",
    "Counterexample",
    "DEFAULT_UNIVERSE_CAP",
    "DuplicateStateId",
    "EmptyInitialSet",
    "InstanceSpec",
    "NotAFamily",
    "NotCcSimulation",
    "PairRelation",
    "PairSetFamily",
    "ParseError",
    "ProductState",
    "RelationKind",
    "SupervisorAutomaton",
    "SynthesisOutcome",
    "UniverseMismatch",
    "UnknownEvent",
    "UnknownState",
    "ValidationError",
    "VerificationReport",
    "bisimilarity_solvable",
    "build_supervisor",
    "deterministic_fastpath",
    "downward_closure",
    "enumerate_subsupervisors",
    "export_dot",
    "extract_family",
    "greatest_family",
    "greatest_relation",
    "holds",
    "initial_condition",
    "is_admissible",
    "is_controllability_family",
    "is_deterministic",
    "is_solvable",
    "is_uniform",
    "load_automaton",
    "make_automaton",
    "pairs_universe",
    "parse_automaton",
    "random_instance",
    "save_automaton",
    "serialize_automaton",
    "sync_product",
    "synthesize",
    "validate_automaton",
    "verify_solution",
]
