"""Reproducible random instances and supervisor variants.

Random instances come from seeded generation that replays exactly;
``ccsynth random`` and the benchmark's corpus draw from it.  Supervisor
variants with transitions removed probe maximality.  The test suite's
oracles live in ``tests/oracles.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .automata import Alphabet, Automaton
from .synthesis import SupervisorAutomaton


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one reproducible random (plant, specification) pair."""

    g_states: int = 3
    r_states: int = 3
    events: int = 2
    uncontrollable_fraction: float = 0.5
    required_fraction: float = 0.5
    density: float = 0.3
    seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if self.g_states < 1 or self.r_states < 1 or self.events < 1:
            raise ValueError("state and event counts must be at least 1")
        for frac in (self.uncontrollable_fraction, self.required_fraction, self.density):
            if not 0.0 <= frac <= 1.0:
                raise ValueError("fractions must lie in [0, 1]")


def _random_structure(
    rng: random.Random,
    prefix: str,
    n: int,
    alphabet: Alphabet,
    density: float,
    deterministic: bool,
) -> Automaton:
    states = [f"{prefix}{i}" for i in range(n)]
    # table[event][state], filled state by state as the draws come
    table = [[()] * n for _ in alphabet.events]
    for i in range(n):
        for row in table:
            if deterministic:
                if rng.random() < density:
                    row[i] = (rng.randrange(n),)
            else:
                # A list, not a generator: a generator per entry raised the
                # peak RSS of perfbench's decide set-up by ~0.6 MB.
                row[i] = tuple([j for j in range(n) if rng.random() < density])
    if deterministic:
        initial = [states[0]]
    else:
        initial = [s for s in states if rng.random() < 0.25]
        if not initial:
            initial = [states[0]]
    return Automaton.from_table(alphabet, states, table, initial)


def random_instance(spec: InstanceSpec) -> tuple[Automaton, Automaton]:
    """Reproducible random plant and specification over one alphabet."""
    rng = random.Random(spec.seed)
    events = tuple(f"e{i}" for i in range(spec.events))
    n_unc = round(spec.uncontrollable_fraction * spec.events)
    n_req = round(spec.required_fraction * spec.events)
    uncontrollable = frozenset(rng.sample(events, n_unc))
    required = frozenset(rng.sample(events, n_req))
    alphabet = Alphabet(events, uncontrollable, required)
    g = _random_structure(rng, "x", spec.g_states, alphabet, spec.density, spec.deterministic)
    r = _random_structure(rng, "z", spec.r_states, alphabet, spec.density, spec.deterministic)
    return g, r


def enumerate_subsupervisors(
    s: SupervisorAutomaton | Automaton, limit: int
) -> Iterator[Automaton]:
    """Variants of a supervisor with nonempty transition subsets removed.

    Deletion subsets are enumerated in increasing binary order over the
    transition list, up to ``limit`` variants; used to probe maximality.
    Each variant drops its entries from a copy of the successor table.
    """
    aut = s.automaton if isinstance(s, SupervisorAutomaton) else s
    base = aut.successor_table
    # (event, source, target) indices of the transitions, in their order
    edges = [
        (k, i, j)
        for i in range(aut.n_states)
        for k, row in enumerate(base)
        for j in row[i]
    ]
    for mask in range(1, min(limit + 1, 1 << len(edges))):
        table = [list(row) for row in base]
        for bit in range(mask.bit_length()):
            if mask >> bit & 1:
                k, i, j = edges[bit]
                table[k][i] = tuple(t for t in table[k][i] if t != j)
        yield Automaton.from_table(aut.alphabet, aut.states, table, aut.initial)
