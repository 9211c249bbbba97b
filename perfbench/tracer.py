"""Spans around the program's public functions, recorded from outside it.

Each function is wrapped at the name it is looked up by: ``cli`` and
``synthesis`` import their callees by name, so patching only the
defining module would miss those calls.  Spans stay in memory as
``[name, start, end, parent, instance]`` lists and are written out when
the run ends.  Counts are read from the objects the wrapped calls
return.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

from ccsynth import cli, relations, synthesis

# lookup namespace -> functions wrapped there
WRAPPED = {
    cli: (
        "run_command",
        "load_automaton",
        "save_automaton",
        "family_fixpoint",
        "build_supervisor",
        "verify_solution",
        "solvability_counterexample",
        "holds",
    ),
    synthesis: (
        "refine",
        "holds",
        "sync_product",
        "is_admissible",
        "is_controllability_family",
        "downward_closure",
    ),
    relations: ("refine",),
}

LAYERS = ("cli", "fileformat", "relations", "automata", "synthesis")

LAYER_OF = {
    "run_command": "cli",
    "load_automaton": "fileformat",
    "save_automaton": "fileformat",
    "refine": "relations",
    "holds": "relations",
    "is_admissible": "relations",
    "sync_product": "automata",
    "family_fixpoint": "synthesis",
    "build_supervisor": "synthesis",
    "verify_solution": "synthesis",
    "solvability_counterexample": "synthesis",
    "is_controllability_family": "synthesis",
    "downward_closure": "synthesis",
    "synthesize": "synthesis",
}


def _count_refine(counts, args, res):
    a, b = args[0], args[1]
    counts["refine_calls"] += 1
    counts["refine_pairs"] += a.n_states * b.n_states
    counts["refine_alive"] += len(res.alive)
    counts["refine_deletions"] += res.deletions


def _count_fixpoint(counts, args, fix):
    counts["fixpoint_iterations"] += fix.iterations
    counts["antichain_size"] += len(fix.antichain)
    counts["universe_size"] += fix.ctx.n


def _count_closure(counts, args, family):
    counts["closure_members"] += len(family)


def _count_supervisor(counts, args, sup):
    counts["supervisor_states"] += sup.automaton.n_states
    counts["supervisor_edges"] += len(sup.automaton.transitions)


def _count_product(counts, args, prod):
    counts["product_states"] += prod.n_states


COUNTERS = {
    "refine": _count_refine,
    "family_fixpoint": _count_fixpoint,
    "downward_closure": _count_closure,
    "build_supervisor": _count_supervisor,
    "sync_product": _count_product,
}


class Tracer:
    """Records spans while installed; ``instance`` tags each new span."""

    def __init__(self, file_sizes: dict[str, int] | None = None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instance: str | None = None
        # Sizes of the files the corpus wrote, so that parse throughput
        # needs no stat call inside the traced command.
        self.file_sizes = file_sizes or {}
        self._saved: list[tuple[object, str, object]] = []

    def install(self, extra: dict | None = None) -> None:
        for module, names in list(WRAPPED.items()) + list((extra or {}).items()):
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def close_cut(self, first: int) -> None:
        """End the spans a timeout left open, from span index ``first`` on."""
        now = time.perf_counter()
        for span in self.spans[first:]:
            if not span[2]:
                span[2] = now
        self.stack.clear()

    def open_span(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.instance]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, result)
            elif name == "load_automaton":
                tracer.counts["parse_bytes"] += tracer.file_sizes.get(str(args[0]), 0)
            return result

        return traced

    def times(self) -> tuple[Counter, Counter]:
        """Total and self seconds per function name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so the self times of all
        spans sum to the duration of the root spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(json.dumps([name, start, end, parent, instance]) + "\n")


def layer_metrics(tracer: Tracer, commands: int, passes: int, timeouts: Counter) -> dict:
    """Per-layer metrics: seconds and counts per traced command.

    ``timeouts`` maps a layer to the commands cut while one of its
    functions was the innermost open span; it is reported per traced pass.
    """
    total, own = tracer.times()
    c = tracer.counts
    per = 1.0 / max(commands, 1)

    def share(num, den):
        return num / den if den else 0.0

    layer_self = Counter()
    for name, seconds in own.items():
        layer_self[LAYER_OF[name]] += seconds
    out = {
        "cli.self_s": own["run_command"] * per,
        "fileformat.self_s": layer_self["fileformat"] * per,
        "fileformat.parse_s": total["load_automaton"] * per,
        "fileformat.parse_mb_per_s": share(c["parse_bytes"] / 1e6, total["load_automaton"]),
        "fileformat.serialize_s": total["save_automaton"] * per,
        "relations.self_s": layer_self["relations"] * per,
        "relations.refine_s": total["refine"] * per,
        "relations.refine_calls": c["refine_calls"] * per,
        "relations.refine_pairs": c["refine_pairs"] * per,
        "relations.refine_deletions": c["refine_deletions"] * per,
        "relations.refine_kept_share": share(c["refine_alive"], c["refine_pairs"]),
        "relations.counterexample_s": own["holds"] * per,
        "relations.admissible_s": total["is_admissible"] * per,
        "automata.self_s": layer_self["automata"] * per,
        "automata.sync_product_s": total["sync_product"] * per,
        "automata.product_states": c["product_states"] * per,
        "synthesis.self_s": layer_self["synthesis"] * per,
        "synthesis.fixpoint_s": own["family_fixpoint"] * per,
        "synthesis.fixpoint_iterations": c["fixpoint_iterations"] * per,
        "synthesis.antichain_size": c["antichain_size"] * per,
        "synthesis.universe_size": c["universe_size"] * per,
        "synthesis.closure_s": total["downward_closure"] * per,
        "synthesis.closure_members": c["closure_members"] * per,
        "synthesis.family_check_s": own["is_controllability_family"] * per,
        "synthesis.assemble_s": own["build_supervisor"] * per,
        "synthesis.supervisor_states": c["supervisor_states"] * per,
        "synthesis.supervisor_edges": c["supervisor_edges"] * per,
        "synthesis.verify_s": total["verify_solution"] * per,
        "synthesis.counterexample_s": total["solvability_counterexample"] * per,
    }
    for layer in LAYERS:
        out[f"{layer}.timed_out"] = timeouts[layer] / max(passes, 1)
    return out
