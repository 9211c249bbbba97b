"""The ROADMAP baseline table, regenerated at the end of a traced run.

Rows, outside the timed workloads:

* R9 and R5 through library ``synthesize``, with stage times from spans;
* R9 and R5 through ``ccsynth synthesize``;
* ``refine`` on random n-by-n automata with 4 events, n = 100, 200, 400.

The synthesis rows run under ``LIMIT`` CPU seconds; a cut row names the
function that was running.
"""

from __future__ import annotations

import time
from pathlib import Path

from ccsynth import InstanceSpec, RelationKind, random_instance, save_automaton, synthesis
from ccsynth.relations import refine

from perfbench.corpus import R5, R9
from perfbench.harness import CpuLimit, invoke
from perfbench.tracer import Tracer

LIMIT = 5.0
REFINE_SIZES = (100, 200, 400)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:,.0f} ms"


def _library_row(name: str, spec: InstanceSpec, timer: CpuLimit) -> str:
    g, r = random_instance(spec)
    tracer = Tracer()
    tracer.install({synthesis: ("synthesize", "family_fixpoint", "verify_solution")})
    timer.tracer = tracer
    t0 = time.perf_counter()
    try:
        outcome, cut = timer.call(lambda: synthesis.synthesize(g, r), LIMIT)
    finally:
        timer.tracer = None
        tracer.uninstall()
    elapsed = time.perf_counter() - t0
    tracer.close_cut(0)
    total, own = tracer.times()
    c = tracer.counts
    sizes = (
        f"universe {c['universe_size']}, antichain {c['antichain_size']}, "
        f"closure {c['closure_members']:,}"
    )
    if cut is not None:
        stage = "synthesize (assembly)" if cut.cut_in == "synthesize" else cut.cut_in
        return f"| {name}: {sizes} | cut after {elapsed:.1f} s in {stage} |"
    sup = outcome.supervisor.automaton
    return (
        f"| {name}: {sizes}, supervisor {sup.n_states:,} states / "
        f"{len(sup.transitions):,} edges | fixpoint {_ms(total['family_fixpoint'])}, "
        f"materialize {_ms(total['downward_closure'])}, assemble {_ms(own['synthesize'])}, "
        f"verify {_ms(total['verify_solution'])}; library synthesize {elapsed:.2f} s |"
    )


def _cli_row(name: str, spec: InstanceSpec, workdir: Path, timer: CpuLimit) -> str:
    g, r = random_instance(spec)
    pg, pr, ps = (workdir / f"baseline-{name}-{x}.aut" for x in "GRS")
    save_automaton(g, pg)
    save_automaton(r, pr)
    tracer = Tracer()
    tracer.install()
    timer.tracer = tracer
    try:
        out = invoke(["synthesize", str(pg), str(pr), "-o", str(ps), "--json"], LIMIT, timer)
    finally:
        timer.tracer = None
        tracer.uninstall()
    ps.unlink(missing_ok=True)
    if out.timed_out:
        return f"| {name} through ccsynth synthesize | cut after {out.seconds:.1f} s in {out.cut_in} |"
    return f"| {name} through ccsynth synthesize | exit {out.code} in {out.seconds:.2f} s |"


def _refine_row(n: int) -> str:
    a, b = random_instance(InstanceSpec(n, n, 4, density=2.0 / n, seed=n))
    cells = []
    for kind in ("sim", "ccsim", "bisim"):
        t0 = time.perf_counter()
        res = refine(a, b, RelationKind.named(kind, a.alphabet))
        cells.append(f"{kind} {time.perf_counter() - t0:.2f} s ({res.deletions:,} deletions)")
    return f"| refine, random {n}x{n}, 4 events | {'; '.join(cells)} |"


def roadmap_rows(workdir: Path, timer: CpuLimit) -> list[str]:
    rows = [
        f"ROADMAP baseline (synthesis rows limited to {LIMIT:g} s CPU)",
        "| what | observed |",
        "|---|---|",
    ]
    for name, spec in (("R9", R9), ("R5", R5)):
        rows.append(_library_row(name, spec, timer))
        rows.append(_cli_row(name, spec, workdir, timer))
    rows.extend(_refine_row(n) for n in REFINE_SIZES)
    return rows
