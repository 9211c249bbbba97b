"""Rebuild ``manifest.json``: the pinned pools and their expected outcomes.

    python3 perfbench/manifest.py

Runs from the repository root and takes a few minutes.  Every expected
value is cross-checked by a second path before it is pinned:

* ``decide``: deterministic instances agree with ``deterministic_fastpath``;
* ``synth``: solvability comes from the fixpoint, the supervisor from
  library ``synthesize`` re-verified by ``verify_solution``, and the CLI
  output must match it wherever the CLI finishes;
* ``verify``: the supervisor passes ``verify_solution``, the mutant is the
  first ``enumerate_subsupervisors`` variant that fails it, and the CLI
  verdicts match the library's;
* ``check``: every witness the library returns has no
  ``clause_violations`` and meets ``initial_condition``.

A build that finds a disagreement stops with an error and writes nothing.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ccsynth import (  # noqa: E402
    CapExceeded,
    RelationKind,
    deterministic_fastpath,
    enumerate_subsupervisors,
    holds,
    random_instance,
    save_automaton,
    serialize_automaton,
    synthesize,
    verify_solution,
)
from ccsynth.relations import (  # noqa: E402
    clause_violations,
    initial_condition,
    inverse_initial_condition,
)
from ccsynth.synthesis import family_fixpoint  # noqa: E402

from perfbench.corpus import (  # noqa: E402
    MANIFEST,
    R9,
    check_pair,
    decide_spec,
    expected_outcome,
    file_hash,
    inputs_hash,
    spec_to_json,
    synth_spec,
)
from perfbench.harness import CpuLimit, invoke  # noqa: E402

DECIDE_POOL = 1600
# Fewer than half of these draws finish within the synth limit at the
# seed, so the median sits among the cut commands, whose times are the
# limit plus a signal latency, and not on the noisy time of whichever
# finishing draw happens to be the middle one.
SYNTH_POOL = 29
# Draws of the synth distribution used as verify fixtures besides R9:
# one mid-size supervisor and three small ones.  With the checks below a
# verify pass is 16 commands, so that the 3 to 6 passes a 30 s run makes
# as the machine's speed varies give 48 to 96 samples, and the tail is
# p75 in every run.
VERIFY_DRAWS = (68, 22, 52, 80)
# (kind, states, mode, seed) of the check entries.
CHECKS = (
    ("sim", 100, "extend", 101),
    ("ccsim", 100, "extend", 102),
    ("bisim", 100, "random", 103),
    ("sim", 150, "random", 151),
    ("bisim", 150, "extend", 152),
    ("sim", 300, "extend", 302),
)
# CPU seconds a command or library call may take while building; what
# does not finish in it is pinned without an output hash.
BUILD_LIMIT = 10.0
MUTANT_SEARCH = 64


class BuildError(Exception):
    pass


def _cli(argv, timer, output=None):
    out = invoke(argv, BUILD_LIMIT, timer)
    got = None if out.timed_out else expected_outcome(out.code, out.stdout, output)
    if output is not None:
        output.unlink(missing_ok=True)
    return got


def _pair_entry(ident, a, b, workdir):
    pa, pb = workdir / f"{ident}-a.aut", workdir / f"{ident}-b.aut"
    save_automaton(a, pa)
    save_automaton(b, pb)
    entry = {"id": ident, "inputs": inputs_hash(serialize_automaton(a), serialize_automaton(b))}
    return entry, str(pa), str(pb)


def build_decide(workdir, timer):
    out = []
    for k in range(DECIDE_POOL):
        spec = decide_spec(k)
        g, r = random_instance(spec)
        entry, pg, pr = _pair_entry(f"d{k:04d}", g, r, workdir)
        expect = _cli(["solvable", pg, pr, "--json"], timer)
        if expect is None:
            raise BuildError(f"{entry['id']}: solvable did not finish")
        if spec.deterministic and expect["code"] != 2:
            fast = deterministic_fastpath(g, r)
            if fast is None or fast != (expect["code"] == 0):
                raise BuildError(f"{entry['id']}: fast path says {fast}, CLI {expect}")
        out.append({**entry, "spec": spec_to_json(spec), "expect": expect})
    return out


def build_synth(workdir, timer):
    out = []
    k = -1
    while len(out) < SYNTH_POOL:
        k += 1
        spec = synth_spec(k)
        g, r = random_instance(spec)
        try:
            if not family_fixpoint(g, r).solvable():
                continue
        except CapExceeded:
            continue
        entry, pg, pr = _pair_entry(f"s{k:03d}", g, r, workdir)
        expect = {"code": 0, "result": True, "cx": None}
        outcome, cut = timer.call(lambda: synthesize(g, r), BUILD_LIMIT)
        if cut is None:
            if not outcome.report.overall:
                raise BuildError(f"{entry['id']}: library supervisor fails verify_solution")
            text = serialize_automaton(outcome.supervisor.automaton)
            expect["sha256"] = file_hash(text.encode())
            expect["states"] = outcome.supervisor.automaton.n_states
            expect["edges"] = len(outcome.supervisor.automaton.transitions)
            s = workdir / f"{entry['id']}-S.aut"
            got = _cli(["synthesize", pg, pr, "-o", str(s), "--json"], timer, s)
            if got is not None and got != expect:
                raise BuildError(f"{entry['id']}: CLI {got}, library {expect}")
        out.append({**entry, "spec": spec_to_json(spec), "expect": expect})
        print(f"synth {entry['id']}: {'pinned' if 'sha256' in expect else 'unpinned'}")
    return out


def build_verify(workdir, timer):
    out = []
    fixtures = [("R9", R9)] + [(f"v{k:03d}", synth_spec(k)) for k in VERIFY_DRAWS]
    for ident, spec in fixtures:
        g, r = random_instance(spec)
        entry, pg, pr = _pair_entry(ident, g, r, workdir)
        outcome = synthesize(g, r)
        if not outcome.solvable or not outcome.report.overall:
            raise BuildError(f"{ident}: no verified supervisor")
        sup = outcome.supervisor.automaton
        for variant, mutant in enumerate(enumerate_subsupervisors(sup, MUTANT_SEARCH)):
            report = verify_solution(mutant, g, r)
            if not report.overall:
                break
        else:
            raise BuildError(f"{ident}: no failing variant among the first {MUTANT_SEARCH}")
        entry.update(spec=spec_to_json(spec), variant=variant)
        for tag, aut, lib in (("S", sup, outcome.report), ("M", mutant, report)):
            text = serialize_automaton(aut)
            path = workdir / f"{ident}-{tag}.aut"
            save_automaton(aut, path)
            got = _cli(["verify", str(path), pg, pr, "--json"], timer)
            want = {"admissible": lib.admissible, "cc_simulated": lib.cc_simulated,
                    "overall": lib.overall}
            if got is None or got["result"] != want:
                raise BuildError(f"{ident}-{tag}: CLI {got}, library {want}")
            entry[f"sha256_{tag}"] = file_hash(text.encode())
            entry[f"expect_{tag}"] = got
        out.append(entry)
        print(f"verify {ident}: {sup.n_states} states, variant {variant} fails")
    return out


def build_check(workdir, timer):
    out = []
    for kind, n, mode, seed in CHECKS:
        a, b = check_pair(n, mode, seed)
        entry, pa, pb = _pair_entry(f"c{seed}-{kind}-{n}-{mode}", a, b, workdir)
        rk = RelationKind.named(kind, a.alphabet)
        ok, witness = holds(a, b, rk)
        if ok:
            if clause_violations(witness, rk) or not initial_condition(witness):
                raise BuildError(f"{entry['id']}: witness violates the {kind} clauses")
            if rk.check_inverse_initial and not inverse_initial_condition(witness):
                raise BuildError(f"{entry['id']}: witness violates the inverse initial condition")
        got = _cli(["check", "--kind", kind, pa, pb, "--json"], timer)
        if got is None or got["result"] != ok:
            raise BuildError(f"{entry['id']}: CLI {got}, library {ok}")
        entry.update(check={"kind": kind, "n": n, "mode": mode, "seed": seed}, expect=got)
        out.append(entry)
        print(f"check {entry['id']}: {'holds' if ok else 'fails'}")
    return out


def dump(manifest: dict) -> str:
    """One pool entry per line, so that a rebuild diffs line by line."""
    parts = []
    for key, entries in manifest.items():
        body = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in entries)
        parts.append(f'"{key}": [\n{body}\n]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    workdir = ROOT / ".bench_work" / "manifest-build"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    timer = CpuLimit()
    try:
        manifest = {
            "synth": build_synth(workdir, timer),
            "verify": build_verify(workdir, timer),
            "check": build_check(workdir, timer),
            "decide": build_decide(workdir, timer),
        }
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    MANIFEST.write_text(dump(manifest), encoding="utf-8")
    print(f"wrote {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
