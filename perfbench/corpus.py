"""Instance pools, generated ``.aut`` files and the commands run on them.

Every workload draws from a pool pinned in ``manifest.json``.  Each
pool entry carries the parameters its files are generated from, a hash
of those files and the expected command outcome.  A run's seed fixes the
order of the pool entries and, for ``decide``, which of them are drawn;
the files of an entry depend only on its pinned parameters, so one seed
always yields the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from ccsynth import (
    Automaton,
    InstanceSpec,
    enumerate_subsupervisors,
    random_instance,
    serialize_automaton,
    synthesize,
)

MANIFEST = Path(__file__).with_name("manifest.json")

# Per-instance CPU-time limits, in seconds.  The synth limit sits in a
# wide gap of its pool: every instance that finishes takes under a tenth
# of it, and every other one takes more than 1.8 times as long.
TIME_LIMITS = {"decide": 1.0, "synth": 0.25, "verify": 10.0}

# decide runs a seeded sample of this many pool entries; synth and
# verify run their whole (small) pools in seeded order.
DECIDE_SAMPLE = 850

R9 = InstanceSpec(
    4, 4, 3, density=0.35, uncontrollable_fraction=0.34, required_fraction=0.34, seed=9
)
R5 = dataclasses.replace(R9, seed=5)


class CorpusMismatch(Exception):
    """Generated inputs or set-up fixtures differ from the pinned manifest."""


@dataclass
class Command:
    ident: str
    argv: list[str]
    expect: dict
    # File the command writes, checked against ``expect`` and then removed.
    output: Path | None = None


def spec_from_json(values: list) -> InstanceSpec:
    return InstanceSpec(*values)


def spec_to_json(spec: InstanceSpec) -> list:
    return list(dataclasses.astuple(spec))


def decide_spec(k: int) -> InstanceSpec:
    """Pool entry k of ``decide``: small mixed instances, ~30 % deterministic."""
    rng = random.Random(f"decide-{k}")
    return InstanceSpec(
        g_states=rng.randint(4, 16),
        r_states=rng.randint(4, 16),
        events=rng.randint(2, 5),
        density=round(rng.uniform(0.1, 0.3), 3),
        deterministic=rng.random() < 0.3,
        seed=rng.randrange(1 << 30),
    )


def synth_spec(k: int) -> InstanceSpec:
    """Draw k of the R9 distribution (the pool keeps the solvable draws)."""
    rng = random.Random(f"synth-{k}")
    return InstanceSpec(
        g_states=rng.choice((4, 5)),
        r_states=rng.choice((4, 5)),
        events=rng.choice((3, 4)),
        uncontrollable_fraction=0.34,
        required_fraction=0.34,
        density=round(rng.uniform(0.30, 0.35), 3),
        seed=rng.randrange(1 << 30),
    )


def check_pair(n: int, mode: str, seed: int) -> tuple[Automaton, Automaton]:
    """Random n-state automata over 4 events for ``ccsynth check``.

    ``random`` pairs two independent draws.  ``extend`` pairs a draw with
    a renamed copy that has extra random moves, so that simulation holds
    and the other kinds hinge on the extra moves.
    """
    a, b = random_instance(InstanceSpec(n, n, 4, density=2.0 / n, seed=seed))
    if mode == "random":
        return a, b
    rng = random.Random(seed)
    rename = {x: "z" + x[1:] for x in a.states}
    states = tuple(rename[x] for x in a.states)
    moves = [(rename[s], ev, rename[t]) for s, ev, t in a.transitions]
    for s in states:
        for ev in a.alphabet.events:
            if rng.random() < 0.1:
                moves.append((s, ev, rng.choice(states)))
    b = Automaton(a.alphabet, states, tuple(moves), tuple(rename[x] for x in a.initial))
    return a, b


def inputs_hash(*texts: str) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()[:16]


def file_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _write_pair(entry: dict, a: Automaton, b: Automaton, workdir: Path) -> tuple[str, str]:
    ta, tb = serialize_automaton(a), serialize_automaton(b)
    if inputs_hash(ta, tb) != entry["inputs"]:
        raise CorpusMismatch(f"{entry['id']}: generated inputs differ from the manifest")
    pa, pb = workdir / f"{entry['id']}-a.aut", workdir / f"{entry['id']}-b.aut"
    pa.write_text(ta, encoding="utf-8")
    pb.write_text(tb, encoding="utf-8")
    return str(pa), str(pb)


def _decide(manifest: dict, rng: random.Random, workdir: Path) -> list[Command]:
    out = []
    for entry in rng.sample(manifest["decide"], DECIDE_SAMPLE):
        g, r = _write_pair(entry, *random_instance(spec_from_json(entry["spec"])), workdir)
        out.append(Command(entry["id"], ["solvable", g, r, "--json"], entry["expect"]))
    return out


def _synth(manifest: dict, rng: random.Random, workdir: Path) -> list[Command]:
    out = []
    for entry in manifest["synth"]:
        g, r = _write_pair(entry, *random_instance(spec_from_json(entry["spec"])), workdir)
        s = workdir / f"{entry['id']}-S.aut"
        argv = ["synthesize", g, r, "-o", str(s), "--json"]
        out.append(Command(entry["id"], argv, entry["expect"], output=s))
    rng.shuffle(out)
    return out


def fixture_supervisors(spec: InstanceSpec, variant: int) -> tuple[Automaton, Automaton]:
    """Library-synthesized supervisor and its pinned failing variant."""
    g, r = random_instance(spec)
    sup = synthesize(g, r).supervisor.automaton
    for i, mutant in enumerate(enumerate_subsupervisors(sup, variant + 1)):
        if i == variant:
            return sup, mutant
    raise CorpusMismatch(f"supervisor has no variant {variant}")


def _verify(manifest: dict, rng: random.Random, workdir: Path) -> list[Command]:
    out = []
    for entry in manifest["verify"]:
        spec = spec_from_json(entry["spec"])
        g, r = _write_pair(entry, *random_instance(spec), workdir)
        sup, mutant = fixture_supervisors(spec, entry["variant"])
        for tag, aut in (("S", sup), ("M", mutant)):
            text = serialize_automaton(aut)
            if file_hash(text.encode()) != entry[f"sha256_{tag}"]:
                raise CorpusMismatch(f"{entry['id']}: fixture {tag} differs from the manifest")
            path = workdir / f"{entry['id']}-{tag}.aut"
            path.write_text(text, encoding="utf-8")
            argv = ["verify", str(path), g, r, "--json"]
            out.append(Command(f"{entry['id']}-{tag}", argv, entry[f"expect_{tag}"]))
    for entry in manifest["check"]:
        c = entry["check"]
        a, b = _write_pair(entry, *check_pair(c["n"], c["mode"], c["seed"]), workdir)
        argv = ["check", "--kind", c["kind"], a, b, "--json"]
        out.append(Command(entry["id"], argv, entry["expect"]))
    rng.shuffle(out)
    return out


def build_commands(workload: str, manifest: dict, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's input files for ``seed``; return its commands in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}-{seed}")
    return {"decide": _decide, "synth": _synth, "verify": _verify}[workload](
        manifest, rng, workdir
    )


def expected_outcome(code: int, stdout: str, output: Path | None) -> dict:
    """What a finished command produced, in the manifest's ``expect`` shape."""
    got = {"code": code}
    if code in (0, 1):
        payload = json.loads(stdout)
        got["result"] = payload["result"]
        cx = payload["counterexample"]
        got["cx"] = cx["kind"] if cx else None
    if output is not None and code == 0:
        data = output.read_bytes()
        lines = data.decode().splitlines()
        got["sha256"] = file_hash(data)
        got["states"] = sum(1 for ln in lines if ln.startswith("state "))
        got["edges"] = sum(1 for ln in lines if ln.startswith("trans "))
    return got


def mismatch(cmd: Command, code: int, stdout: str) -> str | None:
    """None when a finished command matches its pinned outcome, else why not.

    Only the pinned keys are compared.  A synth entry whose supervisor
    did not finish when the manifest was built pins no file hash; it is
    accepted on its verdict, which the CLI itself re-verifies.
    """
    got = expected_outcome(code, stdout, cmd.output)
    got = {k: got.get(k, "<missing>") for k in cmd.expect}
    if got != cmd.expect:
        return f"{cmd.ident}: got {got}, expected {cmd.expect}"
    return None
