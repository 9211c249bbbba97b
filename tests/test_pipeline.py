"""``ccsynth synthesize`` is library ``synthesize`` plus file output.

The command's files, exit code and ``--json`` payload are compared with
what the library outcome gives through ``save_automaton`` and
``export_dot``, and its supervisor with the one ``build_supervisor``
assembles from the fixpoint's antichain.  The draws are the worked
examples, the C08 sweep and the benchmark's ``synth`` draws that finish.
A counting test shows that one command runs the pipeline once.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ccsynth import (
    InstanceSpec,
    PairSetFamily,
    build_supervisor,
    export_dot,
    load_automaton,
    random_instance,
    save_automaton,
    serialize_automaton,
    synthesize,
)
from ccsynth import cli, synthesis
from ccsynth.cli import run_command
from ccsynth.synthesis import solvability_counterexample

from instances import (
    DIAMOND_FAMILY,
    diamond_g,
    diamond_r,
    forked_g,
    forked_r,
    ladder_g,
    ladder_r,
    scanner_g,
    scanner_r,
)
from test_acceptance import sweep

MANIFEST = Path(__file__).resolve().parent.parent / "perfbench" / "manifest.json"

WORKED = {
    "scanner": (scanner_g, scanner_r),
    "scanner_free": (lambda: scanner_g(()), lambda: scanner_r(())),
    "diamond": (diamond_g, diamond_r),
    "ladder": (ladder_g, ladder_r),
    "forked": (forked_g, forked_r),
}

def expected_payload(out) -> dict:
    fix = out.fixpoint
    cx = solvability_counterexample(fix)
    return {
        "command": "synthesize",
        "result": out.report.overall if out.solvable else False,
        "counterexample": cx.to_json() if cx else None,
        "stats": {
            "universe_size": fix.ctx.n,
            "family_size": len(fix.antichain),
            "iterations": fix.iterations,
        },
    }


def compare(g, r, tmp_path, stem, capsys) -> tuple[int, bytes | None]:
    """Run the command and the library on one instance; return the
    command's exit code and supervisor bytes after checking they agree."""
    g_path, r_path = tmp_path / f"{stem}G.aut", tmp_path / f"{stem}R.aut"
    out, dot = tmp_path / f"{stem}S.aut", tmp_path / f"{stem}S.dot"
    for path in (out, dot):
        path.unlink(missing_ok=True)
    save_automaton(g, g_path)
    save_automaton(r, r_path)
    argv = ["synthesize", str(g_path), str(r_path), "-o", str(out), "--dot", str(dot)]
    code = run_command(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    del payload["stats"]["millis"]

    g, r = load_automaton(g_path), load_automaton(r_path)
    lib = synthesize(g, r)
    assert payload == expected_payload(lib)
    if not lib.solvable:
        assert code == 1
        assert not out.exists() and not dot.exists()
        return code, None
    assert code == (0 if lib.report.overall else 1)
    expected = tmp_path / f"{stem}L.aut"
    save_automaton(lib.supervisor.automaton, expected)
    written = out.read_bytes()
    assert written == expected.read_bytes()
    assert dot.read_text(encoding="utf-8") == export_dot(lib.supervisor.automaton)
    # public build_supervisor, given the antichain as a family, agrees
    fix = lib.fixpoint
    family = PairSetFamily(fix.ctx.universe, frozenset(fix.antichain))
    before = build_supervisor(family)
    assert written == serialize_automaton(before.automaton).encode("utf-8")
    return code, written


def test_command_matches_library_on_worked_examples(tmp_path, capsys):
    solved = [
        name
        for name, (mk_g, mk_r) in WORKED.items()
        if compare(mk_g(), mk_r(), tmp_path, name, capsys)[0] == 0
    ]
    assert solved == ["scanner_free", "diamond", "forked"]


def test_command_matches_library_on_c08_sweep(tmp_path, capsys):
    solved = 0
    for i, (g, r) in enumerate(sweep(60, 130_000, g_states=3, r_states=3, events=2)):
        solved += compare(g, r, tmp_path, f"c{i}", capsys)[0] == 0
    assert solved >= 20


def finished_synth_draws():
    # Draws with a pinned supervisor, except those too large to finish
    # within the benchmark's CPU limit (s034: 225,479 edges, cut in
    # verification).
    entries = json.loads(MANIFEST.read_text(encoding="utf-8"))["synth"]
    return [e for e in entries if e["expect"].get("edges", 1 << 30) < 100_000]


def test_command_matches_library_on_finished_synth_draws(tmp_path, capsys):
    draws = finished_synth_draws()
    for entry in draws:
        g, r = random_instance(InstanceSpec(*entry["spec"]))
        code, written = compare(g, r, tmp_path, entry["id"], capsys)
        assert code == entry["expect"]["code"]
        assert hashlib.sha256(written).hexdigest() == entry["expect"]["sha256"]
    assert len(draws) == 19


@pytest.fixture
def calls(monkeypatch):
    """Names of the pipeline's checks, context builds and writes, in call order."""
    seen = []

    def logged(key, fn):
        def wrapper(*args, **kwargs):
            seen.append(key)
            return fn(*args, **kwargs)

        return wrapper

    class LoggedContext(synthesis._FamilyContext):
        def __init__(self, *args):
            seen.append("context")
            super().__init__(*args)

    monkeypatch.setattr(synthesis, "_FamilyContext", LoggedContext)
    monkeypatch.setattr(
        synthesis,
        "is_controllability_family",
        logged("family_check", synthesis.is_controllability_family),
    )
    verify = logged("verify", synthesis.verify_solution)
    monkeypatch.setattr(synthesis, "verify_solution", verify)
    monkeypatch.setattr(cli, "verify_solution", verify)
    monkeypatch.setattr(
        cli, "build_supervisor", logged("build_supervisor", cli.build_supervisor)
    )
    monkeypatch.setattr(cli, "save_automaton", logged("save", cli.save_automaton))
    return seen


def test_one_command_runs_the_pipeline_once(tmp_path, capsys, calls):
    g_path, r_path = tmp_path / "G.aut", tmp_path / "R.aut"
    save_automaton(diamond_g(), g_path)
    save_automaton(diamond_r(), r_path)
    argv = ["synthesize", str(g_path), str(r_path), "-o", str(tmp_path / "S.aut")]
    assert run_command(argv) == 0
    capsys.readouterr()
    # no family check, one context, and verification only once the
    # supervisor is written, so the two never hold memory together
    assert calls == ["context", "save", "verify"]


def test_build_supervisor_builds_one_context(calls):
    g, r = diamond_g(), diamond_r()
    build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY))
    assert calls == ["context"]


def test_outcome_verifies_on_first_read(calls):
    out = synthesize(diamond_g(), diamond_r())
    assert calls == ["context"]
    assert out.report.overall and out.report is out.report
    assert calls == ["context", "verify"]
