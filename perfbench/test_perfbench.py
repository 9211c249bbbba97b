"""The benchmark's own tests: reproducible corpus, transparent tracing,
counted timeouts and metric names that match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import corpus, run
from perfbench.harness import CpuLimit
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def manifest():
    return corpus.load_manifest()


@pytest.fixture(scope="module")
def timer():
    return CpuLimit()


def corpus_bytes(manifest, workload, seed, workdir):
    commands = corpus.build_commands(workload, manifest, seed, workdir)
    # Supervisor output paths are in argv too, but do not exist yet.
    paths = [a for cmd in commands for a in cmd.argv if a.endswith(".aut")]
    return b"".join(Path(p).read_bytes() for p in paths if Path(p).exists())


def test_same_seed_same_bytes_other_seed_other_bytes(manifest, tmp_path):
    first = corpus_bytes(manifest, "decide", 7, tmp_path / "a")
    again = corpus_bytes(manifest, "decide", 7, tmp_path / "b")
    other = corpus_bytes(manifest, "decide", 8, tmp_path / "c")
    assert first == again
    assert first != other
    assert corpus_bytes(manifest, "synth", 7, tmp_path / "d") != corpus_bytes(
        manifest, "synth", 8, tmp_path / "e"
    )


def outcomes(commands, timer, tracer=None):
    results = run.run_pass(commands, corpus.TIME_LIMITS["synth"], timer, tracer)
    return {r.ident: (r.timed_out, r.error) for r in results}


def test_tracing_is_transparent(manifest, timer, tmp_path):
    # run_pass checks every finished command's verdict and supervisor
    # hash against the manifest, in both modes.
    commands = corpus.build_commands("synth", manifest, 1, tmp_path)
    commands += corpus.build_commands("decide", manifest, 1, tmp_path)[:40]
    plain = outcomes(commands, timer)
    tracer = Tracer()
    tracer.install()
    timer.tracer = tracer
    try:
        traced = outcomes(commands, timer, tracer)
    finally:
        timer.tracer = None
        tracer.uninstall()
    assert plain == traced
    assert all(err is None for _, err in plain.values())
    assert sum(not cut for cut, _ in plain.values()) > 40
    assert {s[0] for s in tracer.spans} >= {"run_command", "load_automaton", "save_automaton"}


def test_tiny_limit_is_a_counted_timeout(manifest, timer, tmp_path):
    commands = corpus.build_commands("synth", manifest, 1, tmp_path)
    slow = next(c for c in commands if "sha256" not in c.expect)
    [result] = run.run_pass([slow], 0.001, timer)
    assert result.timed_out and not result.decided
    assert result.error is None
    assert not slow.output.exists()


def test_metric_names_match_benchmark_json(manifest, timer, tmp_path):
    assert list(run.END_TO_END) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END.values())
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)

    commands = corpus.build_commands("decide", manifest, 3, tmp_path)[:20]
    _, metrics, _, _ = run.traced_run(commands, 1.0, timer, 0.0, {})
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [run.layer_unit(k) for k in metrics] == [m["unit"] for m in BENCHMARK["per_layer"]]


def test_timed_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "5",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert list(last["metrics"]) == list(run.END_TO_END)
