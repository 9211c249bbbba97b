"""Seeded end-to-end benchmark of the ccsynth command line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Runs from the repository root.  Set-up imports ccsynth from ``src/``,
writes the seeded corpus and builds the fixture supervisors (three
times; ``setup_s`` is the import time plus the median).  The run then
makes whole passes over the corpus through ``ccsynth.cli.run_command``
until the next pass would end past ``--seconds``, checks every verdict
and output against ``manifest.json``, and prints one JSON object as the
last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Any wrong verdict, exit code or output hash
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
TAIL_GRID = (50, 75, 90, 95, 99, 99.9)
WORKLOADS = ("decide", "synth", "verify")

END_TO_END = {
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "instances_per_s": "1/s",
    "decided_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s"):
        return "s"
    return "count"


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest grid percentile
    with at least ten samples beyond it; the maximum when there are too
    few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    best = (100.0, ordered[-1], 0)
    for p in TAIL_GRID:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1], n - rank)
    return best


@dataclass(slots=True)
class Result:
    ident: str
    seconds: float
    timed_out: bool
    cut_in: str | None
    error: str | None

    @property
    def decided(self) -> bool:
        return not self.timed_out and self.error is None


def run_pass(commands, limit, timer, tracer=None) -> list[Result]:
    from perfbench.corpus import mismatch
    from perfbench.harness import invoke

    results = []
    for cmd in commands:
        if tracer is not None:
            tracer.instance = cmd.ident
            first = len(tracer.spans)
        out = invoke(cmd.argv, limit, timer)
        error = None
        if out.timed_out:
            if tracer is not None:
                tracer.close_cut(first)
        else:
            try:
                error = mismatch(cmd, out.code, out.stdout)
            except (ValueError, KeyError, OSError) as exc:
                error = f"{cmd.ident}: unreadable output ({exc!r})"
        if cmd.output is not None:
            cmd.output.unlink(missing_ok=True)
        results.append(Result(cmd.ident, out.seconds, out.timed_out, out.cut_in, error))
    return results


def run_passes(run_one, seconds: float) -> tuple[list, float, int]:
    """Whole passes until the next one would end past ``seconds``; at least one."""
    start = time.perf_counter()
    deadline = start + seconds
    out, passes = [], 0
    while True:
        p0 = time.perf_counter()
        out.append(run_one())
        passes += 1
        now = time.perf_counter()
        if now + (now - p0) > deadline:
            return out, now - start, passes


def end_to_end(results: list[Result], wall: float, setup_s: float) -> tuple[dict, list[str]]:
    times = [r.seconds for r in results]
    decided = sum(r.decided for r in results)
    p, value, beyond = tail(times)
    metrics = {
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": value,
        "instances_per_s": decided / wall,
        "decided_share": decided / len(results),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"verdict_s_tail is p{p:g} of {len(times)} samples ({beyond} beyond it)",
        f"{len(results) - decided} of {len(results)} commands not decided "
        f"({sum(r.timed_out for r in results)} timed out)",
    ]
    return metrics, notes


def traced_run(commands, limit, timer, seconds, file_sizes):
    """Alternate untraced and traced passes over the same commands."""
    from perfbench.tracer import LAYER_OF, Tracer, layer_metrics

    tracer = Tracer(file_sizes)
    plain, traced = [], []

    def pair():
        plain.extend(run_pass(commands, limit, timer))
        tracer.install()
        timer.tracer = tracer
        try:
            traced.extend(run_pass(commands, limit, timer, tracer))
        finally:
            timer.tracer = None
            tracer.uninstall()

    _, _, passes = run_passes(pair, seconds)
    timeouts = Counter(LAYER_OF.get(r.cut_in, "cli") for r in traced if r.timed_out)
    metrics = layer_metrics(tracer, len(traced), passes, timeouts)
    _, own = tracer.times()
    # Overhead over the commands that finished in both modes: a cut
    # command runs to the same CPU limit traced or not.
    both = [(p, t) for p, t in zip(plain, traced) if p.decided and t.decided]
    overhead = statistics.fmean(t.seconds - p.seconds for p, t in both) if both else 0.0
    metrics["trace.command_s"] = statistics.fmean(r.seconds for r in traced)
    metrics["trace.self_sum_s"] = sum(own.values()) / len(traced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = (
        overhead / statistics.fmean(p.seconds for p, _ in both) if both else 0.0
    )
    return plain + traced, metrics, tracer, passes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)

    t0 = time.perf_counter()
    try:
        import ccsynth
    except ImportError as exc:
        print(f"error: cannot import ccsynth from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench import corpus, harness

    import_s = time.perf_counter() - t0
    if not Path(ccsynth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ccsynth imported from {ccsynth.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        # Each set-up writes a directory of its own: deleting many files
        # can slow the writes that follow (on a file system mounted with
        # discard, for one), so nothing is deleted until the run ends.
        for i in range(SETUP_REPEATS):
            s0 = time.perf_counter()
            manifest = corpus.load_manifest()
            commands = corpus.build_commands(
                args.workload, manifest, args.seed, workdir / f"setup{i}"
            )
            setups.append(time.perf_counter() - s0)
        setup_s = import_s + statistics.median(setups)
        file_sizes = {str(p): p.stat().st_size for p in workdir.glob(f"setup{i}/*.aut")}
        del manifest
        gc.collect()
        gc.freeze()

        limit = corpus.TIME_LIMITS[args.workload]
        timer = harness.CpuLimit()
        print(
            f"workload {args.workload}, seed {args.seed}: {len(commands)} commands per pass, "
            f"per-command limit {limit:g} s CPU, setup {setup_s:.3f} s "
            f"(import {import_s:.3f} s, set-ups {', '.join(f'{x:.3f}' for x in setups)} s)"
        )
        if args.trace:
            results, metrics, tracer, passes = traced_run(
                commands, limit, timer, args.seconds, file_sizes
            )
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            units = {name: layer_unit(name) for name in metrics}
            print(f"{passes} untraced+traced pass pairs; spans in {spans.relative_to(ROOT)}")
            from perfbench import baseline

            for line in baseline.roadmap_rows(workdir, timer):
                print(line)
        else:
            batches, wall, passes = run_passes(
                lambda: run_pass(commands, limit, timer), args.seconds
            )
            results = [r for batch in batches for r in batch]
            metrics, notes = end_to_end(results, wall, setup_s)
            units = END_TO_END
            print(f"{passes} passes, {len(results)} commands in {wall:.2f} s")
            for line in notes:
                print(line)
    except corpus.CorpusMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [r.error for r in results if r.error]
    for err in errors[:20]:
        print(f"WRONG {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": len(results),
                "failed": sum(not r.decided for r in results),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
