"""Command line interface.

Exit codes: 0 when the queried property holds (or synthesis succeeded),
1 when it fails (or the instance is unsolvable), 2 on usage or input
errors, including an exceeded pair-universe cap.  ``--json`` switches
the report to one machine-readable object of the shape
``{command, result, counterexample, stats}``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

# perfbench/tracer.py wraps names by getattr on this module, so every
# name it lists stays bound here, used or not (``build_supervisor``).
from .automata import Automaton
from .errors import CcsynthError
from .fileformat import export_dot, load_automaton, save_automaton, serialize_automaton
from .relations import (
    NAMED_KINDS,
    Counterexample,
    RelationKind,
    holds,
    is_admissible,
    is_uniform,
)
from .synthesis import (
    DEFAULT_UNIVERSE_CAP,
    build_supervisor,
    family_fixpoint,
    pairs_universe,
    solvability_counterexample,
    synthesize,
    verify_solution,
)
from .testkit import InstanceSpec, random_instance

def _cap() -> int:
    raw = os.environ.get("CCSYNTH_CAP")
    if raw is None:
        return DEFAULT_UNIVERSE_CAP
    if raw.isascii() and raw.isdigit():
        # int() refuses numerals longer than the interpreter's digit limit.
        with contextlib.suppress(ValueError):
            return int(raw)
    raise CcsynthError(f"CCSYNTH_CAP must be a nonnegative integer, got {raw!r}")


def _load(*paths: str) -> list[Automaton]:
    """Every file's automaton; each must declare the first one's alphabet."""
    automata = [load_automaton(path) for path in paths]
    for path, a in zip(paths, automata):
        if a.alphabet != automata[0].alphabet:
            raise CcsynthError(
                f"{paths[0]} and {path} declare different alphabets; "
                "both files must list the same events with the same attributes"
            )
    return automata


class _Report:
    """Collects one command's result and prints it in either mode."""

    def __init__(self, command: str):
        self.command = command
        self.result = None
        self.counterexample: Counterexample | None = None
        self.stats = {
            "universe_size": None,
            "family_size": None,
            "iterations": None,
            "millis": None,
        }
        self.lines: list[str] = []
        self._t0 = time.perf_counter()

    def emit(self, as_json: bool) -> None:
        self.stats["millis"] = round((time.perf_counter() - self._t0) * 1000, 3)
        if as_json:
            payload = {
                "command": self.command,
                "result": self.result,
                "counterexample": (
                    self.counterexample.to_json() if self.counterexample else None
                ),
                "stats": self.stats,
            }
            print(json.dumps(payload, indent=2))
        else:
            for line in self.lines:
                print(line)
            if self.counterexample is not None:
                print(f"counterexample: {self.counterexample.describe()}")


def _cmd_check(args, report: _Report) -> int:
    a, b = _load(args.a, args.b)
    kind = RelationKind.named(args.kind, a.alphabet)
    ok, witness = holds(a, b, kind)
    report.result = ok
    report.stats["universe_size"] = a.n_states * b.n_states
    if ok:
        report.stats["family_size"] = len(witness)
        report.lines.append(
            f"{args.kind} holds ({len(witness)} pairs in the witnessing relation)"
        )
    else:
        report.counterexample = witness
        report.lines.append(f"{args.kind} does not hold")
    return 0 if ok else 1


def _cmd_admissible(args, report: _Report) -> int:
    s, g = _load(args.s, args.g)
    ok, cx = is_admissible(s, g)
    report.result = ok
    report.counterexample = cx
    report.lines.append("admissible" if ok else "not admissible")
    return 0 if ok else 1


def _report_fixpoint(report: _Report, fix) -> bool:
    """Record the fixpoint's stats, and the counterexample when unsolvable."""
    report.stats["universe_size"] = fix.ctx.n
    report.stats["family_size"] = len(fix.antichain)
    report.stats["iterations"] = fix.iterations
    if fix.solvable():
        return True
    report.counterexample = solvability_counterexample(fix)
    return False


def _cmd_solvable(args, report: _Report) -> int:
    g, r = _load(args.g, args.r)
    fix = family_fixpoint(g, r, _cap())
    ok = report.result = _report_fixpoint(report, fix)
    report.lines.append("solvable" if ok else "unsolvable")
    return 0 if ok else 1


def _cmd_synthesize(args, report: _Report) -> int:
    g, r = _load(args.g, args.r)
    out = synthesize(g, r, _cap())
    if not _report_fixpoint(report, out.fixpoint):
        report.result = False
        report.lines.append("unsolvable; no supervisor written")
        return 1
    sup = out.supervisor.automaton
    save_automaton(sup, args.output)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(sup))
    check = out.report
    report.result = check.overall
    report.lines.append(
        f"synthesized supervisor with {sup.n_states} states -> {args.output}"
    )
    report.lines.append(
        f"verification: admissible={check.admissible} "
        f"cc_simulated={check.cc_simulated}"
    )
    return 0 if check.overall else 1


def _cmd_verify(args, report: _Report) -> int:
    s, g, r = _load(args.s, args.g, args.r)
    check = verify_solution(s, g, r)
    report.result = {
        "admissible": check.admissible,
        "cc_simulated": check.cc_simulated,
        "overall": check.overall,
    }
    report.counterexample = (
        check.admissibility_counterexample or check.cc_counterexample
    )
    report.lines.append(f"admissible: {check.admissible}")
    report.lines.append(f"cc-simulated by specification: {check.cc_simulated}")
    report.lines.append(f"solution: {check.overall}")
    return 0 if check.overall else 1


def _cmd_uniform(args, report: _Report) -> int:
    g, r = _load(args.g, args.r)
    rel = pairs_universe(g, r)
    ok = is_uniform(rel)
    report.result = ok
    report.stats["universe_size"] = len(rel)
    report.lines.append(
        f"greatest relation ({len(rel)} pairs) is "
        + ("uniform" if ok else "not uniform")
    )
    return 0 if ok else 1


def _cmd_random(args, report: _Report) -> int:
    try:
        spec = InstanceSpec(
            g_states=args.states,
            r_states=args.r_states if args.r_states is not None else args.states,
            events=args.events,
            uncontrollable_fraction=args.uncontrollable_fraction,
            required_fraction=args.required_fraction,
            density=args.density,
            seed=args.seed,
            deterministic=args.deterministic,
        )
    except ValueError as exc:
        raise CcsynthError(f"invalid instance parameters: {exc}") from None
    g, r = random_instance(spec)
    g_text, r_text = serialize_automaton(g), serialize_automaton(r)
    for path, text in ((args.out_g, g_text), (args.out_r, r_text)):
        if path:
            Path(path).write_text(text, encoding="utf-8")
    report.result = {"g": g_text, "r": r_text}
    if not (args.out_g or args.out_r):
        report.lines.append("# plant")
        report.lines.append(g_text.rstrip("\n"))
        report.lines.append("# specification")
        report.lines.append(r_text.rstrip("\n"))
    else:
        report.lines.append(
            f"wrote {args.out_g or '-'} and {args.out_r or '-'} (seed {args.seed})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccsynth",
        description=(
            "Decide and synthesize supervisors for the similarity control "
            "problem with required events."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a behavioral preorder between two files")
    p.add_argument("--kind", choices=tuple(NAMED_KINDS), required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("admissible", help="may the supervisor block the plant?")
    p.add_argument("s")
    p.add_argument("g")
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("solvable", help="does any solution exist?")
    p.add_argument("g")
    p.add_argument("r")
    p.set_defaults(func=_cmd_solvable)

    p = sub.add_parser("synthesize", help="build the maximally permissive supervisor")
    p.add_argument("g")
    p.add_argument("r")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dot", help="also write a DOT rendering of the supervisor")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("verify", help="independently verify a candidate supervisor")
    p.add_argument("s")
    p.add_argument("g")
    p.add_argument("r")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("uniform", help="test uniformity of the greatest relation")
    p.add_argument("g")
    p.add_argument("r")
    p.set_defaults(func=_cmd_uniform)

    p = sub.add_parser("random", help="emit a reproducible random instance")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--r-states", type=int, default=None)
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--uncontrollable-fraction", type=float, default=0.5)
    p.add_argument("--required-fraction", type=float, default=0.5)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--out-g")
    p.add_argument("--out-r")
    p.set_defaults(func=_cmd_random)

    # Added last, so it stays the last option of every command.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # ``parse_args`` keeps nothing between calls (each returns a fresh
    # namespace, and help and errors go to the streams current at the
    # call), so one parser serves every command of the process.
    return build_parser()


def run_command(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    report = _Report(args.command)
    try:
        code = args.func(args, report)
    except (CcsynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report.emit(args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (``ccsynth ... | head``).  The verdict
        # stands; what is still buffered goes to the null device, so the
        # interpreter's last flush at exit does not fail either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
