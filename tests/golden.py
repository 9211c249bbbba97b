"""Golden digest: one pinned hash per command output.

Runs a fixed set of ``ccsynth`` commands in-process through
``run_command`` on the worked examples, the C08 sweep, a seeded batch
of 3x3 draws and one draw whose state names hold id separators.  Per
instance:

* ``check`` with every kind, ``solvable`` and ``uniform``, each plain
  and with ``--json``;
* ``synthesize`` plain, with ``--json`` and with ``--dot``;
* ``verify`` and ``admissible``, plain and with ``--json``, on the
  supervisor the plain ``synthesize`` wrote (and, for the scanner, on
  its hand-written supervisor, which fails verification).

It also runs ``ccsynth --help`` and ``ccsynth <command> --help`` for
every subcommand, with ``COLUMNS=80``: argparse wraps help to the
terminal width.  The help layout is argparse's, so these ids are pinned
for the CPython minor version that wrote the pin (3.11).

Commands run in one working directory on relative file names.  A
command's hash covers its exit code, its stdout with the ``millis``
value blanked and the directory written as ``.``, its stderr and every
file it wrote.  ``tests/golden.json`` pins the hashes by command id, so
``tests/test_golden.py`` names each command whose output changed.

After an intended output change, rewrite the pin and list the changed
ids::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from ccsynth import InstanceSpec, random_instance, save_automaton
from ccsynth.cli import run_command
from ccsynth.relations import NAMED_KINDS

from instances import scanner_s, separator_instance
from test_pipeline import WORKED
from test_tables import c08_sweep

PIN = Path(__file__).resolve().parent / "golden.json"

MILLIS = re.compile(r'"millis": [-+.0-9eE]+')

SUBCOMMANDS = (
    "check", "admissible", "solvable", "synthesize", "verify", "uniform", "random"
)

BATCH_SEED = 150_000
BATCH_SIZE = 40


def instances():
    """(id prefix, plant, specification), in a fixed order."""
    for name, (mk_g, mk_r) in WORKED.items():
        yield f"worked/{name}", mk_g(), mk_r()
    for i, (g, r) in enumerate(c08_sweep()):
        yield f"c08/{i:02d}", g, r
    for i in range(BATCH_SIZE):
        g, r = random_instance(InstanceSpec(3, 3, 2, seed=BATCH_SEED + i))
        yield f"3x3/{i:02d}", g, r
    yield "separator/seed9", *separator_instance()


def digest(code: int, out: str, err: str, written) -> str:
    h = hashlib.sha256()
    h.update(f"exit {code}\n".encode())
    for label, text in (("stdout", out), ("stderr", err)):
        h.update(f"{label} {len(text)}\n{text}".encode())
    for path in written:
        data = path.read_bytes()
        h.update(f"file {path.name} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()[:20]


def run(workdir: Path, argv: list[str], outputs=()) -> str:
    """Digest of one command run in ``workdir``; ``outputs`` are the
    file names it may write, removed first."""
    paths = [workdir / name for name in outputs]
    for path in paths:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    text = MILLIS.sub('"millis": 0', out.getvalue()).replace(str(workdir), ".")
    errs = err.getvalue().replace(str(workdir), ".")
    return digest(code, text, errs, [p for p in paths if p.exists()])


def instance_digests(workdir: Path, prefix: str, g, r) -> dict[str, str]:
    save_automaton(g, workdir / "G.aut")
    save_automaton(r, workdir / "R.aut")
    out: dict[str, str] = {}

    def both(name: str, argv: list[str]) -> None:
        out[f"{prefix}/{name}"] = run(workdir, argv)
        out[f"{prefix}/{name}-json"] = run(workdir, argv + ["--json"])

    for kind in NAMED_KINDS:
        both(f"check-{kind}", ["check", "--kind", kind, "G.aut", "R.aut"])
    both("solvable", ["solvable", "G.aut", "R.aut"])
    both("uniform", ["uniform", "G.aut", "R.aut"])
    # Plain comes last: verify and admissible read the S.aut it writes.
    variants = {"-json": ["--json"], "-dot": ["--dot", "S.dot"], "": []}
    synth = ["synthesize", "G.aut", "R.aut", "-o", "S.aut"]
    for name, flags in variants.items():
        out[f"{prefix}/synthesize{name}"] = run(
            workdir, synth + flags, ("S.aut", "S.dot")
        )
    supervisors = ["S.aut"] if (workdir / "S.aut").exists() else []
    if prefix == "worked/scanner":
        save_automaton(scanner_s(), workdir / "S0.aut")
        supervisors.append("S0.aut")
    for sup in supervisors:
        tag = "" if sup == "S.aut" else f"-{Path(sup).stem}"
        both(f"verify{tag}", ["verify", sup, "G.aut", "R.aut"])
        both(f"admissible{tag}", ["admissible", sup, "G.aut"])
    return out


def help_digests(workdir: Path) -> dict[str, str]:
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        out = {"help/ccsynth": run(workdir, ["--help"])}
        for command in SUBCOMMANDS:
            out[f"help/{command}"] = run(workdir, [command, "--help"])
    return out


def golden_digests(workdir: Path) -> dict[str, str]:
    """Every command's digest, by id; runs with ``workdir`` as the
    working directory and restores the old one."""
    old = os.getcwd()
    os.chdir(workdir)
    try:
        out = help_digests(workdir)
        for prefix, g, r in instances():
            out.update(instance_digests(workdir, prefix, g, r))
        return out
    finally:
        os.chdir(old)


def main() -> None:
    os.environ.pop("CCSYNTH_CAP", None)
    with tempfile.TemporaryDirectory() as tmp:
        new = golden_digests(Path(tmp).resolve())
    old = json.loads(PIN.read_text(encoding="utf-8")) if PIN.exists() else {}
    changed = sorted(k for k in new.keys() | old.keys() if new.get(k) != old.get(k))
    PIN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(new)} digests to {PIN.name}; {len(changed)} changed")
    for key in changed:
        print(f"  {key}")


if __name__ == "__main__":
    main()
