"""The benchmark's ``check`` pool, rebuilt from the library and the CLI.

``perfbench/manifest.py`` vets every ``holds`` witness with
``clause_violations``, ``initial_condition`` and
``inverse_initial_condition`` before it pins the CLI's verdict, so a
change to the relation type that breaks those calls, or a verdict,
shows here rather than at the next rebuild.  The rebuild takes about
2 s of CPU; each command runs under the script's own 10 s limit.
"""

import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.corpus import MANIFEST  # noqa: E402
from perfbench.harness import CpuLimit  # noqa: E402
from perfbench.manifest import build_check  # noqa: E402


def test_build_check_reproduces_the_pinned_check_pool(tmp_path):
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))["check"]
    handler = signal.getsignal(signal.SIGPROF)
    try:
        rebuilt = build_check(tmp_path, CpuLimit())
    finally:
        signal.signal(signal.SIGPROF, handler)
    assert len(pinned) == len(rebuilt) > 0
    assert rebuilt == pinned
