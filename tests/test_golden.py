"""Every pinned command output is unchanged (see ``tests/golden.py``)."""

import json

from golden import PIN, golden_digests


def named(label: str, ids: list[str]) -> str:
    shown = ", ".join(ids[:20]) + (", ..." if len(ids) > 20 else "")
    return f"{len(ids)} {label}: {shown}"


def test_command_outputs_match_the_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("CCSYNTH_CAP", raising=False)
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    got = golden_digests(tmp_path.resolve())
    changed = sorted(k for k in got.keys() & pinned.keys() if got[k] != pinned[k])
    assert not changed, named("commands changed their output", changed)
    missing = sorted(pinned.keys() - got.keys())
    assert not missing, named("pinned commands did not run", missing)
    extra = sorted(got.keys() - pinned.keys())
    assert not extra, named("commands are not pinned", extra)
    assert len(got) >= 1_990
