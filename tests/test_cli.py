import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ccsynth import cli, save_automaton, serialize_automaton, synthesize
from ccsynth.cli import run_command

from instances import (
    diamond_g,
    diamond_r,
    forked_g,
    forked_r,
    ladder_g,
    ladder_r,
    scanner_g,
    scanner_r,
    scanner_s,
    separator_instance,
    separator_product,
)
from test_pipeline import WORKED


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, aut in {
        "G": scanner_g(),
        "R": scanner_r(),
        "S": scanner_s(),
        "dG": diamond_g(),
        "dR": diamond_r(),
        "lG": ladder_g(),
        "lR": ladder_r(),
        "fG": forked_g(),
        "fR": forked_r(),
    }.items():
        p = tmp_path / f"{name}.aut"
        save_automaton(aut, p)
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def test_check_sim_reflexive_exit_zero(files):
    assert run_command(["check", "--kind", "sim", files["G"], files["G"]]) == 0


def test_check_ccsim_product_fails(files, tmp_path, capsys):
    from ccsynth import sync_product

    prod = tmp_path / "SG.aut"
    save_automaton(sync_product(scanner_s(), scanner_g()), prod)
    code = run_command(["check", "--kind", "ccsim", str(prod), files["R"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "cancel" in out and "z2" in out


def test_check_bisim_self(files):
    assert run_command(["check", "--kind", "bisim", files["G"], files["G"]]) == 0


def test_admissible_exit_codes(files):
    assert run_command(["admissible", files["S"], files["G"]]) == 0


def test_solvable_scanner_exit_one_with_witness(files, capsys):
    code = run_command(["solvable", files["G"], files["R"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "x3" in out and "z2" in out and "cancel" in out and "backward" in out


def test_solvable_diamond_exit_zero(files):
    assert run_command(["solvable", files["dG"], files["dR"]]) == 0


def test_synthesize_then_verify_pipeline(files, tmp_path):
    out_aut = str(tmp_path / "sup.aut")
    out_dot = str(tmp_path / "sup.dot")
    assert (
        run_command(["synthesize", files["dG"], files["dR"], "-o", out_aut, "--dot", out_dot])
        == 0
    )
    assert run_command(["verify", out_aut, files["dG"], files["dR"]]) == 0
    dot = open(out_dot, encoding="utf-8").read()
    assert dot.startswith("digraph")


def test_synthesize_unsolvable_writes_nothing(files, tmp_path):
    out_aut = tmp_path / "sup.aut"
    assert run_command(["synthesize", files["G"], files["R"], "-o", str(out_aut)]) == 1
    assert not out_aut.exists()


def test_verify_scanner_supervisor_fails(files):
    assert run_command(["verify", files["S"], files["G"], files["R"]]) == 1


def test_uniform_forked_exit_one(files):
    assert run_command(["uniform", files["fG"], files["fR"]]) == 1


def test_uniform_deterministic_pair_exit_zero(files):
    assert run_command(["uniform", files["lR"], files["lR"]]) == 0


def test_uniform_on_state_names_with_commas(tmp_path, capsys):
    path = tmp_path / "g.aut"
    path.write_text(
        "event e\nstate a initial\nstate a,b\nstate b,a\n"
        "trans a e a\ntrans a e a,b\ntrans a e b,a\n"
    )
    assert run_command(["uniform", str(path), str(path)]) == 0
    assert "is uniform" in capsys.readouterr().out


def test_synthesize_and_verify_on_colliding_member_ids(tmp_path, capsys):
    g, r = separator_instance()
    paths = [str(tmp_path / name) for name in ("G.aut", "R.aut", "S.aut")]
    save_automaton(g, paths[0])
    save_automaton(r, paths[1])
    assert run_command(["synthesize", *paths[:2], "-o", paths[2]]) == 0
    text = Path(paths[2]).read_text()
    assert "state W{x1:z0,x1:z1}\n" in text
    assert "state W{x1:z0\\,x1\\:z1}\n" in text
    assert run_command(["verify", paths[2], *paths[:2]]) == 0
    assert run_command(["admissible", paths[2], paths[0]]) == 0
    assert "solution: True" in capsys.readouterr().out


def test_verify_and_admissible_on_colliding_product_ids(tmp_path):
    s, g = separator_product()
    s_path, g_path = str(tmp_path / "S.aut"), str(tmp_path / "G.aut")
    save_automaton(s, s_path)
    save_automaton(g, g_path)
    assert run_command(["admissible", s_path, g_path]) == 0
    assert run_command(["verify", s_path, g_path, g_path]) == 0


def test_alphabet_mismatch_is_usage_error(files, capsys):
    # The message names the first file and the one whose alphabet differs.
    for argv, first, other in [
        (["check", "--kind", "sim", files["G"], files["dG"]], "G", "dG"),
        (["solvable", files["dG"], files["R"]], "dG", "R"),
        (["verify", files["dG"], files["G"], files["R"]], "dG", "G"),
        (["verify", files["S"], files["G"], files["dR"]], "S", "dR"),
    ]:
        assert run_command(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {files[first]} and {files[other]} declare different alphabets; "
            "both files must list the same events with the same attributes\n"
        )


def test_parse_error_is_usage_error(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("event a\nstate s initial\ntrans s go s\n")
    assert run_command(["solvable", str(bad), str(bad)]) == 2


@pytest.mark.parametrize("data", [b"\xef", b"\xef\xbb"])
def test_truncated_byte_order_mark_is_an_invalid_byte(tmp_path, files, capsys, data):
    bad = tmp_path / "bad.aut"
    bad.write_bytes(data)
    assert run_command(["solvable", str(bad), files["R"]]) == 2
    assert capsys.readouterr().err == "error: 1:1: invalid UTF-8 byte 0xef\n"


def test_unknown_subcommand_exit_two():
    assert run_command(["frobnicate"]) == 2


def test_cap_env_var(files, monkeypatch, capsys):
    monkeypatch.setenv("CCSYNTH_CAP", "3")
    code = run_command(["solvable", files["dG"], files["dR"]])
    err = capsys.readouterr().err
    assert code == 2
    assert "12" in err and "3" in err


def test_cap_env_var_must_be_integer(files, monkeypatch, capsys):
    monkeypatch.setenv("CCSYNTH_CAP", "lots")
    assert run_command(["solvable", files["dG"], files["dR"]]) == 2
    assert "CCSYNTH_CAP" in capsys.readouterr().err
    # The cap takes ASCII digits only: int() reads each of the first four
    # as a number, and refuses the last, which is past its digit limit.
    for raw in ("1_0", "٣", " 3", "+3", "9" * 5000):
        monkeypatch.setenv("CCSYNTH_CAP", raw)
        assert run_command(["solvable", files["dG"], files["dR"]]) == 2
        err = capsys.readouterr().err
        assert f"CCSYNTH_CAP must be a nonnegative integer, got {raw!r}" in err


def test_cap_env_var_must_be_nonnegative(files, monkeypatch, capsys):
    monkeypatch.setenv("CCSYNTH_CAP", "-1")
    assert run_command(["solvable", files["dG"], files["dR"]]) == 2
    err = capsys.readouterr().err
    assert "CCSYNTH_CAP must be a nonnegative integer, got '-1'" in err
    monkeypatch.setenv("CCSYNTH_CAP", "0")
    assert run_command(["solvable", files["dG"], files["dR"]]) == 2
    assert "exceeds the cap of 0" in capsys.readouterr().err


def test_check_uc_kinds_through_cli(files):
    assert run_command(["check", "--kind", "ucsim", files["G"], files["R"]]) == 0
    assert run_command(["check", "--kind", "ucrsim", files["G"], files["R"]]) == 1


def test_json_payload_shape_and_determinism(files, capsys):
    run_command(["solvable", files["G"], files["R"], "--json"])
    first = json.loads(capsys.readouterr().out)
    run_command(["solvable", files["G"], files["R"], "--json"])
    second = json.loads(capsys.readouterr().out)
    assert set(first) == {"command", "result", "counterexample", "stats"}
    assert set(first["stats"]) == {"universe_size", "family_size", "iterations", "millis"}
    assert first["result"] is False
    assert first["counterexample"]["kind"] == "backward"
    assert first["counterexample"]["left"] == "x3"
    for payload in (first, second):
        payload["stats"].pop("millis")
    assert first == second


def test_json_check_includes_witness_size(files, capsys):
    run_command(["check", "--kind", "sim", files["G"], files["G"], "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] is True
    assert payload["counterexample"] is None
    assert payload["stats"]["universe_size"] == 25


def test_random_reproducible(tmp_path, capsys):
    argv = ["random", "--states", "3", "--events", "2", "--seed", "9"]
    assert run_command(argv) == 0
    first = capsys.readouterr().out
    assert run_command(argv) == 0
    assert capsys.readouterr().out == first
    g_path = str(tmp_path / "g.aut")
    r_path = str(tmp_path / "r.aut")
    assert (
        run_command(argv + ["--out-g", g_path, "--out-r", r_path]) == 0
    )
    from ccsynth import load_automaton

    g = load_automaton(g_path)
    r = load_automaton(r_path)
    assert g.alphabet == r.alphabet
    capsys.readouterr()
    assert run_command(argv + ["--json"]) == 0
    texts = json.loads(capsys.readouterr().out)["result"]
    with open(g_path, "rb") as fg, open(r_path, "rb") as fr:
        assert (fg.read(), fr.read()) == (texts["g"].encode(), texts["r"].encode())


def test_random_output_parses_and_feeds_solvable(tmp_path):
    g_path = str(tmp_path / "g.aut")
    r_path = str(tmp_path / "r.aut")
    run_command(
        ["random", "--states", "3", "--events", "2", "--seed", "4",
         "--out-g", g_path, "--out-r", r_path]
    )
    assert run_command(["solvable", g_path, r_path]) in (0, 1)


@pytest.mark.parametrize(
    "bad",
    [
        ["--states", "0"],
        ["--events", "0"],
        ["--r-states", "0"],
        ["--density", "1.5"],
        ["--density", "nan"],
        ["--required-fraction", "-0.1"],
    ],
)
def test_random_out_of_range_is_usage_error(tmp_path, capsys, bad):
    g_path, r_path = tmp_path / "g.aut", tmp_path / "r.aut"
    argv = ["random", "--states", "3", "--events", "2", "--seed", "4"] + bad
    code = run_command(argv + ["--out-g", str(g_path), "--out-r", str(r_path)])
    std = capsys.readouterr()
    assert code == 2
    assert std.out == ""
    [line] = std.err.splitlines()
    assert line.startswith("error: ")
    assert not g_path.exists() and not r_path.exists()


def test_one_parser_serves_every_command(files, monkeypatch, capsys):
    out, dot = files["tmp"] / "out.aut", files["tmp"] / "out.dot"
    synth = ["synthesize", files["dG"], files["dR"], "-o", str(out)]
    commands = [
        synth + ["--dot", str(dot)],
        synth,
        ["check", "--kind", "sim", files["G"], files["R"]],
        ["check", "--kind", "ccsim", files["G"], files["R"]],
        ["solvable", files["G"], files["R"], "--json"],
        ["solvable", files["G"], files["R"]],
        ["synthesize", files["dG"], files["dR"]],
        ["--help"],
        synth + ["--dot", str(dot), "--json"],
        ["check", "--kind", "bogus", files["G"], files["R"]],
        ["check", "--help"],
        synth,
        ["check", "--kind", "sim", files["G"], files["R"]],
        synth + ["--full"],
    ]

    def run_all():
        seen = []
        for argv in commands:
            code = run_command(argv)
            std = capsys.readouterr()
            written = [p.read_bytes() if p.exists() else None for p in (out, dot)]
            out.unlink(missing_ok=True)
            dot.unlink(missing_ok=True)
            stdout = re.sub(r'"millis": [0-9.e-]+', '"millis": _', std.out)
            seen.append((code, stdout, std.err, *written))
        return seen

    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", counting_build_parser)
        reused = run_all()
    cli._parser.cache_clear()
    assert len(built) == 1

    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", build_parser)
        fresh = run_all()
    assert reused == fresh
    assert [code for code, *_ in fresh] == [0, 0, 0, 1, 1, 1, 2, 0, 0, 2, 0, 0, 0, 2]
    # A --dot leaked into the next parse would make the plain runs that
    # follow write a DOT file too.
    assert fresh[0][3] == fresh[1][3] == fresh[11][3] is not None
    assert fresh[0][4] is not None and fresh[8][4] is not None
    assert fresh[1][4] is None and fresh[11][4] is None
    # --full is no option of synthesize.
    assert fresh[13][3:] == (None, None) and "--full" in fresh[13][2]


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_reader_closing_the_pipe_is_not_an_error(extra):
    # About 300 kB of output: more than a pipe holds, so the command is
    # still writing when the reader goes away after one line.
    argv = ["random", "--states", "80", "--events", "6", "--seed", "1"]
    argv += ["--density", "0.5"] + extra
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ccsynth.cli"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert first == (b"{\n" if extra else b"# plant\n")


# --- any input file ---------------------------------------------------------

# Byte strings inserted by the mutations below: invalid UTF-8, a
# byte-order mark, line breaks only ``splitlines`` knows, a comment sign.
INSERTS = {
    "invalid-utf8": (b"\x80", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x80"),
    "byte-order-mark": (b"\xef\xbb\xbf",),
    "form-feed": (b"\x0c",),
    "next-line": ("\x85".encode(),),
    "line-separator": ("\u2028".encode(),),
    "comment": (b"#",),
}
MUTATIONS = tuple(INSERTS) + ("insert-byte", "delete-byte", "stray-line")


def mutate(data: bytes, kind: str, rng) -> bytes:
    at = rng.randrange(len(data) + 1)
    if kind == "delete-byte":
        return data[:at] + data[at + 1 :]
    if kind == "stray-line":
        names = data.split()
        line = b" ".join(
            [rng.choice((b"trans", b"state", b"event"))]
            + rng.sample(names, rng.randint(0, 4))
        )
        lines = data.splitlines(keepends=True)
        lines.insert(rng.randrange(len(lines) + 1), line + b"\n")
        return b"".join(lines)
    if kind == "insert-byte":
        insert = bytes([rng.randrange(256)])
    else:
        insert = rng.choice(INSERTS[kind])
        if kind == "byte-order-mark" and rng.random() < 0.5:
            at = 0
    return data[:at] + insert + data[at:]


def test_every_command_survives_any_input_file(tmp_path, monkeypatch, capsys):
    # Each case mutates one file of a worked example (G, R, or S: the
    # synthesized supervisor, or G when there is none) and runs every
    # command that reads files on it.
    monkeypatch.delenv("CCSYNTH_CAP", raising=False)
    rng = random.Random(24)
    texts = []
    for mk_g, mk_r in WORKED.values():
        g, r = mk_g(), mk_r()
        outcome = synthesize(g, r)
        s = outcome.supervisor.automaton if outcome.solvable else g
        texts.append({k: serialize_automaton(a).encode() for k, a in zip("GRS", (g, r, s))})
    paths = {k: tmp_path / f"{k}.aut" for k in "GRS"}
    out = str(tmp_path / "out.aut")
    G, R, S = (str(paths[k]) for k in "GRS")
    commands = [
        ["check", "--kind", "ccsim", G, R],
        ["admissible", S, G],
        ["solvable", G, R],
        ["synthesize", G, R, "-o", out],
        ["verify", S, G, R],
        ["uniform", G, R],
    ]
    codes = Counter()
    for case in range(len(MUTATIONS) * 20):
        files = dict(rng.choice(texts))
        target = rng.choice("GRS")
        for kind in [MUTATIONS[case % len(MUTATIONS)]] + rng.choices(MUTATIONS, k=2):
            files[target] = mutate(files[target], kind, rng)
        for k, data in files.items():
            paths[k].write_bytes(data)
        for argv in commands:
            code = run_command(argv + ["--json"] * rng.randint(0, 1))
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, files[target])
            if code == 2:
                assert err.startswith("error: "), (argv, files[target], err)
            codes[code] += 1
    assert all(codes[code] > 50 for code in (0, 1, 2)), codes
