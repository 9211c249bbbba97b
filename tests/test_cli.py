import json
import re

import pytest

from ccsynth import cli, save_automaton
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
)


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


def test_alphabet_mismatch_is_usage_error(files):
    assert run_command(["check", "--kind", "sim", files["G"], files["dG"]]) == 2


def test_parse_error_is_usage_error(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("event a\nstate s initial\ntrans s go s\n")
    assert run_command(["solvable", str(bad), str(bad)]) == 2


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
    out = files["tmp"] / "out.aut"
    commands = [
        ["synthesize", files["dG"], files["dR"], "-o", str(out), "--full"],
        ["synthesize", files["dG"], files["dR"], "-o", str(out)],
        ["check", "--kind", "sim", files["G"], files["R"]],
        ["check", "--kind", "ccsim", files["G"], files["R"]],
        ["solvable", files["G"], files["R"], "--json"],
        ["solvable", files["G"], files["R"]],
        ["synthesize", files["dG"], files["dR"]],
        ["--help"],
        ["synthesize", files["dG"], files["dR"], "-o", str(out), "--full", "--json"],
        ["check", "--kind", "bogus", files["G"], files["R"]],
        ["check", "--help"],
        ["synthesize", files["dG"], files["dR"], "-o", str(out)],
        ["check", "--kind", "sim", files["G"], files["R"]],
    ]

    def run_all():
        seen = []
        for argv in commands:
            code = run_command(argv)
            std = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            stdout = re.sub(r'"millis": [0-9.e-]+', '"millis": _', std.out)
            seen.append((code, stdout, std.err, written))
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
    assert [code for code, *_ in fresh] == [0, 0, 0, 1, 1, 1, 2, 0, 0, 2, 0, 0, 0]
    # --full keeps unreachable supervisor states; a leaked flag would
    # make the plain run write the same file.
    assert fresh[0][3] != fresh[1][3] == fresh[11][3]
