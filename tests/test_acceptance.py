"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE Cnn PASS/FAIL`` line (visible with
``pytest -s`` or in the captured-output section of ``pytest -rA``).
Tolerances are exact boolean matches, 100% agreement counts on the
stated sweep sizes, and wall-clock bounds where stated.
"""

import time
from contextlib import contextmanager

import pytest

from ccsynth import (
    CapExceeded,
    PairRelation,
    RelationKind,
    build_supervisor,
    deterministic_fastpath,
    downward_closure,
    extract_family,
    greatest_family,
    greatest_relation,
    holds,
    is_admissible,
    is_controllability_family,
    is_solvable,
    is_uniform,
    save_automaton,
    sync_product,
    synthesize,
    verify_solution,
)
from ccsynth.cli import run_command
from ccsynth.synthesis import PairSetFamily
from ccsynth.testkit import InstanceSpec, enumerate_subsupervisors, random_instance

from helpers import projection_consistent
from instances import (
    DIAMOND_FAMILY,
    FORKED_FAMILY,
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
from oracles import (
    bounded_language_included,
    brute_greatest_relation,
    isomorphic,
    trace_controllable,
)
from test_synthesis import expected_diamond_supervisor, expected_diamond_product


@contextmanager
def criterion(number: int, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number:02d} FAIL {description}")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE C{number:02d} PASS {description} ({dt:.3f}s)")


def sweep(count, base_seed, **overrides):
    for i in range(count):
        params = dict(
            g_states=1 + i % 4,
            r_states=1 + (i // 2) % 4,
            events=1 + i % 3,
            uncontrollable_fraction=(i % 5) / 4,
            required_fraction=(i % 7) / 6,
            density=0.2 + (i % 4) * 0.1,
            seed=base_seed + i,
        )
        params.update(overrides)
        yield random_instance(InstanceSpec(**params))


def test_c01_scanner_booleans_and_counterexample(tmp_path):
    with criterion(1, "scanner: unsolvable, S rejected on cancel, sim holds"):
        t0 = time.perf_counter()
        g, r, s = scanner_g(), scanner_r(), scanner_s()
        g_path, r_path = str(tmp_path / "G.aut"), str(tmp_path / "R.aut")
        save_automaton(g, g_path)
        save_automaton(r, r_path)
        assert run_command(["solvable", g_path, r_path]) == 1

        report = verify_solution(s, g, r)
        assert report.admissible is True
        assert report.cc_simulated is False
        cx = report.cc_counterexample
        assert (cx.left, cx.right, cx.event) == ("(y2,x3)", "z2", "cancel")

        g0, r0, s0 = scanner_g(()), scanner_r(()), scanner_s(())
        prod_path = str(tmp_path / "SG.aut")
        r0_path = str(tmp_path / "R0.aut")
        save_automaton(sync_product(s0, g0), prod_path)
        save_automaton(r0, r0_path)
        assert run_command(["check", "--kind", "sim", prod_path, r0_path]) == 0
        assert time.perf_counter() - t0 < 1.0


def test_c02_diamond_family_supervisor_and_product(tmp_path):
    with criterion(2, "diamond: family checks, expected supervisor and product"):
        t0 = time.perf_counter()
        g, r = diamond_g(), diamond_r()
        e = PairSetFamily.over(g, r, DIAMOND_FAMILY)
        assert is_controllability_family(e)

        closure = downward_closure(e)
        expected = set(DIAMOND_FAMILY) | {
            frozenset({("x2", "z2")}),
            frozenset({("x3", "z3")}),
            frozenset(),
        }
        assert closure.member_sets() == frozenset(expected)

        sup = build_supervisor(e)
        assert sup.automaton.n_states == 4
        assert len(sup.automaton.transitions) == 5
        assert isomorphic(sup.automaton, expected_diamond_supervisor())

        prod = sync_product(sup.automaton, g)
        assert prod.n_states == 5
        assert isomorphic(prod, expected_diamond_product())

        assert verify_solution(sup.automaton, g, r).overall
        assert time.perf_counter() - t0 < 1.0


def test_c03_ladder_relation_without_solvability():
    with criterion(3, "ladder: one-shot relation holds yet unsolvable"):
        g, r = ladder_g(), ladder_r()
        ok, _ = holds(g, r, RelationKind.ucr_simulation(g.alphabet))
        assert ok is True
        assert is_solvable(g, r) is False


def test_c04_forked_family_not_uniform():
    with criterion(4, "forked: valid family whose union is not uniform"):
        g, r = forked_g(), forked_r()
        e = PairSetFamily.over(g, r, FORKED_FAMILY)
        assert is_controllability_family(e) is True
        union = PairRelation(g, r, frozenset(p for w in FORKED_FAMILY for p in w))
        assert is_uniform(union) is False


def test_c05_deterministic_fastpath_agreement():
    with criterion(5, "deterministic shortcut agrees with synthesis on 200 pairs"):
        agreements = 0
        for g, r in sweep(200, 100_000, deterministic=True):
            fast = deterministic_fastpath(g, r)
            assert fast is not None
            agreements += fast == is_solvable(g, r)
        assert agreements == 200


def test_c06_required_free_specialization():
    with criterion(6, "without required events solvability equals uc-relation on 200 pairs"):
        agreements = 0
        for g, r in sweep(200, 110_000, required_fraction=0.0):
            lhs = is_solvable(g, r)
            rhs, _ = holds(g, r, RelationKind.uc_simulation(g.alphabet))
            agreements += lhs == rhs
        assert agreements == 200


def test_c07_oracle_equivalence_all_kinds():
    with criterion(7, "brute-force oracle equals engine for all five kinds on 100 pairs"):
        agreements = 0
        # sizes bounded so the pair universe stays within the oracle cap
        for i in range(100):
            g, r = random_instance(
                InstanceSpec(
                    g_states=1 + i % 3,
                    r_states=1 + (i // 2) % 3,
                    events=1 + i % 3,
                    uncontrollable_fraction=(i % 4) / 3,
                    required_fraction=(i % 5) / 4,
                    density=0.2 + (i % 4) * 0.15,
                    seed=120_000 + i,
                )
            )
            ab = g.alphabet
            kinds = (
                RelationKind.simulation(ab),
                RelationKind.cc_simulation(ab),
                RelationKind.bisimulation(ab),
                RelationKind.uc_simulation(ab),
                RelationKind.ucr_simulation(ab),
            )
            if all(
                brute_greatest_relation(g, r, k)
                == greatest_relation(g, r, k)
                for k in kinds
            ):
                agreements += 1
        assert agreements == 100


def _maximality_probe(g, r, limit=200):
    out = synthesize(g, r)
    assert out.solvable and out.report.overall
    best = sync_product(out.supervisor.automaton, g)
    sim = RelationKind.simulation(g.alphabet)
    passing = 0
    for variant in enumerate_subsupervisors(out.supervisor, limit):
        if not verify_solution(variant, g, r).overall:
            continue
        passing += 1
        ok, _ = holds(sync_product(variant, g), best, sim)
        assert ok
        fam = extract_family(variant, g, r)
        assert is_controllability_family(fam)
    return passing


def test_c08_soundness_and_maximality():
    with criterion(8, "synthesized supervisors verify; passing prunings stay below"):
        for g, r in sweep(60, 130_000, g_states=3, r_states=3, events=2):
            out = synthesize(g, r)
            if out.solvable:
                assert out.report.overall
        assert _maximality_probe(diamond_g(), diamond_r()) > 0
        assert _maximality_probe(scanner_g(()), scanner_r(())) > 0


def test_c09_projection_invariant_on_worked_instances():
    with criterion(9, "supervisor members project to exactly the reachable plant states"):
        checks = []
        g, r = diamond_g(), diamond_r()
        checks.append((build_supervisor(PairSetFamily.over(g, r, DIAMOND_FAMILY)), g))
        checks.append((synthesize(g, r).supervisor, g))
        gf, rf = forked_g(), forked_r()
        checks.append((build_supervisor(PairSetFamily.over(gf, rf, FORKED_FAMILY)), gf))
        checks.append((synthesize(gf, rf).supervisor, gf))
        gs, rs = scanner_g(()), scanner_r(())
        checks.append((synthesize(gs, rs).supervisor, gs))
        assert checks
        for sup, plant in checks:
            assert projection_consistent(sup, plant)


def test_c10_hierarchy_of_behavioral_relations():
    with criterion(10, "bisim, cc-sim, sim and language inclusion nest on 200 pairs"):
        from dataclasses import replace

        for g, r in sweep(200, 140_000):
            ab = g.alphabet
            bis, _ = holds(g, r, RelationKind.bisimulation(ab))
            ccs, _ = holds(g, r, RelationKind.cc_simulation(ab))
            sim, _ = holds(g, r, RelationKind.simulation(ab))
            assert not (bis and not ccs)
            assert not (ccs and not sim)
            assert not (sim and not bounded_language_included(g, r, None))
        for g, r in sweep(200, 150_000, required_fraction=0.0):
            ab = g.alphabet
            assert (
                holds(g, r, RelationKind.cc_simulation(ab))[0]
                == holds(g, r, RelationKind.simulation(ab))[0]
            )
        for g, r in sweep(200, 160_000, required_fraction=1.0):
            r1 = replace(r, initial=(r.initial[0],), pair_of=None)
            ab = g.alphabet
            assert (
                holds(g, r1, RelationKind.cc_simulation(ab))[0]
                == holds(g, r1, RelationKind.bisimulation(ab))[0]
            )


def test_c11_admissibility_equals_state_controllability():
    with criterion(11, "admissibility matches trace-level controllability on 200 pairs"):
        agreements = 0
        for g, s in sweep(200, 170_000):
            adm, _ = is_admissible(s, g)
            agreements += adm == trace_controllable(s, g)
        assert agreements == 200


def test_c12_cap_and_worked_example_runtimes(tmp_path, monkeypatch):
    with criterion(12, "cap violations report the universe size; examples run fast"):
        g, r = diamond_g(), diamond_r()
        with pytest.raises(CapExceeded) as exc:
            greatest_family(g, r, cap=3)
        assert exc.value.size == 12
        assert "12" in str(exc.value)

        paths = {}
        for name, aut in {
            "G": scanner_g(), "R": scanner_r(), "S": scanner_s(),
            "dG": diamond_g(), "dR": diamond_r(),
            "lG": ladder_g(), "lR": ladder_r(),
            "fG": forked_g(), "fR": forked_r(),
        }.items():
            p = str(tmp_path / f"{name}.aut")
            save_automaton(aut, p)
            paths[name] = p

        monkeypatch.setenv("CCSYNTH_CAP", "3")
        assert run_command(["solvable", paths["dG"], paths["dR"]]) == 2
        monkeypatch.delenv("CCSYNTH_CAP")

        sup_out = str(tmp_path / "sup.aut")
        commands = [
            (["solvable", paths["G"], paths["R"]], 1),
            (["verify", paths["S"], paths["G"], paths["R"]], 1),
            (["solvable", paths["dG"], paths["dR"]], 0),
            (["synthesize", paths["dG"], paths["dR"], "-o", sup_out], 0),
            (["verify", sup_out, paths["dG"], paths["dR"]], 0),
            (["solvable", paths["lG"], paths["lR"]], 1),
            (["check", "--kind", "ucrsim", paths["lG"], paths["lR"]], 0),
            (["uniform", paths["fG"], paths["fR"]], 1),
            (["admissible", paths["S"], paths["G"]], 0),
        ]
        for argv, expected in commands:
            t0 = time.perf_counter()
            assert run_command(argv) == expected, argv
            assert time.perf_counter() - t0 < 1.0, argv
