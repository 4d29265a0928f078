"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All checks are exact (no numeric tolerances in this domain); the stated time
envelopes are asserted where the criteria give them.  Run with `pytest -s`
to see the per-criterion lines on a green run.
"""

import time
from pathlib import Path

from nilcoh.actions import coset_gset, fixed_points, semidirect
from nilcoh.cohomology import (
    cocycles,
    cocycles_bruteforce,
    decomposition_map,
    eq3_check,
    h1,
)
from nilcoh.harness.catalog import CATALOG, EQ3_EXTRA, catalog_by_id
from nilcoh.harness.cli import main
from nilcoh.harness.suite import default_suite, exit_code, run_checks
from nilcoh.structure import complements, is_nilpotent, subgroup_conjugacy_classes
from nilcoh.theorems import find_conjugator, verify_prop2, verify_thm4

GOLDEN_SUITE = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "suite.jsonl"


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_cocycle_oracle_equivalence():
    checked = 0
    slowest = 0.0
    for inst in CATALOG:
        action = inst.action()
        if action.actor.order > 8 or action.target.order > 8:
            continue
        t0 = time.perf_counter()
        fast = {c.values for c in cocycles(action)}
        brute = {c.values for c in cocycles_bruteforce(action)}
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        assert fast == brute, inst.id
        assert dt < 1.0, f"{inst.id} took {dt:.2f}s"
        checked += 1
    report(1, checked >= 15,
           f"cocycles == brute force on {checked} instances with |J|,|N| <= 8 "
           f"(slowest {slowest * 1000:.0f} ms)")


def test_criterion_2_complement_correspondence():
    checked = 0
    for inst in CATALOG:
        action = inst.action()
        if action.actor.order * action.target.order > 200:
            continue
        P = semidirect(action)
        comps = complements(P.group, P.n_part())
        classes = subgroup_conjugacy_classes(P.group, comps, under=P.n_part())
        assert h1(action).size == len(classes), inst.id
        checked += 1
    report(2, checked == len(CATALOG),
           f"|H1| equals N-conjugacy class count of complements on all "
           f"{checked} semidirect products (all of order <= 200)")


def test_criterion_3_decomposition_bijective_across_catalog():
    t0 = time.perf_counter()
    noncoprime = 0
    two_primes = 0
    for inst in CATALOG:
        rep = decomposition_map(inst.action())
        assert rep.bijective, (inst.id, rep.failure)
        if rep.shared_primes:
            noncoprime += 1
        if len(rep.shared_primes) >= 2:
            two_primes += 1
    dt = time.perf_counter() - t0
    ok = len(CATALOG) >= 20 and noncoprime >= 5 and two_primes >= 1 and dt < 120
    report(3, ok,
           f"decomposition bijective on {len(CATALOG)} instances "
           f"({noncoprime} non-coprime, {two_primes} with two shared primes) "
           f"in {dt:.1f}s")


def test_criterion_4_spot_values():
    cat = catalog_by_id()
    a = cat["c2_inv_c4"].action()
    za = cocycles(a)
    ok = len(za) == 4 and h1(a).size == 2
    ok &= {c.values for c in za} == {c.values for c in cocycles_bruteforce(a)}
    Pa = semidirect(a)
    comps_a = complements(Pa.group, Pa.n_part())
    ok &= len(subgroup_conjugacy_classes(Pa.group, comps_a, under=Pa.n_part())) == 2

    b = cat["c2_swap_c2c2"].action()
    zb = cocycles(b)
    ok &= len(zb) == 2 and h1(b).size == 1
    ok &= {c.values for c in zb} == {c.values for c in cocycles_bruteforce(b)}
    Pb = semidirect(b)
    comps_b = complements(Pb.group, Pb.n_part())
    ok &= len(subgroup_conjugacy_classes(Pb.group, comps_b, under=Pb.n_part())) == 1
    report(4, ok,
           "inversion on C4 gives |Z1|=4, |H1|=2; swap on C2xC2 gives "
           "|Z1|=2, |H1|=1; both match oracle and complement classes")


def test_criterion_5_coprime_triviality():
    checked = 0
    for inst in CATALOG:
        action = inst.action()
        shared = [p for p in (2, 3, 5, 7) if
                  action.actor.order % p == 0 and action.target.order % p == 0]
        if shared:
            continue
        assert h1(action).size == 1, inst.id
        checked += 1
    report(5, checked >= 3,
           f"every coprime catalog instance ({checked} of them) has |H1| = 1")


def test_criterion_6_local_conjugacy_iff_conjugacy():
    from nilcoh.harness.catalog import dihedral
    from nilcoh.groups import subgroup_generated

    ambients = []
    for inst in CATALOG:
        P = semidirect(inst.action())
        ambients.append((inst.id, P.group, P.n_part()))
    D4 = dihedral(4)
    ambients.append(("d4", D4, subgroup_generated(D4, [1])))
    S3 = dihedral(3)
    ambients.append(("s3", S3, subgroup_generated(S3, [1])))
    for iid, G, N in ambients:
        rep = verify_prop2(G, N, iid)
        assert rep.hypotheses_met and rep.passed, (iid, rep.witness)
    report(6, True,
           f"locally conjugate iff conjugate for nilpotent complements on "
           f"{len(ambients)} ambient groups, both directions")


def test_criterion_7_fixed_points_and_conjugators_no_falsification():
    gset_specs = [
        ("c2_inv_c4", [0, 1]),        # embedded J
        ("c2_swap_c2c2", [0, 1]),
        ("c6_inv_c6", [0, 1, 2, 3, 4, 5]),
        ("c6_inv_c6", [0, 1, 2, 3, 4, 5, 18, 19, 20, 21, 22, 23]),  # supplement
        ("c3_cycle_q8", [0, 1, 2]),
        ("c3_inner_heis3", [0, 1, 2]),
        ("c9_pow4_c9", [0, 1, 2, 3, 4, 5, 6, 7, 8]),
    ]
    cat = catalog_by_id()
    verified = 0
    for iid, h_elements in gset_specs:
        action = cat[iid].action()
        P = semidirect(action)
        from nilcoh.groups import Subgroup

        H = Subgroup(P.group, h_elements)
        om = coset_gset(P.group, H)
        rep = verify_thm4(action, om, iid)
        assert rep.hypotheses_met, (iid, rep.hypotheses)
        assert rep.passed and not rep.falsification, iid
        assert rep.witness in fixed_points(om, P.j_part())
        g = find_conjugator(P.group, P.n_part(), P.j_part(),
                            Subgroup(P.group, h_elements))
        assert all(P.group.conj(x, g) in H for x in P.j_part().elements)
        verified += 1
    outcomes = run_checks(default_suite())
    falsifications = [o.report.instance for o in outcomes if o.report.falsification]
    # A met prop5 check notes the proof-guided conjugator only when every
    # step of the guided route completed.
    met_prop5 = [o.report for o in outcomes
                 if o.report.theorem == "prop5" and o.report.hypotheses_met]
    guided = [r for r in met_prop5
              if any(n.startswith("proof_guided conjugator ") for n in r.notes)]
    ok = (verified == len(gset_specs) and not falsifications
          and len(guided) == len(met_prop5) > 0)
    report(7, ok,
           f"{verified} hypothesis-satisfying G-set instances verified with "
           f"independent fixed-point scans; {len(falsifications)} falsification "
           f"records and {len(guided)} of {len(met_prop5)} met prop5 checks "
           f"completed by the proof-guided route across the "
           f"{len(outcomes)}-check suite")


def test_criterion_8_abelian_primary_decomposition():
    checked = 0
    non_nilpotent = 0
    for inst in CATALOG + EQ3_EXTRA:
        if "abelian_n" not in inst.tags:
            continue
        action = inst.action()
        rep = eq3_check(action)
        assert rep.ok, (inst.id, rep.failure)
        checked += 1
        if not is_nilpotent(action.actor):
            non_nilpotent += 1
    report(8, checked >= 5 and non_nilpotent >= 1,
           f"abelian primary decomposition holds on {checked} instances, "
           f"{non_nilpotent} with a non-nilpotent actor")


def test_criterion_9_suite_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = main(["suite", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out)
    golden = GOLDEN_SUITE.read_text(encoding="utf-8")
    ok = outputs[0] == outputs[1] == golden and len(outputs[0]) > 0
    report(9, ok, f"two suite runs emitted byte-identical json, equal to "
                  f"{GOLDEN_SUITE.name} ({len(outputs[0])} bytes)")


def test_criterion_10_performance_envelope():
    t0 = time.perf_counter()
    outcomes = run_checks(default_suite())
    dt = time.perf_counter() - t0
    ok = exit_code(outcomes) == 0 and dt < 300
    report(10, ok,
           f"full shipped suite: {len(outcomes)} checks, exit 0, "
           f"{dt:.1f}s single-threaded (< 300s)")
