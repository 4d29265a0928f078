"""Conjugacy and fixed-point verifiers, including the proof-guided search."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh.actions import coset_gset, semidirect, trivial_action
from nilcoh.cohomology import h1
from nilcoh import theorems
from nilcoh.errors import HypothesisNotMet, ProofStepFailed
from nilcoh.groups import Subgroup, full_subgroup, subgroup_generated, trivial_subgroup
from nilcoh.harness.scenario import subgroup_of_semidirect
from nilcoh.harness.suite import default_suite
from nilcoh.structure import complements
from nilcoh.theorems import (
    find_conjugator,
    find_conjugator_proof_guided,
    verify_lemma1,
    verify_prop2,
    verify_prop3,
    verify_prop5,
    verify_thm4,
)
from nilcoh.harness.catalog import cyclic_action
from conftest import (
    CATALOG,
    abelian,
    cyclic,
    dihedral,
    direct_product,
    intersection_lemma_by_scan,
    quaternion8,
    prop2_pairwise_by_scan,
    prop3_pairwise_by_scan,
)


def test_prop2_on_d4():
    D4 = dihedral(4)
    rot = subgroup_generated(D4, [1])
    report = verify_prop2(D4, rot, "d4")
    assert report.hypotheses_met and report.passed
    assert report.witness == {"complements": 4, "nilpotent": 4}


def test_prop2_on_s3_coprime():
    S3 = dihedral(3)
    report = verify_prop2(S3, subgroup_generated(S3, [1]), "s3")
    assert report.passed
    assert report.witness["complements"] == 3


def test_prop2_skips_non_nilpotent_complements():
    G = direct_product(dihedral(3), cyclic(2))
    N = Subgroup(G, [0, 1])  # the central C2 factor
    assert N.is_normal()
    report = verify_prop2(G, N, "s3xc2")
    assert report.passed  # vacuous: every complement is S3-shaped
    assert any("NonNilpotentComplementSkipped" in note for note in report.notes)


def test_prop2_across_catalog_semidirects():
    cases = [(inst.id, inst.action()) for inst in CATALOG]
    # Complements of C2 in C2 x C2^4 need four generators.
    cases.append(("c2e4_triv_c2", trivial_action(abelian([2, 2, 2, 2]), cyclic(2))))
    for iid, action in cases:
        P = semidirect(action)
        report = verify_prop2(P.group, P.n_part(), iid)
        assert report.hypotheses_met, iid
        assert report.passed, (iid, report.witness)
        assert not report.falsification
        # Complements correspond one to one with cocycles.
        assert report.witness["complements"] == h1(action).cocycle_count(), iid
    assert report.witness == {"complements": 16, "nilpotent": 16}


def test_prop3_hypothesis_fails_on_d4():
    D4 = dihedral(4)
    report = verify_prop3(D4, subgroup_generated(D4, [1]), "d4")
    assert not report.hypotheses_met
    assert report.hypotheses["local_conjugacy_p2"] is False
    assert not report.falsification
    assert report.conclusion_verified is None


def test_prop3_passes_on_s3_and_c6():
    S3 = dihedral(3)
    report = verify_prop3(S3, subgroup_generated(S3, [1]), "s3")
    assert report.hypotheses_met and report.passed
    C6 = direct_product(cyclic(2), cyclic(3))
    N = Subgroup(C6, [0, 1, 2])
    report = verify_prop3(C6, N, "c6")
    assert report.hypotheses_met and report.passed


def test_prop3_trivial_normal_subgroup():
    D4 = dihedral(4)
    report = verify_prop3(D4, subgroup_generated(D4, []), "d4-trivial")
    assert report.passed
    assert report.witness["complement_count"] == 1


def test_find_conjugator_d4_contained():
    D4 = dihedral(4)
    N = subgroup_generated(D4, [1])
    J = subgroup_generated(D4, [4])
    H = subgroup_generated(D4, [4, 2])
    assert find_conjugator(D4, N, J, H) == 0


def test_find_conjugator_d4_hypothesis_not_met():
    D4 = dihedral(4)
    N = subgroup_generated(D4, [1])
    J = subgroup_generated(D4, [4])
    H = subgroup_generated(D4, [5, 2])
    # Conjugates of J are the reflections at even rotation offsets only.
    with pytest.raises(HypothesisNotMet) as info:
        find_conjugator(D4, N, J, H)
    assert info.value.name == "sylow_conjugate_in_h"


def test_find_conjugator_least_witness():
    D4 = dihedral(4)
    N = subgroup_generated(D4, [1])
    J = subgroup_generated(D4, [4])
    g = find_conjugator(D4, N, J, full_subgroup(D4))
    assert g == 0  # several conjugators exist; the least one is returned


@pytest.mark.parametrize("iid,h_spec", [
    ("c2_inv_c4", {"elements": [0, 5]}),
    ("c6_inv_c6", {"generated_by": [[0, 1], [3, 0]]}),
    ("c6_inv_c12", {"generated_by": [[0, 1], [6, 0]]}),
    ("q8_conj_q8", {"generated_by": [[0, 2], [0, 4], [1, 0]]}),
    ("c3_inner_heis3", "embedded_j"),
    ("c6_twist_q8c3", {"generated_by": [[0, 1], [3, 0]]}),
])
def test_proof_guided_agrees_with_exhaustive(catalog, iid, h_spec):
    action = catalog[iid].action()
    P = semidirect(action)
    G = P.group
    N, J = P.n_part(), P.j_part()
    base = subgroup_of_semidirect(P, h_spec)
    tested = 0
    for g in range(G.order):
        H = base.conjugate_by(g)
        try:
            ge = find_conjugator(G, N, J, H)
        except HypothesisNotMet:
            continue
        gp = find_conjugator_proof_guided(G, N, J, H)
        for x in J.elements:
            assert G.conj(x, ge) in H
            assert G.conj(x, gp) in H
        tested += 1
    assert tested > 0


@pytest.mark.parametrize("iid,h_spec", [
    ("c2_inv_c4", {"elements": [0, 5]}),
    ("c6_inv_c6", {"generated_by": [[0, 1], [3, 0]]}),
    ("c6_inv_c12", {"generated_by": [[0, 1], [6, 0]]}),
    ("q8_conj_q8", {"generated_by": [[0, 2], [0, 4], [1, 0]]}),
    ("c6_twist_q8c3", {"generated_by": [[0, 1], [3, 0]]}),
    ("c2_inv_c4", {"generated_by": [[1, 1]]}),
])
def test_verify_prop5_evaluates_its_hypotheses_once(monkeypatch, catalog, iid, h_spec):
    # The proof-guided route runs from the setting checks and Sylow data
    # that verify_prop5 has already computed; quotient groups in its
    # induction are other groups and are not counted.
    P = semidirect(catalog[iid].action())
    G = P.group
    calls = {"_prop5_setting_checks": 0, "_sylow_containment_data": 0}
    for name in calls:
        def counted(group, *args, original=getattr(theorems, name), name=name):
            if group is G:
                calls[name] += 1
            return original(group, *args)
        monkeypatch.setattr(theorems, name, counted)
    H = subgroup_of_semidirect(P, h_spec)
    report = verify_prop5(G, P.n_part(), P.j_part(), H, iid)
    assert calls == {"_prop5_setting_checks": 1, "_sylow_containment_data": 1}
    assert not report.falsification
    assert report.passed == report.hypotheses_met


def test_verify_thm4_does_not_recheck_prop5_hypotheses(monkeypatch):
    # thm4's own checks imply prop5's hypotheses, so a met run scans for the
    # conjugator into the stabilizer without evaluating them again.
    calls = {"is_nilpotent_subgroup": 0, "_sylow_containment_data": 0}
    for name in calls:
        def counted(*args, original=getattr(theorems, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(theorems, name, counted)
    reports = [c.run() for c in default_suite() if "/thm4:" in c.instance]
    assert len(reports) == 11
    assert calls == {"is_nilpotent_subgroup": 0, "_sylow_containment_data": 0}
    assert sum(r.passed for r in reports) == sum(r.hypotheses_met for r in reports) > 0
    assert not any(r.falsification for r in reports)


def test_broken_two_prime_combination_is_a_falsification(monkeypatch, catalog):
    # Swap the N_p and N_p' parts that _two_prime_step combines: the step
    # must fail by name, and no scan may stand in for it.
    original = theorems._primary_component_of

    def swapped(G, N, n, p):
        n_p, n_rest = original(G, N, n, p)
        return n_rest, n_p

    monkeypatch.setattr(theorems, "_primary_component_of", swapped)
    P = semidirect(catalog["c6_inv_c6"].action())
    J = P.j_part()
    H = J.conjugate_by(6)  # 6 = (n, j) = (1, 0) generates N
    report = verify_prop5(P.group, P.n_part(), J, H, "c6_inv_c6")
    assert report.hypotheses_met
    assert report.falsification
    assert report.witness == {"conjugator": find_conjugator(P.group, P.n_part(), J, H),
                              "proof_step_failed": "two-prime combination"}
    with pytest.raises(ProofStepFailed) as exc:
        find_conjugator_proof_guided(P.group, P.n_part(), J, H)
    assert exc.value.step == "two-prime combination"


def test_failed_lift_in_the_correspondence_is_a_falsification(monkeypatch, catalog):
    # A lift that extend_from_sylow cannot complete inside the guided route
    # must be reported as a falsification naming the step, not as an error.
    from nilcoh import cohomology

    monkeypatch.setattr(cohomology, "check_cocycle", lambda *args: False)
    P = semidirect(catalog["c6_inv_c6"].action())
    J = P.j_part()
    H = J.conjugate_by(6)
    report = verify_prop5(P.group, P.n_part(), J, H, "c6_inv_c6")
    assert report.hypotheses_met
    assert report.falsification
    assert report.witness == {"conjugator": find_conjugator(P.group, P.n_part(), J, H),
                              "proof_step_failed": "extension through the correspondence"}


def test_verify_prop5_reports():
    D4 = dihedral(4)
    N = subgroup_generated(D4, [1])
    J = subgroup_generated(D4, [4])
    good = verify_prop5(D4, N, J, subgroup_generated(D4, [4, 2]), "good")
    assert good.passed and good.witness == 0
    bad = verify_prop5(D4, N, J, subgroup_generated(D4, [5, 2]), "bad")
    assert not bad.hypotheses_met
    assert bad.conclusion_verified is None
    assert not bad.falsification


def test_thm4_on_complement_cosets():
    for inst in CATALOG:
        if inst.id not in ("c2_inv_c4", "c2_swap_c2c2", "c3_cycle_q8",
                           "c6_inv_c6", "c9_pow4_c9"):
            continue
        action = inst.action()
        P = semidirect(action)
        om = coset_gset(P.group, P.j_part())
        report = verify_thm4(action, om, inst.id)
        assert report.hypotheses_met, inst.id
        assert report.passed, inst.id
        # The witness is confirmed by the independent scan.
        from nilcoh.actions import fixed_points
        assert report.witness in fixed_points(om, P.j_part())


def test_thm4_hypothesis_failure_on_other_complement_class():
    action = [i for i in CATALOG if i.id == "c2_inv_c4"][0].action()
    P = semidirect(action)
    K = Subgroup(P.group, [0, 3])  # complement not conjugate to embedded J
    om = coset_gset(P.group, K)
    report = verify_thm4(action, om, "wrong-class")
    assert not report.hypotheses_met
    assert report.hypotheses["sylow_fixed_point_p2"] is False
    assert not report.falsification


def test_thm4_regular_action_fails_transitivity():
    action = [i for i in CATALOG if i.id == "c2_inv_c4"][0].action()
    P = semidirect(action)
    om = coset_gset(P.group, Subgroup(P.group, [0]))
    report = verify_thm4(action, om, "regular")
    assert report.hypotheses["n_transitive"] is False


def test_thm4_relaxed_mode_records_observation():
    action = [i for i in CATALOG if i.id == "c2_inv_c4"][0].action()
    P = semidirect(action)
    K = Subgroup(P.group, [0, 3])
    om = coset_gset(P.group, K)
    report = verify_thm4(action, om, "relaxed", relaxed=True)
    assert not report.hypotheses_met
    assert report.conclusion_verified is False  # J really fixes nothing here
    assert not report.falsification  # observations never falsify


def test_thm4_witness_via_supplement_stabilizer():
    catalog = {i.id: i for i in CATALOG}
    action = catalog["c6_inv_c6"].action()
    P = semidirect(action)
    H = subgroup_of_semidirect(P, {"generated_by": [[0, 1], [3, 0]]})
    om = coset_gset(P.group, H)
    report = verify_thm4(action, om, "supplement")
    assert report.passed
    assert report.witness == 0  # J lies inside H, so the H-coset is fixed


@pytest.mark.parametrize("G", [cyclic(8), quaternion8(), abelian([2, 4]), cyclic(4)],
                         ids=["C8", "Q8", "C2xC4", "C4"])
def test_thm4_gset_over_another_group_is_an_unmet_hypothesis(catalog, G):
    # c2_inv_c4 induces D4 (order 8): the same order as C8, Q8 and C2 x C4,
    # but not their table; C4 has another order.
    action = catalog["c2_inv_c4"].action()
    for H in (trivial_subgroup(G), full_subgroup(G)):
        for relaxed in (False, True):
            report = verify_thm4(action, coset_gset(G, H), "other-group", relaxed=relaxed)
            assert report.hypotheses["gset_over_semidirect"] is False
            assert not report.hypotheses_met
            assert report.conclusion_verified is None
            assert not report.falsification


def test_verify_lemma1_wraps_decomposition():
    inst = [i for i in CATALOG if i.id == "c6_inv_c6"][0]
    report = verify_lemma1(inst.action(), inst.id)
    assert report.passed
    assert report.witness["shared_primes"] == [2, 3]
    S3 = dihedral(3)
    from nilcoh.actions import trivial_action
    bad = verify_lemma1(trivial_action(S3, cyclic(3)), "s3-actor")
    assert not bad.hypotheses_met
    assert bad.hypotheses["j_nilpotent"] is False


def test_intersection_lemma_examples():
    C6 = direct_product(cyclic(2), cyclic(3))
    N = full_subgroup(C6)
    H = subgroup_generated(C6, [])
    assert intersection_lemma_by_scan(C6, H, N, 2)
    assert intersection_lemma_by_scan(C6, full_subgroup(C6), N, 2)


def test_no_falsification_across_catalog_verifiers():
    for inst in CATALOG:
        action = inst.action()
        assert not verify_lemma1(action, inst.id).falsification
        P = semidirect(action)
        assert not verify_prop2(P.group, P.n_part(), inst.id).falsification


def test_falsification_channel_fires_on_mutated_logic(monkeypatch):
    # Giving every complement one local key claims every pair is locally
    # conjugate; that must surface as a FALSIFICATION on D4, where the two
    # reflection classes are not conjugate.
    import nilcoh.theorems as th

    monkeypatch.setattr(th, "_local_keys", lambda G, subs: [()] * len(subs))
    D4 = dihedral(4)
    report = th.verify_prop2(D4, subgroup_generated(D4, [1]), "mutated")
    assert report.hypotheses_met
    assert report.conclusion_verified is False
    assert report.falsification
    assert report.witness["locally_conjugate"] and not report.witness["conjugate"]


def _ambient_cases():
    S3xC2 = direct_product(dihedral(3), cyclic(2))
    C6 = direct_product(cyclic(2), cyclic(3))
    yield "d4", dihedral(4), subgroup_generated(dihedral(4), [1])
    yield "s3", dihedral(3), subgroup_generated(dihedral(3), [1])
    yield "s3xc2", S3xC2, Subgroup(S3xC2, [0, 1])
    yield "c6", C6, Subgroup(C6, [0, 1, 2])
    for inst in CATALOG:
        P = semidirect(inst.action())
        yield inst.id, P.group, P.n_part()


def test_partition_verifiers_match_pairwise_oracles():
    for iid, G, N in _ambient_cases():
        assert verify_prop2(G, N, iid).to_json() == prop2_pairwise_by_scan(G, N, iid).to_json(), iid
        assert verify_prop3(G, N, iid).to_json() == prop3_pairwise_by_scan(G, N, iid).to_json(), iid
        relaxed = verify_prop3(G, N, iid, relaxed=True)
        assert relaxed.to_json() == prop3_pairwise_by_scan(G, N, iid, relaxed=True).to_json(), iid


@pytest.mark.parametrize("keys,local", [
    (lambda G, subs: [()] * len(subs), lambda G, A, B: True),
    (lambda G, subs: [(i,) for i in range(len(subs))], lambda G, A, B: False),
], ids=["one_local_class", "no_two_locally_conjugate"])
def test_prop2_witness_order_matches_oracle_under_mutation(monkeypatch, keys, local):
    # A mutated local relation makes prop2 fail wherever two complements are
    # (or are not) conjugate, so the reported pair pins the witness order.
    import nilcoh.theorems as th

    monkeypatch.setattr(th, "_local_keys", keys)
    failed = 0
    for iid, G, N in _ambient_cases():
        report = th.verify_prop2(G, N, iid)
        assert report.to_json() == prop2_pairwise_by_scan(G, N, iid, local=local).to_json(), iid
        failed += report.falsification
    assert failed >= 20


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=7))
def test_first_disagreement_is_the_first_pair_scanned(labels):
    from nilcoh.theorems import _first_disagreement

    x = [a for a, _ in labels]
    y = [b for _, b in labels]
    expected = next(
        ((a, b) for a, b in combinations(range(len(x)), 2)
         if (x[a] == x[b]) != (y[a] == y[b])),
        None,
    )
    assert _first_disagreement(x, y) == expected


@st.composite
def power_actions(draw):
    """C_m acting on C_n by x -> x^k, for a unit k whose order divides m."""
    m = draw(st.integers(2, 6))
    n = draw(st.integers(2, 10))
    k = draw(st.sampled_from(
        [k for k in range(1, n) if gcd(k, n) == 1 and pow(k, m, n) == 1]))
    return m, n, k


@settings(derandomize=True, max_examples=60, deadline=None)
@given(power_actions())
def test_partition_verifiers_match_oracles_on_power_actions(mnk):
    m, n, k = mnk
    P = semidirect(cyclic_action(cyclic(m), cyclic(n), [k * x % n for x in range(n)]))
    G, N = P.group, P.n_part()
    iid = f"c{m}_pow{k}_c{n}"
    assert verify_prop2(G, N, iid).to_json() == prop2_pairwise_by_scan(G, N, iid).to_json()
    assert verify_prop3(G, N, iid).to_json() == prop3_pairwise_by_scan(G, N, iid).to_json()


def test_thm4_sweep_over_all_coset_spaces():
    # Every subgroup H of selected semidirect products yields a coset space;
    # whenever the hypotheses hold the verifier must produce a confirmed
    # witness, and no instance may falsify.
    from nilcoh.structure import enumerate_subgroups_of_order

    catalog = {i.id: i for i in CATALOG}
    met = 0
    unmet = 0
    for iid in ("c2_inv_c4", "c2_swap_c2c2", "c4_inv_c4", "c2c2_on_c4",
                "c6_inv_c3", "c6_inv_c6"):
        action = catalog[iid].action()
        P = semidirect(action)
        G = P.group
        subgroups = []
        for m in range(1, G.order + 1):
            if G.order % m == 0:
                subgroups.extend(enumerate_subgroups_of_order(G, m, max_gens=3))
        for H in subgroups:
            om = coset_gset(G, H)
            report = verify_thm4(action, om, f"{iid}/{H.elements}")
            assert not report.falsification, (iid, H.elements)
            if report.hypotheses_met:
                assert report.passed, (iid, H.elements)
                met += 1
            else:
                unmet += 1
    assert met > 20 and unmet > 50


def test_conjugator_minimality():
    catalog = {i.id: i for i in CATALOG}
    for iid, h_elements in (("c2_inv_c4", (0, 5)),
                            ("c6_inv_c6", tuple(range(6)) + tuple(range(18, 24)))):
        action = catalog[iid].action()
        P = semidirect(action)
        G, N, J = P.group, P.n_part(), P.j_part()
        base = Subgroup(G, h_elements)
        checked = 0
        for twist in range(G.order):
            H = base.conjugate_by(twist)
            valid = [x for x in range(G.order)
                     if all(G.conj(j, x) in H for j in J.elements)]
            if not valid:
                with pytest.raises(HypothesisNotMet):
                    find_conjugator(G, N, J, H)
                continue
            assert find_conjugator(G, N, J, H) == min(valid)
            checked += 1
        assert checked > 0
