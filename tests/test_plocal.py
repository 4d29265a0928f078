"""The p-local layer in the parent's table: p-parts, the Sylow and Hall
subgroups read from them and the Sylow-local complements of prop3, each
against the route it replaced, and prop3 on an enumeration that stopped at
its budget."""

import pytest

from nilcoh import cohomology, structure, theorems
from nilcoh.actions import semidirect
from nilcoh.cohomology import extend_from_sylow, h1
from nilcoh.errors import BudgetExceeded, NotNilpotent
from nilcoh.groups import Subgroup, group_from_permutations
from nilcoh.harness.catalog import CATALOG, EQ3_EXTRA, catalog_by_id, inversion_action
from nilcoh.structure import (
    complements,
    hall_pprime,
    is_nilpotent,
    is_nilpotent_subgroup,
    p_part,
    p_parts,
    prime_factors,
    sylow_subgroup,
)
from nilcoh.theorems import verify_lemma1, verify_prop3
from conftest import (
    complements_within_by_table,
    cyclic,
    dihedral,
    is_p_power,
    primary_projection_by_scan,
    subgroups_by_subset_scan,
    sylow_conjugates_by_scan,
)

INSTANCES = CATALOG + EQ3_EXTRA
S3 = group_from_permutations([(1, 0, 2), (1, 2, 0)])
A4 = group_from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)])


def _catalog_groups():
    for inst in INSTANCES:
        a = inst.action()
        yield f"{inst.id}/J", a.actor
        yield f"{inst.id}/N", a.target
        yield f"{inst.id}/NxJ", semidirect(a).group


def test_p_parts_match_the_factorization_scan():
    compared = []
    for name, G in _catalog_groups():
        if is_nilpotent(G):
            for p in prime_factors(G.order):
                assert p_parts(G, p, G.elements()) == primary_projection_by_scan(G, p), (name, p)
                compared.append(name)
    assert len(set(compared)) >= 60


@pytest.mark.parametrize("G", [S3, A4], ids=["S3", "A4"])
def test_p_parts_factor_each_element(G):
    # Neither group is nilpotent, so the parts are not projections onto a
    # Sylow subgroup; each element still factors into commuting parts.
    assert not is_nilpotent(G) and G.order in (6, 12)
    for p in prime_factors(G.order):
        parts = p_parts(G, p, G.elements())
        for x, x_p in zip(G.elements(), parts):
            rest = G.mul[G.inv[x_p]][x]
            assert G.mul[x_p][rest] == x == G.mul[rest][x_p]
            assert is_p_power(G.element_order(x_p), p)
            assert G.element_order(rest) % p != 0
        # Any order of the elements, repeats included, reads the same parts.
        backwards = list(reversed(G.elements())) * 2
        assert p_parts(G, p, backwards) == tuple(parts[x] for x in backwards)


def test_sylow_and_hall_membership_match_the_element_order_comprehension():
    # The p-torsion is the set of x equal to their p-part, the p'-elements
    # those whose p-part is 0.  In a nilpotent group they are the Sylow and
    # Hall subgroups; in S3 and A4 the Sylow search starts from the torsion.
    nilpotent = 0
    for name, G in [*_catalog_groups(), ("S3", S3), ("A4", A4)]:
        for p in prime_factors(G.order):
            torsion = tuple(x for x in G.elements() if is_p_power(G.element_order(x), p))
            pprime = tuple(x for x in G.elements() if G.element_order(x) % p != 0)
            parts = p_parts(G, p, G.elements())
            assert tuple(x for x, x_p in zip(G.elements(), parts) if x_p == x) == torsion
            assert tuple(x for x, x_p in zip(G.elements(), parts) if x_p == 0) == pprime
            P = sylow_subgroup(G, p)
            if is_nilpotent(G):
                assert P.elements == torsion, (name, p)
                assert hall_pprime(G, p).elements == pprime, (name, p)
                nilpotent += 1
            else:
                assert set(P.elements) <= set(torsion) and P.order == p_part(G.order, p)
                with pytest.raises(NotNilpotent):
                    hall_pprime(G, p)
    assert nilpotent >= 80


def test_hall_pprime_within_matches_the_element_order_comprehension():
    compared = 0
    for inst in INSTANCES:
        P = semidirect(inst.action())
        G = P.group
        for H in (P.n_part(), P.j_part()):
            if not is_nilpotent_subgroup(H):
                continue
            for p in prime_factors(G.order):
                expected = tuple(x for x in H.elements if G.element_order(x) % p != 0)
                assert hall_pprime(G, p, within=H).elements == expected, (inst.id, p)
                compared += 1
    assert compared >= 70


def _within_mismatches(G, normals) -> list:
    """The (N, S) pairs, N in normals and S any Sylow conjugate of G, on
    which complements(G, N, within=S) differs from the as_group route."""
    out = []
    for N in normals:
        for p in prime_factors(G.order):
            for elements in sylow_conjugates_by_scan(G, p):
                S = Subgroup(G, elements)
                ours = [K.elements for K in complements(G, N, within=S)]
                if ours != [K.elements for K in complements_within_by_table(G, N, S)]:
                    out.append((N.elements, S.elements))
    return out


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst.id)
def test_complements_within_sylow_conjugates_on_catalog_products(inst):
    P = semidirect(inst.action())
    assert _within_mismatches(P.group, [P.n_part()]) == []


@pytest.mark.parametrize("G", [dihedral(4), dihedral(3)], ids=["D4", "S3"])
def test_complements_within_sylow_conjugates_for_every_normal_subgroup(G):
    normals = [N for m in range(1, G.order + 1) if G.order % m == 0
               for N in (Subgroup(G, elts) for elts in subgroups_by_subset_scan(G, m))
               if N.is_normal()]
    assert len(normals) >= 3
    assert _within_mismatches(G, normals) == []


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_complements_within_sylow_conjugates_on_the_ladder(n):
    P = semidirect(inversion_action(cyclic(n)))
    assert _within_mismatches(P.group, [P.n_part()]) == []


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_prop3_records_equal_with_the_table_route(monkeypatch, n):
    P = semidirect(inversion_action(cyclic(n)))
    G, N = P.group, P.n_part()

    def records():
        return [(r.to_json(), r.details, r.notes)
                for r in (verify_prop3(G, N, f"n{n}", relaxed=relaxed)
                          for relaxed in (False, True))]

    ours = records()

    def by_table(G, N, within=None):
        return complements(G, N) if within is None else complements_within_by_table(G, N, within)

    monkeypatch.setattr(theorems, "complements", by_table)
    assert records() == ours


@pytest.mark.parametrize("relaxed", [False, True])
def test_prop3_states_nothing_a_stopped_enumeration_left_undecided(monkeypatch, relaxed):
    # G = N x| J splits, but with every enumeration stopped the record can
    # say neither that it splits nor that it does not, nor count complements.
    def stopped(*args, **kwargs):
        raise BudgetExceeded("subgroup enumeration exceeded budget 0")

    monkeypatch.setattr(theorems, "complements", stopped)
    P = semidirect(catalog_by_id()["c2_swap_c2c2"].action())
    report = verify_prop3(P.group, P.n_part(), "c2_swap_c2c2", relaxed=relaxed)
    assert list(report.hypotheses) == ["n_nilpotent", "complements_enumerable",
                                       "local_conjugacy_p2"]
    assert report.details == {
        "complements_enumerable": "subgroup enumeration exceeded budget 0",
        "local_conjugacy_p2": "undecided: the local complement enumeration stopped: "
                              "subgroup enumeration exceeded budget 0",
    }
    assert report.conclusion_verified is None and report.witness is None
    assert not report.passed and not report.falsification


def test_nilpotency_is_tested_once_per_group(monkeypatch):
    # lemma1 tests J and N once; the Hall subgroups of the decomposition
    # and of the extension are taken within a group already tested.
    tested = []
    original = structure.is_nilpotent

    def counted(G):
        tested.append(G)
        return original(G)

    for module in (structure, cohomology, theorems):
        monkeypatch.setattr(module, "is_nilpotent", counted)
    a = catalog_by_id()["c6_inv_c6"].action()
    J, N = a.actor, a.target
    assert verify_lemma1(a, "c6_inv_c6").witness["shared_primes"] == [2, 3]
    assert tested == [J, N]
    tested.clear()
    for q in (2, 3):
        local = h1(a, sylow_subgroup(J, q))
        assert extend_from_sylow(a, q, local.distinguished) == h1(a).distinguished
    assert tested == [J, N, J, N]
