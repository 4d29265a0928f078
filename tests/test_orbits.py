"""Orbits by generators: conjugacy classes of subgroups, Sylow conjugates,
G-set orbits and subgroup nilpotency, each against the scan it replaced."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import groups
from nilcoh.actions import semidirect
from nilcoh.groups import Subgroup, group_from_permutations, subgroup_generated
from nilcoh.harness.catalog import CATALOG, EQ3_EXTRA, inversion_action
from nilcoh.structure import (
    complements,
    is_nilpotent_subgroup,
    prime_factors,
    subgroup_conjugacy_classes,
    sylow_subgroup,
)
from nilcoh.theorems import verify_prop2
from conftest import (
    cyclic,
    dihedral,
    direct_product,
    lower_central_series_by_scan,
    orbit_route_mismatches,
    trivial_subgroup,
)


def _product_subgroups(action) -> tuple:
    """The product of an action, its complements of N with their Sylow
    subgroups and the Sylow subgroups of the product, and N, J and the
    trivial subgroup as the coset spaces and conjugating subgroups."""
    P = semidirect(action)
    G, N, J = P.group, P.n_part(), P.j_part()
    comps = complements(G, N)
    sylows = [sylow_subgroup(G, p, within=K) for K in comps for p in prime_factors(K.order)]
    subs = [N, J] + comps + sylows + [sylow_subgroup(G, p) for p in prime_factors(G.order)]
    return G, subs, [N, J, trivial_subgroup(G)]


@pytest.mark.parametrize("inst", CATALOG + EQ3_EXTRA, ids=lambda inst: inst.id)
def test_orbit_routes_match_scans_on_catalog_products(inst):
    assert orbit_route_mismatches(*_product_subgroups(inst.action())) == []


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_orbit_routes_match_scans_on_the_ladder(n):
    assert orbit_route_mismatches(*_product_subgroups(inversion_action(cyclic(n)))) == []


@st.composite
def two_permutation_groups(draw):
    """The group generated by two permutations of degree 2 to 5, with the
    cyclic subgroup of each of its elements, and the subgroups generated by
    one and by two drawn elements as coset spaces."""
    degree = draw(st.integers(2, 5))
    G = group_from_permutations([draw(st.permutations(range(degree))) for _ in range(2)])
    a, b = (draw(st.integers(0, G.order - 1)) for _ in range(2))
    subs = [subgroup_generated(G, [x]) for x in G.elements()]
    return G, subs, [subgroup_generated(G, [a]), subgroup_generated(G, [a, b])]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(two_permutation_groups())
def test_orbit_routes_match_scans_on_two_permutation_groups(drawn):
    assert orbit_route_mismatches(*drawn) == []


def test_lower_central_series_within_a_subgroup():
    # S3 as a subgroup of S3 x C4 and of S4: its series, in its own table,
    # stops at the rotations, and it is not nilpotent in the parent's table.
    S3xC4 = direct_product(dihedral(3), cyclic(4))
    S3 = Subgroup(S3xC4, (x for x in S3xC4.elements() if x % 4 == 0))
    S4 = group_from_permutations([[1, 2, 3, 0], [1, 0, 2, 3]])
    perms = sorted(permutations(range(4)))       # the elements of S4, in index order
    S3_in_S4 = Subgroup(S4, (x for x, perm in enumerate(perms) if perm[3] == 3))
    for H in (S3, S3_in_S4):
        assert H.order == 6
        series = lower_central_series_by_scan(H.as_group()[0])
        assert [K.order for K in series] == [6, 3]
        assert not is_nilpotent_subgroup(H)
    C4 = Subgroup(S3xC4, range(4))
    assert [K.order for K in lower_central_series_by_scan(C4.as_group()[0])] == [4, 1]
    assert is_nilpotent_subgroup(C4)
    assert orbit_route_mismatches(S3xC4, [S3, C4], [S3]) == []
    assert orbit_route_mismatches(S4, [S3_in_S4], [S3_in_S4]) == []


def test_prop2_builds_no_group_and_classes_conjugate_by_generators(monkeypatch):
    P = semidirect(inversion_action(cyclic(64)))
    G, N = P.group, P.n_part()
    built = []
    init = groups.Group.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.Group, "__init__", counting_init)
    report = verify_prop2(G, N, "c2_inv_c64/prop2")
    assert report.passed and report.witness == {"complements": 64, "nilpotent": 64}
    assert built == []
    # Every conjugate of a complement is a complement, so each class is a
    # whole orbit; the scan it replaced made |class count| x |under| conjugations.
    comps = complements(G, N)
    conjugated = []
    conjugates = groups.conjugates

    def counting_conjugates(*args):
        conjugated.append(1)
        return conjugates(*args)

    monkeypatch.setattr(groups, "conjugates", counting_conjugates)
    for under, gens in ((None, G.gens), (N, N.gens)):
        conjugated.clear()
        classes = subgroup_conjugacy_classes(G, comps, under)
        assert len(conjugated) <= sum(len(members) * len(gens) for members in classes)
        assert len(classes) == 2
