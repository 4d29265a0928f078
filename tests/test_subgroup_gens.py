"""A subgroup's generating sequence: the walk that finds it proves closure,
and every test over a subgroup's elements runs over it.  Each is checked
against an element scan in conftest: the bounded walk on every pair of
elements of four small groups, closure on every subset containing 0 of
seven, and the predicates on the 2-generated subgroups of catalog products
and on Hypothesis groups."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh.actions import coset_gset, fixed_points, semidirect
from nilcoh.errors import NotNormal, OrderCapExceeded
from nilcoh.groups import (
    Group,
    Subgroup,
    are_conjugate_subgroups,
    centralizer,
    conjugates_into,
    conjugator_into,
    generating_sequence,
    group_from_permutations,
    normalizer,
    quotient,
    subgroup_generated,
)
from nilcoh.structure import complements
from conftest import (
    abelian,
    catalog_by_id,
    centralizer_by_scan,
    closure_by_products,
    conjugates_into_by_scan,
    conjugator_by_scan,
    cyclic,
    dihedral,
    fixed_points_by_scan,
    normality_witness_by_scan,
    normalizer_by_scan,
    permutation_table_by_pairs,
    quaternion8,
    subgroup_defect_by_scan,
)

SMALL_GROUPS = {
    "C3xC3": lambda: abelian([3, 3]),
    "D4": lambda: dihedral(4),
    "Q8": quaternion8,
    "C2^3": lambda: abelian([2, 2, 2]),
    "S3": lambda: dihedral(3),
    "C8": lambda: cyclic(8),
    "C2xC4": lambda: abelian([2, 4]),
}


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_subgroup_accepts_exactly_the_closed_subsets(name):
    # 928 subsets in all.  A proof from a prefix of the generators accepts
    # unions of cosets, such as {0..5} in C3 x C3, a union of two cosets of <1>.
    G = SMALL_GROUPS[name]()
    for k in range(G.order):
        for rest in combinations(range(1, G.order), k):
            elts = (0,) + rest
            defect = subgroup_defect_by_scan(G, elts)
            if defect is None:
                H = Subgroup(G, elts)
                assert H.elements == elts
                assert H.gens == generating_sequence(G, elts)[0]
            else:
                with pytest.raises(ValueError) as info:
                    Subgroup(G, elts)
                assert str(info.value) == defect


@pytest.mark.parametrize("name", ["D4", "Q8", "C2xC4", "S3"])
def test_walk_is_the_closure_by_products_within_its_bound(name):
    # Every pair of elements, every bound from 1 to |G| and no bound: None
    # exactly when <x, y> has more elements than the bound, and otherwise
    # the closure and the greedy generating sequence.
    G = SMALL_GROUPS[name]()
    for xs in product(range(G.order), repeat=2):
        closure = closure_by_products(G, xs)
        greedy = tuple(g for i, g in enumerate(xs) if g not in closure_by_products(G, xs[:i]))
        for limit in [*range(1, G.order + 1), None]:
            walk = generating_sequence(G, xs, limit=limit)
            if limit is not None and len(closure) > limit:
                assert walk is None, (xs, limit)
            else:
                assert walk == (greedy, closure), (xs, limit)


def test_subgroup_names_an_element_outside_the_parent():
    G = dihedral(4)
    for elements, x in (([-1, 0], -1), ([0, 8], 8), ([-3, 0, 1, 9], -3)):
        with pytest.raises(ValueError, match=f"^element {x} outside parent of order 8$"):
            Subgroup(G, elements)
    with pytest.raises(ValueError, match="identity"):
        Subgroup(G, [1, 9])


def _two_generated_subgroups(G: Group) -> list[Subgroup]:
    found = {subgroup_generated(G, [x, y]).elements
             for x in range(G.order) for y in range(x, G.order)}
    return [Subgroup(G, elts) for elts in sorted(found)]


def _assert_generator_tests_match_scans(G: Group, subs: list[Subgroup]) -> None:
    gsets = [coset_gset(G, H) for H in subs]
    for S in subs:
        assert S.gens == generating_sequence(G, S.elements)[0]
        assert centralizer(G, S).elements == centralizer_by_scan(G, S)
        assert normalizer(G, S).elements == normalizer_by_scan(G, S)
        witness = normality_witness_by_scan(G, S, G.gens)
        assert S.is_normal() == (witness is None)
        assert (witness is None) == (normality_witness_by_scan(G, S, G.elements()) is None)
        if witness is None:
            quotient(G, S)
        else:
            with pytest.raises(NotNormal) as info:
                quotient(G, S)
            assert info.value.witness == witness
        for H, gset in zip(subs, gsets):
            row = [conjugates_into_by_scan(G, S, H, g) for g in G.elements()]
            assert [conjugates_into(G, S, H, g) for g in G.elements()] == row
            assert conjugator_into(G, S, H) == next((g for g, ok in enumerate(row) if ok), None)
            assert are_conjugate_subgroups(G, S, H) == conjugator_by_scan(G, S, H)
            assert fixed_points(gset, S) == fixed_points_by_scan(gset, S)
            # complements(G, S, within=H) needs S meet H normal in H.
            meet = Subgroup(G, (x for x in H.elements if x in S))
            if normality_witness_by_scan(G, meet, H.elements) is None:
                complements(G, S, within=H)
            else:
                with pytest.raises(ValueError, match="normal subgroup"):
                    complements(G, S, within=H)


@pytest.mark.parametrize("instance", ["c2_inv_c4", "c2_inv_c8", "c2_twist_q8", "c3_cycle_q8"])
def test_generator_tests_match_element_scans_on_catalog_products(instance):
    G = semidirect(catalog_by_id()[instance].action()).group
    _assert_generator_tests_match_scans(G, _two_generated_subgroups(G))


@st.composite
def groups_with_two_subgroups(draw):
    """A group generated by two permutations of degree 4 to 6 (by the first
    alone when the closure passes order 48, the pairwise oracle's cap) and
    two subgroups, each generated by one to three seeds."""
    degree = draw(st.integers(4, 6))
    perms = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=2))
    try:
        permutation_table_by_pairs(perms, degree, 48)
    except OrderCapExceeded:
        perms = perms[:1]
    G = group_from_permutations(perms, degree=degree)
    seeds = st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3)
    return G, [subgroup_generated(G, draw(seeds)) for _ in range(2)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(groups_with_two_subgroups())
def test_generator_tests_match_element_scans_on_hypothesis_groups(case):
    G, subs = case
    _assert_generator_tests_match_scans(G, subs)
