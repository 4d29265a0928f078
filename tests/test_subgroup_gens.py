"""A subgroup's generating sequence: the walk that finds it proves closure,
and every test over a subgroup's elements runs over it.  Each is checked
against an element scan in conftest: the bounded walk on every pair of
elements of four small groups and every triple of six, the coset walk
against the right closure on the catalog's and the sweep's groups and at
the order cap, closure on every subset containing 0 of seven, and the
predicates on the 2-generated subgroups of catalog products and on
Hypothesis groups."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import groups
from nilcoh.actions import coset_gset, fixed_points, semidirect
from nilcoh.errors import NilcohError, NoInverse, NotNormal, OrderCapExceeded
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
from nilcoh.harness.catalog import inversion_action
from nilcoh.structure import complements
from conftest import (
    CATALOG,
    abelian,
    catalog_by_id,
    centralizer_by_scan,
    closure_by_products,
    conjugates_into_by_scan,
    conjugator_by_scan,
    cyclic,
    dihedral,
    fixed_points_by_scan,
    greedy_generators_by_closure,
    heisenberg,
    normality_witness_by_scan,
    normalizer_by_scan,
    permutation_table_by_pairs,
    quaternion8,
    subgroup_defect_by_scan,
    validate_by_light,
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


def _walked_groups() -> list[Group]:
    """Every catalog action's actor, target and product, the sweep's
    targets and cyclic actors, the small groups above, S4, the Heisenberg
    group of order 27, and C2 inverting C_1024 and C2^11 at the order cap."""
    found = [build() for build in SMALL_GROUPS.values()]
    for inst in CATALOG:
        action = inst.action()
        found += [action.actor, action.target, semidirect(action).group]
    found += [cyclic(n) for n in (2, 3, 4, 6, 9, 12)] + [abelian([2, 2]), quaternion8()]
    found += [group_from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)]), heisenberg(3)]
    return found + [semidirect(inversion_action(cyclic(1024))).group, abelian([2] * 11)]


def test_coset_walk_is_the_right_closure_on_every_group():
    # The greedy sequence of the right closure, and every prefix of it
    # generating the closure by products.  Prefix closures above 256
    # elements are left to the whole-group check, as the oracle is quadratic.
    for G in _walked_groups():
        gens, reached = generating_sequence(G, range(G.order))
        assert gens == greedy_generators_by_closure(G.mul), G
        assert reached == set(range(G.order))
        for i in range(1, len(gens)):
            prefix = generating_sequence(G, gens[:i])
            if len(prefix[1]) <= 256:
                assert prefix == (gens[:i], closure_by_products(G, gens[:i])), (G, i)
        # Three seeds in descending index order, so the walk also meets
        # elements that do not come in index order.
        seeds = [x for x in reversed(range(G.order)) if x % 7 == 3][:3]
        walk = generating_sequence(G, seeds)
        if len(walk[1]) <= 256:
            greedy = tuple(g for i, g in enumerate(seeds)
                           if g not in closure_by_products(G, seeds[:i]))
            assert walk == (greedy, closure_by_products(G, seeds)), (G, seeds)


@pytest.mark.parametrize("name", ["D4", "Q8", "C2xC4", "S3", "C2^3", "C3xC3"])
def test_bounded_walk_is_none_exactly_past_its_limit_on_triples(name):
    G = SMALL_GROUPS[name]()
    for xs in product(range(1, G.order), repeat=3):
        size = len(closure_by_products(G, xs))
        for limit in (size - 1, size):
            walk = generating_sequence(G, xs, limit=limit)
            assert (walk is None) == (size > limit), (xs, limit)


class _CountedRow(tuple):
    """A table row that counts its entry reads."""

    reads = 0

    def __getitem__(self, i):
        _CountedRow.reads += 1
        return tuple.__getitem__(self, i)


class _CountedTable:
    def __init__(self, G: Group):
        self.order, self.mul = G.order, tuple(map(_CountedRow, G.mul))


def test_powers_of_one_generator_stop_at_the_bound():
    # C_2048's generator under limit 3: the walk reads three powers, not 2048.
    C = _CountedTable(cyclic(2048))
    _CountedRow.reads = 0
    assert generating_sequence(C, [1], limit=3) is None
    assert _CountedRow.reads == 3
    assert generating_sequence(C, [1024], limit=2)[1] == {0, 1024}
    assert generating_sequence(C, [512, 1024], limit=3) is None


@pytest.mark.parametrize("build, order, count", [
    (lambda: abelian([2] * 11), 2048, 10),
    (lambda: semidirect(inversion_action(cyclic(256))).group, 512, 1),
], ids=["c2^11", "c2_inv_c256"])
def test_coset_walk_composes_once_per_coset(monkeypatch, build, order, count):
    # Each new left coset yB is one composition of row y with B: one for
    # each generator of C2^11 after the first, and for C2 inverting C_256
    # one for the reflection's coset of the rotations, which the powers of
    # the first generator list.
    G = build()
    right_composer, made = groups.composer, []

    def counting_composer(q):
        take = right_composer(q)

        def counted(p):
            made.append(None)
            return take(p)
        return counted

    monkeypatch.setattr(groups, "composer", counting_composer)
    gens, reached = generating_sequence(G, range(G.order))
    assert (len(reached), gens) == (order, G.gens)
    assert len(made) == count


def test_group_refuses_tables_whose_powers_miss_the_identity():
    # x*y = max(x, y) is associative with identity 0, and the powers of every
    # x != 0 stay at x.  In the second table 1*1 = 2, 1*2 = 3 and 1*3 = 1, so
    # the powers of 1 cycle without reaching 0.
    semilattice = [[max(x, y) for y in range(64)] for x in range(64)]
    with pytest.raises(NoInverse):
        Group(semilattice)
    with pytest.raises(NoInverse):
        validate_by_light(semilattice)
    looped = [[0, 1, 2, 3], [1, 2, 3, 1], [2, 3, 1, 2], [3, 1, 2, 3]]
    with pytest.raises(NilcohError):
        Group(looped)
    with pytest.raises(NilcohError):
        validate_by_light(looped)


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
