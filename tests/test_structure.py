"""Nilpotency, Sylow and Hall subgroups, subgroup enumeration, complements."""

from collections import Counter

import pytest

from nilcoh import groups, structure, theorems
from nilcoh.actions import semidirect, trivial_action
from nilcoh.errors import BudgetExceeded, NotASubgroup, NotNilpotent
from nilcoh.groups import (
    Subgroup,
    are_conjugate_subgroups,
    full_subgroup,
    generating_sequence,
    group_from_permutations,
    subgroup_generated,
)
from nilcoh.harness import suite
from nilcoh.harness.catalog import CATALOG, EQ3_EXTRA, inversion_action
from nilcoh.harness.suite import correspondence_report
from nilcoh.structure import (
    complement_classes,
    complements,
    enumerate_subgroups_of_order,
    hall_pprime,
    is_nilpotent,
    is_nilpotent_subgroup,
    locally_conjugate,
    minimal_generators,
    p_part,
    prime_factors,
    subgroup_conjugacy_classes,
    sylow_subgroup,
)
from nilcoh.theorems import verify_prop2, verify_prop3
from conftest import (
    abelian,
    catalog_by_id,
    closure_by_products,
    complements_by_subgroup_scan,
    cyclic,
    dihedral,
    direct_product,
    heisenberg,
    intersection_lemma_by_scan,
    is_nilpotent_subgroup_by_table,
    lower_central_series_by_scan,
    min_generators_by_search,
    quaternion8,
    subgroups_by_subset_scan,
)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(81) == [3]
    assert p_part(72, 2) == 8 and p_part(72, 3) == 9


def test_s3_not_nilpotent_series_stabilizes_at_rotations():
    S3 = dihedral(3)
    assert not is_nilpotent(S3)
    assert lower_central_series_by_scan(S3)[-1].elements == (0, 1, 2)


def test_q8_and_heisenberg_nilpotent():
    assert is_nilpotent(quaternion8())
    assert is_nilpotent(heisenberg(3))
    assert is_nilpotent(dihedral(4))


def test_sylow_of_cyclic_and_2group():
    C6 = cyclic(6)
    assert sylow_subgroup(C6, 2).elements == (0, 3)
    assert sylow_subgroup(C6, 3).elements == (0, 2, 4)
    D4 = dihedral(4)
    assert sylow_subgroup(D4, 2).order == 8


def test_sylow_of_s3_is_maximal_2_power():
    S3 = dihedral(3)
    P = sylow_subgroup(S3, 2)
    assert P.order == 2
    # Oracle: no order-4 subset of S3 is a subgroup (4 does not divide 6 anyway),
    # and the 2-subgroups found by subset scan all have order 2.
    assert max(
        len(s) for m in (1, 2) for s in subgroups_by_subset_scan(S3, m)
    ) == 2


def test_sylow_order_matches_p_part_on_nonnilpotent_groups():
    for G in (dihedral(3), direct_product(dihedral(3), cyclic(2)),
              direct_product(dihedral(3), cyclic(3))):
        for p in prime_factors(G.order):
            assert sylow_subgroup(G, p).order == p_part(G.order, p)


def test_sylow_unique_and_normal_in_nilpotent_groups():
    for G in (cyclic(12), quaternion8(), heisenberg(3),
              direct_product(cyclic(4), cyclic(3))):
        for p in prime_factors(G.order):
            P = sylow_subgroup(G, p)
            assert P.is_normal()
            assert P.elements == tuple(
                x for x in range(G.order)
                if p_part(G.element_order(x), p) == G.element_order(x)
            )


def test_sylow_rejects_composite():
    with pytest.raises(ValueError):
        sylow_subgroup(cyclic(12), 4)


def test_hall_pprime():
    C6 = cyclic(6)
    assert hall_pprime(C6, 2).elements == (0, 2, 4)
    assert hall_pprime(C6, 5).order == 6
    with pytest.raises(NotNilpotent):
        hall_pprime(dihedral(3), 2)


def test_decomposition_is_internal_direct_product():
    G = direct_product(cyclic(4), cyclic(9))
    products = {0}
    for P in (sylow_subgroup(G, p) for p in prime_factors(G.order)):
        products = {G.mul[x][y] for x in products for y in P.elements}
    assert len(products) == G.order


@pytest.mark.parametrize("m,expected", [(2, 5), (4, 3)])
def test_enumerate_subgroups_of_d4_against_subset_scan(m, expected):
    D4 = dihedral(4)
    found = enumerate_subgroups_of_order(D4, m, max_gens=2)
    oracle = subgroups_by_subset_scan(D4, m)
    assert [S.elements for S in found] == oracle
    assert len(found) == expected


def test_enumerate_subgroups_of_q8():
    Q8 = quaternion8()
    # Q8 has a unique involution, three cyclic subgroups of order 4.
    assert [S.elements for S in enumerate_subgroups_of_order(Q8, 2, 1)] == \
        subgroups_by_subset_scan(Q8, 2)
    assert [S.elements for S in enumerate_subgroups_of_order(Q8, 4, 2)] == \
        subgroups_by_subset_scan(Q8, 4)


def test_enumerate_whole_group_is_trivial_case():
    G = abelian([2, 2, 2, 2])  # needs 4 generators, but m == |G| short-circuits
    assert [S.order for S in enumerate_subgroups_of_order(G, 16, 2)] == [16]


def test_complements_in_d4():
    D4 = dihedral(4)
    rot = subgroup_generated(D4, [1])
    comps = complements(D4, rot)
    assert [K.elements for K in comps] == [(0, 4), (0, 5), (0, 6), (0, 7)]


def test_complements_nonsplit_extension():
    C4 = cyclic(4)
    assert complements(C4, subgroup_generated(C4, [2])) == []
    Q8 = quaternion8()
    assert complements(Q8, Subgroup(Q8, (0, 1))) == []


def test_complements_of_trivial_subgroup():
    D4 = dihedral(4)
    comps = complements(D4, subgroup_generated(D4, []))
    assert len(comps) == 1 and comps[0].order == 8


def test_complements_closed_under_n_conjugation():
    D4 = dihedral(4)
    rot = subgroup_generated(D4, [1])
    comps = complements(D4, rot)
    keys = {K.elements for K in comps}
    for K in comps:
        for n in rot.elements:
            assert K.conjugate_by(n).elements in keys


def test_locally_conjugate():
    D4 = dihedral(4)
    r = subgroup_generated(D4, [4])
    ra2 = subgroup_generated(D4, [6])
    ra = subgroup_generated(D4, [5])
    assert locally_conjugate(D4, r, ra2)
    assert not locally_conjugate(D4, r, ra)
    t = subgroup_generated(D4, [])
    assert locally_conjugate(D4, t, t)


def test_conjugate_implies_locally_conjugate():
    # Including a non-nilpotent ambient group.
    for G in (dihedral(4), direct_product(dihedral(3), cyclic(2))):
        subs = [Subgroup(G, s) for m in (2, 3, 4)
                if G.order % m == 0
                for s in subgroups_by_subset_scan(G, m)]
        for A in subs:
            for B in subs:
                if are_conjugate_subgroups(G, A, B) is not None:
                    assert locally_conjugate(G, A, B)


def test_intersection_lemma_over_subgroups():
    # H * N_2 meet H * N_3 = H for many subgroups H of C6 x S3, with N the
    # nilpotent normal C6 factor.
    G = direct_product(cyclic(6), dihedral(3))
    N = Subgroup(G, range(0, G.order, 6))
    assert N.order == 6 and N.is_normal()
    for m in (1, 2, 3, 4, 6, 9, 12):
        for H in enumerate_subgroups_of_order(G, m, max_gens=2):
            assert intersection_lemma_by_scan(G, H, N, 2)
            assert intersection_lemma_by_scan(G, H, N, 3)
    assert intersection_lemma_by_scan(G, full_subgroup(G), N, 2)


def test_is_nilpotent_subgroup():
    G = direct_product(dihedral(3), cyclic(2))
    whole = full_subgroup(G)
    assert not is_nilpotent_subgroup(whole)
    assert is_nilpotent_subgroup(subgroup_generated(G, [2]))


def test_subgroup_conjugacy_classes():
    D4 = dihedral(4)
    subs = [subgroup_generated(D4, [x]) for x in (4, 5, 6, 7)]
    classes = subgroup_conjugacy_classes(D4, subs)
    assert sorted(sorted(c) for c in classes) == [[0, 2], [1, 3]]
    rot = subgroup_generated(D4, [1])
    n_classes = subgroup_conjugacy_classes(D4, subs, under=rot)
    assert sorted(sorted(c) for c in n_classes) == [[0, 2], [1, 3]]
    # A repeated subgroup shares its class; every index lands in one class.
    S, T = subs[0], subs[1]
    assert subgroup_conjugacy_classes(D4, [S, S, T]) == [[0, 1], [2]]


def _elements(subgroups):
    return [S.elements for S in subgroups]


def _matches_subgroup_scan(G, N) -> bool:
    """Whether complements() lists the oracle's complements in its order.
    A bool, so that a failure does not diff two long lists of tuples."""
    return _elements(complements(G, N)) == _elements(complements_by_subgroup_scan(G, N))


@pytest.mark.parametrize("inst", CATALOG + EQ3_EXTRA, ids=lambda inst: inst.id)
def test_complements_match_subgroup_scan_on_catalog_products(inst):
    P = semidirect(inst.action())
    assert _matches_subgroup_scan(P.group, P.n_part())


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_complements_match_subgroup_scan_on_c2_inverting_cn(n):
    P = semidirect(inversion_action(cyclic(n)))
    assert _matches_subgroup_scan(P.group, P.n_part())
    assert len(complements(P.group, P.n_part())) == n


def _normal_subgroups(G):
    """Every normal subgroup, from the subgroup enumerator (every subgroup of
    these groups is 3-generated)."""
    return [S for m in range(1, G.order + 1) if G.order % m == 0
            for S in enumerate_subgroups_of_order(G, m, max_gens=3) if S.is_normal()]


NORMAL_SUBGROUP_HOSTS = {
    "D4": lambda: dihedral(4),
    "Q8": quaternion8,
    "C8": lambda: cyclic(8),
    "C2xC4": lambda: abelian([2, 4]),
    "C4xC4": lambda: abelian([4, 4]),
    "Heis3": lambda: heisenberg(3),
    "D8": lambda: dihedral(8),
    "Q8xC2": lambda: direct_product(quaternion8(), cyclic(2)),
    "D4xC3": lambda: direct_product(dihedral(4), cyclic(3)),
}


@pytest.mark.parametrize("name", NORMAL_SUBGROUP_HOSTS)
def test_complements_match_subgroup_scan_on_every_normal_subgroup(name):
    G = NORMAL_SUBGROUP_HOSTS[name]()
    normals = _normal_subgroups(G)
    assert normals[0].is_trivial() and normals[-1].order == G.order
    for N in normals:
        assert _matches_subgroup_scan(G, N), N.elements


def _lifts(G, N):
    n_first = N.elements + tuple(g for g in range(G.order) if g not in N)
    sequence = generating_sequence(G, n_first)[0]
    return sequence, sum(1 for g in sequence if g in N)


def _closures_tried(G, N):
    """|N| times the number of complements of N in <N, t_1..t_{i-1}>, summed
    over the d lifted generators t_i: one closure per surviving prefix and
    element of N."""
    sequence, n_rank = _lifts(G, N)
    total = 0
    for i in range(n_rank, len(sequence)):
        Gi, smap = subgroup_generated(G, sequence[:i]).as_group()
        Ni = Subgroup(Gi, [k for k, x in enumerate(smap) if x in N])
        total += N.order * len(complements_by_subgroup_scan(Gi, Ni))
    return total


@pytest.mark.parametrize("inst", CATALOG + EQ3_EXTRA, ids=lambda inst: inst.id)
def test_complements_budget_counts_closures_tried(inst):
    P = semidirect(inst.action())
    G, N = P.group, P.n_part()
    sequence, n_rank = _lifts(G, N)
    d = len(sequence) - n_rank
    work = _closures_tried(G, N)
    # The envelope: at most |N| + |N|^2 + ... + |N|^d closures.
    assert work <= sum(N.order ** i for i in range(1, d + 1))
    expected = _elements(complements_by_subgroup_scan(G, N))
    assert _elements(complements(G, N, budget=work)) == expected
    with pytest.raises(BudgetExceeded) as refused:
        complements(G, N, budget=work - 1)
    assert str(refused.value) == f"subgroup enumeration exceeded budget {work - 1}"


def test_over_budget_complements_stop_before_the_level_that_passes_it(monkeypatch):
    # C2^3 acting trivially on C2^4: the three levels try 16, 256 and 4,096
    # bounded closure walks.  Budget 1000 admits the first two levels, 272
    # walks, and refuses the third before any of its walks runs.
    P = semidirect(trivial_action(abelian([2] * 3), abelian([2] * 4)))
    walks = []

    def counted(G, elements, limit=None):
        if limit is not None:
            walks.append(limit)
        return generating_sequence(G, elements, limit)

    monkeypatch.setattr(structure, "generating_sequence", counted)
    with pytest.raises(BudgetExceeded, match="^subgroup enumeration exceeded budget 1000$"):
        complements(P.group, P.n_part(), budget=1000)
    assert len(walks) == 272


def test_complements_are_kept_on_n_and_answer_to_the_callers_budget():
    P = semidirect(catalog_by_id()["c3_inner_heis3"].build())   # a fresh action
    G, N = P.group, P.n_part()
    assert N is P.n_part() and P.j_part() is P.j_part()
    S = sylow_subgroup(G, 3)
    complements(G, N, within=S)                  # a call with `within` keeps nothing
    with pytest.raises(BudgetExceeded):
        complements(G, N, budget=26)             # nor does a call that stops
    comps = complements(G, N)
    assert len(comps) == 27
    kept = complements(G, N, budget=27 + 27 * 27)
    assert kept == comps and all(a is b for a, b in zip(kept, comps))
    with pytest.raises(BudgetExceeded, match="^subgroup enumeration exceeded budget 26$"):
        complements(G, N, budget=26)


def test_complements_and_sylow_subgroups_refuse_a_subgroup_of_another_group():
    G = dihedral(4)
    foreign = subgroup_generated(abelian([2, 4]), [1])
    with pytest.raises(NotASubgroup):
        complements(G, foreign)
    with pytest.raises(NotASubgroup):
        complement_classes(G, foreign)
    with pytest.raises(NotASubgroup):
        complements(G, subgroup_generated(G, [1]), within=full_subgroup(dihedral(4)))
    with pytest.raises(NotASubgroup):
        sylow_subgroup(G, 2, within=foreign)


def test_verifiers_after_the_correspondence_enumerate_no_complement_again(monkeypatch):
    # correspondence_report, then prop2 and prop3 on the same product: only
    # the first call of `complements` without `within` walks a closure, and
    # the N-classes are partitioned once.
    action = catalog_by_id()["q8_conj_q8"].build()              # a fresh action
    P = semidirect(action)
    real = structure.complements
    calls, walks, partitions = [], [], []

    def counted_complements(G, N, budget=structure.DEFAULT_ENUM_BUDGET, within=None):
        if within is not None:
            return real(G, N, budget, within)
        calls.append(len(walks))
        comps = real(G, N, budget)
        calls.append(len(walks))
        calls.append(comps)
        return comps

    def counted_walk(G, elements, limit=None):
        walks.append(limit)
        return generating_sequence(G, elements, limit)

    def counted_partition(G, subs, under=None):
        partitions.append(under)
        return subgroup_conjugacy_classes(G, subs, under)

    for module in (structure, theorems, suite):
        monkeypatch.setattr(module, "complements", counted_complements)
    for module in (structure, groups):
        monkeypatch.setattr(module, "generating_sequence", counted_walk)
    monkeypatch.setattr(structure, "subgroup_conjugacy_classes", counted_partition)
    assert correspondence_report(action, "q8_conj_q8").passed
    classes = complement_classes(P.group, P.n_part())
    assert verify_prop2(P.group, P.n_part()).passed
    verify_prop3(P.group, P.n_part(), relaxed=True)
    assert complement_classes(P.group, P.n_part()) is classes
    first, *later = [calls[i:i + 3] for i in range(0, len(calls), 3)]
    assert first[1] > first[0] and len(first[2]) == 28 and len(later) == 2
    for before, after, comps in later:
        assert after == before
        assert all(a is b for a, b in zip(comps, first[2]))
    assert partitions.count(P.n_part()) == 1


def test_each_complement_is_walked_once(monkeypatch):
    # C2^3 acting trivially on C2^4: 4,096 complements, each built from the
    # one bounded walk over its lifts that found it.
    P = semidirect(trivial_action(abelian([2] * 3), abelian([2] * 4)))
    G, N = P.group, P.n_part()
    closures = Counter()

    def counted(G, elements, limit=None):
        walk = generating_sequence(G, elements, limit)
        if walk is not None:
            closures[frozenset(walk[1])] += 1
        return walk

    monkeypatch.setattr(structure, "generating_sequence", counted)
    monkeypatch.setattr(groups, "generating_sequence", counted)
    comps = complements(G, N)
    assert len(comps) == 4096
    assert {closures[frozenset(K.elements)] for K in comps} == {1}
    # Each complement's gens are the walk's greedy sequence over its lifts.
    assert {len(K.gens) for K in comps} == {3}
    assert all(generating_sequence(G, K.gens)[1] == set(K.elements) for K in comps)


def test_sylow_subgroup_of_a_p_group_is_the_group_itself():
    P = semidirect(inversion_action(cyclic(8)))
    G, N = P.group, P.n_part()
    for K in complements(G, N) + [N]:
        assert sylow_subgroup(G, 2, within=K) is K
    P = semidirect(inversion_action(cyclic(6)))
    for K in complements(P.group, P.n_part()):
        assert sylow_subgroup(P.group, 2, within=K) is K
    N = P.n_part()
    assert sylow_subgroup(P.group, 2, within=N).elements == (0, 6)


def test_minimal_generators_pin_the_least_number_of_generators():
    # Index 1 is central in Q8 and Heis(p), so the greedy `gens` spend a
    # chain step on it; C6 and C4 x C2 x C3 need one generator fewer than
    # their greedy sequences as well.
    cases = [
        (quaternion8(), (1, 2, 4), (2, 4)),
        (heisenberg(3), (1, 3, 9), (3, 9)),
        (heisenberg(5), (1, 5, 25), (5, 25)),
        (abelian([2, 3]), (1, 3), (4,)),
        (abelian([4, 2, 3]), (1, 3, 6), (4, 6)),
        (abelian([2, 2, 2, 2]), (1, 2, 4, 8), (1, 2, 4, 8)),
        (dihedral(4), (1, 4), (1, 4)),
    ]
    for G, greedy, least in cases:
        K = full_subgroup(G)
        assert minimal_generators(K) == least, G.name
        assert minimal_generators(K) is minimal_generators(K), G.name
        assert G.gens == K.gens == greedy, G.name
        assert closure_by_products(G, least) == set(K.elements), G.name
    assert [len(least) for _, _, least in cases] == [2, 2, 2, 1, 2, 4, 2]
    # S3 is not nilpotent and keeps its greedy sequence.
    S3 = full_subgroup(dihedral(3))
    assert minimal_generators(S3) is S3.gens


def _minimal_generator_groups():
    """Every catalog actor and target, the sweep actors, and C2^3, C2^4 and
    C5 x C5 of the benchmark's cocycle-heavy actions, once each."""
    groups = {}
    for inst in CATALOG:
        action = inst.action()
        for G in (action.actor, action.target):
            groups.setdefault(G.mul, G)
    for G in [cyclic(m) for m in (2, 3, 4, 6)] + [
            abelian(f) for f in ([2, 2], [2, 4], [3, 3], [2, 6], [2, 2, 2], [2, 2, 2, 2],
                                 [5, 5])]:
        groups.setdefault(G.mul, G)
    return list(groups.values())


def test_minimal_generators_generate_with_the_least_length():
    # On each group and each of its Sylow subgroups, against the least k
    # for which some k elements generate, found by a search over subsets.
    checked = 0
    for G in _minimal_generator_groups():
        for K in [full_subgroup(G)] + [sylow_subgroup(G, p) for p in prime_factors(G.order)]:
            least = minimal_generators(K)
            assert closure_by_products(G, least) == set(K.elements), (G.name, K)
            assert len(least) == min_generators_by_search(K), (G.name, K)
            checked += 1
    assert checked >= 40


def _nilpotency_groups():
    groups = {}
    for inst in CATALOG + EQ3_EXTRA:
        action = inst.action()
        groups[f"{inst.id}/J"] = action.actor
        groups[f"{inst.id}/N"] = action.target
        groups[f"{inst.id}/NxJ"] = semidirect(action).group
    for n in range(1, 40):
        groups[f"C{n}"] = cyclic(n)
        if n > 1:
            groups[f"D{n}"] = dihedral(n)
    S4 = group_from_permutations([[1, 2, 3, 0], [1, 0, 2, 3]])
    groups["S4"] = S4
    groups["A5"] = group_from_permutations([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    groups["S4xC3"] = direct_product(S4, cyclic(3))
    groups["S3xC4"] = direct_product(dihedral(3), cyclic(4))
    for p in (3, 5, 7):
        groups[f"Heis{p}"] = heisenberg(p)
    for k in range(1, 11):                       # C2 inverting C_n up to the order cap
        groups[f"C2xC{2 ** k}"] = semidirect(inversion_action(cyclic(2 ** k))).group
    return groups


def test_nilpotency_matches_the_lower_central_series():
    # The Sylow count against the commutator scan, on each group and on the
    # subgroups <a, b> for a, b among its first 12 elements.  A subgroup
    # that is all of G is re-indexed to G's own table, so it takes G's verdict.
    groups = _nilpotency_groups()
    mismatched = []
    for name, G in groups.items():
        verdict = lower_central_series_by_scan(G)[-1].is_trivial()
        if is_nilpotent(G) != verdict:
            mismatched.append(name)
        first = range(min(12, G.order))
        subs = {subgroup_generated(G, [a, b]).elements for a in first for b in first if a <= b}
        for elements in sorted(subs):
            H = Subgroup(G, elements)
            expected = verdict if H.order == G.order else is_nilpotent_subgroup_by_table(H)
            if is_nilpotent_subgroup(H) != expected:
                mismatched.append(f"{name} > {elements}")
    assert mismatched == []
    assert [is_nilpotent(groups[name]) for name in ("A5", "S4", "D16", "Heis5", "C6")] == [
        False, False, True, True, True]
