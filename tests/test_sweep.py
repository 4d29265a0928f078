"""Exhaustive sweep over all actions of small cyclic actors on small
nilpotent targets, built from an independent automorphism enumeration.

Every instance goes through the decomposition check; the smaller ones also
go through the complement correspondence and the coprime-triviality check.
This is the wide net behind the curated catalog.
"""

from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nilcoh import theorems
from nilcoh.actions import action_from_generator_images, semidirect, trivial_action
from nilcoh.cohomology import (
    Cocycle,
    cocycles,
    cocycles_bruteforce,
    decomposition_map,
    h1,
    shared_primes,
)
from nilcoh.groups import Group, Subgroup, compose, subgroup_generated
from nilcoh.structure import complements, prime_factors, subgroup_conjugacy_classes, sylow_subgroup
from nilcoh.theorems import verify_prop2
from conftest import (
    CATALOG,
    abelian,
    cayley_tree,
    complements_by_subgroup_scan,
    cyclic,
    decomposition_fields,
    decomposition_fields_of_rebuilt,
    dihedral,
    direct_product,
    h1_store_matches_twist,
    is_nilpotent_subgroup_by_table,
    orbit_route_mismatches,
    quaternion8,
    restrict,
    same_as_validated,
    semidirect_table_by_formula,
    trivial_subgroup,
)


def automorphisms(N: Group) -> list[tuple[int, ...]]:
    """All automorphisms of N, by extending generator images.

    Images are propagated along a spanning tree of right-multiplication
    edges and checked against every generator pair, which forces the
    homomorphism property everywhere; bijectivity is checked last.
    """
    gens = N.gens
    edges = cayley_tree(N, gens)
    out = []
    for images in product(range(N.order), repeat=len(gens)):
        f = [0] * N.order
        for y, slot, z in edges:
            f[z] = N.mul[f[y]][images[slot]]
        ok = all(
            f[N.mul[x][g]] == N.mul[f[x]][images[slot]]
            for x in range(N.order)
            for slot, g in enumerate(gens)
        )
        if ok and len(set(f)) == N.order:
            out.append(tuple(f))
    return out


def perm_order(perm: tuple[int, ...]) -> int:
    ident = tuple(range(len(perm)))
    p, k = perm, 1
    while p != ident:
        p = tuple(perm[i] for i in p)
        k += 1
    return k


def sweep_targets():
    return [
        cyclic(4), abelian([2, 2]), cyclic(6), cyclic(8),
        abelian([2, 4]), abelian([3, 3]), quaternion8(), cyclic(9),
        cyclic(12),
    ]


def test_automorphism_counts_match_known_orders():
    known = {
        "C4": 2, "C2xC2": 6, "C6": 2, "C8": 4,
        "C2xC4": 8, "C3xC3": 48, "Q8": 24, "C9": 6, "C12": 4,
    }
    for N in sweep_targets():
        assert len(automorphisms(N)) == known[N.name], N.name


def _all_cyclic_actions(J: Group, N: Group):
    for alpha in automorphisms(N):
        if J.order % perm_order(alpha) == 0:
            yield action_from_generator_images(J, N, [1], [alpha])


def test_sweep_decomposition_and_correspondence():
    actors = [cyclic(2), cyclic(3), cyclic(4), cyclic(6)]
    instances = 0
    checked_corr = 0
    for N in sweep_targets():
        for J in actors:
            for action in _all_cyclic_actions(J, N):
                rep = decomposition_map(action)
                assert rep.bijective, (J.name, N.name, rep.failure)
                if not shared_primes(action):
                    assert rep.h1_full.size == 1, (J.name, N.name)
                instances += 1
                if J.order * N.order <= 48:
                    P = semidirect(action)
                    comps = complements(P.group, P.n_part())
                    classes = subgroup_conjugacy_classes(
                        P.group, comps, under=P.n_part())
                    assert rep.h1_full.size == len(classes), (J.name, N.name)
                    checked_corr += 1
    assert instances > 150
    assert checked_corr > 60


def test_orbit_routes_match_scans_on_the_sweep():
    # Every action of a cyclic actor in the sweep: the complements of N and
    # the Sylow subgroups of the product, with N, J and 1 as coset spaces.
    instances = 0
    for N in sweep_targets():
        for J in (cyclic(2), cyclic(3), cyclic(4), cyclic(6)):
            for action in _all_cyclic_actions(J, N):
                P = semidirect(action)
                G, n_sub, j_sub = P.group, P.n_part(), P.j_part()
                subs = complements(G, n_sub) + [
                    sylow_subgroup(G, p) for p in prime_factors(G.order)]
                spaces = [n_sub, j_sub, trivial_subgroup(G)]
                assert orbit_route_mismatches(G, subs, spaces) == [], (J.name, N.name)
                instances += 1
    assert instances > 150


def test_h1_matches_the_twist_oracle_on_the_sweep(monkeypatch):
    # Every action of a cyclic actor in the sweep, on J and on each Sylow
    # subgroup of J; the decomposition reads the stored H1s and the ones
    # rebuilt from the oracle alike.
    instances = 0
    for N in sweep_targets():
        for J in (cyclic(2), cyclic(3), cyclic(4), cyclic(6)):
            for action in _all_cyclic_actions(J, N):
                rebuilt = {None if K is None else K.elements: h1_store_matches_twist(action, K)
                           for K in [None] + [sylow_subgroup(J, p) for p in prime_factors(J.order)]}
                stored = decomposition_fields(decomposition_map(action))
                assert decomposition_fields_of_rebuilt(monkeypatch, action, rebuilt) == stored, (
                    J.name, N.name)
                instances += 1
    assert instances > 150


def _catalog_and_sweep_actions():
    """Every catalog action, built fresh, and every action of a cyclic actor
    in the sweep."""
    actions = [inst.build() for inst in CATALOG]
    for N in sweep_targets():
        for J in (cyclic(2), cyclic(3), cyclic(4), cyclic(6)):
            actions += _all_cyclic_actions(J, N)
    return actions


def assert_z1_behaves_as_the_oracle_list(action, K):
    """`cocycles(action, K)` read by len, index, slice, iteration, `in` and
    `reversed` as the list that `cocycles_bruteforce` returns."""
    z, old = cocycles(action, K), cocycles_bruteforce(action, K)
    assert len(z) == len(old)
    assert (z[0], z[-1], z[1:3]) == (old[0], old[-1], old[1:3])
    with pytest.raises(IndexError):
        z[len(old)]
    assert list(z) == old
    assert list(reversed(z)) == old[::-1]
    foreign = Cocycle(trivial_action(action.actor, action.target), old[0].domain, old[0].values)
    assert [c in z for c in (old[0], old[-1], foreign, old[0].values)] == [True, True, False, False]
    assert all(c.action is action and c.domain is z.domain for c in z)
    assert z.domain is (K if K is not None else old[0].domain)


def test_z1_behaves_as_the_oracle_list_on_the_catalog_and_the_sweep():
    # On J and on each Sylow subgroup of J, the domains of the sweep's H1
    # checks; the drawn cyclic subgroups of two-generator actors follow.
    instances = 0
    for action in _catalog_and_sweep_actions():
        J = action.actor
        for K in [None] + [sylow_subgroup(J, p) for p in prime_factors(J.order)]:
            assert_z1_behaves_as_the_oracle_list(action, K)
        instances += 1
    assert instances > 180


def test_forward_images_match_their_class_by_class_definition():
    # The report zips `forward` from its per-block columns; class by class it
    # is the local class of each representative's restriction to each Sylow
    # subgroup.  On every catalog and sweep action and on C2 x C2 acting on C8.
    C2C2, C8 = abelian([2, 2]), cyclic(8)
    involutions = [f for f in automorphisms(C8) if perm_order(f) <= 2]
    actions = _catalog_and_sweep_actions() + [
        action_from_generator_images(C2C2, C8, [2, 1], [f, g])
        for f in involutions for g in involutions]
    for action in actions:
        rep = decomposition_map(action)
        forward = tuple(tuple(b.h1_local.class_of(restrict(phi, b.sylow)) for b in rep.blocks)
                        for phi in rep.h1_full.reps())
        assert rep.forward == forward, (action.actor.name, action.target.name)
        assert rep.to_json() == {
            "shared_primes": list(rep.shared_primes),
            "h1_size": rep.h1_full.size,
            "local_fixed_sizes": [len(b.fixed) for b in rep.blocks],
            "forward": [list(t) for t in forward],
            "bijective": rep.bijective,
            "failure": rep.failure,
        }
    assert len(actions) > 180


def test_prop2_tests_one_complement_for_nilpotency(monkeypatch):
    # Every complement of N is isomorphic to G/N, so prop2 tests one of them
    # and keeps all or none: its "nilpotent" count equals a count over every
    # complement, with at most one nilpotency test on a complement per
    # report.  On every catalog product, every sweep action and S3 x C2,
    # whose complements are all S3.
    real = theorems.is_nilpotent_subgroup
    tested = []

    def counted(H):
        tested.append(H)
        return real(H)

    monkeypatch.setattr(theorems, "is_nilpotent_subgroup", counted)
    cases = [(inst.id, semidirect(inst.action())) for inst in CATALOG]
    for N in sweep_targets():
        for J in (cyclic(2), cyclic(3), cyclic(4), cyclic(6)):
            cases += [((J.name, N.name), semidirect(a)) for a in _all_cyclic_actions(J, N)]
    products = [(iid, P.group, P.n_part()) for iid, P in cases]
    S3xC2 = direct_product(dihedral(3), cyclic(2))
    products.append(("s3xc2", S3xC2, Subgroup(S3xC2, [0, 1])))
    none_nilpotent = 0
    for iid, G, N in products:
        tested.clear()
        report = verify_prop2(G, N, str(iid))
        comps = complements(G, N)
        assert report.witness["complements"] == len(comps), iid
        nilpotent = sum(map(is_nilpotent_subgroup_by_table, comps))
        assert report.witness["nilpotent"] == nilpotent, iid
        assert len([H for H in tested if H != N]) <= 1, iid
        none_nilpotent += nilpotent == 0
    assert len(products) > 180
    assert none_nilpotent >= 1


def test_noncyclic_actor_sweep():
    # Both generators of C2 x C2 range over commuting involutions.
    J = abelian([2, 2])
    N = cyclic(8)
    auts = [a for a in automorphisms(N) if perm_order(a) <= 2]
    pairs = 0
    for a1 in auts:
        for a2 in auts:
            action = action_from_generator_images(J, N, [2, 1], [a1, a2])
            rep = decomposition_map(action)
            assert rep.bijective, rep.failure
            pairs += 1
    assert pairs == len(auts) ** 2  # every involution pair commutes here


# C_a x C_b, generated by (1, 0) = b and (0, 1) = 1 in abelian([a, b]).
TWO_GENERATOR_ACTORS = ((2, 2), (2, 4), (3, 3), (2, 6))


@cache
def _targets_with_automorphisms():
    return tuple((N, automorphisms(N)) for N in sweep_targets())


@st.composite
def two_generator_actions(draw):
    """C_a x C_b acting on a sweep target by two commuting automorphisms whose
    orders divide a and b, with a cyclic (so proper) subgroup of the actor."""
    a, b = draw(st.sampled_from(TWO_GENERATOR_ACTORS))
    N, auts = draw(st.sampled_from(_targets_with_automorphisms()))
    alpha = draw(st.sampled_from([f for f in auts if a % perm_order(f) == 0]))
    beta = draw(st.sampled_from([
        f for f in auts
        if b % perm_order(f) == 0 and compose(f, alpha) == compose(alpha, f)
    ]))
    J = abelian([a, b])
    action = action_from_generator_images(J, N, [b, 1], [alpha, beta])
    return action, subgroup_generated(J, [draw(st.integers(0, J.order - 1))])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(two_generator_actions())
def test_chain_enumeration_matches_oracle_on_two_generator_actors(drawn):
    action, K = drawn
    for domain in (None, K):
        fast = [c.values for c in cocycles(action, domain)]
        brute = [c.values for c in cocycles_bruteforce(action, domain)]
        assert fast == brute, (action.actor.name, action.target.name, domain)
        h1_store_matches_twist(action, domain)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(two_generator_actions())
def test_z1_behaves_as_the_oracle_list_on_two_generator_actors(drawn):
    action, K = drawn
    for domain in (None, K):
        assert_z1_behaves_as_the_oracle_list(action, domain)


@st.composite
def sweep_actions(draw):
    """C2, C3, C4 or C6 acting on a sweep target by one automorphism whose
    order divides the actor's, or a two-generator action."""
    if draw(st.booleans()):
        return draw(two_generator_actions())[0]
    m = draw(st.sampled_from((2, 3, 4, 6)))
    N, auts = draw(st.sampled_from(_targets_with_automorphisms()))
    alpha = draw(st.sampled_from([f for f in auts if m % perm_order(f) == 0]))
    return action_from_generator_images(cyclic(m), N, [1], [alpha])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sweep_actions())
def test_complements_match_subgroup_scan_on_sweep_actions(action):
    P = semidirect(action)
    G, N = P.group, P.n_part()
    same = ([K.elements for K in complements(G, N)]
            == [K.elements for K in complements_by_subgroup_scan(G, N)])
    assert same, (action.actor.name, action.target.name)


def test_semidirect_table_matches_formula_on_sweep_actions():
    # Every cyclic-actor action of the sweep, and C2 x C2 on C8 by every
    # pair of involutions, against the formula and the validated table.
    instances = 0
    for N, auts in _targets_with_automorphisms():
        for m in (2, 3, 4, 6):
            for alpha in auts:
                if m % perm_order(alpha) == 0:
                    action = action_from_generator_images(cyclic(m), N, [1], [alpha])
                    P = semidirect(action)
                    assert P.group.mul == semidirect_table_by_formula(action)
                    assert same_as_validated(P.group)
                    instances += 1
    J, C8 = abelian([2, 2]), cyclic(8)
    involutions = [a for a in automorphisms(C8) if perm_order(a) <= 2]
    for a1 in involutions:
        for a2 in involutions:
            action = action_from_generator_images(J, C8, [2, 1], [a1, a2])
            P = semidirect(action)
            assert P.group.mul == semidirect_table_by_formula(action)
            assert same_as_validated(P.group)
    assert instances > 150


def test_degenerate_actor_and_target():
    C1, C4 = cyclic(1), cyclic(4)
    a = trivial_action(C1, C4)
    assert h1(a).size == 1
    rep = decomposition_map(a)
    assert rep.shared_primes == () and rep.bijective
    b = trivial_action(C4, C1)
    assert h1(b).size == 1
    assert decomposition_map(b).bijective
    P = semidirect(b)
    assert P.group.order == 4
    assert len(complements(P.group, P.n_part())) == 1
