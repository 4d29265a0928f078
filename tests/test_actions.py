"""Actions by automorphisms, semidirect products, and G-sets."""

import pytest

from nilcoh.actions import (
    GSet,
    action_from_generator_images,
    conjugation_action_with_maps,
    coset_gset,
    fixed_points,
    is_transitive,
    semidirect,
    semidirect_embeddings,
    stabilizer,
    trivial_action,
)
from nilcoh.errors import (
    DoesNotGenerate,
    NotAHomomorphism,
    NotAutomorphism,
    NotNormalized,
    OrderCapExceeded,
)
from nilcoh.groups import Group, full_subgroup, subgroup_generated
from nilcoh.harness.catalog import inversion_action
from conftest import (
    CATALOG,
    abelian,
    cyclic,
    dihedral,
    quaternion8,
    same_as_validated,
    same_table,
    semidirect_table_by_formula,
    semidirect_table_by_loops,
    trivial_subgroup,
)


def test_inversion_action_on_c4():
    C2, C4 = cyclic(2), cyclic(4)
    a = action_from_generator_images(C2, C4, [1], [C4.inv])
    assert a.auto[1][1] == 3 and a.auto[0][1] == 1


def test_order_obstruction_rejected():
    C3, C4 = cyclic(3), cyclic(4)
    with pytest.raises(NotAHomomorphism):
        action_from_generator_images(C3, C4, [1], [C4.inv])


def test_swap_action_on_v4():
    C2, V4 = cyclic(2), abelian([2, 2])
    a = action_from_generator_images(C2, V4, [1], [[0, 2, 1, 3]])
    assert a.auto[1][1] == 2


def test_generator_must_act_by_its_given_image():
    # The spanning tree reaches each element once, so a repeated generator or
    # the identity listed as a generator never meets its image on the tree.
    C2, C4 = cyclic(2), cyclic(4)
    for gens, images in (([1, 1], [C4.inv, [0, 1, 2, 3]]),
                         ([0, 1], [C4.inv, C4.inv])):
        with pytest.raises(NotAHomomorphism, match="inconsistent with relations"):
            action_from_generator_images(C2, C4, gens, images)
    a = action_from_generator_images(C2, C4, [1, 1, 0], [C4.inv, C4.inv, [0, 1, 2, 3]])
    assert a.auto[1] == (0, 3, 2, 1)


def test_non_automorphism_rejected():
    C2, C4 = cyclic(2), cyclic(4)
    with pytest.raises(NotAutomorphism):
        action_from_generator_images(C2, C4, [1], [[0, 2, 1, 3]])


def test_non_generating_seeds_rejected():
    C4, C2 = cyclic(4), cyclic(2)
    with pytest.raises(DoesNotGenerate):
        action_from_generator_images(C4, C2, [2], [[0, 1]])


def test_conjugation_action_of_reflection_is_inversion():
    D4 = dihedral(4)
    rot = subgroup_generated(D4, [1])
    refl = subgroup_generated(D4, [4])
    a = conjugation_action_with_maps(D4, rot, refl)[0]
    assert a.auto[1] == (0, 3, 2, 1)  # the non-identity element inverts


def test_conjugation_action_on_center_is_trivial():
    D4 = dihedral(4)
    a = conjugation_action_with_maps(D4, subgroup_generated(D4, [2]), full_subgroup(D4))[0]
    assert all(p == tuple(range(a.target.order)) for p in a.auto)


def test_conjugation_action_requires_normalizing():
    D4 = dihedral(4)
    refl = subgroup_generated(D4, [4])
    rot = subgroup_generated(D4, [1])
    with pytest.raises(NotNormalized, match="^element 1 does not normalize the target$"):
        conjugation_action_with_maps(D4, refl, rot)
    # <2, 4> = {0, 2, 4, 6}: the rotation 2 is central, and the reflections
    # 4 and 6 move the reflection 5.
    with pytest.raises(NotNormalized, match="^element 4 does not normalize the target$"):
        conjugation_action_with_maps(D4, subgroup_generated(D4, [5]),
                                     subgroup_generated(D4, [2, 4]))


def test_semidirect_c4_by_inversion_is_d4():
    C2, C4 = cyclic(2), cyclic(4)
    a = action_from_generator_images(C2, C4, [1], [C4.inv])
    P = semidirect(a)
    G = P.group
    assert G.order == 8 and not G.is_abelian()
    assert sorted(G.element_order(x) for x in range(8)) == \
        sorted(dihedral(4).element_order(x) for x in range(8))
    assert sum(1 for x in range(8) if G.element_order(x) == 4) == 2


def test_semidirect_v4_by_swap_has_order_4_element():
    C2, V4 = cyclic(2), abelian([2, 2])
    a = action_from_generator_images(C2, V4, [1], [[0, 2, 1, 3]])
    G = semidirect(a).group
    assert not G.is_abelian()
    assert any(G.element_order(x) == 4 for x in range(8))


def test_semidirect_trivial_action_is_direct_product():
    a = trivial_action(cyclic(2), cyclic(3))
    P = semidirect(a)
    G = P.group
    for n in range(3):
        for j in range(2):
            en, ej = P.embed_N(n), P.embed_J(j)
            assert G.mul[en][ej] == G.mul[ej][en]


def test_semidirect_embeddings():
    C2, C4 = cyclic(2), cyclic(4)
    a = action_from_generator_images(C2, C4, [1], [C4.inv])
    P = semidirect(a)
    assert P.n_part().is_normal()
    n_set = set(P.n_part().elements)
    j_set = set(P.j_part().elements)
    assert n_set & j_set == {0}
    assert {P.group.mul[n][j] for n in n_set for j in j_set} == set(range(8))


def test_semidirect_conjugation_realizes_action():
    # The consistency anchor, checked here independently of the constructor.
    C2, C4 = cyclic(2), cyclic(4)
    a = action_from_generator_images(C2, C4, [1], [C4.inv])
    P = semidirect(a)
    G = P.group
    for j in range(2):
        ej = P.embed_J(j)
        for n in range(4):
            lhs = G.mul[G.mul[G.inv[ej]][P.embed_N(n)]][ej]
            assert lhs == P.embed_N(a.auto[a.actor.inv[j]][n])


def _swap_labels(G, a, b):
    """G with the labels of elements a and b exchanged."""
    sigma = list(range(G.order))
    sigma[a], sigma[b] = b, a
    return Group([[sigma[G.mul[sigma[x]][sigma[y]]] for y in range(G.order)]
                  for x in range(G.order)])


def test_semidirect_embeddings_accept_exactly_the_semidirect_table():
    # Oracle: table equality with a freshly built semidirect product.  The
    # candidates are the semidirect tables of other actions (the same N and J
    # with another action fail only the conjugation identity), other groups
    # of the same orders, and relabelled copies that keep the embedded N and J
    # (these fail only n * |J| + j = embed_N(n) embed_J(j)).
    actions = [inst.action() for inst in CATALOG]
    actions = [a for a in actions if a.actor.order * a.target.order <= 64]
    actions += [trivial_action(cyclic(2), cyclic(4)), trivial_action(cyclic(2), cyclic(6))]
    products = [semidirect(a) for a in actions]
    others = [cyclic(8), quaternion8(), dihedral(4), abelian([2, 4]), cyclic(12),
              dihedral(6), cyclic(4)]
    verdicts = set()
    for a, P in zip(actions, products):
        nj, nn = a.actor.order, a.target.order
        candidates = [Q.group for Q in products] + others
        if nj >= 2 and nn >= 3:
            candidates += [_swap_labels(P.group, nj + 1, 2 * nj + 1),
                           _swap_labels(P.group, nj, 2 * nj)]
        for G in candidates:
            got = semidirect_embeddings(a, G)
            expected = same_table(G, P.group)
            assert (got is not None) == expected, (a, G)
            if got is not None:
                assert got[0].images == P.embed_N.images
                assert got[1].images == P.embed_J.images
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_semidirect_order_cap():
    # |C_1025 x| C2| = 2050 is above the cap of 2048.
    with pytest.raises(OrderCapExceeded):
        semidirect(trivial_action(cyclic(2), cyclic(1025)))
    a = trivial_action(cyclic(4), cyclic(4))
    assert semidirect(a) is semidirect(a)


def test_semidirect_table_matches_entrywise_oracle():
    # Every catalog action, and C2 inverting C_n up to the order-512 product,
    # against the table entry by entry and from the product formula's row
    # segments (the sweep actions are compared in test_sweep.py).  The walk
    # of group_from_rows proves each table a group; the conftest validator,
    # checking the whole table, is its oracle for gens and inv, up to the
    # order-1024 product.
    actions = [inst.action() for inst in CATALOG]
    actions += [inversion_action(cyclic(n)) for n in (32, 64, 128, 256)]
    for a in actions:
        P = semidirect(a)
        assert P.group.mul == semidirect_table_by_loops(a) == semidirect_table_by_formula(a), a
        assert same_as_validated(P.group), a
    assert same_as_validated(semidirect(inversion_action(cyclic(512))).group)


def test_semidirect_is_built_once_per_action():
    a = trivial_action(cyclic(4), cyclic(4))
    P = semidirect(a)
    assert semidirect(a) is P
    assert semidirect(trivial_action(cyclic(4), cyclic(4))) is not P


def test_coset_gset_sizes_and_stabilizer():
    D4 = dihedral(4)
    refl = subgroup_generated(D4, [4])
    om = coset_gset(D4, refl)
    assert om.size == 4
    assert stabilizer(om, 0).elements == refl.elements
    assert coset_gset(D4, full_subgroup(D4)).size == 1
    reg = coset_gset(cyclic(4), trivial_subgroup(cyclic(4)))
    assert reg.size == 4
    assert stabilizer(reg, 0).is_trivial()


def test_transitivity_matches_product_criterion():
    D4 = dihedral(4)
    refl = subgroup_generated(D4, [4])
    rot = subgroup_generated(D4, [1])
    om = coset_gset(D4, refl)
    assert is_transitive(om, rot)
    product = {D4.mul[n][h] for n in rot.elements for h in refl.elements}
    assert product == set(range(8))
    assert not is_transitive(om, trivial_subgroup(D4))
    assert is_transitive(coset_gset(D4, full_subgroup(D4)), trivial_subgroup(D4))


def test_fixed_points():
    D4 = dihedral(4)
    refl = subgroup_generated(D4, [4])
    rot = subgroup_generated(D4, [1])
    om = coset_gset(D4, refl)
    assert 0 in fixed_points(om, refl)
    assert fixed_points(om, rot) == []
    assert fixed_points(om, trivial_subgroup(D4)) == list(range(4))


def test_orbit_stabilizer_product():
    D4 = dihedral(4)
    for seeds in ([4], [1], [2], [4, 2]):
        H = subgroup_generated(D4, seeds)
        om = coset_gset(D4, H)
        for w in range(om.size):
            orbit = om.orbit(w)
            assert len(orbit) * stabilizer(om, w).order == D4.order


def test_fixed_points_of_conjugate_subgroup():
    D4 = dihedral(4)
    om = coset_gset(D4, subgroup_generated(D4, [4]))
    S = subgroup_generated(D4, [4])
    for g in range(8):
        Sg = S.conjugate_by(g)
        lhs = sorted(fixed_points(om, Sg))
        # S^g fixes w iff S fixes g.w, so fixed(S^g) = g' . fixed(S).
        ginv = D4.inv[g]
        rhs = sorted(om.act[ginv][w] for w in fixed_points(om, S))
        assert lhs == rhs


def test_gset_validation():
    C2 = cyclic(2)
    with pytest.raises(ValueError):
        GSet(C2, [[0, 1], [1, 1]])  # not a permutation
    with pytest.raises(ValueError):
        GSet(C2, [[1, 0], [0, 1]])  # identity must act trivially
    ok = GSet(C2, [[0, 1], [1, 0]])
    assert ok.size == 2
    # Every element of C4 acts by a permutation, but 3 = 2 + 1 acts trivially
    # while 2 does and 1 does not; only the row of 3, a non-generator, is wrong.
    with pytest.raises(ValueError, match="not a homomorphism"):
        GSet(cyclic(4), [[0, 1], [1, 0], [0, 1], [0, 1]])


def test_action_homomorphism_validated_exhaustively():
    Q8 = quaternion8()
    perm = [0, 1, 4, 5, 6, 7, 2, 3]  # i -> j -> k -> i
    a = action_from_generator_images(cyclic(3), Q8, [1], [perm])
    for x in range(3):
        for y in range(3):
            composed = tuple(a.auto[x][a.auto[y][n]] for n in range(8))
            assert composed == a.auto[(x + y) % 3]
