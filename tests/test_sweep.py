"""Exhaustive sweep over all actions of small cyclic actors on small
nilpotent targets, built from an independent automorphism enumeration.

Every instance goes through the decomposition check; the smaller ones also
go through the complement correspondence and the coprime-triviality check.
This is the wide net behind the curated catalog.
"""

from itertools import product

import pytest

from nilcoh.actions import action_from_generator_images, semidirect, trivial_action
from nilcoh.cohomology import decomposition_map, h1, shared_primes
from nilcoh.groups import Group, cayley_tree
from nilcoh.structure import complements, subgroup_conjugacy_classes
from conftest import abelian, cyclic, quaternion8


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
