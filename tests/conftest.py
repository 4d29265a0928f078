"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own enumeration paths:
subgroups are found by scanning subsets, homomorphisms by scanning all maps,
and table axioms by testing every triple or pair, where the library tests
only products with its generators.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from nilcoh.groups import Group, Subgroup
from nilcoh.harness.catalog import (
    CATALOG,
    abelian,
    catalog_by_id,
    cyclic,
    dihedral,
    direct_product,
    heisenberg,
    quaternion8,
)


def subgroups_by_subset_scan(G: Group, m: int) -> list[tuple[int, ...]]:
    """All order-m subgroups found by testing every m-subset containing 0."""
    out = []
    for rest in combinations([x for x in range(G.order) if x != 0], m - 1):
        cand = (0,) + rest
        members = set(cand)
        if any(G.inv[a] not in members for a in cand):
            continue
        if any(G.mul[a][b] not in members for a in cand for b in cand):
            continue
        out.append(cand)
    return sorted(out)


def homomorphisms_by_scan(K: Group, N: Group) -> list[tuple[int, ...]]:
    """All homomorphisms K -> N by testing every map with f(0) = 0."""
    out = []
    for rest in product(range(N.order), repeat=K.order - 1):
        f = (0,) + rest
        if homomorphic_by_scan(K, f, lambda x, y: N.mul[x][y]):
            out.append(f)
    return sorted(out)


def homomorphic_by_scan(G: Group, image, product) -> bool:
    """Whether image[a*b] == product(image[a], image[b]) for every pair."""
    return all(
        image[G.mul[a][b]] == product(image[a], image[b])
        for a in range(G.order)
        for b in range(G.order)
    )


def compose_by_scan(p, q) -> tuple[int, ...]:
    """p after q, as a tuple."""
    return tuple(p[q[i]] for i in range(len(q)))


def associative_by_scan(table) -> bool:
    """Whether (a*b)*c == a*(b*c) for every triple."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def group_axiom_broken_by_scan(table) -> str | None:
    """The first group axiom a square table breaks, in the order Group tests
    them: "identity" at index 0, then "associativity", then "inverse"; None
    for a group table."""
    n = len(table)
    if any(table[0][x] != x or table[x][0] != x for x in range(n)):
        return "identity"
    if not associative_by_scan(table):
        return "associativity"
    if not all(any(table[a][b] == 0 == table[b][a] for b in range(n)) for a in range(n)):
        return "inverse"
    return None


def conjugator_by_scan(G: Group, H: Subgroup, K: Subgroup) -> int | None:
    target = set(K.elements)
    for g in range(G.order):
        if {G.conj(h, g) for h in H.elements} == target:
            return g
    return None


@pytest.fixture(scope="session")
def catalog():
    return catalog_by_id()


@pytest.fixture(scope="session")
def d4():
    return dihedral(4)


@pytest.fixture(scope="session")
def s3():
    return dihedral(3)


@pytest.fixture(scope="session")
def q8():
    return quaternion8()


__all__ = [
    "CATALOG",
    "abelian",
    "cyclic",
    "dihedral",
    "direct_product",
    "heisenberg",
    "quaternion8",
    "subgroups_by_subset_scan",
    "homomorphisms_by_scan",
    "homomorphic_by_scan",
    "compose_by_scan",
    "associative_by_scan",
    "group_axiom_broken_by_scan",
    "conjugator_by_scan",
]
