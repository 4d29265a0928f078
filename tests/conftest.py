"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own enumeration paths:
subgroups are found by scanning subsets, homomorphisms by scanning all maps,
and table axioms by testing every triple or pair, where the library tests
only products with its generators.
"""

from __future__ import annotations

from itertools import combinations, product

import pytest

from nilcoh.actions import ActionOnGroup
from nilcoh.cohomology import CohomologySet, cocycles_bruteforce
from nilcoh.errors import BudgetExceeded, OrderCapExceeded
from nilcoh.groups import Group, Subgroup, quotient
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
from nilcoh.structure import (
    complements,
    is_nilpotent,
    is_nilpotent_subgroup,
    locally_conjugate,
    prime_factors,
    sylow_subgroup,
)
from nilcoh.theorems import VerificationReport


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


def semidirect_table_by_loops(action: ActionOnGroup) -> tuple[tuple[int, ...], ...]:
    """The table of N x| J, entry by entry: (n1, j1)(n2, j2) is
    (n1 act(j1, n2), j1 j2), with (n, j) at index n * |J| + j."""
    N, J = action.target, action.actor
    nj = J.order
    size = N.order * nj
    table = [[0] * size for _ in range(size)]
    for n1 in range(N.order):
        for j1 in range(nj):
            row = table[n1 * nj + j1]
            for n2 in range(N.order):
                m = N.mul[n1][action.auto[j1][n2]]
                for j2 in range(nj):
                    row[n2 * nj + j2] = m * nj + J.mul[j1][j2]
    return tuple(tuple(row) for row in table)


def permutation_table_by_pairs(generators, degree: int,
                               order_cap: int) -> tuple[tuple[int, ...], ...]:
    """The table of the closure of the generators under composition, elements
    in sorted order, found by composing every pair of elements; raises
    OrderCapExceeded when the closure has more than order_cap elements."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = compose_by_scan(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    if len(seen) > order_cap:
        raise OrderCapExceeded(f"closure of order {len(seen)} exceeds cap {order_cap}")
    elts = sorted(seen)
    index = {p: i for i, p in enumerate(elts)}
    return tuple(tuple(index[compose_by_scan(p, q)] for q in elts) for p in elts)


def abelian_h1_table_by_scan(H: CohomologySet) -> tuple[tuple[int, ...], ...]:
    """The full class-product table of H1 for an abelian coefficient group:
    entry (i, k) is the class of the pointwise product of every member of
    class i with every member of class k, which must be one class."""
    mul = H.action.target.mul
    table = []
    for ci in H.classes:
        row = []
        for ck in H.classes:
            hits = {H.class_of(tuple(mul[a][b] for a, b in zip(x.values, y.values)))
                    for x in ci for y in ck}
            assert len(hits) == 1, "class product is not well defined"
            row.append(hits.pop())
        table.append(tuple(row))
    return tuple(table)


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


def h1_classes_by_twist(action: ActionOnGroup,
                        K: Subgroup | None = None) -> list[list[tuple[int, ...]]]:
    """H1(K, N) as value tables, by twisting whole tables: the cocycles come
    from cocycles_bruteforce, each class is the set of twists
    j -> n' * phi(j) * act(j, n), over every n in N, of the least cocycle not
    yet in a class, and classes are listed by their least member."""
    N = action.target
    domain = K.elements if K is not None else range(action.actor.order)
    zs = [c.values for c in cocycles_bruteforce(action, K)]
    index = {values: i for i, values in enumerate(zs)}
    assigned = [False] * len(zs)
    classes = []
    for i, values in enumerate(zs):
        if assigned[i]:
            continue
        members = {
            index[tuple(N.mul[N.mul[N.inv[n]][v]][action.auto[j][n]]
                        for j, v in zip(domain, values))]
            for n in range(N.order)
        }
        for k in members:
            assigned[k] = True
        classes.append([zs[k] for k in sorted(members)])
    return classes


def prop2_pairwise_by_scan(G: Group, N: Subgroup, instance: str = "",
                           relaxed: bool = False,
                           local=locally_conjugate) -> VerificationReport:
    """verify_prop2 as a scan over all pairs of nilpotent complements, each
    judged by `local` and by conjugator_by_scan; the witness is the first
    pair, in (a, b) order, on which the two disagree."""
    report = VerificationReport("prop2", instance, relaxed=relaxed)
    report.hypotheses["n_normal"] = N.is_normal()
    report.hypotheses["n_nilpotent"] = is_nilpotent_subgroup(N)
    comps: list[Subgroup] = []
    try:
        comps = complements(G, N)
        report.hypotheses["complements_enumerable"] = True
    except BudgetExceeded as exc:
        report.hypotheses["complements_enumerable"] = False
        report.details["complements_enumerable"] = str(exc)
    if report.hypotheses_met or (relaxed and report.hypotheses["complements_enumerable"]):
        nilp = [K for K in comps if is_nilpotent_subgroup(K)]
        mismatch = None
        for a, b in combinations(range(len(nilp)), 2):
            lc = local(G, nilp[a], nilp[b])
            cj = conjugator_by_scan(G, nilp[a], nilp[b]) is not None
            if lc != cj:
                mismatch = {
                    "pair": [list(nilp[a].elements), list(nilp[b].elements)],
                    "locally_conjugate": lc,
                    "conjugate": cj,
                }
                break
        report.conclusion_verified = mismatch is None
        report.witness = mismatch if mismatch else {"complements": len(comps),
                                                    "nilpotent": len(nilp)}
    return report


def prop3_pairwise_by_scan(G: Group, N: Subgroup, instance: str = "",
                           relaxed: bool = False) -> VerificationReport:
    """verify_prop3 with every conjugacy question a conjugator_by_scan over
    pairs: the Sylow p-subgroups are the distinct conjugates S^g over all g in
    G, in sorted order, and the witness is the first non-conjugate pair of
    complements in (a, b) order."""
    report = VerificationReport("prop3", instance, relaxed=relaxed)
    report.hypotheses["n_nilpotent"] = is_nilpotent_subgroup(N)
    try:
        comps = complements(G, N)
    except BudgetExceeded as exc:
        comps = []
        report.hypotheses["complements_enumerable"] = False
        report.details["complements_enumerable"] = str(exc)
    report.hypotheses["splits_over_n"] = bool(comps)
    if comps:
        report.hypotheses["quotient_nilpotent"] = is_nilpotent(quotient(G, N)[0])
    certified: dict[int, list[int]] = {}
    for p in prime_factors(G.order):
        base = sylow_subgroup(G, p)
        sylows = sorted({base.conjugate_by(g).elements for g in range(G.order)})
        good = next((S for S in sylows if _local_complements_conjugate_by_scan(
            G, Subgroup(G, S), N)), None)
        name = f"local_conjugacy_p{p}"
        report.hypotheses[name] = good is not None
        if good is not None:
            certified[p] = list(good)
            report.details[name] = f"certified Sylow subgroup {list(good)}"
        else:
            report.details[name] = (
                f"no Sylow {p}-subgroup has all local complements conjugate in G")
    if report.hypotheses_met or relaxed:
        bad = next(
            ([list(comps[a].elements), list(comps[b].elements)]
             for a, b in combinations(range(len(comps)), 2)
             if conjugator_by_scan(G, comps[a], comps[b]) is None),
            None,
        )
        report.conclusion_verified = bad is None
        report.witness = bad if bad else {"complement_count": len(comps),
                                          "certified": certified}
    return report


def _local_complements_conjugate_by_scan(G: Group, S: Subgroup, N: Subgroup) -> bool:
    SG, smap = S.as_group()
    SN = Subgroup(SG, [i for i, x in enumerate(smap) if x in N])
    try:
        local = complements(SG, SN)
    except BudgetExceeded:
        return False
    lifted = [Subgroup(G, (smap[i] for i in K.elements)) for K in local]
    return all(conjugator_by_scan(G, A, B) is not None
               for A, B in combinations(lifted, 2))


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
    "semidirect_table_by_loops",
    "permutation_table_by_pairs",
    "abelian_h1_table_by_scan",
    "associative_by_scan",
    "group_axiom_broken_by_scan",
    "conjugator_by_scan",
    "h1_classes_by_twist",
    "prop2_pairwise_by_scan",
    "prop3_pairwise_by_scan",
]
