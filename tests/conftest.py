"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own enumeration paths:
subgroups are found by scanning subsets, homomorphisms by scanning all maps,
and table axioms by testing every triple or pair, where the library tests
only products with its generators.  Complements are found among all
subgroups of order |G/N|, by the subgroup enumerator that is itself checked
against the subset scan.  Cocycles are twisted, compared and conjugated as
whole value tables, which anchors the conventions of `nilcoh.cohomology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product

import pytest

from nilcoh import theorems
from nilcoh.actions import ActionOnGroup, GSet, coset_gset
from nilcoh.cohomology import (
    Cocycle,
    CohomologySet,
    cocycles_bruteforce,
    restrict,
)
from nilcoh.errors import BudgetExceeded, DomainMismatch, OrderCapExceeded
from nilcoh.groups import (
    Group,
    GroupHom,
    Subgroup,
    conjugates,
    full_subgroup,
    generating_sequence,
    quotient,
    subgroup_generated,
)
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
    enumerate_subgroups_of_order,
    is_nilpotent,
    is_nilpotent_subgroup,
    locally_conjugate,
    lower_central_series,
    prime_factors,
    subgroup_conjugacy_classes,
    sylow_subgroup,
)
from nilcoh.theorems import VerificationReport


def abelian_table_by_decoding(factors: list[int]) -> list[list[int]]:
    """The table of the direct product of cyclic groups, entry by entry: each
    index is decoded into mixed-radix digits (the first factor most
    significant), added digit by digit modulo its factor and encoded again."""
    size = 1
    for f in factors:
        size *= f

    def decode(x: int) -> list[int]:
        out = []
        for f in reversed(factors):
            x, r = divmod(x, f)
            out.append(r)
        return out[::-1]

    def encode(parts: list[int]) -> int:
        x = 0
        for f, v in zip(factors, parts):
            x = x * f + v
        return x

    return [
        [encode([(u + v) % f for f, u, v in zip(factors, decode(a), decode(b))])
         for b in range(size)]
        for a in range(size)
    ]


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


def complements_by_subgroup_scan(G: Group, N: Subgroup) -> list[Subgroup]:
    """All complements of a normal N, as subgroups of order |G/N| that meet N
    trivially: enumerate_subgroups_of_order under the generator bound of
    G/N, the part outside N of the greedy generating sequence of G that
    lists N first.  Every complement is isomorphic to G/N, so the bound
    leaves none out."""
    n_first = N.elements + tuple(g for g in range(G.order) if g not in N)
    rank_bound = sum(1 for g in generating_sequence(G, n_first)[0] if g not in N)
    return [K for K in enumerate_subgroups_of_order(G, G.order // N.order, rank_bound)
            if sum(1 for x in K.elements if x in N) == 1]


def lower_central_series_by_scan(G: Group) -> list[Subgroup]:
    """The lower central series with g_{i+1} generated by [x, g] over every
    x in g_i and every g in G, until it stabilizes or reaches 1."""
    series = [Subgroup(G, range(G.order))]
    while True:
        cur = series[-1]
        comms = {G.commutator(x, g) for x in cur.elements for g in range(G.order)}
        nxt = subgroup_generated(G, comms)
        if nxt.elements == cur.elements:
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def is_nilpotent_subgroup_by_table(H: Subgroup) -> bool:
    """Whether H is nilpotent, by re-indexing it as a standalone group and
    computing that group's lower central series."""
    return is_nilpotent(H.as_group()[0])


def subgroup_conjugacy_classes_by_scan(G: Group, subs: list[Subgroup],
                                       under: Subgroup | None = None) -> list[list[int]]:
    """subgroup_conjugacy_classes by conjugating each unplaced subgroup by
    every element of `under` (default: all of G)."""
    movers = under.elements if under is not None else range(G.order)
    positions: dict[tuple[int, ...], list[int]] = {}
    for i, S in enumerate(subs):
        positions.setdefault(S.elements, []).append(i)
    seen = [False] * len(subs)
    classes: list[list[int]] = []
    for i, S in enumerate(subs):
        if seen[i]:
            continue
        members = set()
        for u in movers:
            for j in positions.get(tuple(sorted(conjugates(G, S.elements, u))), ()):
                members.add(j)
                seen[j] = True
        classes.append(sorted(members))
    return classes


def sylow_conjugates_by_scan(G: Group, p: int) -> list[tuple[int, ...]]:
    """The distinct conjugates of sylow_subgroup(G, p) over every element of
    G, as sorted element tuples in ascending order."""
    base = sylow_subgroup(G, p)
    return sorted({tuple(sorted(conjugates(G, base.elements, g))) for g in range(G.order)})


def gset_orbit_by_scan(gset: GSet, point: int, S: Subgroup | None = None) -> set[int]:
    """The orbit of a point, moved by every element of S (default: the whole
    group) until nothing new is reached."""
    movers = S.elements if S is not None else range(gset.group.order)
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for w in frontier:
            for g in movers:
                v = gset.act[g][w]
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def orbit_route_mismatches(G: Group, subs: list[Subgroup],
                           spaces: list[Subgroup]) -> list[str]:
    """Each place where a generator-orbit route differs from its scan oracle
    on G, named: the conjugacy classes of subs under G and under each of
    spaces; the Sylow conjugates at each prime of |G|; on the coset space of
    each of spaces, the orbits of its first, middle and last point under G
    and under each of spaces; and, for each of subs, nilpotency and the
    lower central series in G's table against that of its standalone table,
    mapped back to G."""
    out = []
    movers = [None] + spaces
    for i, under in enumerate(movers):
        if (subgroup_conjugacy_classes(G, subs, under)
                != subgroup_conjugacy_classes_by_scan(G, subs, under)):
            out.append(f"classes under movers[{i}]")
    for p in prime_factors(G.order):
        if ([S.elements for S in theorems._all_sylow_conjugates(G, p)]
                != sylow_conjugates_by_scan(G, p)):
            out.append(f"sylow conjugates at {p}")
    for k, H in enumerate(spaces):
        gset = coset_gset(G, H)
        for i, S in enumerate(movers):
            for w in sorted({0, gset.size // 2, gset.size - 1}):
                if gset.orbit(w, S) != gset_orbit_by_scan(gset, w, S):
                    out.append(f"orbit of {w} on G/spaces[{k}] under movers[{i}]")
    for k, H in enumerate(subs):
        if is_nilpotent_subgroup(H) != is_nilpotent_subgroup_by_table(H):
            out.append(f"nilpotency of subs[{k}]")
        HG, to_parent = H.as_group()
        mapped = [tuple(to_parent[x] for x in K.elements) for K in lower_central_series(HG)]
        if [K.elements for K in lower_central_series(G, within=H)] != mapped:
            out.append(f"lower central series of subs[{k}]")
    return out


def check_cocycle(action: ActionOnGroup, domain: Subgroup, values: tuple[int, ...]) -> bool:
    """Test the cocycle identity over all pairs of the domain."""
    J, N = action.actor, action.target
    pos = domain.position
    mul = N.mul
    for a in domain.elements:
        va = values[pos(a)]
        aa = action.auto[a]
        row = J.mul[a]
        for b in domain.elements:
            if values[pos(row[b])] != mul[va][aa[values[pos(b)]]]:
                return False
    return True


def complement_to_cocycle(P, K: Subgroup) -> Cocycle:
    """The cocycle phi_K with F(phi_K) = K, for a complement K of N in
    P = N x| J: the element of K over j is (phi(j), j).  Raises ValueError
    for a subgroup that is not a complement."""
    action = P.action
    nj = action.actor.order
    by_j = dict(divmod(k, nj)[::-1] for k in K.elements)
    if K.parent is not P.group or len(by_j) != nj or K.order != nj:
        raise ValueError("subgroup does not complement N")
    domain = full_subgroup(action.actor)
    values = tuple(by_j[j] for j in range(nj))
    if not check_cocycle(action, domain, values):
        raise ValueError("complement did not induce a cocycle")
    return Cocycle(action, domain, values)


def center(G: Group) -> Subgroup:
    """Elements commuting with every generator, hence with everything."""
    mul = G.mul
    return Subgroup(
        G, (z for z in range(G.order) if all(mul[z][g] == mul[g][z] for g in G.gens))
    )


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, (0,))


def same_table(G: Group, H: Group) -> bool:
    return G.order == H.order and G.mul == H.mul


def same_as_validated(G: Group) -> bool:
    """Whether `Group`, validating G's table in full, gives the same table,
    `gens` and `inv`: the oracle for groups that `group_from_rows` builds."""
    V = Group(G.mul)
    return (G.order, G.mul, G.gens, G.inv) == (V.order, V.mul, V.gens, V.inv)


def is_surjective(f: GroupHom) -> bool:
    return len(set(f.images)) == f.target.order


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


def semidirect_table_by_formula(action: ActionOnGroup) -> tuple[tuple[int, ...], ...]:
    """The table of N x| J from shared row segments: row (n1, j1) is the
    segments [m * |J| + x for x in J.mul[j1]] laid end to end, m running
    over n1 act(j1, n2) for n2 in order, and the |N| segments of each j1
    are built once."""
    N, J = action.target, action.actor
    nj = J.order
    segments = [[[m * nj + x for x in jrow] for m in range(N.order)] for jrow in J.mul]
    return tuple(
        tuple(chain.from_iterable(segs[n1_row[n2]] for n2 in a1))
        for n1_row in N.mul
        for segs, a1 in zip(segments, action.auto)
    )


def subgroup_defect_by_scan(G: Group, elements) -> str | None:
    """The first defect of a subset containing 0, in the words and order of
    `Subgroup`: each element a in ascending order, its inverse, then a*b for
    each b in ascending order; None for a subgroup."""
    elts = sorted(set(elements))
    members = set(elts)
    for a in elts:
        if G.inv[a] not in members:
            return f"subgroup not closed under inverse at {a}"
        for b in elts:
            if G.mul[a][b] not in members:
                return f"subgroup not closed under product at ({a}, {b})"
    return None


def closure_by_products(G: Group, elements) -> set[int]:
    """<elements> as a set: the identity and the elements, with every product
    of two members adjoined until none falls outside, which in a finite
    group is the subgroup they generate."""
    closure = {0, *elements}
    while True:
        grown = closure | {G.mul[a][b] for a in closure for b in closure}
        if grown == closure:
            return closure
        closure = grown


def as_group_table_by_scan(H: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The table of H on positions 0..|H|-1, entry by entry."""
    pos = {x: i for i, x in enumerate(H.elements)}
    mul = H.parent.mul
    return tuple(tuple(pos[mul[a][b]] for b in H.elements) for a in H.elements)


def coset_labels_by_scan(G: Group, H: Subgroup) -> tuple[list[int], list[int]]:
    """The least element of each left coset gH, ascending, and for every
    element the position of its coset, by sorting the set gH of each g."""
    cosets = sorted({tuple(sorted(G.mul[g][h] for h in H.elements)) for g in range(G.order)})
    label = [0] * G.order
    for i, coset in enumerate(cosets):
        for x in coset:
            label[x] = i
    return [c[0] for c in cosets], label


def quotient_table_by_scan(G: Group, N: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The table of G/N on the cosets of coset_labels_by_scan."""
    reps, label = coset_labels_by_scan(G, N)
    return tuple(tuple(label[G.mul[a][b]] for b in reps) for a in reps)


def coset_action_by_scan(G: Group, H: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Left multiplication on the cosets of coset_labels_by_scan: row g
    sends coset i to the coset of g * reps[i]."""
    reps, label = coset_labels_by_scan(G, H)
    return tuple(tuple(label[G.mul[g][r]] for r in reps) for g in range(G.order))


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


def conjugates_into_by_scan(G: Group, S: Subgroup, H: Subgroup, g: int) -> bool:
    """Whether x^g lies in H for every element x of S."""
    return all(G.conj(x, g) in H for x in S.elements)


def centralizer_by_scan(G: Group, H: Subgroup) -> tuple[int, ...]:
    """The elements of G that commute with every element of H."""
    mul = G.mul
    return tuple(g for g in range(G.order) if all(mul[g][h] == mul[h][g] for h in H.elements))


def normalizer_by_scan(G: Group, H: Subgroup) -> tuple[int, ...]:
    """The elements g of G with h^g in H for every element h of H."""
    return tuple(g for g in range(G.order) if conjugates_into_by_scan(G, H, H, g))


def normality_witness_by_scan(G: Group, N: Subgroup, movers) -> tuple[int, int] | None:
    """The first (g, h), g in movers in their order and h in N ascending,
    with h^g outside N; None when every mover normalizes N."""
    return next(((g, h) for g in movers for h in N.elements if G.conj(h, g) not in N), None)


def fixed_points_by_scan(gset: GSet, S: Subgroup) -> list[int]:
    """The points that every element of S fixes."""
    return [w for w in range(gset.size) if all(gset.act[s][w] == w for s in S.elements)]


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


def twist(phi: Cocycle, n: int) -> Cocycle:
    """The cohomologous cocycle j -> n' * phi(j) * act(j, n)."""
    N = phi.action.target
    values = tuple(
        N.mul[N.mul[N.inv[n]][v]][phi.action.auto[j][n]]
        for j, v in zip(phi.domain.elements, phi.values)
    )
    return Cocycle(phi.action, phi.domain, values)


def cohomologous(phi: Cocycle, psi: Cocycle) -> int | None:
    """Least witness n with psi = twist(phi, n), or None."""
    if phi.action is not psi.action or phi.domain.elements != psi.domain.elements:
        raise DomainMismatch("cocycles belong to different actions or domains")
    return next((n for n in range(phi.action.target.order)
                 if twist(phi, n).values == psi.values), None)


def conjugate_cocycle(phi: Cocycle, j: int) -> Cocycle:
    """phi^j on K^j = j' K j, defined by phi^j(x) = act(j', phi(j x j'))."""
    J = phi.action.actor
    domain = Subgroup(J, (J.conj(k, j) for k in phi.domain.elements))
    back = phi.action.auto[J.inv[j]]
    values = tuple(back[phi.value_at(J.conj(x, J.inv[j]))] for x in domain.elements)
    return Cocycle(phi.action, domain, values)


def invariant_classes_by_twist(H: CohomologySet, S: Subgroup) -> tuple[int, ...]:
    """The classes whose representative phi, for every s in S, restricts to a
    cocycle cohomologous to phi^s on K meet K^s, built as a subgroup."""
    J, K = H.action.actor, H.domain
    out = []
    for i, phi in enumerate(H.reps()):
        for s in S.elements:
            conj = conjugate_cocycle(phi, s)
            meet = Subgroup(J, (x for x in K.elements if x in conj.domain))
            if cohomologous(restrict(phi, meet), restrict(conj, meet)) is None:
                break
        else:
            out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class PrimaryPart:
    """The action of J on one primary component N_q of a nilpotent target."""

    action: ActionOnGroup          # J acting on N_q as a standalone group
    to_parent: tuple[int, ...]     # N_q index -> N index
    proj: tuple[int, ...]          # N index -> N_q index (primary projection)


def primary_projection_by_scan(G: Group, p: int) -> tuple[int, ...]:
    """The p-part of every element of a nilpotent G: for each g, the first
    x of p-power order with x' g of order prime to p.  In a nilpotent group
    these are the unique Sylow and Hall subgroups, and g = g_p g_p' is the
    only such factorization."""
    part = [x for x in range(G.order) if is_p_power(G.element_order(x), p)]
    copart = {x for x in range(G.order) if G.element_order(x) % p != 0}
    return tuple(next(x for x in part if G.mul[G.inv[x]][g] in copart)
                 for g in range(G.order))


def primary_part(action: ActionOnGroup, q: int) -> PrimaryPart:
    """The induced action of J on N_q, with both element maps."""
    N = action.target
    proj_parent = primary_projection_by_scan(N, q)
    sub, to_parent = Subgroup(N, proj_parent).as_group()
    from_parent = {x: i for i, x in enumerate(to_parent)}
    auto = [[from_parent[action.auto[j][x]] for x in to_parent]
            for j in range(action.actor.order)]
    induced = ActionOnGroup(action.actor, sub, auto, name=f"{action.name}@{q}")
    return PrimaryPart(induced, to_parent,
                       tuple(from_parent[proj_parent[n]] for n in range(N.order)))


def intersection_lemma_by_scan(G: Group, H: Subgroup, N: Subgroup, p: int) -> bool:
    """Set equality H*N_p meet H*N_p' = H, for nilpotent normal N."""
    left = {G.mul[h][x] for h in H.elements
            for x in sylow_subgroup(G, p, within=N).elements}
    right = {G.mul[h][x] for h in H.elements for x in N.elements
             if G.element_order(x) % p != 0}
    return left & right == set(H.elements)


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
    comps = None
    try:
        comps = complements(G, N)
        report.hypotheses["splits_over_n"] = bool(comps)
    except BudgetExceeded as exc:
        report.hypotheses["complements_enumerable"] = False
        report.details["complements_enumerable"] = str(exc)
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
    if comps is not None and (report.hypotheses_met or relaxed):
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


def complements_within_by_table(G: Group, N: Subgroup, S: Subgroup) -> list[Subgroup]:
    """The complements of N meet S in S: S re-indexed as a group of its
    own, its complements enumerated there and lifted back to G."""
    SG, smap = S.as_group()
    local = complements(SG, Subgroup(SG, [i for i, x in enumerate(smap) if x in N]))
    return [Subgroup(G, (smap[i] for i in K.elements)) for K in local]


def _local_complements_conjugate_by_scan(G: Group, S: Subgroup, N: Subgroup) -> bool:
    lifted = complements_within_by_table(G, N, S)
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
    "abelian_table_by_decoding",
    "subgroups_by_subset_scan",
    "complements_by_subgroup_scan",
    "lower_central_series_by_scan",
    "is_nilpotent_subgroup_by_table",
    "subgroup_conjugacy_classes_by_scan",
    "sylow_conjugates_by_scan",
    "gset_orbit_by_scan",
    "orbit_route_mismatches",
    "complement_to_cocycle",
    "trivial_subgroup",
    "same_table",
    "is_surjective",
    "homomorphisms_by_scan",
    "homomorphic_by_scan",
    "compose_by_scan",
    "semidirect_table_by_loops",
    "semidirect_table_by_formula",
    "subgroup_defect_by_scan",
    "as_group_table_by_scan",
    "coset_labels_by_scan",
    "quotient_table_by_scan",
    "coset_action_by_scan",
    "permutation_table_by_pairs",
    "abelian_h1_table_by_scan",
    "associative_by_scan",
    "group_axiom_broken_by_scan",
    "conjugator_by_scan",
    "conjugates_into_by_scan",
    "centralizer_by_scan",
    "normalizer_by_scan",
    "normality_witness_by_scan",
    "fixed_points_by_scan",
    "h1_classes_by_twist",
    "twist",
    "cohomologous",
    "conjugate_cocycle",
    "invariant_classes_by_twist",
    "primary_projection_by_scan",
    "primary_part",
    "intersection_lemma_by_scan",
    "prop2_pairwise_by_scan",
    "prop3_pairwise_by_scan",
    "complements_within_by_table",
]
