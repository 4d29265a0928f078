"""Structural predicates and decompositions: nilpotency, Sylow and Hall
subgroups, subgroup enumeration, complements, and local conjugacy."""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence

from .errors import BudgetExceeded, NotASubgroup, NotNilpotent, SearchBudgetExceeded
from .groups import (
    Group,
    Subgroup,
    are_conjugate_subgroups,
    compose,
    conjugacy_orbit,
    conjugates,
    generating_sequence,
    normalizer,
    subgroup_generated,
)

DEFAULT_ENUM_BUDGET = 200_000


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def is_nilpotent(G: Group) -> bool:
    return _sylow_subgroups_normal(G, range(G.order))


def is_nilpotent_subgroup(H: Subgroup) -> bool:
    """Whether H is nilpotent, counted in the parent's table."""
    return _sylow_subgroups_normal(H.parent, H.elements)


def _sylow_subgroups_normal(G: Group, domain: Sequence[int]) -> bool:
    """Whether the subgroup of G on `domain` is nilpotent.

    A finite group is nilpotent exactly when each of its Sylow subgroups is
    normal (Robinson, *A Course in the Theory of Groups*, 5.2.4), that is,
    unique.  Every p-element lies in some Sylow p-subgroup, so a Sylow
    p-subgroup is unique exactly when the p-elements number |H|_p, and then
    they are that subgroup.  A group of prime-power order is nilpotent.
    """
    n = len(domain)
    primes = prime_factors(n)
    return len(primes) < 2 or all(
        len(_p_elements(G, p, domain)) == p_part(n, p) for p in primes)


def _p_elements(G: Group, p: int, domain: Sequence[int]) -> list[int]:
    """The elements of `domain` of p-power order, those equal to their p-part."""
    return [x for x, x_p in zip(domain, p_parts(G, p, domain)) if x_p == x]


def sylow_subgroup(G: Group, p: int, within: Subgroup | None = None) -> Subgroup:
    """A Sylow p-subgroup of G (or of `within`), as a subgroup of G.

    A p-group `within` is its own Sylow p-subgroup and is returned itself.
    For a nilpotent ambient this is the unique set of p-power-order elements,
    the x equal to their p-part (`p_parts`).
    Otherwise a p-subgroup is grown by normalizer climbing: while |P| is short
    of the full p-part, some g in the normalizer of P has g^p in P, and
    adjoining it enlarges P.  Any valid Sylow subgroup is accepted.
    """
    if p < 2 or prime_factors(p) != [p]:
        raise ValueError(f"{p} is not prime")
    if within is not None:
        if within.parent is not G:
            raise NotASubgroup("`within` must be a subgroup of G")
        if p_part(within.order, p) == within.order:
            return within
    domain = within.elements if within is not None else range(G.order)
    domain_set = set(domain)
    total = len(domain_set)
    target = p_part(total, p)
    torsion = _p_elements(G, p, domain)
    if len(torsion) == target:
        # Unique Sylow subgroup (nilpotent case): the p-torsion is closed.
        return Subgroup(G, torsion)
    seed = min(torsion[1:], key=lambda x: (G.element_order(x), x))
    P = subgroup_generated(G, [seed])
    while P.order < target:
        norm = [g for g in normalizer(G, P).elements if g in domain_set]
        grew = False
        for g in norm:
            if g in P:
                continue
            if G.power(g, p) in P:
                P = subgroup_generated(G, P.elements + (g,))
                grew = True
                break
        if not grew:
            raise SearchBudgetExceeded(
                f"sylow search stalled at order {P.order} of {target}"
            )
    return P


def minimal_generators(K: Subgroup) -> tuple[int, ...]:
    """A generating sequence of the least length d(K) for a nilpotent K,
    computed once and kept on K.  A K whose `gens` has fewer than two
    elements is cyclic, and a K that is not nilpotent keeps its `gens`.

    A set generates a p-group P exactly when its image spans P/Φ(P), for
    Φ(P) = P'P^p the Frattini subgroup (Burnside's basis theorem; Robinson,
    *A Course in the Theory of Groups*, 5.3.2), so d(P) = dim P/Φ(P).  Φ(P)
    is the normal closure in P of the x^p and [x, y] over x, y in P.gens: it
    lies in P'P^p, and P modulo it is generated by commuting elements of
    order p, so it holds P'P^p.  The basis of P is each x in P.gens that
    <Φ(P), basis so far> does not hold, the greedy sequence of P.gens after
    Φ(P).  A nilpotent K is the direct product of its Sylow subgroups K_p,
    so d(K) = max_p d(K_p), and its i-th generator is the product over p of
    the i-th basis element of K_p, the identity where that basis is shorter:
    the p-part of the product is a power of it, so the products generate
    every K_p and K.
    """
    if len(K.gens) < 2:
        return K.gens
    if K._minimal_gens is None:
        K._minimal_gens = _basis_product(K) if is_nilpotent_subgroup(K) else K.gens
    return K._minimal_gens


def _basis_product(K: Subgroup) -> tuple[int, ...]:
    """`minimal_generators` of a nilpotent K with at least two generators."""
    G = K.parent
    mul, inv = G.mul, G.inv
    bases = []
    for p in prime_factors(K.order):
        gens = sylow_subgroup(G, p, within=K).gens
        seeds = [G.power(x, p) for x in gens]
        seeds += [mul[mul[inv[x]][inv[y]]][mul[x][y]] for i, x in enumerate(gens)
                  for y in gens[i + 1:]]
        frattini, reached = generating_sequence(G, seeds)
        # The normal closure: conjugates of Φ's generators by P's, until none
        # is new.
        while new := [y for g in gens for y in conjugates(G, frattini, g) if y not in reached]:
            frattini, reached = generating_sequence(G, frattini + tuple(new))
        bases.append(generating_sequence(G, frattini + gens)[0][len(frattini):])
    out = []
    for column in zip_longest(*bases, fillvalue=0):
        x = 0
        for b in column:
            x = mul[x][b]
        out.append(x)
    return tuple(out)


def hall_pprime(G: Group, p: int, within: Subgroup | None = None) -> Subgroup:
    """The Hall p'-subgroup of a nilpotent G (or of a nilpotent `within`):
    all of its elements of order prime to p, those whose p-part is the
    identity, as a subgroup of G.  Without `within`, G is tested for
    nilpotency first; a caller that passes `within` has established it."""
    if within is None and not is_nilpotent(G):
        raise NotNilpotent("Hall p'-subgroups are only computed for nilpotent groups")
    domain = within.elements if within is not None else range(G.order)
    return Subgroup(G, (x for x, x_p in zip(domain, p_parts(G, p, domain)) if x_p == 0))


def p_parts(G: Group, p: int, elements: Sequence[int]) -> tuple[int, ...]:
    """The p-part of each of the elements, in their order.

    Each x factors uniquely as x = x_p x_p' into commuting powers of x, x_p
    of p-power order and x_p' of order prime to p.  With |x| = m = q r and q
    the largest power of p dividing m, x_p = x^e for e = r (r^-1 mod q),
    since e = 1 mod q and e = 0 mod r.  The same e gives the p-part of every
    power of x, so one walk of the powers of x settles all of <x>.
    """
    mul = G.mul
    part: dict[int, int] = {}
    for x in elements:
        if x in part:
            continue
        powers = [0]
        y = x
        while y:
            powers.append(y)
            y = mul[y][x]
        m = len(powers)
        q = p_part(m, p)
        e = m // q * pow(m // q, -1, q)
        for k, y in enumerate(powers):
            part[y] = powers[k * e % m]
    return compose(part, elements)


def enumerate_subgroups_of_order(G: Group, m: int, max_gens: int) -> list[Subgroup]:
    """All subgroups of order m generated by at most max_gens elements.

    Complete whenever every group of order m is max_gens-generated; 3 covers
    all orders up to 8, and p-groups of order p^k need at most k generators.
    Candidates are grown by adjoining generators in ascending index order,
    pruning closures whose order does not divide m; each closure is a walk
    that stops past m elements, and only the subgroups found are built.
    """
    if m <= 0 or G.order % m != 0:
        raise ValueError(f"order {m} does not divide |G| = {G.order}")
    if m == 1:
        return [Subgroup(G, (0,))]
    if m == G.order:
        return [Subgroup(G, range(G.order))]
    found: set[tuple[int, ...]] = set()
    # Layers of (element set, largest generator index used so far).
    layer: dict[tuple[int, ...], int] = {(0,): -1}
    work = 0
    for _ in range(max_gens):
        nxt: dict[tuple[int, ...], int] = {}
        for elts, last in sorted(layer.items()):
            members = set(elts)
            for g in range(last + 1, G.order):
                if g in members:
                    continue
                if m % G.element_order(g) != 0:
                    continue
                work += 1
                if work > DEFAULT_ENUM_BUDGET:
                    raise BudgetExceeded(
                        f"subgroup enumeration exceeded budget {DEFAULT_ENUM_BUDGET}"
                    )
                walk = generating_sequence(G, elts + (g,), limit=m)
                if walk is None or m % len(walk[1]) != 0:
                    continue
                key = tuple(sorted(walk[1]))
                if len(key) == m:
                    found.add(key)
                elif key not in nxt or nxt[key] > g:
                    nxt[key] = g
        layer = nxt
        if not layer:
            break
    return [Subgroup(G, elts) for elts in sorted(found)]


def complements(G: Group, N: Subgroup, budget: int = DEFAULT_ENUM_BUDGET,
                within: Subgroup | None = None) -> list[Subgroup]:
    """All complements K of a normal subgroup N: K meets N trivially, KN = G.
    With `within` = S, the complements of N meet S in S, enumerated in G's
    table: read S for G and N meet S for N below.  N meet S must be normal
    in S.  N and S must be subgroups of G (NotASubgroup otherwise).

    Enumerated by lifting generators of G/N (Celler, Neubüser & Wright, Acta
    Appl. Math. 21, 1990; Holt, Eick & O'Brien, *Handbook of Computational
    Group Theory*, 2005, §7.6).  Let t_1..t_d be the part outside N of the
    greedy generating sequence of G that lists the elements of N first, so
    that the cosets t_iN generate G/N.  A complement K meets each coset t_iN
    in exactly one element k_i = t_i n_i, and <k_1..k_d> maps onto G/N, so it
    has order at least |G/N| = |K| and equals K.  Conversely, if
    <t_1 n_1, ..., t_d n_d> has order |G/N|, it maps onto G/N with trivial
    kernel and is a complement.  So complements correspond one-to-one with
    the tuples (n_1..n_d) in N^d whose lifts generate a group of order
    |G/N|, and the list is complete without a generator bound and needs no
    deduplication.

    The tuples are extended one coordinate at a time.  A prefix whose lifts
    generate more than |<N, t_1..t_i>| / |N| elements meets N, so no
    extension of it is a complement, and it is dropped.  The enumerator uses
    neither an action nor a cocycle, so it also serves non-split and
    non-semidirect extensions.

    `budget` counts the closures tried, one per surviving prefix and element
    of N.  The prefixes of length i-1 that survive are the complements of N
    in <N, t_1..t_{i-1}>, so the count is |N| times their number, summed
    over i = 1..d, which is at most |N| + |N|^2 + ... + |N|^d.
    BudgetExceeded is raised before the first level that would take the
    count past the budget.  Only the last level builds subgroups: each
    complement is `Subgroup.generated_by` its lifts, from the one walk that
    finds it.  The result is sorted by element tuple.

    Without `within`, the result is kept on N with the count it charged,
    and a later call reads it.  The kept result answers to the caller's
    budget as well: the count is over that budget exactly when the
    enumeration would have stopped, and then BudgetExceeded is raised.
    """
    if N.parent is not G or (within is not None and within.parent is not G):
        raise NotASubgroup("N and `within` must be subgroups of G")
    if within is None and N._complements is not None:
        work, kept, _ = N._complements
        if work > budget:
            raise BudgetExceeded(f"subgroup enumeration exceeded budget {budget}")
        return list(kept)
    if within is None:
        top, movers = G.elements(), G.gens
    else:
        top, movers = within.elements, within.gens
        N = Subgroup(G, (x for x in top if x in N))
    if not all(N._set.issuperset(conjugates(G, N.gens, g)) for g in movers):
        raise ValueError("complements are computed against a normal subgroup")
    n_first = N.elements + tuple(g for g in top if g not in N)
    sequence = generating_sequence(G, n_first)[0]
    n_rank = sum(1 for g in sequence if g in N)
    prefixes: list[tuple[int, ...]] = [()]
    # N = G is complemented by the trivial subgroup, and no level runs.
    comps = [Subgroup.generated_by(G, ())] if n_rank == len(sequence) else []
    work = 0
    for i in range(n_rank, len(sequence)):
        # Every try of a level runs, so the budget is settled before it starts.
        work += len(prefixes) * N.order
        if work > budget:
            raise BudgetExceeded(f"subgroup enumeration exceeded budget {budget}")
        t = sequence[i]
        target = len(generating_sequence(G, sequence[:i + 1])[1]) // N.order
        # The lifts map onto <t_1..t_i>N/N, so they generate at least
        # `target` elements, and a walk within the bound reaches exactly it.
        lifts = (lifted + (G.mul[t][n],) for lifted in prefixes for n in N.elements)
        if i < len(sequence) - 1:
            prefixes = [gens for gens in lifts
                        if generating_sequence(G, gens, limit=target) is not None]
        else:
            walked = (Subgroup.generated_by(G, gens, limit=target) for gens in lifts)
            comps = sorted((K for K in walked if K is not None), key=lambda K: K.elements)
    if within is None:
        N._complements = (work, tuple(comps), None)
    return comps


def complement_classes(G: Group, N: Subgroup) -> tuple[tuple[int, ...], ...]:
    """The N-conjugacy classes of the complements that `complements(G, N)`
    keeps on N, as index tuples into its list in first-seen order
    (`subgroup_conjugacy_classes` under N), computed once and kept with
    them.  When N keeps none, they are enumerated first, under the default
    budget.

    These are also their G-conjugacy classes: G = NK for a complement K, so
    g = kn with k in K and n in N, and K^g = K^n.
    """
    if N.parent is not G:
        raise NotASubgroup("N must be a subgroup of G")
    if N._complements is None:
        complements(G, N)
    work, comps, classes = N._complements
    if classes is None:
        classes = tuple(map(tuple, subgroup_conjugacy_classes(G, comps, under=N)))
        N._complements = (work, comps, classes)
    return classes


def subgroup_conjugacy_classes(
    G: Group, subs: Sequence[Subgroup], under: Subgroup | None = None
) -> list[list[int]]:
    """Partition a list of subgroups into conjugacy classes under `under`
    (default: all of G).

    The class of each subgroup not yet placed is its orbit under conjugation
    by the generators of `under` (`groups.conjugacy_orbit`), so a class costs
    |orbit| x |gens| conjugations, not one per element of `under`.  Classes
    are index lists in first-seen order, each sorted, and repeated copies of
    a subgroup share its class.
    """
    gens = under.gens if under is not None else G.gens
    positions: dict[tuple[int, ...], list[int]] = {}
    for i, S in enumerate(subs):
        positions.setdefault(S.elements, []).append(i)
    seen = [False] * len(subs)
    classes: list[list[int]] = []
    for i, S in enumerate(subs):
        if seen[i]:
            continue
        members = sorted(j for key in conjugacy_orbit(G, S.elements, gens)
                         for j in positions.get(key, ()))
        for j in members:
            seen[j] = True
        classes.append(members)
    return classes


def locally_conjugate(G: Group, H: Subgroup, K: Subgroup) -> bool:
    """Whether, for every prime p, Sylow p-subgroups of H and K are conjugate in G.

    Since all Sylow p-subgroups of H are conjugate within H, one
    representative per side decides the whole condition.
    """
    if H.order != K.order:
        return False
    for p in prime_factors(H.order):
        sh = sylow_subgroup(G, p, within=H)
        sk = sylow_subgroup(G, p, within=K)
        if are_conjugate_subgroups(G, sh, sk) is None:
            return False
    return True
