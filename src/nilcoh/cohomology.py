"""Crossed homomorphisms and the pointed set H1(K, N).

Conventions (the unique ones consistent with the machine-checked anchors:
F(phi) is a subgroup, N-conjugacy of F(phi) matches the equivalence, and
phi^j is equivalent to phi with witness phi(j')):

    cocycle identity   phi(j j') = phi(j) * act(j, phi(j'))
    coboundary         phi'(j)   = n' * phi(j) * act(j, n)
    conjugate cocycle  phi^j(x)  = act(j', phi(j x j'))   on K^j = j' K j

Enumeration extends cocycles one generator at a time along the chain of
subgroups that a generating sequence spans (Celler, Neubueser and Wright,
Acta Appl. Math. 21, 1990), with a brute-force oracle alongside.  H1 is
partitioned on the values at the generators alone.  Class representatives
are the lexicographically least value tables, and all reported sets are
ordered by representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .actions import ActionOnGroup, SemidirectProduct
from .errors import (
    BudgetExceeded,
    DomainMismatch,
    NoPreimageFound,
    NotAbelian,
    NotAComplement,
    NotASubgroup,
    NotNilpotent,
)
from .groups import Subgroup, cayley_tree, full_subgroup
from .structure import (
    hall_pprime,
    is_nilpotent,
    is_p_power,
    prime_factors,
    primary_projection,
    sylow_subgroup,
)


GENERATOR_ENUM_BUDGET = 10_000_000
BRUTEFORCE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Cocycle:
    """A crossed homomorphism on a subgroup K of the actor, valued in N."""

    action: ActionOnGroup
    domain: Subgroup
    values: tuple[int, ...]

    def value_at(self, j: int) -> int:
        return self.values[self.domain.position(j)]

    def is_distinguished(self) -> bool:
        return all(v == 0 for v in self.values)

    def __repr__(self) -> str:
        return f"<cocycle on K of order {self.domain.order}: {self.values}>"

    def to_json(self) -> dict:
        return {"domain": list(self.domain.elements), "values": list(self.values)}


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


def _check_budget(n_order: int, ngens: int, budget: int) -> None:
    if n_order ** ngens > budget:
        raise BudgetExceeded(f"|N|^#gens = {n_order}^{ngens} exceeds budget {budget}")


def cocycles(action: ActionOnGroup, K: Subgroup | None = None,
             budget: int = GENERATOR_ENUM_BUDGET) -> list[Cocycle]:
    """The complete set Z1(K, N), ordered by value table.

    With g_1..g_d the generating sequence of K, the cocycles are built along
    the chain K_i = <g_1..g_i>.  Each cocycle on K_i, extended by each value
    v in N at g_{i+1}, is propagated along the Cayley tree of K_{i+1}; it
    survives iff the cocycle identity holds against every generator of
    K_{i+1}, which forces it on all pairs.  A survivor is a cocycle on
    K_{i+1}, and every cocycle there restricts to one on K_i, so the last
    step yields all of Z1(K, N).  Step i tries |Z1(K_i, N)| * |N| candidates,
    at most |N|^(i+1), so the |N|^d that the budget bounds also bounds the
    candidates of all steps, within a factor of two when |N| > 1.
    """
    J, N = action.actor, action.target
    if K is None:
        K = full_subgroup(J)
    if K.parent is not J:
        raise NotASubgroup("domain must be a subgroup of the acting group")
    gens = K.gens
    _check_budget(N.order, len(gens), budget)
    nmul, auto = N.mul, action.auto
    # The survivors on K_i, as value tables over K_i's elements in ascending
    # order; the last step leaves them on K.
    elts, survivors = [0], [(0,)]
    for i in range(len(gens)):
        sub = gens[:i + 1]
        edges = cayley_tree(J, sub)
        prev = {x: k for k, x in enumerate(elts)}
        known = [prev[g] for g in gens[:i]]
        elts = sorted([0] + [y for _, _, y in edges])
        at = {x: k for k, x in enumerate(elts)}
        tree = [(at[x], auto[x], slot, at[y]) for x, slot, y in edges]
        spanned = {(kx, slot) for kx, _, slot, _ in tree}
        checks = [
            (kx, auto[x], slot, at[J.mul[x][g]])
            for kx, x in enumerate(elts)
            for slot, g in enumerate(sub)
            if (kx, slot) not in spanned
        ]
        size = len(elts)
        grown: list[tuple[int, ...]] = []
        for t in survivors:
            prefix = tuple(t[k] for k in known)
            for v in range(N.order):
                a = prefix + (v,)
                values = [0] * size
                for kx, ax, slot, ky in tree:
                    values[ky] = nmul[values[kx]][ax[a[slot]]]
                for kx, ax, slot, ky in checks:
                    if values[ky] != nmul[values[kx]][ax[a[slot]]]:
                        break
                else:
                    grown.append(tuple(values))
        survivors = grown
    survivors.sort()
    return [Cocycle(action, K, t) for t in survivors]


def cocycles_bruteforce(action: ActionOnGroup, K: Subgroup | None = None,
                        budget: int = BRUTEFORCE_BUDGET) -> list[Cocycle]:
    """Independent oracle: test every map K -> N against the cocycle identity.

    Maps are enumerated depth-first in element order; a branch is abandoned
    as soon as some already-assigned pair violates the identity (any
    completion would fail the same pair).  The budget caps explored
    assignments.
    """
    J, N = action.actor, action.target
    if K is None:
        K = full_subgroup(J)
    if K.parent is not J:
        raise NotASubgroup("domain must be a subgroup of the acting group")
    elts = K.elements
    pos = K.position
    size = len(elts)
    nmul = N.mul
    # Pairs (a, b) whose product lands within the first k assigned elements,
    # indexed by the largest element position involved.
    pair_checks: list[list[tuple[int, int, int]]] = [[] for _ in range(size)]
    for ia, a in enumerate(elts):
        for ib, b in enumerate(elts):
            ic = pos(J.mul[a][b])
            pair_checks[max(ia, ib, ic)].append((ia, ib, ic))
    out: list[Cocycle] = []
    values = [0] * size
    explored = 0

    def consistent_at(k: int) -> bool:
        for ia, ib, ic in pair_checks[k]:
            a = elts[ia]
            if values[ic] != nmul[values[ia]][action.auto[a][values[ib]]]:
                return False
        return True

    def descend(k: int) -> None:
        nonlocal explored
        if k == size:
            out.append(Cocycle(action, K, tuple(values)))
            return
        for v in range(N.order):
            explored += 1
            if explored > budget:
                raise BudgetExceeded(f"brute-force oracle exceeded budget {budget}")
            values[k] = v
            if consistent_at(k):
                descend(k + 1)
        values[k] = 0

    # Position 0 is the identity of K; phi(1) = 1 is itself a pair check:
    # start the search at position 0 like any other value.
    descend(0)
    out.sort(key=lambda c: c.values)
    return out


def twist(phi: Cocycle, n: int) -> Cocycle:
    """The cohomologous cocycle j -> n' * phi(j) * act(j, n)."""
    N = phi.action.target
    ninv = N.inv[n]
    values = tuple(
        N.mul[N.mul[ninv][v]][phi.action.auto[j][n]]
        for j, v in zip(phi.domain.elements, phi.values)
    )
    return Cocycle(phi.action, phi.domain, values)


def cohomologous(phi: Cocycle, psi: Cocycle) -> int | None:
    """Least witness n with psi = twist(phi, n), or None."""
    if phi.action is not psi.action:
        raise DomainMismatch("cocycles belong to different actions")
    if phi.domain.elements != psi.domain.elements:
        raise DomainMismatch("cocycles have different domains")
    N = phi.action.target
    for n in range(N.order):
        if twist(phi, n).values == psi.values:
            return n
    return None


class CohomologySet:
    """H1(K, N): all cocycles partitioned into classes, with the class of the
    all-identity cocycle distinguished."""

    def __init__(self, action: ActionOnGroup, domain: Subgroup,
                 classes: list[list[Cocycle]]):
        self.action = action
        self.domain = domain
        self.classes = tuple(tuple(c) for c in classes)
        self._index: dict[tuple[int, ...], int] = {}
        for i, cls in enumerate(self.classes):
            for c in cls:
                self._index[c.values] = i
        zero = tuple([0] * domain.order)
        self.distinguished = self._index[zero]

    @property
    def size(self) -> int:
        return len(self.classes)

    def rep(self, i: int) -> Cocycle:
        return self.classes[i][0]

    def reps(self) -> list[Cocycle]:
        return [cls[0] for cls in self.classes]

    def class_of(self, values: tuple[int, ...] | Cocycle) -> int:
        if isinstance(values, Cocycle):
            values = values.values
        return self._index[values]

    def cocycle_count(self) -> int:
        return sum(len(cls) for cls in self.classes)

    def __repr__(self) -> str:
        return (
            f"<H1: {self.size} classes from {self.cocycle_count()} cocycles "
            f"on K of order {self.domain.order}>"
        )

    def to_json(self) -> dict:
        return {
            "classes": [cls[0].to_json() for cls in self.classes],
            "distinguished": self.distinguished,
        }


def h1(action: ActionOnGroup, K: Subgroup | None = None,
       budget: int = GENERATOR_ENUM_BUDGET) -> CohomologySet:
    """Partition Z1(K, N) by the coboundary relation.

    Classes are the orbits of Z1 under twisting by elements of N; they come
    out ordered by their least member, so the distinguished class is first.

    A cocycle is fixed by its values on the generating sequence of K, so the
    orbits are found on those coordinates alone.  Twisting is a right action
    of N, and n in C = Z(N) meet the K-fixed points of N twists every
    cocycle to itself: n' * phi(j) * act(j, n) = n' * phi(j) * n = phi(j).
    So twisting by a transversal of N/C reaches each whole orbit.
    """
    J, N = action.actor, action.target
    if K is None:
        K = full_subgroup(J)
    key = K.elements
    cached = action._h1_cache.get(key)
    if cached is not None:
        # A cached result answers to the caller's budget as well, so the
        # outcome does not depend on what ran before.
        ngens, result = cached
        _check_budget(N.order, ngens, budget)
        return result
    zs = cocycles(action, K, budget=budget)
    gens = K.gens
    at = [K.position(g) for g in gens]
    # Each cocycle is keyed by its values at the generators, read as the
    # digits of one base-|N| number.
    index: dict[int, int] = {}
    for i, c in enumerate(zs):
        code = 0
        for k in at:
            code = code * N.order + c.values[k]
        index[code] = i
    nmul = N.mul
    acts = [action.auto[g] for g in gens]
    fixed_central = [
        c for c in range(N.order)
        if all(au[c] == c for au in acts) and all(nmul[c][m] == nmul[m][c] for m in N.gens)
    ]
    twists: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    covered: set[int] = set()
    for n in range(N.order):
        if n not in covered:
            covered.update(nmul[c][n] for c in fixed_central)
            twists.append((nmul[N.inv[n]], tuple(au[n] for au in acts)))
    assigned = [False] * len(zs)
    classes: list[list[Cocycle]] = []
    for i, c in enumerate(zs):
        if assigned[i]:
            continue
        orbit = set()
        for left, rights in twists:
            code = 0
            for k, right in zip(at, rights):
                code = code * N.order + nmul[left[c.values[k]]][right]
            orbit.add(index[code])
        members = sorted(orbit)
        for j in members:
            assigned[j] = True
        classes.append([zs[j] for j in members])
    result = CohomologySet(action, K, classes)
    action._h1_cache[key] = (len(gens), result)
    return result


# -- complement correspondence ---------------------------------------------------


def complement_to_cocycle(P: SemidirectProduct, K: Subgroup) -> Cocycle:
    """The cocycle phi_K with F(phi_K) = K, for a complement K of N in N x| J.

    Each j in J factors uniquely as j = n' k with n in N and k in K; the
    cocycle records phi(j) = n, i.e. the element of K over j is (n, j).
    """
    action = P.action
    J, N = action.actor, action.target
    if K.parent is not P.group:
        raise NotAComplement("complement must live in the semidirect product")
    nj = J.order
    by_j: dict[int, int] = {}
    for k in K.elements:
        n, j = divmod(k, nj)
        if j in by_j:
            raise NotAComplement(f"two elements of K project to the same J part {j}")
        by_j[j] = n
    if len(by_j) != nj or K.order != nj:
        raise NotAComplement("subgroup does not complement N")
    domain = full_subgroup(J)
    values = tuple(by_j[j] for j in range(nj))
    phi = Cocycle(action, domain, values)
    if not check_cocycle(action, domain, values):
        raise NotAComplement("complement did not induce a cocycle; corrupt input")
    return phi


def cocycle_to_complement(P: SemidirectProduct, phi: Cocycle) -> Subgroup:
    """F(phi) = { phi(j) j : j in J }, a complement of N in the semidirect product."""
    action = P.action
    if phi.action is not action:
        raise DomainMismatch("cocycle belongs to a different action")
    J = action.actor
    if phi.domain.order != J.order:
        raise NotASubgroup("complement correspondence needs a cocycle on all of J")
    nj = J.order
    return Subgroup(P.group, (phi.value_at(j) * nj + j for j in range(nj)))


# -- restriction, conjugation, invariance ----------------------------------------


def restrict(phi: Cocycle, K2: Subgroup) -> Cocycle:
    """Restriction of a cocycle to a subgroup of its domain."""
    if any(x not in phi.domain for x in K2.elements):
        raise NotASubgroup("restriction target is not contained in the domain")
    values = tuple(phi.value_at(x) for x in K2.elements)
    return Cocycle(phi.action, K2, values)


@dataclass(frozen=True)
class ClassMap:
    """A map of cohomology classes, as a table over source class indices."""

    source: CohomologySet
    target: CohomologySet
    table: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.table[i]

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(range(self.target.size))

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def res_h1(H: CohomologySet, K2: Subgroup,
           budget: int = GENERATOR_ENUM_BUDGET) -> ClassMap:
    """The map induced on classes by restricting cocycles to K2."""
    target = h1(H.action, K2, budget=budget)
    table = tuple(target.class_of(restrict(rep, K2)) for rep in H.reps())
    return ClassMap(H, target, table)


def conjugate_cocycle(phi: Cocycle, j: int) -> Cocycle:
    """phi^j on K^j = j' K j, defined by phi^j(x) = act(j', phi(j x j')).

    For phi defined on all of J, phi^j is cohomologous to phi with witness
    phi(j').
    """
    J = phi.action.actor
    K = phi.domain
    domain = Subgroup(J, (J.conj(k, j) for k in K.elements))
    jinv = J.inv[j]
    back = phi.action.auto[jinv]
    values = tuple(back[phi.value_at(J.conj(x, jinv))] for x in domain.elements)
    return Cocycle(phi.action, domain, values)


def fixed_classes(H: CohomologySet, S: Subgroup) -> tuple[int, ...]:
    """Classes of H fixed under conjugation by every element of S.

    Requires S to normalize the domain, so conjugates stay in the same
    cohomology set (the Sylow case in a nilpotent actor).
    """
    K = H.domain
    G = K.parent
    # phi^s is phi with values act(s', phi(s x s')) at x, on K^s = K.
    moves = []
    for s in S.elements:
        if any(G.conj(k, s) not in K for k in K.elements):
            raise DomainMismatch(f"element {s} does not normalize the domain")
        sinv = G.inv[s]
        moves.append((H.action.auto[sinv],
                      [K.position(G.conj(x, sinv)) for x in K.elements]))
    out = []
    for i in range(H.size):
        values = H.rep(i).values
        if all(H.class_of(tuple(back[values[k]] for k in src)) == i for back, src in moves):
            out.append(i)
    return tuple(out)


def invariant_classes(H: CohomologySet, over: Subgroup | None = None,
                      budget: int = GENERATOR_ENUM_BUDGET) -> tuple[int, ...]:
    """J-invariant classes: res to K meet K^j of phi and phi^j agree for all j.

    This is the general notion for arbitrary subgroups; when the domain is a
    normal Sylow subgroup of a nilpotent actor it coincides with
    fixed_classes over the complementary Hall subgroup.
    """
    J = H.action.actor
    S = over if over is not None else full_subgroup(J)
    K = H.domain
    out = []
    for i in range(H.size):
        rep = H.rep(i)
        invariant = True
        for j in S.elements:
            conj = conjugate_cocycle(rep, j)
            inter = Subgroup(J, (x for x in K.elements if x in conj.domain))
            a = restrict(rep, inter)
            b = restrict(conj, inter)
            if cohomologous(a, b) is None:
                invariant = False
                break
        if invariant:
            out.append(i)
    return tuple(out)


# -- primary decomposition --------------------------------------------------------


@dataclass(frozen=True)
class PrimaryPart:
    """The action of J on one primary component N_q of a nilpotent target."""

    prime: int
    parent_action: ActionOnGroup
    action: ActionOnGroup          # J acting on N_q as a standalone group
    to_parent: tuple[int, ...]     # N_q index -> N index
    proj: tuple[int, ...]          # N index -> N_q index (primary projection)


def primary_part(action: ActionOnGroup, q: int) -> PrimaryPart:
    """Build the induced action of J on N_q together with both element maps."""
    N = action.target
    if not is_nilpotent(N):
        raise NotNilpotent("primary components require a nilpotent target")
    part, _, proj_parent = primary_projection(N, q)
    sub, to_parent = part.as_group()
    from_parent = {x: i for i, x in enumerate(to_parent)}
    auto = [
        [from_parent[action.auto[j][x]] for x in to_parent]
        for j in range(action.actor.order)
    ]
    induced = ActionOnGroup(action.actor, sub, auto,
                            name=f"{action.name or 'action'}@{q}")
    proj = tuple(from_parent[proj_parent[n]] for n in range(N.order))
    return PrimaryPart(q, action, induced, to_parent, proj)


def project_to_primary(action: ActionOnGroup, q: int,
                       budget: int = GENERATOR_ENUM_BUDGET
                       ) -> tuple[ActionOnGroup, ClassMap]:
    """The induced action on N_q and the class map H1(J, N) -> H1(J, N_q)."""
    part = primary_part(action, q)
    src = h1(action, budget=budget)
    tgt = h1(part.action, budget=budget)
    table = tuple(
        tgt.class_of(tuple(part.proj[v] for v in rep.values)) for rep in src.reps()
    )
    return part.action, ClassMap(src, tgt, table)


def include_coefficients(part: PrimaryPart, domain: Subgroup | None = None,
                         budget: int = GENERATOR_ENUM_BUDGET) -> ClassMap:
    """H1(K, N_q) -> H1(K, N): value tables reinterpreted in the big group."""
    if domain is None:
        domain = full_subgroup(part.action.actor)
    src = h1(part.action, domain, budget=budget)
    tgt = h1(part.parent_action, domain, budget=budget)
    table = tuple(
        tgt.class_of(tuple(part.to_parent[v] for v in rep.values))
        for rep in src.reps()
    )
    return ClassMap(src, tgt, table)


def shared_primes(action: ActionOnGroup) -> tuple[int, ...]:
    """Primes dividing both |J| and |N|."""
    norder = action.target.order
    return tuple(p for p in prime_factors(action.actor.order) if norder % p == 0)


def extend_from_sylow(action: ActionOnGroup, q: int, class_index: int,
                      budget: int = GENERATOR_ENUM_BUDGET) -> int:
    """Extend a J'_q-fixed class of H1(J_q, N) to a class of H1(J, N) by the
    direct recipe ext(j' j) = phi(j), tried on every representative phi of
    the class, for j' in the Hall subgroup J'_q and j in J_q.

    The recipe cannot fail.  H1(J_q, N) = H1(J_q, N_q), since the other
    primary parts of N are coprime to J_q.  J'_q acts coprimely on the
    N_q-orbit that a fixed class forms, so by Glauberman's lemma (Glauberman,
    Math. Z. 84, 1964) some representative has values that J'_q fixes
    pointwise, and on it the recipe gives a cocycle.  So NoPreimageFound
    falsifies the decomposition on this instance.
    """
    J = action.actor
    if not is_nilpotent(J) or not is_nilpotent(action.target):
        raise NotNilpotent("extension requires nilpotent actor and target")
    Jq = sylow_subgroup(J, q)
    Hq = h1(action, Jq, budget=budget)
    if class_index not in fixed_classes(Hq, hall_pprime(J, q)):
        raise ValueError(f"class {class_index} is not fixed by the Hall subgroup")
    _, _, proj = primary_projection(J, q)
    full = full_subgroup(J)
    for phi in Hq.classes[class_index]:
        values = tuple(phi.value_at(proj[j]) for j in range(J.order))
        if check_cocycle(action, full, values):
            return h1(action, budget=budget).class_of(values)
    raise NoPreimageFound(
        f"no representative of fixed class {class_index} at q={q} extends to J"
    )


@dataclass(frozen=True)
class PrimeBlock:
    """Per-prime data for the Sylow-wise decomposition."""

    prime: int
    sylow: Subgroup
    hall: Subgroup
    h1_local: CohomologySet
    fixed: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of comparing H1(J, N) with the product of fixed local classes."""

    shared_primes: tuple[int, ...]
    blocks: tuple[PrimeBlock, ...]
    h1_full: CohomologySet
    forward: tuple[tuple[int, ...], ...]
    well_defined: bool
    point_preserved: bool
    injective: bool
    surjective: bool
    failure: str | None

    @property
    def bijective(self) -> bool:
        return (
            self.well_defined
            and self.point_preserved
            and self.injective
            and self.surjective
        )

    def to_json(self) -> dict:
        return {
            "shared_primes": list(self.shared_primes),
            "h1_size": self.h1_full.size,
            "local_fixed_sizes": [len(b.fixed) for b in self.blocks],
            "forward": [list(t) for t in self.forward],
            "bijective": self.bijective,
            "failure": self.failure,
        }


def decomposition_map(action: ActionOnGroup,
                      budget: int = GENERATOR_ENUM_BUDGET) -> DecompositionReport:
    """Restrict classes of H1(J, N) to every shared-prime Sylow subgroup and
    check the product map onto the fixed local classes is a pointed bijection.

    Any failure here falsifies the decomposition for this instance and
    signals an implementation bug; the report carries a witness.
    """
    J, N = action.actor, action.target
    if not is_nilpotent(J) or not is_nilpotent(N):
        raise NotNilpotent("decomposition requires nilpotent actor and target")
    primes = shared_primes(action)
    blocks = []
    for p in primes:
        Jp = sylow_subgroup(J, p)
        hall = hall_pprime(J, p)
        local = h1(action, Jp, budget=budget)
        blocks.append(PrimeBlock(p, Jp, hall, local, fixed_classes(local, hall)))
    Hfull = h1(action, budget=budget)
    failure = None
    well_defined = True
    forward: list[tuple[int, ...]] = []
    # Hfull's domain is J itself, so a value table is indexed by element.
    fixed = [set(b.fixed) for b in blocks]
    for i, cls in enumerate(Hfull.classes):
        images = {
            tuple(b.h1_local.class_of(tuple(c.values[x] for x in b.sylow.elements))
                  for b in blocks)
            for c in cls
        }
        if len(images) != 1:
            well_defined = False
            failure = failure or f"class {i} restricts to multiple local class tuples"
        image = min(images)
        for b, b_fixed, local_class in zip(blocks, fixed, image):
            if local_class not in b_fixed:
                failure = failure or (
                    f"class {i} restricts at p={b.prime} to class {local_class}, "
                    "which the Hall subgroup does not fix"
                )
        forward.append(image)
    point = tuple(b.h1_local.distinguished for b in blocks)
    point_preserved = forward[Hfull.distinguished] == point
    if not point_preserved:
        failure = failure or "distinguished class does not map to the distinguished tuple"
    injective = len(set(forward)) == len(forward)
    if not injective:
        failure = failure or "two classes restrict to the same local tuple"
    full_target = set(product(*[b.fixed for b in blocks])) if blocks else {()}
    surjective = set(forward) == full_target
    if not surjective and failure is None:
        missing = sorted(full_target - set(forward))[0]
        failure = f"fixed local tuple {missing} has no preimage"
    return DecompositionReport(
        shared_primes=primes,
        blocks=tuple(blocks),
        h1_full=Hfull,
        forward=tuple(forward),
        well_defined=well_defined,
        point_preserved=point_preserved,
        injective=injective,
        surjective=surjective,
        failure=failure,
    )


def primary_product_check(action: ActionOnGroup,
                          budget: int = GENERATOR_ENUM_BUDGET) -> tuple[bool, str | None]:
    """Check that projections to the N_q induce a bijection of H1(J, N) with
    the product over shared primes, and that other primes contribute trivially."""
    N = action.target
    if not is_nilpotent(N) or not is_nilpotent(action.actor):
        raise NotNilpotent("primary product check requires nilpotent groups")
    shared = set(shared_primes(action))
    maps = []
    for q in prime_factors(N.order):
        _, cmap = project_to_primary(action, q, budget=budget)
        if q in shared:
            maps.append(cmap)
        elif cmap.target.size != 1:
            return False, f"prime {q} outside the shared set has a nontrivial H1"
    src = h1(action, budget=budget)
    tuples = [tuple(m.table[i] for m in maps) for i in range(src.size)]
    if len(set(tuples)) != len(tuples):
        return False, "product of primary projections is not injective"
    target = set(product(*[range(m.target.size) for m in maps])) if maps else {()}
    if set(tuples) != target:
        return False, "product of primary projections is not surjective"
    return True, None


# -- abelian cross-check -----------------------------------------------------------


class AbelianH1:
    """H1 with its abelian group structure (pointwise class product).

    A product of classes is the class of the pointwise product of their
    representatives; each one is computed when asked for.
    """

    def __init__(self, H: CohomologySet):
        N = H.action.target
        if not N.is_abelian():
            raise NotAbelian("class products need an abelian coefficient group")
        self.h1 = H
        self.identity = H.distinguished

    @property
    def order(self) -> int:
        return self.h1.size

    def _times(self, values: tuple[int, ...], i: int) -> tuple[int, ...]:
        """The pointwise product of a cocycle's values with class i's representative."""
        mul = self.h1.action.target.mul
        return tuple(mul[a][b] for a, b in zip(values, self.h1.rep(i).values))

    def multiply(self, i: int, k: int) -> int:
        return self.h1.class_of(self._times(self.h1.rep(i).values, k))

    def class_order(self, i: int) -> int:
        """The least k >= 1 with i^k the identity class, by walking the powers
        of class i's representative."""
        values, k = self.h1.rep(i).values, 1
        while self.h1.class_of(values) != self.identity:
            values = self._times(values, i)
            k += 1
        return k

    def primary_parts(self, p: int) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.order) if is_p_power(self.class_order(i), p)
        )


def abelian_h1_group(action: ActionOnGroup, K: Subgroup | None = None,
                     budget: int = GENERATOR_ENUM_BUDGET) -> AbelianH1:
    """H1(K, N) as an abelian group; the actor need not be nilpotent."""
    return AbelianH1(h1(action, K, budget=budget))


@dataclass(frozen=True)
class Eq3Report:
    """Abelian primary decomposition: the product over shared primes of
    J-invariant local classes recovers H1(J, N), via restriction maps that are
    bijections from the p-primary components."""

    shared_primes: tuple[int, ...]
    h1_order: int
    invariant_sizes: tuple[int, ...]
    product_matches: bool
    restrictions_bijective: bool
    failure: str | None

    @property
    def ok(self) -> bool:
        return self.product_matches and self.restrictions_bijective

    def to_json(self) -> dict:
        return {
            "shared_primes": list(self.shared_primes),
            "h1_order": self.h1_order,
            "invariant_sizes": list(self.invariant_sizes),
            "ok": self.ok,
            "failure": self.failure,
        }


def eq3_check(action: ActionOnGroup, budget: int = GENERATOR_ENUM_BUDGET) -> Eq3Report:
    """Verify the abelian primary decomposition of H1(J, N) for abelian N.

    For each shared prime p: the p-primary component of H1(J, N) must
    restrict bijectively onto the J-invariant classes of H1(J_p, N), and the
    invariant class counts must multiply to |H1(J, N)|.
    """
    N = action.target
    if not N.is_abelian():
        raise NotAbelian("the abelian cross-check needs an abelian target")
    J = action.actor
    ab = abelian_h1_group(action, budget=budget)
    primes = shared_primes(action)
    inv_sizes = []
    failure = None
    restrictions_ok = True
    for p in primes:
        Jp = sylow_subgroup(J, p)
        local = h1(action, Jp, budget=budget)
        inv = invariant_classes(local, budget=budget)
        inv_sizes.append(len(inv))
        primary = ab.primary_parts(p)
        images = [local.class_of(restrict(ab.h1.rep(i), Jp)) for i in primary]
        if len(set(images)) != len(images):
            restrictions_ok = False
            failure = failure or f"restriction at p={p} is not injective on the primary part"
        elif set(images) != set(inv):
            restrictions_ok = False
            failure = failure or (
                f"restriction at p={p} does not map the primary part onto the "
                "invariant classes"
            )
    expected = 1
    for s in inv_sizes:
        expected *= s
    product_matches = ab.order == expected
    if not product_matches:
        failure = failure or (
            f"|H1| = {ab.order} but invariant class counts multiply to {expected}"
        )
    return Eq3Report(
        shared_primes=primes,
        h1_order=ab.order,
        invariant_sizes=tuple(inv_sizes),
        product_matches=product_matches,
        restrictions_bijective=restrictions_ok,
        failure=failure,
    )
