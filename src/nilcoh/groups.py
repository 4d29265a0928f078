"""Finite groups as dense multiplication tables with 0-based element indices.

Every group lives on elements 0..order-1 with index 0 the identity; all
higher-level algorithms are table-driven scans.  Conjugation is g^y = y' g y
(inverse on the left), and all values are immutable once validated.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NoIdentity, NoInverse, NotAssociative, NotNormal, OrderCapExceeded

DEFAULT_ORDER_CAP = 2048


class Group:
    """A finite group given by its full multiplication table.

    The table is validated at construction, in this order: a two-sided
    identity at index 0; associativity by Light's test on the generators
    `gens` (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961),
    which is a proof over all triples, not a sample; two-sided inverses.

    `gens` is the greedy generating sequence of the elements in index order,
    found by right multiplication from the identity.  A map f with
    f(x*g) = f(x)f(g) for every x and every g in gens, and f(0) the identity,
    is a homomorphism: induction on the length of y as a word in gens gives
    f(x*y) = f(x)f(y).  Every homomorphism check in the package tests only
    these (element, generator) pairs; Light's test is the same lemma for the
    left translations x -> (y -> x*y).
    """

    __slots__ = ("order", "mul", "inv", "gens", "name")

    def __init__(self, mul: Sequence[Sequence[int]], name: str | None = None):
        table = tuple(tuple(map(int, row)) for row in mul)
        n = _check_table_shape(table)
        if any(table[0][x] != x or table[x][0] != x for x in range(n)):
            raise NoIdentity("index 0 is not a two-sided identity")
        self.order = n
        self.mul = table
        # Every element is a left-normed product of gens, which is all that
        # Light's lemma needs: the a with (x*a)*y = x*(a*y) for all x, y are
        # closed under products.
        self.gens = tuple(generating_sequence(self, range(n)))
        for g in self.gens:
            right = table[g]
            for x, row in enumerate(table):
                if table[row[g]] != compose(row, right):
                    y = next(y for y in range(n) if table[row[g]][y] != row[right[y]])
                    raise NotAssociative(x, g, y)
        for a, row in enumerate(table):
            if 0 not in row or table[row.index(0)][a] != 0:
                raise NoInverse(a)
        self.inv = tuple(row.index(0) for row in table)
        self.name = name

    def elements(self) -> range:
        return range(self.order)

    def conj(self, g: int, by: int) -> int:
        """g^by = by' * g * by."""
        row = self.mul[self.inv[by]]
        return self.mul[row[g]][by]

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a' b' a b."""
        t = self.mul[self.inv[a]][self.inv[b]]
        return self.mul[self.mul[t][a]][b]

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.mul[x][a]
            k += 1
        return k

    def power(self, a: int, k: int) -> int:
        k %= self.element_order(a)
        x = 0
        for _ in range(k):
            x = self.mul[x][a]
        return x

    def is_abelian(self) -> bool:
        gens, mul = self.gens, self.mul
        return all(mul[a][b] == mul[b][a] for i, a in enumerate(gens) for b in gens[i + 1:])

    def same_table(self, other: "Group") -> bool:
        return self.order == other.order and self.mul == other.mul

    def __repr__(self) -> str:
        tag = self.name or "Group"
        return f"<{tag} of order {self.order}>"

    def to_json(self) -> dict:
        return {"kind": "table", "n": self.order, "mul": [list(row) for row in self.mul]}


def _check_table_shape(table: Sequence[Sequence[int]]) -> int:
    """The order of a square table whose entries all lie in [0, order)."""
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            x = next(x for x in row if not 0 <= x < n)
            raise ValueError(f"table entry {x} out of range [0, {n - 1}]")
    return n


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """p after q: the tuple whose entry i is p[q[i]]."""
    return tuple(map(p.__getitem__, q))


class Subgroup:
    """A validated subset of a parent group, closed under product and inverse."""

    __slots__ = ("parent", "elements", "_set", "_pos", "_gens")

    def __init__(self, parent: Group, elements: Iterable[int]):
        elts = tuple(sorted({int(x) for x in elements}))
        if not elts or elts[0] != 0:
            raise ValueError("subgroup must contain the identity (index 0)")
        if elts[-1] >= parent.order:
            raise ValueError(f"element {elts[-1]} outside parent of order {parent.order}")
        members = frozenset(elts)
        mul = parent.mul
        for a in elts:
            if parent.inv[a] not in members:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in elts:
                if mul[a][b] not in members:
                    raise ValueError(f"subgroup not closed under product at ({a}, {b})")
        if parent.order % len(elts) != 0:
            raise ValueError("subgroup order does not divide parent order")
        self.parent = parent
        self.elements = elts
        self._set = members
        self._pos = {x: i for i, x in enumerate(elts)}
        self._gens: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def gens(self) -> tuple[int, ...]:
        """The greedy generating sequence of the elements in index order,
        computed on first use and kept."""
        if self._gens is None:
            self._gens = tuple(generating_sequence(self.parent, self.elements))
        return self._gens

    def __contains__(self, x: int) -> bool:
        return x in self._set

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"<Subgroup of order {self.order} in {self.parent!r}>"

    def position(self, x: int) -> int:
        """Index of parent element x within this subgroup's element list."""
        return self._pos[x]

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def is_whole_group(self) -> bool:
        return len(self.elements) == self.parent.order

    def conjugate_by(self, g: int) -> "Subgroup":
        """The subgroup {h^g : h in H} for h^g = g' h g."""
        G = self.parent
        return Subgroup(G, (G.conj(h, g) for h in self.elements))

    def is_normal(self) -> bool:
        G = self.parent
        return all(G.conj(h, g) in self._set for g in G.gens for h in self.elements)

    def as_group(self) -> tuple[Group, tuple[int, ...]]:
        """Re-index this subgroup as a standalone Group.

        Returns the group together with the map new-index -> parent-index.
        Parent identity 0 is the least element, so it lands at new index 0.
        """
        elts = self.elements
        pos = self._pos
        mul = self.parent.mul
        return Group([[pos[mul[a][b]] for b in elts] for a in elts]), elts

    def to_json(self) -> list[int]:
        return list(self.elements)


class GroupHom:
    """A homomorphism between table groups, stored as a per-element image list.

    Checked on (element, generator) pairs, which suffices by the lemma on
    `Group.gens`.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Group, target: Group, images: Sequence[int]):
        imgs = tuple(int(x) for x in images)
        if len(imgs) != source.order:
            raise ValueError("image list length does not match source order")
        if any(not 0 <= x < target.order for x in imgs):
            raise ValueError("image outside target group")
        if imgs[0] != 0:
            raise ValueError("homomorphism must send identity to identity")
        smul, tmul = source.mul, target.mul
        for a in range(source.order):
            for g in source.gens:
                if imgs[smul[a][g]] != tmul[imgs[a]][imgs[g]]:
                    raise ValueError(f"not a homomorphism at pair ({a}, {g})")
        self.source = source
        self.target = target
        self.images = imgs

    def __call__(self, x: int) -> int:
        return self.images[x]

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, (x for x in range(self.source.order) if self.images[x] == 0))

    def image(self) -> Subgroup:
        return Subgroup(self.target, set(self.images))

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order


# -- constructors --------------------------------------------------------------


def group_from_table(table: Sequence[Sequence[int]], name: str | None = None) -> Group:
    """Validate a raw multiplication table and canonicalize the identity to 0."""
    rows = [list(int(x) for x in row) for row in table]
    n = _check_table_shape(rows)
    e = next(
        (c for c in range(n) if all(rows[c][x] == x and rows[x][c] == x for x in range(n))),
        None,
    )
    if e is None:
        raise NoIdentity("no two-sided identity element")
    if e != 0:
        # Swap labels 0 and e.
        sigma = list(range(n))
        sigma[0], sigma[e] = e, 0
        rows = [[sigma[rows[sigma[a]][sigma[b]]] for b in range(n)] for a in range(n)]
    return Group(rows, name=name)


def group_from_permutations(
    generators: Sequence[Sequence[int]],
    degree: int | None = None,
    order_cap: int = DEFAULT_ORDER_CAP,
    name: str | None = None,
) -> Group:
    """Closure of a set of permutations under composition, as a table group.

    Permutations act on points 0..degree-1; the product p*q acts by
    (p*q)(i) = p(q(i)).  Raises OrderCapExceeded if the closure grows past
    order_cap.  Elements are indexed in sorted order, so the identity is 0.

    The breadth-first closure forms p*g for every element p and generator g:
    these are the right multiplications R_g by the generators, and the first
    time an element q is reached, as p*g, is an edge of a spanning tree.
    Column q of the table is x -> x*q = R_g(x*p), so it is R_g after column
    p, and the table costs |G| compositions of length |G| instead of |G|^2
    of length degree.
    """
    gens = [tuple(int(x) for x in p) for p in generators]
    if degree is None:
        degree = len(gens[0]) if gens else 0
    for p in gens:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise ValueError(f"{p} is not a permutation of 0..{degree - 1}")
    # Elements by discovery position: the queue of the breadth-first search.
    perms = [tuple(range(degree))]
    found = {perms[0]: 0}
    tree: list[tuple[int, int]] = []       # (position of p, slot of g) reaching q = p*g
    right = [[] for _ in gens]             # right[slot][d] = position of perms[d] * g
    for d, p in enumerate(perms):          # perms grows while it is walked
        for slot, g in enumerate(gens):
            q = compose(p, g)
            k = found.get(q)
            if k is None:
                if len(perms) >= order_cap:
                    raise OrderCapExceeded(f"closure exceeds cap {order_cap}")
                k = found[q] = len(perms)
                perms.append(q)
                tree.append((d, slot))
            right[slot].append(k)
    # Relabel by sorted position; the identity is lexicographically least.
    n = len(perms)
    by_rank = sorted(range(n), key=perms.__getitem__)
    rank = [0] * n
    for i, d in enumerate(by_rank):
        rank[d] = i
    right_sorted = [compose(rank, compose(r, by_rank)) for r in right]
    cols: list[tuple[int, ...]] = [tuple(range(n))] * n
    for k, (d, slot) in enumerate(tree, start=1):
        cols[rank[k]] = compose(right_sorted[slot], cols[rank[d]])
    return Group(list(zip(*cols)), name=name)


def subgroup_generated(G: Group, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the seed elements."""
    gens = sorted({int(x) for x in seeds})
    for x in gens:
        if not 0 <= x < G.order:
            raise ValueError(f"seed {x} outside group of order {G.order}")
    return Subgroup(G, [0] + [y for _, _, y in cayley_tree(G, gens)])


def cayley_tree(G: Group, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """Breadth-first spanning tree of the right Cayley graph of <gens>.

    Rooted at the identity; each edge (x, slot, y) has y = x * gens[slot] and
    reaches y for the first time, so the identity and the edge heads list the
    subgroup generated, each element once, in discovery order.
    """
    mul = G.mul
    edges: list[tuple[int, int, int]] = []
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = mul[x]
            for slot, g in enumerate(gens):
                y = row[g]
                if y not in reached:
                    reached.add(y)
                    edges.append((x, slot, y))
                    nxt.append(y)
        frontier = nxt
    return edges


def generating_sequence(G: Group, elements: Iterable[int]) -> list[int]:
    """Greedy generating sequence: each element, in the order given, that the
    elements chosen before it do not generate."""
    gens: list[int] = []
    reached = {0}
    for x in elements:
        if x not in reached:
            gens.append(x)
            reached = {0, *(y for _, _, y in cayley_tree(G, gens))}
    return gens


def full_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, range(G.order))


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, (0,))


# -- classical constructions ----------------------------------------------------


def center(G: Group) -> Subgroup:
    """Elements commuting with every generator, hence with everything."""
    mul = G.mul
    return Subgroup(
        G, (z for z in range(G.order) if all(mul[z][g] == mul[g][z] for g in G.gens))
    )


def centralizer(G: Group, H: Subgroup) -> Subgroup:
    mul = G.mul
    return Subgroup(
        G,
        (g for g in range(G.order) if all(mul[g][h] == mul[h][g] for h in H.elements)),
    )


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    return Subgroup(G, (g for g in range(G.order) if conjugates_into(G, H, H, g)))


def coset_representatives(G: Group, H: Subgroup) -> tuple[list[int], dict[int, int]]:
    """The least element of each left coset gH, ascending, and a map from
    every element to the least element of its coset."""
    mul = G.mul
    reps: list[int] = []
    rep_of: dict[int, int] = {}
    for g in range(G.order):
        if g not in rep_of:  # every smaller element of gH is already mapped
            reps.append(g)
            for h in H.elements:
                rep_of[mul[g][h]] = g
    return reps, rep_of


def quotient(G: Group, N: Subgroup) -> tuple[Group, GroupHom]:
    """Quotient group G/N on sorted coset representatives, with the projection.

    Raises NotNormal (with a witnessing pair) when N is not normal in G.
    """
    for g in G.gens:
        for h in N.elements:
            if G.conj(h, g) not in N:
                raise NotNormal(g, h)
    mul = G.mul
    reps, coset_rep = coset_representatives(G, N)
    index = {rep: i for i, rep in enumerate(reps)}
    table = [[index[coset_rep[mul[a][b]]] for b in reps] for a in reps]
    Q = Group(table, name=(f"{G.name}/N" if G.name else None))
    pi = GroupHom(G, Q, [index[coset_rep[g]] for g in range(G.order)])
    return Q, pi


def are_conjugate_subgroups(G: Group, H: Subgroup, K: Subgroup) -> int | None:
    """Least g with H^g = K, or None if the subgroups are not conjugate."""
    if H.parent is not G or K.parent is not G:
        raise ValueError("subgroups must share the given parent group")
    if H.order != K.order:
        return None
    return conjugator_into(G, H, K)


def conjugates_into(G: Group, S: Subgroup, H: Subgroup, g: int) -> bool:
    """Whether S^g is contained in H."""
    mul, members = G.mul, H._set
    row = mul[G.inv[g]]
    return all(mul[row[x]][g] in members for x in S.elements)


def conjugator_into(G: Group, S: Subgroup, H: Subgroup) -> int | None:
    """Least g with S^g contained in H, or None."""
    return next((g for g in range(G.order) if conjugates_into(G, S, H, g)), None)
